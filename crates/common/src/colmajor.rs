//! Column-major training view of a [`FeatureMatrix`].
//!
//! The decision-tree trainer scans one feature column at a time: a
//! row-major layout makes every column read stride by `cols` elements, so
//! a scan over a large candidate set touches one cache line per value.
//! [`ColMajorMatrix`] transposes the matrix once (cache-blocked, so both
//! the read and the write side move mostly along cache lines) and then
//! hands out each feature column as a contiguous slice.

use crate::{FeatureMatrix, Result};

/// Tile edge of the blocked transpose: 32×32 `f64` tiles (8 KiB read +
/// 8 KiB written) stay resident in L1 while both sides of the copy move
/// along full cache lines.
const TILE: usize = 32;

/// Cache-blocked out-of-place transpose of a row-major `rows × cols`
/// buffer: `dst[j * rows + i] = src[i * cols + j]`.
///
/// # Panics
/// Panics when either buffer's length is not `rows * cols`.
pub fn transpose_blocked(src: &[f64], rows: usize, cols: usize, dst: &mut [f64]) {
    assert_eq!(src.len(), rows * cols, "source buffer shape mismatch");
    assert_eq!(dst.len(), rows * cols, "destination buffer shape mismatch");
    for i0 in (0..rows).step_by(TILE) {
        let i1 = (i0 + TILE).min(rows);
        for j0 in (0..cols).step_by(TILE) {
            let j1 = (j0 + TILE).min(cols);
            for i in i0..i1 {
                for j in j0..j1 {
                    dst[j * rows + i] = src[i * cols + j];
                }
            }
        }
    }
}

/// Column-major copy of a [`FeatureMatrix`]: [`ColMajorMatrix::col`] is a
/// contiguous slice, which is what per-feature split scans want.
#[derive(Debug, Clone, PartialEq)]
pub struct ColMajorMatrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl ColMajorMatrix {
    /// Transpose `m` into column-major order.
    pub fn from_matrix(m: &FeatureMatrix) -> Self {
        let (rows, cols) = (m.rows(), m.cols());
        let mut data = vec![0.0; rows * cols];
        transpose_blocked(m.as_slice(), rows, cols, &mut data);
        ColMajorMatrix { data, rows, cols }
    }

    /// Transpose back into a row-major [`FeatureMatrix`] (cache-blocked,
    /// like the forward direction).
    ///
    /// # Errors
    /// Propagates [`FeatureMatrix::from_rows`] validation (cannot fail for
    /// a well-formed `ColMajorMatrix`).
    pub fn to_feature_matrix(&self) -> Result<FeatureMatrix> {
        let mut out = vec![0.0; self.rows * self.cols];
        // `data` is a row-major `cols × rows` buffer; transposing it yields
        // the row-major `rows × cols` layout.
        transpose_blocked(&self.data, self.cols, self.rows, &mut out);
        FeatureMatrix::from_rows(out, self.rows, self.cols)
    }

    /// Number of rows of the original matrix.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of feature columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Feature column `j` as a contiguous slice of length [`Self::rows`].
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        debug_assert!(j < self.cols);
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// The value at `(row, col)` — same as `FeatureMatrix::row(i)[j]`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.rows + i]
    }
}

impl From<&FeatureMatrix> for ColMajorMatrix {
    fn from(m: &FeatureMatrix) -> Self {
        ColMajorMatrix::from_matrix(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_small_matrix() {
        let m = FeatureMatrix::from_vecs(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let c = ColMajorMatrix::from_matrix(&m);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 3);
        assert_eq!(c.col(0), &[1.0, 4.0]);
        assert_eq!(c.col(1), &[2.0, 5.0]);
        assert_eq!(c.col(2), &[3.0, 6.0]);
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(c.get(i, j), m.row(i)[j]);
            }
        }
    }

    #[test]
    fn blocked_transpose_matches_naive_beyond_one_tile() {
        // Shapes straddling tile boundaries: exact multiples, remainders,
        // and degenerate single-row/column cases.
        for (rows, cols) in [(1, 1), (1, 7), (7, 1), (32, 32), (33, 31), (70, 5), (5, 70)] {
            let src: Vec<f64> = (0..rows * cols).map(|k| k as f64 * 0.5 - 3.0).collect();
            let mut dst = vec![0.0; rows * cols];
            transpose_blocked(&src, rows, cols, &mut dst);
            for i in 0..rows {
                for j in 0..cols {
                    assert_eq!(dst[j * rows + i], src[i * cols + j], "({rows}x{cols}) at {i},{j}");
                }
            }
        }
    }

    #[test]
    fn round_trip_through_feature_matrix() {
        for (rows, cols) in [(1, 1), (3, 5), (40, 3), (33, 34)] {
            let data: Vec<f64> = (0..rows * cols).map(|k| k as f64 * 0.25 - 2.0).collect();
            let m = FeatureMatrix::from_rows(data, rows, cols).unwrap();
            let back = ColMajorMatrix::from_matrix(&m).to_feature_matrix().unwrap();
            assert_eq!(back, m, "{rows}x{cols}");
        }
    }

    #[test]
    fn from_ref_conversion() {
        let m = FeatureMatrix::from_vecs(&[vec![0.25, 0.75]]).unwrap();
        let c: ColMajorMatrix = (&m).into();
        assert_eq!(c.col(1), &[0.75]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn transpose_rejects_bad_buffers() {
        let mut dst = vec![0.0; 5];
        transpose_blocked(&[1.0, 2.0], 1, 2, &mut dst);
    }
}
