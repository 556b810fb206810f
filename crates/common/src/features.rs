//! The feature matrix produced by the record-pair comparison step.
//!
//! Each row is the `m`-dimensional feature vector `x_ij` of one candidate
//! record pair `(r_i, r_j)`; feature `q` is the similarity
//! `sim_a(r_i.v_q, r_j.v_q)` of attribute `q`, always in `[0, 1]`.

use crate::{Error, Result};

/// Row-major dense matrix of per-pair similarity features.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureMatrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl FeatureMatrix {
    /// Create a matrix from row-major data.
    ///
    /// # Errors
    /// Returns [`Error::DimensionMismatch`] when `data.len() != rows * cols`.
    pub fn from_rows(data: Vec<f64>, rows: usize, cols: usize) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(Error::DimensionMismatch {
                what: "feature matrix buffer",
                left: data.len(),
                right: rows * cols,
            });
        }
        Ok(FeatureMatrix { data, rows, cols })
    }

    /// Create an empty matrix with `cols` columns and zero rows.
    pub fn empty(cols: usize) -> Self {
        FeatureMatrix { data: Vec::new(), rows: 0, cols }
    }

    /// Create a matrix from a slice of equal-length row vectors.
    ///
    /// # Errors
    /// Returns [`Error::EmptyInput`] for an empty slice and
    /// [`Error::DimensionMismatch`] for ragged rows.
    pub fn from_vecs(rows: &[Vec<f64>]) -> Result<Self> {
        let first = rows.first().ok_or(Error::EmptyInput("feature rows"))?;
        let cols = first.len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            if row.len() != cols {
                return Err(Error::DimensionMismatch {
                    what: "feature row length",
                    left: row.len(),
                    right: cols,
                });
            }
            data.extend_from_slice(row);
        }
        Ok(FeatureMatrix { data, rows: rows.len(), cols })
    }

    /// Number of rows (record pairs), `n = |B|`.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of feature columns, `m`.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True when the matrix has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The feature vector of pair `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Iterate over all rows: [`rows`](Self::rows) slices, empty ones for
    /// a zero-column matrix.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> + '_ {
        (0..self.rows).map(move |i| &self.data[i * self.cols..(i + 1) * self.cols])
    }

    /// Append one row.
    ///
    /// # Panics
    /// Panics when `row.len() != self.cols()`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "row length must equal column count");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Raw row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw row-major buffer. Values may be overwritten but the
    /// shape is fixed; used by the `transer-robust` fault-injection
    /// harness to corrupt matrices in place.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Drop all rows past `rows`, keeping the column count. A no-op when
    /// the matrix already has `rows` rows or fewer.
    pub fn truncate_rows(&mut self, rows: usize) {
        if rows < self.rows {
            self.data.truncate(rows * self.cols);
            self.rows = rows;
        }
    }

    /// Build a new matrix keeping only the rows at `indices` (in order).
    pub fn select_rows(&self, indices: &[usize]) -> FeatureMatrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        FeatureMatrix { data, rows: indices.len(), cols: self.cols }
    }

    /// Mean of each column; `None` when the matrix is empty.
    pub fn column_means(&self) -> Option<Vec<f64>> {
        if self.rows == 0 {
            return None;
        }
        let mut means = vec![0.0; self.cols];
        for row in self.iter_rows() {
            for (m, &v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        let n = self.rows as f64;
        for m in &mut means {
            *m /= n;
        }
        Some(means)
    }

    /// Mean feature value of each row (used for the Fig. 2 distributions).
    pub fn row_means(&self) -> Vec<f64> {
        if self.cols == 0 {
            return vec![0.0; self.rows];
        }
        self.iter_rows().map(|r| r.iter().sum::<f64>() / self.cols as f64).collect()
    }

    /// Round every value to `decimals` decimal places; the paper rounds
    /// feature vectors to two decimals when computing Table 1 statistics.
    pub fn rounded(&self, decimals: u32) -> FeatureMatrix {
        let scale = 10f64.powi(decimals as i32);
        let data = self.data.iter().map(|v| (v * scale).round() / scale).collect();
        FeatureMatrix { data, rows: self.rows, cols: self.cols }
    }

    /// A stable, hashable key for row `i` after rounding to `decimals`
    /// decimal places. Two rows with equal keys are "the same feature
    /// vector" in the sense of Table 1.
    pub fn row_key(&self, i: usize, decimals: u32) -> Vec<i64> {
        let scale = 10f64.powi(decimals as i32);
        self.row(i).iter().map(|v| (v * scale).round() as i64).collect()
    }

    /// Vertically stack two matrices with equal column counts.
    ///
    /// # Errors
    /// Returns [`Error::DimensionMismatch`] when the column counts differ.
    pub fn vstack(&self, other: &FeatureMatrix) -> Result<FeatureMatrix> {
        if self.cols != other.cols {
            return Err(Error::DimensionMismatch {
                what: "feature columns",
                left: self.cols,
                right: other.cols,
            });
        }
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Ok(FeatureMatrix { data, rows: self.rows + other.rows, cols: self.cols })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> FeatureMatrix {
        FeatureMatrix::from_vecs(&[vec![1.0, 0.0], vec![0.5, 0.5], vec![0.0, 1.0]]).unwrap()
    }

    #[test]
    fn construction_and_access() {
        let m = m();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.row(1), &[0.5, 0.5]);
        assert_eq!(m.iter_rows().count(), 3);
    }

    #[test]
    fn zero_column_rows_are_iterated() {
        let m = FeatureMatrix::from_rows(Vec::new(), 100, 0).unwrap();
        assert_eq!(m.rows(), 100);
        assert_eq!(m.iter_rows().count(), m.rows());
        assert!(m.iter_rows().all(<[f64]>::is_empty));
    }

    #[test]
    fn bad_buffer_rejected() {
        assert!(FeatureMatrix::from_rows(vec![1.0; 5], 2, 3).is_err());
        assert!(FeatureMatrix::from_vecs(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(FeatureMatrix::from_vecs(&[]).is_err());
    }

    #[test]
    fn push_and_select() {
        let mut m = FeatureMatrix::empty(2);
        assert!(m.is_empty());
        m.push_row(&[0.1, 0.2]);
        m.push_row(&[0.3, 0.4]);
        m.push_row(&[0.5, 0.6]);
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.row(0), &[0.5, 0.6]);
        assert_eq!(s.row(1), &[0.1, 0.2]);
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn push_wrong_width_panics() {
        let mut m = FeatureMatrix::empty(2);
        m.push_row(&[0.1]);
    }

    #[test]
    fn truncate_and_mutate() {
        let mut m = m();
        m.truncate_rows(5); // no-op past the end
        assert_eq!(m.rows(), 3);
        m.as_mut_slice()[0] = f64::NAN;
        assert!(m.row(0)[0].is_nan());
        m.truncate_rows(1);
        assert_eq!(m.rows(), 1);
        assert_eq!(m.cols(), 2);
        m.truncate_rows(0);
        assert!(m.is_empty());
        assert_eq!(m.cols(), 2);
    }

    #[test]
    fn means() {
        let m = m();
        assert_eq!(m.column_means().unwrap(), vec![0.5, 0.5]);
        assert_eq!(m.row_means(), vec![0.5, 0.5, 0.5]);
        assert!(FeatureMatrix::empty(3).column_means().is_none());
    }

    #[test]
    fn rounding_and_keys() {
        let m = FeatureMatrix::from_vecs(&[vec![0.123, 0.987], vec![0.12, 0.99]]).unwrap();
        let r = m.rounded(2);
        assert_eq!(r.row(0), &[0.12, 0.99]);
        assert_eq!(m.row_key(0, 2), m.row_key(1, 2));
        assert_ne!(m.row_key(0, 3), m.row_key(1, 3));
    }

    #[test]
    fn vstack_checks_columns() {
        let a = m();
        let b = m();
        let c = a.vstack(&b).unwrap();
        assert_eq!(c.rows(), 6);
        assert_eq!(c.row(4), &[0.5, 0.5]);
        let bad = FeatureMatrix::empty(3);
        assert!(a.vstack(&bad).is_err());
    }

    #[test]
    fn sq_dist_basics() {
        assert_eq!(crate::sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(crate::sq_dist(&[1.0], &[1.0]), 0.0);
    }
}
