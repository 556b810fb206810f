//! Deterministic interning: rows of duplicated feature matrices
//! ([`RowInterning`]) and short strings ([`StrInterner`]).
//!
//! ER feature matrices are massively duplicated: many candidate record
//! pairs round to the same similarity vector, so the same point is indexed
//! and queried thousands of times by the SEL phase. [`RowInterning`]
//! collapses a [`FeatureMatrix`] to its distinct rows once, recording for
//! every original row which unique row it maps to and, for every unique
//! row, the ascending list of original rows that share it. Downstream
//! consumers (the duplicate-aware k-NN engine in `transer-knn`) do their
//! O(n·m) work per *unique* row and broadcast results back.
//!
//! Rows are compared by their exact f64 bit patterns, so the unique matrix
//! rows are bitwise copies of their first occurrences and every member of a
//! group is bitwise equal to its unique representative. (`0.0` and `-0.0`
//! therefore land in *different* groups despite comparing numerically
//! equal; consumers that care about numeric ties handle them through
//! distance classes, not through the interning.)

use std::collections::hash_map::{Entry, HashMap};
use std::hash::{Hash, Hasher};

use crate::hash::MulRotBuild;
use crate::FeatureMatrix;

/// A row borrowed from the matrix being interned, hashed and compared by
/// its cells' bit patterns (so `0.0` and `-0.0` differ, and NaNs group by
/// sign and payload).
struct RowBits<'a>(&'a [f64]);

impl PartialEq for RowBits<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0.len() == other.0.len()
            && self.0.iter().zip(other.0).all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl Eq for RowBits<'_> {}

impl Hash for RowBits<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for v in self.0 {
            state.write_u64(v.to_bits());
        }
    }
}

/// The result of deduplicating the rows of a [`FeatureMatrix`].
///
/// Invariants, relied upon by the k-NN engine:
///
/// * `unique.row(to_unique[i])` is bitwise equal to the original row `i`;
/// * unique rows are numbered in order of first occurrence (deterministic);
/// * `members(u)` lists the original rows of group `u` in ascending order
///   and the groups partition `0..original_rows()`.
#[derive(Debug, Clone, PartialEq)]
pub struct RowInterning {
    unique: FeatureMatrix,
    to_unique: Vec<u32>,
    /// CSR offsets into `members`, length `unique.rows() + 1`.
    offsets: Vec<u32>,
    /// Original row indices grouped by unique row, ascending within group.
    members: Vec<u32>,
}

impl RowInterning {
    /// Intern the rows of `matrix`.
    ///
    /// # Panics
    /// Panics when the matrix has more than `u32::MAX` rows (the engine
    /// stores row indices as `u32`, like the k-d tree).
    pub fn of(matrix: &FeatureMatrix) -> Self {
        let n = matrix.rows();
        assert!(n <= u32::MAX as usize, "row interning supports at most u32::MAX rows");
        let mut map: HashMap<RowBits<'_>, u32> = HashMap::with_capacity(n);
        let mut to_unique = Vec::with_capacity(n);
        let mut unique = FeatureMatrix::empty(matrix.cols());
        for row in matrix.iter_rows() {
            let id = match map.entry(RowBits(row)) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    let id = unique.rows() as u32;
                    unique.push_row(row);
                    e.insert(id);
                    id
                }
            };
            to_unique.push(id);
        }
        // Counting sort: members of each group in ascending original order.
        let nu = unique.rows();
        let mut offsets = vec![0u32; nu + 1];
        for &u in &to_unique {
            offsets[u as usize + 1] += 1;
        }
        for u in 0..nu {
            offsets[u + 1] += offsets[u];
        }
        let mut cursor = offsets.clone();
        let mut members = vec![0u32; n];
        for (i, &u) in to_unique.iter().enumerate() {
            members[cursor[u as usize] as usize] = i as u32;
            cursor[u as usize] += 1;
        }
        RowInterning { unique, to_unique, offsets, members }
    }

    /// The matrix of distinct rows, in order of first occurrence.
    #[inline]
    pub fn unique(&self) -> &FeatureMatrix {
        &self.unique
    }

    /// Number of original rows.
    #[inline]
    pub fn original_rows(&self) -> usize {
        self.to_unique.len()
    }

    /// Number of distinct rows.
    #[inline]
    pub fn unique_rows(&self) -> usize {
        self.unique.rows()
    }

    /// For every original row, the unique row it maps to.
    #[inline]
    pub fn to_unique(&self) -> &[u32] {
        &self.to_unique
    }

    /// The original rows sharing unique row `u`, ascending.
    #[inline]
    pub fn members(&self, u: usize) -> &[u32] {
        &self.members[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// How many original rows share unique row `u`.
    #[inline]
    pub fn multiplicity(&self, u: usize) -> usize {
        (self.offsets[u + 1] - self.offsets[u]) as usize
    }

    /// Per-unique-row multiplicities as a dense vector (the weight input of
    /// the weighted k-NN queries).
    pub fn multiplicities(&self) -> Vec<u32> {
        (0..self.unique_rows()).map(|u| self.multiplicity(u) as u32).collect()
    }

    /// `original_rows / unique_rows` — 1.0 means no duplication; ER
    /// matrices commonly reach 5–100×. Defined as 1.0 for empty matrices.
    pub fn dedup_ratio(&self) -> f64 {
        if self.unique_rows() == 0 {
            1.0
        } else {
            self.original_rows() as f64 / self.unique_rows() as f64
        }
    }
}

/// Deterministic short-string interner: maps each distinct string to a
/// dense `u32` id in order of first appearance. Its map hashes with the
/// fixed [`MulRotHasher`](crate::hash::MulRotHasher): ids follow first
/// appearance whatever the hasher, so only the lookup cost depends on it.
/// The hasher is not keyed, so tokens crafted to collide slow the lookups
/// of the one compare shard that holds them; they cannot change an id or
/// a score.
///
/// The similarity fast kernel uses one interner per compare-run shard to
/// turn token and q-gram profiles into sorted `u32` id slices, so the
/// per-pair set similarities become `O(n + m)` integer merges with no
/// hashing or `String` allocation. Ids are only meaningful *within* one
/// interner: two values may be compared by id iff both were interned by
/// the same instance. Scores derived from ids are id-assignment-agnostic
/// (only equality of ids is ever used), so different interning orders on
/// different shards still yield bit-identical similarities.
#[derive(Debug, Default, Clone)]
pub struct StrInterner {
    map: HashMap<Box<str>, u32, MulRotBuild>,
}

impl StrInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// The id of `s`, assigning the next dense id on first sight.
    ///
    /// # Panics
    /// Panics after `u32::MAX` distinct strings (far beyond any realistic
    /// token vocabulary of one compare shard).
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.map.get(s) {
            return id;
        }
        let len = self.map.len();
        assert!(len < u32::MAX as usize, "interner overflow: u32::MAX distinct strings");
        let id = len as u32;
        self.map.insert(Box::from(s), id);
        id
    }

    /// Number of distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn duplicated() -> FeatureMatrix {
        FeatureMatrix::from_vecs(&[
            vec![0.5, 0.5],
            vec![0.1, 0.9],
            vec![0.5, 0.5],
            vec![0.1, 0.9],
            vec![0.5, 0.5],
            vec![0.7, 0.2],
        ])
        .unwrap()
    }

    #[test]
    fn groups_by_first_occurrence() {
        let it = RowInterning::of(&duplicated());
        assert_eq!(it.original_rows(), 6);
        assert_eq!(it.unique_rows(), 3);
        assert_eq!(it.unique().row(0), &[0.5, 0.5]);
        assert_eq!(it.unique().row(1), &[0.1, 0.9]);
        assert_eq!(it.unique().row(2), &[0.7, 0.2]);
        assert_eq!(it.to_unique(), &[0, 1, 0, 1, 0, 2]);
        assert_eq!(it.members(0), &[0, 2, 4]);
        assert_eq!(it.members(1), &[1, 3]);
        assert_eq!(it.members(2), &[5]);
        assert_eq!(it.multiplicities(), vec![3, 2, 1]);
        assert!((it.dedup_ratio() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn members_partition_rows_and_match_mapping() {
        let it = RowInterning::of(&duplicated());
        let mut seen = vec![false; it.original_rows()];
        for u in 0..it.unique_rows() {
            for &i in it.members(u) {
                assert!(!seen[i as usize], "row {i} in two groups");
                seen[i as usize] = true;
                assert_eq!(it.to_unique()[i as usize] as usize, u);
            }
            assert!(it.members(u).windows(2).all(|w| w[0] < w[1]), "members not ascending");
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn rows_bitwise_equal_to_representatives() {
        let it = RowInterning::of(&duplicated());
        let m = duplicated();
        for i in 0..m.rows() {
            let u = it.to_unique()[i] as usize;
            let a: Vec<u64> = m.row(i).iter().map(|v| v.to_bits()).collect();
            let b: Vec<u64> = it.unique().row(u).iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn all_distinct_is_identity() {
        let m = FeatureMatrix::from_vecs(&[vec![0.1], vec![0.2], vec![0.3]]).unwrap();
        let it = RowInterning::of(&m);
        assert_eq!(it.unique_rows(), 3);
        assert_eq!(it.to_unique(), &[0, 1, 2]);
        assert_eq!(it.dedup_ratio(), 1.0);
    }

    #[test]
    fn empty_matrix() {
        let it = RowInterning::of(&FeatureMatrix::empty(4));
        assert_eq!(it.original_rows(), 0);
        assert_eq!(it.unique_rows(), 0);
        assert_eq!(it.dedup_ratio(), 1.0);
        assert!(it.multiplicities().is_empty());
    }

    #[test]
    fn str_interner_assigns_dense_first_seen_ids() {
        let mut it = StrInterner::new();
        assert!(it.is_empty());
        assert_eq!(it.intern("deep"), 0);
        assert_eq!(it.intern("entity"), 1);
        assert_eq!(it.intern("deep"), 0);
        assert_eq!(it.intern(""), 2);
        assert_eq!(it.intern("entity"), 1);
        assert_eq!(it.len(), 3);
    }

    #[test]
    fn signed_zero_rows_are_distinct_groups() {
        let m = FeatureMatrix::from_vecs(&[vec![0.0], vec![-0.0], vec![0.0]]).unwrap();
        let it = RowInterning::of(&m);
        assert_eq!(it.unique_rows(), 2);
        assert_eq!(it.to_unique(), &[0, 1, 0]);
    }

    #[test]
    fn nan_rows_group_by_bit_pattern() {
        let quiet = f64::NAN;
        let payload = f64::from_bits(quiet.to_bits() | 1);
        let m = FeatureMatrix::from_vecs(&[
            vec![quiet, 0.5],
            vec![payload, 0.5],
            vec![-quiet, 0.5],
            vec![quiet, 0.5],
            vec![payload, 0.5],
        ])
        .unwrap();
        let it = RowInterning::of(&m);
        assert_eq!(it.to_unique(), &[0, 1, 2, 0, 1]);
        assert_eq!(it.members(1), &[1, 4]);
        assert_eq!(it.unique().row(1)[0].to_bits(), payload.to_bits());
    }
}
