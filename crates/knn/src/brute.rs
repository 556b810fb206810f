//! Brute-force k-NN reference: exact, `O(n)` per query — the oracle the
//! ball tree and the duplicate-aware engine are tested against. Distances
//! come from the shared L2 kernel (`transer_common::l2`), the same code
//! path the ball tree uses — this module has no distance loop of its own.

use transer_common::{sq_dist, FeatureMatrix};

use crate::heap::{BoundedMaxHeap, Neighbor};

/// Exact k nearest neighbours of `query` among the rows of `points`,
/// sorted by ascending squared distance (ties by row index).
///
/// `exclude` removes one row from consideration — used to exclude an
/// instance itself when computing its own neighbourhood.
pub fn brute_force_knn(
    points: &FeatureMatrix,
    query: &[f64],
    k: usize,
    exclude: Option<usize>,
) -> Vec<Neighbor> {
    let mut heap = BoundedMaxHeap::new(k);
    for (i, row) in points.iter_rows().enumerate() {
        if exclude == Some(i) {
            continue;
        }
        heap.push(Neighbor { index: i, sq_dist: sq_dist(query, row) });
    }
    heap.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points() -> FeatureMatrix {
        FeatureMatrix::from_vecs(&[
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![0.5, 0.5],
        ])
        .unwrap()
    }

    #[test]
    fn finds_nearest_in_order() {
        let nn = brute_force_knn(&points(), &[0.1, 0.1], 3, None);
        assert_eq!(nn.iter().map(|n| n.index).collect::<Vec<_>>(), vec![0, 4, 1]);
        assert!(nn[0].sq_dist <= nn[1].sq_dist && nn[1].sq_dist <= nn[2].sq_dist);
    }

    #[test]
    fn exclusion_skips_self() {
        let p = points();
        let nn = brute_force_knn(&p, p.row(0), 2, Some(0));
        assert!(!nn.iter().any(|n| n.index == 0));
        assert_eq!(nn.len(), 2);
    }

    #[test]
    fn k_larger_than_points() {
        let nn = brute_force_knn(&points(), &[0.0, 0.0], 10, None);
        assert_eq!(nn.len(), 5);
    }

    #[test]
    fn k_zero() {
        assert!(brute_force_knn(&points(), &[0.0, 0.0], 0, None).is_empty());
    }
}
