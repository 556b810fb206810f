//! k-nearest-neighbour search for the SEL phase of TransER.
//!
//! The instance selector needs, for every source instance, its `k` nearest
//! neighbours in the source feature matrix and in the target feature matrix.
//! The paper assumes a KD-tree (Bentley, 1975) for this, giving
//! `O(m · n · log n)` construction and `O(log n)` expected query time; this
//! crate provides that [`KdTree`] plus a [`brute_force_knn`] reference
//! implementation used for testing and tiny inputs.
//!
//! On top of the plain indexes sits the duplicate-aware engine:
//!
//! * [`BlockedBruteForce`] — a cache-blocked kernel using precomputed
//!   squared norms and the `‖a−b‖² = ‖a‖² − 2a·b + ‖b‖²` expansion as a
//!   screen, with exact recomputation on the boundary band so results stay
//!   bit-identical to [`KdTree`];
//! * [`BallTree`] — triangle-inequality bound pruning over leaf-contiguous
//!   reordered rows; the strongest index at the moderate dimensionalities
//!   (9–24 features) of real ER matrices, where KD-tree pruning decays;
//! * [`AdaptiveIndex`] / [`IndexKind`] — per-matrix backend choice from
//!   `(rows, dim)`, or one backend forced by an explicit kind;
//! * [`DedupKnn`] — interns duplicated rows (`RowInterning` from
//!   `transer-common`), queries unique rows with multiplicity weights, and
//!   expands results back to original row indices.
//!
//! Distances are squared Euclidean throughout — monotone in the Euclidean
//! distance, so neighbour *ranking* is identical and we skip the square
//! roots in the hot path. Every distance, norm and dot product routes
//! through the shared vectorizable L2 kernel (`transer_common::l2`), so
//! every backend sums in the same fixed order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod balltree;
mod blocked;
mod brute;
mod engine;
mod heap;
mod kdtree;

pub use adaptive::{AdaptiveIndex, IndexKind};
pub use balltree::BallTree;
pub use blocked::BlockedBruteForce;
pub use brute::brute_force_knn;
pub use engine::DedupKnn;
pub use heap::{BoundedMaxHeap, Neighbor, WeightedHeap};
pub use kdtree::KdTree;
