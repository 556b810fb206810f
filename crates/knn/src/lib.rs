//! k-nearest-neighbour search for the SEL phase of TransER.
//!
//! The instance selector needs, for every source instance, its `k` nearest
//! neighbours in the source feature matrix and in the target feature matrix.
//! The paper assumes a KD-tree (Bentley, 1975) for this, giving
//! `O(m · n · log n)` construction and `O(log n)` expected query time. This
//! crate uses a [`BallTree`] instead: it returns the same neighbours, keeps
//! pruning at the 9–24 features of real ER matrices, where KD-tree splits
//! stop cutting the search space, and is the one index that equals brute
//! force on NaN and ±Inf cells. [`brute_force_knn`] is the reference it is
//! tested against.
//!
//! On top of the tree sits the duplicate-aware engine, [`DedupKnn`]: it
//! interns duplicated rows (`RowInterning` from `transer-common`), queries
//! a ball tree over the unique rows with multiplicity weights
//! ([`WeightedHeap`]), and expands results back to original row indices.
//!
//! Distances are squared Euclidean throughout — monotone in the Euclidean
//! distance, so neighbour *ranking* is identical and we skip the square
//! roots in the hot path. Every distance and dot product routes through
//! the shared vectorizable L2 kernel (`transer_common::l2`), so the tree
//! and the reference sum in the same fixed order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod balltree;
mod brute;
mod engine;
mod heap;

pub use balltree::BallTree;
pub use brute::brute_force_knn;
pub use engine::DedupKnn;
pub use heap::{BoundedMaxHeap, Neighbor, WeightedHeap};
