//! k-nearest-neighbour search for the SEL phase of TransER.
//!
//! The instance selector needs, for every source instance, its `k` nearest
//! neighbours in the source feature matrix and in the target feature matrix.
//! The paper assumes a KD-tree (Bentley, 1975) for this, giving
//! `O(m · n · log n)` construction and `O(log n)` expected query time, and
//! [`KdTree`] is one, with a bounding box per node. It cuts a node on its
//! widest axis near the median, at the edge of the median value's run of
//! equal values, so no run straddles a cut and sibling boxes are disjoint
//! on the split axis. Pruning on the distance to the whole box, not to the
//! one split plane a node was cut at, keeps it pruning on the 4–11
//! clustered, tie-heavy features of the repo's ER matrices, and its bound
//! is exact in floating point, so it equals brute force on every input,
//! NaN and ±Inf cells included. [`brute_force_knn`] is the reference it is tested
//! against, and the faster search on dense rows of 16 or more dimensions
//! (the DR baseline's 64-dimensional embeddings).
//!
//! On top of the tree sits the duplicate-aware engine, [`DedupKnn`]: it
//! interns duplicated rows (`RowInterning` from `transer-common`), queries
//! a k-d tree over the unique rows with multiplicity weights
//! ([`WeightedHeap`]), and expands results back to original row indices.
//! Its `_into` queries take a caller-owned [`QueryScratch`] and output
//! buffer, and allocate nothing once those are warm.
//!
//! Distances are squared Euclidean throughout — monotone in the Euclidean
//! distance, so neighbour *ranking* is identical and we skip the square
//! roots in the hot path. Every distance and box bound routes through the
//! shared vectorizable L2 kernel (`transer_common::l2`), so the tree and
//! the reference sum in the same fixed order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod brute;
mod engine;
mod heap;
mod kdtree;

pub use brute::brute_force_knn;
pub use engine::DedupKnn;
pub use heap::{BoundedMaxHeap, Neighbor, WeightedHeap};
pub use kdtree::{KdTree, QueryScratch};
