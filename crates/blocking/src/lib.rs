//! The blocking and record-pair comparison steps of the ER pipeline
//! (Fig. 1 of the paper).
//!
//! Blocking reduces the quadratic comparison space `R × R` to a candidate
//! set `B ⊂ R × R`. The paper's experiments use a locality-sensitive-
//! hashing technique that maps records with similar attribute values to the
//! same MinHash bucket (Papadakis et al., 2020); [`MinHashLsh`] implements
//! that scheme for batch linking, and [`LshIndex`] keeps its buckets
//! updatable for the serving path.
//!
//! The comparison step then turns each candidate pair into a feature vector
//! of attribute similarities; [`Comparison`] declares which
//! [`Measure`](transer_similarity::Measure) applies to which attribute and
//! produces the [`FeatureMatrix`](transer_common::FeatureMatrix) plus
//! ground-truth labels consumed by the transfer-learning layer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compare;
mod lsh_index;
mod minhash;
mod tokenize;

pub use compare::Comparison;
pub use lsh_index::{LshIndex, COMPACT_MIN_TOMBSTONES, INDEX_SCHEMA_VERSION};
pub use minhash::{BandScratch, MinHashLsh, MinHashLshConfig};
pub use tokenize::{token_hashes, token_hashes_masked};

/// A candidate record pair: indices into the left and right record slices
/// handed to the blocker.
pub type CandidatePair = (usize, usize);
