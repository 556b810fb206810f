//! Shared entity-resolution (ER) types used across the TransER workspace.
//!
//! This crate defines the vocabulary the rest of the system speaks:
//!
//! * [`Record`], [`Schema`] and [`AttrValue`] describe raw database rows
//!   (publications, songs, civil certificates, ...).
//! * [`FeatureMatrix`] holds the similarity feature vectors produced by the
//!   record-pair comparison step; each row is one candidate record pair and
//!   each column one attribute similarity in `[0, 1]`.
//! * [`RowInterning`] deduplicates the rows of a [`FeatureMatrix`] — the
//!   substrate of the duplicate-aware k-NN engine in `transer-knn`.
//! * [`ColMajorMatrix`] is the column-major training view of a
//!   [`FeatureMatrix`] — the substrate of the presorted tree engine in
//!   `transer-ml` — built by a cache-blocked transpose
//!   ([`transpose_blocked`]) shared with `transer-linalg`.
//! * [`hash`] holds the workspace's own SipHash-1-3, which fixes every
//!   blocking hash independently of the toolchain, and the fixed hasher of
//!   [`StrInterner`].
//! * [`Label`] is the binary match / non-match class label.
//! * [`LabeledDataset`] and [`DomainPair`] bundle feature matrices with
//!   (ground-truth) labels for the source and target domains of a transfer
//!   learning task.
//!
//! The types are deliberately plain — row-major `Vec<f64>` storage, no
//! lifetimes in public signatures — so that the algorithm crates stay easy
//! to read and the hot loops easy for the compiler to optimise.

// `deny` rather than `forbid`: the counting global allocator (`alloc`
// module) carries the workspace's single audited `unsafe impl` behind a
// targeted `#[allow]`; everything else still refuses unsafe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
mod colmajor;
mod dataset;
pub mod env;
mod error;
mod features;
pub mod hash;
mod intern;
pub mod l2;
mod label;
mod record;

pub use alloc::CountingAllocator;
pub use colmajor::{transpose_blocked, ColMajorMatrix};

/// The registered global allocator for every binary that *references*
/// this crate (see [`alloc`] — the workspace sits entirely above
/// `transer-common`, so every pipeline bin gets allocation profiling
/// without opting in). Caveat: rustc only loads — and therefore only
/// discovers the `#[global_allocator]` of — crates that are actually
/// referenced in code; a test binary that uses nothing from the
/// workspace below `transer-trace` must link this crate explicitly with
/// `use transer_common as _;` or it silently keeps the default allocator.
#[global_allocator]
static GLOBAL_ALLOCATOR: CountingAllocator = CountingAllocator;
pub use dataset::{DomainPair, LabeledDataset};
pub use error::{Error, Result};
pub use features::FeatureMatrix;
pub use intern::{DistinctRows, RowInterning, StrInterner};
pub use l2::sq_dist;
pub use label::{count_matches, Label};
pub use record::{AttrType, AttrValue, Record, RecordId, Schema};
