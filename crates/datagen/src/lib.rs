//! Synthetic ER workloads standing in for the paper's seven data sets.
//!
//! The originals are either third-party benchmark collections (DBLP, ACM,
//! Scholar from the Magellan repository; Million Songs and Musicbrainz from
//! the Leipzig benchmark) or proprietary Scottish civil registers (Isle of
//! Skye and Kilmarnock). None can be redistributed here, so this crate
//! generates record-level substitutes that exercise *exactly* the same code
//! path — generate records → block with MinHash LSH → compare attributes →
//! feature matrix — and are calibrated to the characteristics Table 1 of
//! the paper reports: number of attributes, heavy class imbalance, a
//! sizeable share of *ambiguous* feature vectors (identical rounded vectors
//! carrying both labels), skewed bi-modal similarity distributions (Fig. 2)
//! and cross-domain label conflicts.
//!
//! Three generator families:
//!
//! * [`biblio`] — publications (title, authors, venue, year), clean
//!   DBLP/ACM versus the noisy Scholar rendition.
//! * [`music`] — songs (title, album, artist, duration, year); the
//!   Musicbrainz rendition is riddled with re-releases and remasters that
//!   create ambiguity.
//! * [`demographic`] — Scottish birth/death certificate parent couples;
//!   a small closed name pool reproduces the extreme ambiguity of the
//!   IOS/KIL registers.
//!
//! [`Scenario`] ties a generator to a corruption profile and produces a
//! [`LabeledDataset`](transer_common::LabeledDataset); [`ScenarioPair`]
//! produces the eight directed source → target tasks of Table 2.
//! [`vectors`] additionally provides a feature-vector-level mixture
//! generator with *controllable* imbalance, ambiguity and cross-domain
//! label-flip rates for unit tests and ablation studies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod biblio;
pub mod corrupt;
pub mod demographic;
pub mod lexicon;
pub mod music;
pub mod scale;
pub mod vectors;

mod scenario;

pub use corrupt::CorruptionProfile;
pub use scale::{ScaleConfig, ScaleGen};
pub use scenario::{Scenario, ScenarioPair};
