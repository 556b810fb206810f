//! Similarity comparators for the record-pair comparison step of an ER
//! pipeline.
//!
//! Every function in this crate maps a pair of values to a similarity score
//! in `[0, 1]`, where `1` means identical and `0` means maximally different.
//! The paper's experimental setup uses Jaro-Winkler for names and Jaccard
//! for other textual strings, plus bounded numeric comparators for years.
//! This crate provides those, Monge-Elkan over Jaro-Winkler for
//! multi-token names and exact equality: the six [`Measure`]s the
//! workspace's schemas declare.
//!
//! All string functions operate on `char`s, so multi-byte UTF-8 is handled
//! correctly.
//!
//! Every score runs on allocation-free kernels: a scratch-buffer Jaro scan
//! and a merge-based Jaccard over sorted or interned token profiles. The
//! original per-call-allocating implementations are kept in test builds
//! only, as the oracle the kernels are proptested bit-identical against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod jaccard;
mod jaro;
mod kernel;
mod monge_elkan;
mod numeric;
mod prepared;
mod qgram;

pub use config::Measure;
pub use jaccard::{jaccard_sorted, jaccard_tokens};
pub use jaro::{jaro, jaro_winkler, jaro_winkler_with};
pub use monge_elkan::{monge_elkan, monge_elkan_tokens};
pub use numeric::{numeric_similarity, year_similarity};
pub use prepared::PreparedText;
pub use qgram::{for_each_qgram, for_each_token, tokens};

/// Exact string equality as a similarity: 1.0 when equal, else 0.0.
#[inline]
pub fn exact(a: &str, b: &str) -> f64 {
    if a == b {
        1.0
    } else {
        0.0
    }
}

/// Clamp a score into `[0, 1]`, guarding against floating-point drift.
#[inline]
pub(crate) fn clamp01(x: f64) -> f64 {
    x.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_is_binary() {
        assert_eq!(exact("ab", "ab"), 1.0);
        assert_eq!(exact("ab", "ba"), 0.0);
        assert_eq!(exact("", ""), 1.0);
    }
}
