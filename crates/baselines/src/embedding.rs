//! Frozen hashed character-n-gram embeddings — the stand-in for the
//! pre-trained FastText vectors the DR and DTAL baselines rely on.
//!
//! FastText represents a word as the sum of its character-n-gram vectors;
//! we reproduce that shape with a *frozen random projection*: each n-gram
//! hashes to a fixed pseudo-random vector (derived from the hash, no table
//! needed) and a string embeds as the normalised sum over its grams. The
//! embedding is "pre-trained" in the sense that it is independent of any
//! training data — and exactly like real FastText on out-of-vocabulary
//! personal names, it carries no task-specific semantics, which is the
//! negative-transfer failure mode the paper demonstrates for DR.
//!
//! A gram is hashed by the workspace's SipHash-1-3
//! ([`transer_common::hash::SipHasher13`]) over the bytes `std`'s
//! `DefaultHasher` was fed for `(seed, window)`: the seed as 8
//! little-endian bytes, the window's length as 8, then each char as 4.
//! The embeddings are therefore the ones `std` gave, fixed by this
//! repository rather than by the toolchain.

use transer_common::hash::SipHasher13;
use transer_common::FeatureMatrix;

/// Frozen hashed n-gram embedder.
#[derive(Debug, Clone, Copy)]
pub struct HashedEmbedder {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Character n-gram length.
    pub ngram: usize,
    /// Seed mixed into every hash.
    pub seed: u64,
}

impl Default for HashedEmbedder {
    fn default() -> Self {
        HashedEmbedder { dim: 32, ngram: 3, seed: 0xE64 }
    }
}

impl HashedEmbedder {
    /// Embed one string: mean of its padded n-gram vectors, L2-normalised.
    /// The zero vector is returned for empty strings.
    pub fn embed(&self, text: &str) -> Vec<f64> {
        let mut v = vec![0.0; self.dim];
        if text.is_empty() {
            return v;
        }
        let chars: Vec<char> = std::iter::repeat_n('#', self.ngram - 1)
            .chain(text.chars().flat_map(|c| c.to_lowercase()))
            .chain(std::iter::repeat_n('#', self.ngram - 1))
            .collect();
        if chars.len() < self.ngram {
            return v;
        }
        let mut grams = 0usize;
        for window in chars.windows(self.ngram) {
            let mut h = SipHasher13::new();
            h.write_u64(self.seed);
            h.write_u64(window.len() as u64);
            window.iter().for_each(|&c| h.write_u32(u32::from(c)));
            let mut state = h.finish() | 1;
            // Each gram contributes a deterministic pseudo-random ±1 pattern.
            for slot in v.iter_mut() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                *slot += if state & 1 == 0 { 1.0 } else { -1.0 };
            }
            grams += 1;
        }
        if grams > 0 {
            let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm > 0.0 {
                for x in &mut v {
                    *x /= norm;
                }
            }
        }
        v
    }

    /// Embed a record pair `(a, b)` into the representation the deep
    /// baselines classify: `[|e_a − e_b|, e_a ⊙ e_b]` (absolute difference
    /// and element-wise product), `2 × dim` values.
    pub fn embed_pair(&self, a: &str, b: &str) -> Vec<f64> {
        let ea = self.embed(a);
        let eb = self.embed(b);
        let mut out = Vec::with_capacity(2 * self.dim);
        out.extend(ea.iter().zip(&eb).map(|(x, y)| (x - y).abs()));
        out.extend(ea.iter().zip(&eb).map(|(x, y)| x * y));
        out
    }

    /// Embed a whole task side: with raw pair texts when available, else —
    /// as a degraded but functional fallback — treating the similarity
    /// feature values themselves as the "text".
    pub fn embed_side(
        &self,
        texts: Option<&[(String, String)]>,
        features: &FeatureMatrix,
    ) -> FeatureMatrix {
        let mut out = FeatureMatrix::empty(2 * self.dim);
        match texts {
            Some(pairs) => {
                for (a, b) in pairs {
                    out.push_row(&self.embed_pair(a, b));
                }
            }
            None => {
                for row in features.iter_rows() {
                    let rendered: Vec<String> = row.iter().map(|v| format!("{v:.2}")).collect();
                    let text = rendered.join(" ");
                    out.push_row(&self.embed_pair(&text, &text));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emb() -> HashedEmbedder {
        HashedEmbedder::default()
    }

    /// Embeddings read off the implementation that hashed with `std`'s
    /// `DefaultHasher`: `(ngram, text, first cell, last cell, SipHash of
    /// all 32 cells' bit patterns as a `[u64]`)`.
    const PINNED: [(usize, &str, u64, u64, u64); 6] = [
        (3, "john macdonald", 0x0000000000000000, 0x3fd3e8d3313adc21, 0xf79063666c7126f4),
        (3, "ñandú İstanbul", 0x3fa61d72b7978671, 0xbfcba4cf657d680d, 0x22b2d0648d4ebb6f),
        (1, "ab", 0x0000000000000000, 0x0000000000000000, 0xec41789a95b88320),
        (2, "Ωmega", 0x3fd75e9746a0b098, 0x3fc75e9746a0b098, 0x6633b555e07766d0),
        (4, "x", 0xbfcab099ae8f539a, 0x0000000000000000, 0xa0c59dea428b4d08),
        (5, "entity resolution", 0xbfc8b043e5181183, 0x3fa3c03650e00e03, 0x2b3a720342f68f29),
    ];

    #[test]
    fn embeddings_equal_the_default_hasher_implementation() {
        for (ngram, text, first, last, all) in PINNED {
            let v = HashedEmbedder { ngram, ..emb() }.embed(text);
            let bits: Vec<u64> = v.iter().map(|x| x.to_bits()).collect();
            let mut h = SipHasher13::new();
            h.write_u64(bits.len() as u64);
            bits.iter().for_each(|&b| h.write_u64(b));
            assert_eq!(
                (bits[0], bits[31], h.finish()),
                (first, last, all),
                "{ngram}-grams of {text:?}"
            );
        }
    }

    #[test]
    fn deterministic_and_normalised() {
        let e = emb();
        let a = e.embed("john macdonald");
        assert_eq!(a, e.embed("john macdonald"));
        let norm: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn similar_strings_closer_than_dissimilar() {
        let e = emb();
        let a = e.embed("the quick brown fox");
        let b = e.embed("the quick brown fix");
        let c = e.embed("entirely different words");
        let dot = |x: &[f64], y: &[f64]| x.iter().zip(y).map(|(p, q)| p * q).sum::<f64>();
        assert!(dot(&a, &b) > dot(&a, &c));
    }

    #[test]
    fn empty_string_is_zero() {
        let v = emb().embed("");
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn pair_embedding_shape_and_identity() {
        let e = emb();
        let p = e.embed_pair("abc", "abc");
        assert_eq!(p.len(), 64);
        // |a-a| part must be all zeros.
        assert!(p[..32].iter().all(|&x| x == 0.0));
        let q = e.embed_pair("abc", "xyz");
        assert!(q[..32].iter().any(|&x| x > 0.0));
    }

    #[test]
    fn embed_side_with_and_without_text() {
        let e = emb();
        let x = FeatureMatrix::from_vecs(&[vec![0.9, 0.8], vec![0.1, 0.2]]).unwrap();
        let texts =
            vec![("a b".to_string(), "a b".to_string()), ("c d".to_string(), "e f".to_string())];
        let with = e.embed_side(Some(&texts), &x);
        assert_eq!(with.rows(), 2);
        assert_eq!(with.cols(), 64);
        let without = e.embed_side(None, &x);
        assert_eq!(without.rows(), 2);
    }
}
