//! The workspace's own hash functions: SipHash-1-3 with zero keys for
//! every hash that reaches an output or an artefact, and a fixed
//! multiply-rotate hasher for in-memory maps whose order never shows.
//!
//! MinHash blocking hashes tokens and band keys, which decide the pairs
//! that are ever compared, and the LSH index persists its band keys.
//! `std`'s `DefaultHasher` is SipHash-1-3 with zero keys today, but its
//! algorithm is documented as unspecified across Rust releases, so an
//! index saved under one toolchain could answer nothing under the next. [`SipHasher13`] is that algorithm written out here, so the hashes
//! are fixed by this file. It consumes exactly the byte stream `std`'s
//! `Hash` impls feed a hasher, which the callers reproduce by hand:
//!
//! * a `str`: its bytes, then `0xff` ([`hash_str`]);
//! * a `u64` or a 64-bit `usize`: 8 little-endian bytes
//!   ([`SipHasher13::write_u64`]);
//! * a `[u64]`: its length as a `u64`, then each value;
//! * a `char`: its scalar value as 4 little-endian bytes.
//!
//! Known-answer tests below pin the output, so a change here cannot pass
//! unnoticed; `DefaultHasher` survives only as their test oracle.

use std::hash::{BuildHasher, Hasher};

/// Streaming SipHash-1-3 (one compression round, three finalisation
/// rounds) with both keys zero.
#[derive(Debug, Clone)]
pub struct SipHasher13 {
    v: [u64; 4],
    /// Bytes of the current partial word, little-endian.
    tail: u64,
    /// How many bytes `tail` holds (0–7).
    ntail: usize,
    /// Total bytes written; its low byte enters the final block.
    length: usize,
}

impl Default for SipHasher13 {
    fn default() -> Self {
        Self::new()
    }
}

impl SipHasher13 {
    /// A hasher with both keys zero.
    #[inline]
    pub fn new() -> Self {
        SipHasher13 {
            v: [
                0x736f_6d65_7073_6575,
                0x646f_7261_6e64_6f6d,
                0x6c79_6765_6e65_7261,
                0x7465_6462_7974_6573,
            ],
            tail: 0,
            ntail: 0,
            length: 0,
        }
    }

    #[inline(always)]
    fn round(&mut self) {
        let [v0, v1, v2, v3] = &mut self.v;
        *v0 = v0.wrapping_add(*v1);
        *v1 = v1.rotate_left(13) ^ *v0;
        *v0 = v0.rotate_left(32);
        *v2 = v2.wrapping_add(*v3);
        *v3 = v3.rotate_left(16) ^ *v2;
        *v0 = v0.wrapping_add(*v3);
        *v3 = v3.rotate_left(21) ^ *v0;
        *v2 = v2.wrapping_add(*v1);
        *v1 = v1.rotate_left(17) ^ *v2;
        *v2 = v2.rotate_left(32);
    }

    /// Absorb one full little-endian message word.
    #[inline(always)]
    fn compress(&mut self, m: u64) {
        self.v[3] ^= m;
        self.round();
        self.v[0] ^= m;
    }

    /// Absorb `bytes`, continuing any partial word.
    pub fn write(&mut self, bytes: &[u8]) {
        self.length += bytes.len();
        let mut rest = bytes;
        while self.ntail != 0 {
            let Some((&b, after)) = rest.split_first() else { return };
            self.tail |= u64::from(b) << (8 * self.ntail);
            self.ntail = (self.ntail + 1) % 8;
            if self.ntail == 0 {
                let word = std::mem::take(&mut self.tail);
                self.compress(word);
            }
            rest = after;
        }
        let mut words = rest.chunks_exact(8);
        for word in &mut words {
            self.compress(le_word(word));
        }
        let remainder = words.remainder();
        self.tail = le_tail(remainder);
        self.ntail = remainder.len();
    }

    /// Absorb a `u32` as 4 little-endian bytes.
    #[inline]
    pub fn write_u32(&mut self, x: u32) {
        self.write(&x.to_le_bytes());
    }

    /// Absorb a `u64` as 8 little-endian bytes: one compression when the
    /// stream is word-aligned, as it is for every band key.
    #[inline]
    pub fn write_u64(&mut self, x: u64) {
        if self.ntail == 0 {
            self.length += 8;
            self.compress(x);
        } else {
            self.write(&x.to_le_bytes());
        }
    }

    /// The hash of everything written so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        let mut s = self.clone();
        let last = ((self.length as u64 & 0xff) << 56) | self.tail;
        s.compress(last);
        s.v[2] ^= 0xff;
        s.round();
        s.round();
        s.round();
        s.v[0] ^ s.v[1] ^ s.v[2] ^ s.v[3]
    }
}

/// An 8-byte chunk as a little-endian word. `chunks_exact(8)` hands out
/// 8-byte slices, so the conversion never falls back and compiles to one
/// load.
#[inline(always)]
fn le_word(word: &[u8]) -> u64 {
    u64::from_le_bytes(word.try_into().unwrap_or_default())
}

/// The 0–7 trailing bytes as a little-endian word, zero-filled above.
/// Folded with shifts: copying a variable-length tail into a word buffer
/// compiles to a `memcpy` call per hashed string.
#[inline(always)]
fn le_tail(bytes: &[u8]) -> u64 {
    bytes.iter().rev().fold(0, |word, &b| (word << 8) | u64::from(b))
}

/// SipHash-1-3 (zero keys) of a string as `str::hash` feeds it: its
/// bytes, then `0xff`. The blocking token hash.
#[inline]
pub fn hash_str(s: &str) -> u64 {
    let bytes = s.as_bytes();
    let mut h = SipHasher13::new();
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        h.compress(le_word(word));
    }
    // The 0–7 trailing bytes and the terminator fill 1–8 bytes of the
    // last word; a full one is compressed before the length block.
    let remainder = words.remainder();
    let last = le_tail(remainder) | (0xff << (8 * remainder.len()));
    h.length = bytes.len() + 1;
    if remainder.len() == 7 {
        h.compress(last);
    } else {
        h.tail = last;
    }
    h.finish()
}

/// [`BuildHasher`] of [`MulRotHasher`], for in-memory maps keyed by
/// strings whose iteration order never reaches an output.
#[derive(Debug, Default, Clone, Copy)]
pub struct MulRotBuild;

impl BuildHasher for MulRotBuild {
    type Hasher = MulRotHasher;

    #[inline]
    fn build_hasher(&self) -> MulRotHasher {
        MulRotHasher(0)
    }
}

/// A fixed multiply-rotate hasher (one rotate, xor and multiply per
/// 8-byte word, the scheme of rustc's `FxHasher`). Not collision-resistant against chosen input and not
/// stable across versions of this crate: use it only where the hash
/// decides nothing but a map's probe sequence.
#[derive(Debug, Default, Clone, Copy)]
pub struct MulRotHasher(u64);

impl MulRotHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    #[inline(always)]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for MulRotHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(le_word(word));
        }
        let remainder = words.remainder();
        if !remainder.is_empty() {
            self.add(le_tail(remainder) | ((remainder.len() as u64) << 59));
        }
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.add(u64::from(x));
    }

    /// The state rotated so that its best-mixed high bits land where the
    /// map takes its bucket index.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::Hash;

    use super::*;

    /// The oracle: `std`'s hasher, fed by `std`'s `Hash` impl of `x`.
    fn std_hash<T: Hash + ?Sized>(x: &T) -> u64 {
        let mut h = DefaultHasher::new();
        x.hash(&mut h);
        h.finish()
    }

    /// Band `band` over `values`, the way `usize::hash` and
    /// `<[u64]>::hash` feed `std`'s hasher.
    fn band_key(band: u64, values: &[u64]) -> u64 {
        let mut h = SipHasher13::new();
        h.write_u64(band);
        h.write_u64(values.len() as u64);
        values.iter().for_each(|&v| h.write_u64(v));
        h.finish()
    }

    #[test]
    fn known_answers() {
        // Computed with std's DefaultHasher on rustc 1.95.0.
        assert_eq!(hash_str(""), 0x3040_6ea5_23c5_3def);
        assert_eq!(hash_str("abcdefg"), 0x2295_ef44_bd07_8ae9);
        assert_eq!(hash_str("ñandú"), 0xbe2d_9112_2050_c8da);
        let values: Vec<u64> = (0..8).collect();
        assert_eq!(band_key(3, &values), 0x7632_e0e0_5d98_412d);
    }

    #[test]
    fn strings_of_every_length_equal_std() {
        let text: String = "the quick brown fox jumps over a lazy dog; ñ ǅ 1999 İstanbul".repeat(2);
        let bytes = text.as_bytes();
        for len in 0..=64 {
            // A string prefix when `len` lands on a char boundary; the raw
            // bytes through the streaming writer either way.
            if let Some(s) = text.get(..len) {
                assert_eq!(hash_str(s), std_hash(s), "str of {len} bytes");
            }
            let mut ours = SipHasher13::new();
            ours.write(&bytes[..len]);
            let mut theirs = DefaultHasher::new();
            theirs.write(&bytes[..len]);
            assert_eq!(ours.finish(), theirs.finish(), "{len} bytes");
        }
    }

    #[test]
    fn streaming_writes_equal_std_at_any_alignment() {
        for lead in 0..9u8 {
            let mut ours = SipHasher13::new();
            let mut theirs = DefaultHasher::new();
            for k in 0..lead {
                ours.write(&[k]);
                theirs.write(&[k]);
            }
            ours.write_u64(0x0123_4567_89ab_cdef);
            theirs.write_u64(0x0123_4567_89ab_cdef);
            ours.write_u32(0xdead_beef);
            theirs.write_u32(0xdead_beef);
            ours.write(b"tail bytes");
            theirs.write(b"tail bytes");
            assert_eq!(ours.finish(), theirs.finish(), "lead {lead}");
        }
    }

    #[test]
    fn band_keys_equal_std_slice_hashing() {
        for rows in [0usize, 1, 4, 8, 13] {
            let values: Vec<u64> = (0..rows as u64).map(|v| v.wrapping_mul(0x9e37_79b9)).collect();
            let mut theirs = DefaultHasher::new();
            5usize.hash(&mut theirs);
            values[..].hash(&mut theirs);
            assert_eq!(band_key(5, &values), theirs.finish(), "{rows} rows");
        }
    }

    #[test]
    fn mul_rot_is_deterministic_and_separates_strings() {
        let h = |s: &str| MulRotBuild.hash_one(s);
        assert_eq!(h("entity"), h("entity"));
        let words = ["", "a", "ab", "ab\0", "entity", "entities", "resolution-entity"];
        for (i, a) in words.iter().enumerate() {
            for b in &words[i + 1..] {
                assert_ne!(h(a), h(b), "{a:?} vs {b:?}");
            }
        }
    }
}
