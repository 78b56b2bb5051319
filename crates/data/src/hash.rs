//! A fast, non-cryptographic hasher (the FxHash algorithm used by rustc).
//!
//! The repair algorithms hash small keys — interned ids, attribute
//! projections, `u32` fact ids — millions of times per run. The standard
//! library's SipHash is DoS-resistant but an order of magnitude slower for
//! such keys (see the Rust Performance Book, "Hashing"). We vendor the
//! ~20-line FxHash algorithm instead of pulling in an external crate.
//!
//! FxHash is unseeded, so colliding keys are cheap to find, and some
//! inputs are not ours: the value dictionary and the fact index
//! (`dict.rs`, `table.rs`) hash the constants of client workspaces,
//! including every request the server parses. A client can craft
//! constants whose hashes share their top bits and make those tables
//! probe linearly, so a workspace of such ints parses tens of times
//! slower than one of as many consecutive ints. Keys built only from
//! ids the process assigned are not exposed this way.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED64: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// The FxHash streaming hasher: a multiply-and-rotate word mixer.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED64);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_hashers() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(0xdead_beef);
        b.write_u64(0xdead_beef);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn distinguishes_nearby_keys() {
        let mut seen = HashSet::new();
        for i in 0u64..10_000 {
            let mut h = FxHasher::default();
            h.write_u64(i);
            seen.insert(h.finish());
        }
        // No collisions over a dense small range.
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    fn byte_stream_matches_padding_rules() {
        // Writing the same logical bytes in one call must be stable.
        let mut h1 = FxHasher::default();
        h1.write(b"hello world!!");
        let mut h2 = FxHasher::default();
        h2.write(b"hello world!!");
        assert_eq!(h1.finish(), h2.finish());
        let mut h3 = FxHasher::default();
        h3.write(b"hello world!?");
        assert_ne!(h1.finish(), h3.finish());
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(7, "seven");
        assert_eq!(m.get(&7), Some(&"seven"));
        let mut s: FxHashSet<&str> = FxHashSet::default();
        s.insert("x");
        assert!(s.contains("x"));
    }
}
