//! Deterministic, non-keyed hasher (the fxhash algorithm) for interior
//! hot-path maps.
//!
//! std's default SipHash is keyed per map to resist collision flooding
//! from untrusted input. The maps switched to this hasher are keyed by
//! small simulator-internal integers — port numbers, timer tokens,
//! interface ids — that an adversary never chooses, so the defence buys
//! nothing while its per-lookup cost is visible in the data-plane
//! profile. These are the only hashed maps outside routing's SPF
//! internals: `std`'s `HashMap`/`HashSet` are disallowed types (rule D2,
//! root `clippy.toml`), and `FxHashMap` is this crate's one sanctioned
//! alias.

use std::hash::{BuildHasherDefault, Hasher};

/// Rotate-xor-multiply word hasher with a fixed 64-bit constant.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

/// The fxhash mixing constant: `2^64 / φ`, rounded to odd.
const SEED: u64 = 0x517C_C1B7_2722_0A95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }
    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Build-hasher for fx-keyed maps.
pub type FxBuild = BuildHasherDefault<FxHasher>;

/// The node's per-frame tables (ports, timers, interfaces, pacers, armed
/// connection timers).
#[expect(
    clippy::disallowed_types,
    reason = "fixed-seed hasher: iteration order is a pure function of the operation \
              sequence, and the node's two iterations (`ports_where`, `rmt_lane_stats`) sort"
)]
pub(crate) type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuild>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn stable_across_instances() {
        // No per-map keying: two builders hash identically, so map layout
        // is a pure function of the inserted keys.
        let a = FxBuild::default();
        let b = FxBuild::default();
        for k in [0u64, 1, 42, u64::MAX, 0xDEAD_BEEF] {
            assert_eq!(a.hash_one(k), b.hash_one(k), "key {k}");
        }
    }

    #[test]
    fn distinguishes_nearby_keys() {
        let build = FxBuild::default();
        let mut seen = std::collections::BTreeSet::new();
        for k in 0..1000u64 {
            assert!(seen.insert(build.hash_one(k)), "collision at {k}");
        }
    }
}
