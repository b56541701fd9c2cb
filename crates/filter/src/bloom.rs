//! Bloom filters over 64-bit key digests.
//!
//! The paper's implementation uses Bloom filters with **one hash function,
//! sized for a 5% false-positive rate** (§VI); both the hash-function count
//! and the target FPR are parameters here so the ablation benches can sweep
//! them. Filters of identical geometry (same bit length, same hash count)
//! can be merged by bitwise intersection or union, which the AIP registry
//! uses to combine sets over the same attribute class (§IV-A).

use sip_common::hash::{double_hash, mix64};
use sip_common::{Result, SipError};

/// A fixed-size Bloom filter keyed by 64-bit digests.
#[derive(Clone, Debug)]
pub struct BloomFilter {
    bits: Vec<u64>,
    n_bits: u64,
    n_hashes: u32,
    n_inserted: u64,
}

impl BloomFilter {
    /// Size a filter for `expected_items` at `target_fpr` using `n_hashes`
    /// hash functions.
    ///
    /// For `k` hashes the false-positive rate is `(1 - e^{-kn/m})^k`; solving
    /// for `m` gives `m = -k·n / ln(1 - fpr^{1/k})`. With the paper's `k = 1`
    /// and 5% FPR this is ≈ 19.5 bits per key.
    pub fn with_fpr(expected_items: usize, target_fpr: f64, n_hashes: u32) -> Self {
        Self::with_bits(
            Self::bits_for(expected_items, target_fpr, n_hashes),
            n_hashes,
        )
    }

    /// The bit count [`BloomFilter::with_fpr`] sizes a filter to (before
    /// rounding up to a whole word).
    pub fn bits_for(expected_items: usize, target_fpr: f64, n_hashes: u32) -> u64 {
        let k = n_hashes.max(1) as f64;
        let fpr = target_fpr.clamp(1e-9, 0.999);
        let n = expected_items.max(1) as f64;
        (-k * n / (1.0 - fpr.powf(1.0 / k)).ln()).ceil() as u64
    }

    /// A filter with exactly `n_bits` bits (rounded up to a 64-bit word) and
    /// `n_hashes` hash functions.
    pub fn with_bits(n_bits: u64, n_hashes: u32) -> Self {
        let n_bits = n_bits.max(64);
        let words = n_bits.div_ceil(64) as usize;
        BloomFilter {
            bits: vec![0u64; words],
            n_bits: words as u64 * 64,
            n_hashes: n_hashes.max(1),
            n_inserted: 0,
        }
    }

    /// Insert a key digest.
    #[inline]
    pub fn insert(&mut self, digest: u64) {
        let mixed = mix64(digest);
        for i in 0..self.n_hashes {
            let bit = double_hash(mixed, i) % self.n_bits;
            self.bits[(bit / 64) as usize] |= 1u64 << (bit % 64);
        }
        self.n_inserted += 1;
    }

    /// Probe a key digest. False positives possible; false negatives never.
    #[inline]
    pub fn contains(&self, digest: u64) -> bool {
        let mixed = mix64(digest);
        for i in 0..self.n_hashes {
            let bit = double_hash(mixed, i) % self.n_bits;
            if self.bits[(bit / 64) as usize] & (1u64 << (bit % 64)) == 0 {
                return false;
            }
        }
        true
    }

    /// Bitwise-intersect with another filter of identical geometry.
    ///
    /// The result matches only keys that *both* filters match, and therefore
    /// contains (at least) the intersection of the underlying key sets —
    /// still no false negatives for keys present in both. This is the merge
    /// the paper applies when two AIP sets cover the same attributes
    /// ("merged via bitwise intersection if they are of the same length and
    /// based on the same hash function", §IV-A).
    pub fn intersect(&mut self, other: &BloomFilter) -> Result<()> {
        self.check_geometry(other)?;
        for (a, b) in self.bits.iter_mut().zip(other.bits.iter()) {
            *a &= *b;
        }
        self.n_inserted = self.n_inserted.min(other.n_inserted);
        Ok(())
    }

    /// Bitwise-union with another filter of identical geometry (used when
    /// combining partial sets from distributed fragments of the *same*
    /// subexpression).
    pub fn union(&mut self, other: &BloomFilter) -> Result<()> {
        self.check_geometry(other)?;
        for (a, b) in self.bits.iter_mut().zip(other.bits.iter()) {
            *a |= *b;
        }
        self.n_inserted += other.n_inserted;
        Ok(())
    }

    fn check_geometry(&self, other: &BloomFilter) -> Result<()> {
        if self.n_bits != other.n_bits || self.n_hashes != other.n_hashes {
            return Err(SipError::Exec(format!(
                "bloom geometry mismatch: {}x{} vs {}x{}",
                self.n_bits, self.n_hashes, other.n_bits, other.n_hashes
            )));
        }
        Ok(())
    }

    /// Fraction of set bits.
    pub fn fill_ratio(&self) -> f64 {
        let set: u64 = self.bits.iter().map(|w| w.count_ones() as u64).sum();
        set as f64 / self.n_bits as f64
    }

    /// Expected false-positive rate at the current fill: `fill^k`.
    pub fn estimated_fpr(&self) -> f64 {
        self.fill_ratio().powi(self.n_hashes as i32)
    }

    /// Bits in the filter.
    pub fn n_bits(&self) -> u64 {
        self.n_bits
    }

    /// Hash functions used.
    pub fn n_hashes(&self) -> u32 {
        self.n_hashes
    }

    /// Number of insert calls (not distinct keys).
    pub fn n_inserted(&self) -> u64 {
        self.n_inserted
    }

    /// Memory footprint in bytes (the quantity shipped across the simulated
    /// network in the distributed AIP scheme, §V-B).
    pub fn size_bytes(&self) -> usize {
        self.bits.len() * 8 + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sip_common::hash::fx_hash64;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::with_fpr(1000, 0.05, 1);
        for i in 0..1000u64 {
            f.insert(fx_hash64(&i));
        }
        for i in 0..1000u64 {
            assert!(f.contains(fx_hash64(&i)), "lost key {i}");
        }
    }

    #[test]
    fn fpr_close_to_target_k1() {
        let n = 20_000u64;
        let mut f = BloomFilter::with_fpr(n as usize, 0.05, 1);
        for i in 0..n {
            f.insert(fx_hash64(&i));
        }
        let mut fp = 0usize;
        let probes = 50_000u64;
        for i in n..n + probes {
            if f.contains(fx_hash64(&i)) {
                fp += 1;
            }
        }
        let rate = fp as f64 / probes as f64;
        assert!(rate < 0.08, "observed FPR {rate} too high");
        assert!(rate > 0.02, "observed FPR {rate} suspiciously low");
    }

    #[test]
    fn fpr_close_to_target_k4() {
        let n = 10_000u64;
        let mut f = BloomFilter::with_fpr(n as usize, 0.01, 4);
        for i in 0..n {
            f.insert(fx_hash64(&i));
        }
        let mut fp = 0usize;
        for i in n..n + 50_000 {
            if f.contains(fx_hash64(&i)) {
                fp += 1;
            }
        }
        let rate = fp as f64 / 50_000.0;
        assert!(
            rate < 0.025,
            "observed FPR {rate} too high for k=4 target 1%"
        );
    }

    #[test]
    fn intersection_keeps_common_keys() {
        let mut a = BloomFilter::with_bits(1 << 14, 1);
        let mut b = BloomFilter::with_bits(1 << 14, 1);
        for i in 0..500u64 {
            a.insert(fx_hash64(&i));
        }
        for i in 250..750u64 {
            b.insert(fx_hash64(&i));
        }
        a.intersect(&b).unwrap();
        for i in 250..500u64 {
            assert!(a.contains(fx_hash64(&i)), "lost common key {i}");
        }
        // Most non-common keys should now miss.
        let misses = (500..750u64).filter(|i| !a.contains(fx_hash64(i))).count();
        assert!(misses > 200, "intersection barely filtered: {misses}");
    }

    #[test]
    fn union_covers_both() {
        let mut a = BloomFilter::with_bits(1 << 12, 2);
        let mut b = BloomFilter::with_bits(1 << 12, 2);
        a.insert(fx_hash64(&1u64));
        b.insert(fx_hash64(&2u64));
        a.union(&b).unwrap();
        assert!(a.contains(fx_hash64(&1u64)));
        assert!(a.contains(fx_hash64(&2u64)));
    }

    #[test]
    fn geometry_mismatch_rejected() {
        let mut a = BloomFilter::with_bits(128, 1);
        let b = BloomFilter::with_bits(256, 1);
        assert!(a.intersect(&b).is_err());
        let c = BloomFilter::with_bits(128, 2);
        assert!(a.union(&c).is_err());
    }

    #[test]
    fn sizing_matches_formula_k1() {
        // k=1, 5% → m ≈ n / -ln(0.95) ≈ 19.5 n bits.
        let f = BloomFilter::with_fpr(1000, 0.05, 1);
        let bits_per_key = f.n_bits() as f64 / 1000.0;
        assert!(
            (19.0..21.0).contains(&bits_per_key),
            "bits/key = {bits_per_key}"
        );
    }

    #[test]
    fn fill_and_estimate() {
        let mut f = BloomFilter::with_bits(64, 1);
        assert_eq!(f.fill_ratio(), 0.0);
        f.insert(fx_hash64(&1u64));
        assert!(f.fill_ratio() > 0.0);
        assert!(f.estimated_fpr() > 0.0);
        assert_eq!(f.n_inserted(), 1);
    }

    #[test]
    fn empty_filter_matches_nothing() {
        let f = BloomFilter::with_fpr(100, 0.05, 1);
        for i in 0..100u64 {
            assert!(!f.contains(fx_hash64(&i)));
        }
    }

    #[test]
    fn size_bytes_scales_with_bits() {
        let small = BloomFilter::with_bits(1 << 10, 1).size_bytes();
        let big = BloomFilter::with_bits(1 << 16, 1).size_bytes();
        assert!(big > small);
    }
}
