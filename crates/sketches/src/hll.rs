//! HyperLogLog cardinality estimation (Flajolet et al. 2007), with the
//! practical improvements from Heule, Nunkesser & Hall 2013 that the paper
//! cites: a 64-bit hash (removing the large-range correction entirely) and
//! linear counting for the small-cardinality regime.

use crate::hash::xxh64;

/// HyperLogLog sketch over byte-slice items.
///
/// Precision `p` (4..=16) gives `m = 2^p` one-byte registers and a relative
/// standard error of about `1.04/√m` (±1.6 % at p=12).
#[derive(Debug, Clone)]
pub struct HyperLogLog {
    p: u8,
    registers: Vec<u8>,
}

impl HyperLogLog {
    /// Create a sketch with `2^p` registers.
    pub fn new(p: u8) -> Self {
        assert!((4..=16).contains(&p), "precision must be in 4..=16");
        HyperLogLog {
            p,
            registers: vec![0; 1 << p],
        }
    }

    /// Number of registers.
    pub fn m(&self) -> usize {
        self.registers.len()
    }

    /// Theoretical relative standard error (≈1.04/√m).
    pub fn standard_error(&self) -> f64 {
        1.04 / (self.m() as f64).sqrt()
    }

    /// Add one item.
    pub fn insert(&mut self, item: &[u8]) {
        self.insert_hash(Self::hash(item));
    }

    /// The 64-bit hash [`HyperLogLog::insert`] takes of `item`. Every
    /// sketch hashes alike, so an item bound for several of them is
    /// hashed once and fed to each through
    /// [`HyperLogLog::insert_hash`].
    pub fn hash(item: &[u8]) -> u64 {
        xxh64(item, HLL_SEED)
    }

    /// Add a pre-hashed item (lets callers share one hash computation
    /// across several sketches).
    pub fn insert_hash(&mut self, hash: u64) {
        HyperLogLog::insert_hash_into(&mut self.registers, hash);
    }

    /// The insert kernel over a bare register array of `2^p` registers
    /// (`p` is read off the length): what [`HyperLogLog::insert_hash`]
    /// does to its own registers, for callers that keep registers in a
    /// block of their own.
    pub fn insert_hash_into(registers: &mut [u8], hash: u64) {
        let p = registers.len().trailing_zeros();
        let idx = (hash >> (64 - p)) as usize;
        // Rank = position of the leftmost 1 in the remaining bits, 1-based.
        let rest = hash << p;
        let rank = (rest.leading_zeros().min(64 - p) + 1) as u8;
        if rank > registers[idx] {
            registers[idx] = rank;
        }
    }

    /// Estimated cardinality.
    pub fn estimate(&self) -> f64 {
        HyperLogLog::estimate_of(&self.registers)
    }

    /// The estimate kernel over a bare register array of `2^p`
    /// registers (see [`HyperLogLog::insert_hash_into`]).
    pub fn estimate_of(registers: &[u8]) -> f64 {
        let m = registers.len() as f64;
        let mut sum = 0.0f64;
        let mut zeros = 0usize;
        for &r in registers {
            sum += 1.0 / (1u64 << r) as f64;
            if r == 0 {
                zeros += 1;
            }
        }
        let alpha = match registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            m => 0.7213 / (1.0 + 1.079 / m as f64),
        };
        let raw = alpha * m * m / sum;

        // Heule et al.: with a 64-bit hash no large-range correction is
        // needed; below the 2.5·m threshold, linear counting on empty
        // registers is strictly more accurate.
        if raw <= 2.5 * m && zeros > 0 {
            m * (m / zeros as f64).ln()
        } else {
            raw
        }
    }

    /// Estimated cardinality, rounded to u64.
    pub fn count(&self) -> u64 {
        self.estimate().round() as u64
    }

    /// Merge another sketch of the same precision (register-wise max).
    pub fn merge(&mut self, other: &HyperLogLog) {
        assert_eq!(self.p, other.p, "precisions must match to merge");
        HyperLogLog::merge_into(&mut self.registers, &other.registers);
    }

    /// The merge kernel over bare register arrays of one length: the
    /// register-wise max of `from` into `into`.
    pub fn merge_into(into: &mut [u8], from: &[u8]) {
        for (a, &b) in into.iter_mut().zip(from) {
            if b > *a {
                *a = b;
            }
        }
    }

    /// Precision `p` of this sketch.
    pub fn precision(&self) -> u8 {
        self.p
    }

    /// The raw register array (length `2^p`) — the serialization surface:
    /// two sketches with equal registers are interchangeable.
    pub fn registers(&self) -> &[u8] {
        &self.registers
    }

    /// Rebuild a sketch from raw registers previously obtained via
    /// [`registers`](Self::registers) — the deserialization path. Callers
    /// must validate untrusted input first: precision in 4..=16, exactly
    /// `2^p` registers, every register within the rank range (`<= 65 - p`).
    pub fn from_registers(p: u8, registers: Vec<u8>) -> HyperLogLog {
        assert!((4..=16).contains(&p), "precision must be in 4..=16");
        assert_eq!(registers.len(), 1usize << p, "register count must be 2^p");
        assert!(
            registers.iter().all(|&r| r <= 65 - p),
            "register exceeds rank range"
        );
        HyperLogLog { p, registers }
    }

    /// Reset all registers to empty.
    pub fn clear(&mut self) {
        self.registers.fill(0);
    }

    /// True if no item was ever inserted.
    pub fn is_empty(&self) -> bool {
        self.registers.iter().all(|&r| r == 0)
    }
}

/// Fixed seed so estimates are reproducible across runs and machines.
const HLL_SEED: u64 = 0x0b5e_7a70_12d5_4a31;

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(h: &mut HyperLogLog, n: u64) {
        for i in 0..n {
            h.insert(&i.to_le_bytes());
        }
    }

    #[test]
    fn empty_sketch() {
        let h = HyperLogLog::new(12);
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn small_range_is_nearly_exact() {
        let mut h = HyperLogLog::new(12);
        fill(&mut h, 100);
        let est = h.count();
        assert!((95..=105).contains(&est), "estimate {est}");
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut h = HyperLogLog::new(12);
        for _ in 0..10 {
            fill(&mut h, 500);
        }
        let est = h.count();
        assert!((470..=530).contains(&est), "estimate {est}");
    }

    #[test]
    fn large_range_within_error() {
        let mut h = HyperLogLog::new(12);
        let n = 1_000_000u64;
        fill(&mut h, n);
        let est = h.estimate();
        let rel = (est - n as f64).abs() / n as f64;
        // 5 standard errors gives a comfortable deterministic margin.
        assert!(
            rel < 5.0 * h.standard_error(),
            "relative error {rel:.4} too high (est {est})"
        );
    }

    #[test]
    fn merge_equals_union() {
        let mut a = HyperLogLog::new(10);
        let mut b = HyperLogLog::new(10);
        for i in 0..3000u64 {
            a.insert(&i.to_le_bytes());
        }
        for i in 1500..4500u64 {
            b.insert(&i.to_le_bytes());
        }
        let mut union = HyperLogLog::new(10);
        for i in 0..4500u64 {
            union.insert(&i.to_le_bytes());
        }
        a.merge(&b);
        let diff = (a.estimate() - union.estimate()).abs();
        assert!(diff < f64::EPSILON, "merge must equal recomputed union");
    }

    #[test]
    #[should_panic(expected = "precisions must match")]
    fn merge_mismatched_precision_panics() {
        let mut a = HyperLogLog::new(10);
        let b = HyperLogLog::new(11);
        a.merge(&b);
    }

    #[test]
    fn clear_resets() {
        let mut h = HyperLogLog::new(8);
        fill(&mut h, 100);
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
    }

    #[test]
    #[should_panic(expected = "precision")]
    fn bad_precision_panics() {
        HyperLogLog::new(3);
    }
}
