//! A classic Bloom filter (Bloom 1970).
//!
//! The pipeline consults one before evicting a Space-Saving entry, so a
//! key must be seen at least twice before it may displace a monitored
//! object (paper §2.2: "skip incidental observations of rare keys").

use crate::hash::xxh64;

/// Bloom filter over byte-slice items with double hashing.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: usize,
    num_hashes: u32,
    inserted: u64,
    /// Population count of `bits`, kept as bits are set so that
    /// [`BloomFilter::fill_ratio`] costs a division, not a pass over
    /// the whole array.
    set_bits: u64,
}

impl BloomFilter {
    /// Create a filter sized for `expected_items` at the target
    /// `false_positive_rate` (0 < rate < 1), using the standard optimal
    /// sizing `m = −n·ln p / ln²2`, `k = (m/n)·ln 2`.
    pub fn new(expected_items: usize, false_positive_rate: f64) -> Self {
        assert!(expected_items > 0, "expected_items must be positive");
        assert!(
            (0.0..1.0).contains(&false_positive_rate) && false_positive_rate > 0.0,
            "false positive rate must be in (0, 1)"
        );
        let n = expected_items as f64;
        let ln2 = std::f64::consts::LN_2;
        let m = (-n * false_positive_rate.ln() / (ln2 * ln2)).ceil() as usize;
        let m = m.max(64);
        let k = ((m as f64 / n) * ln2).round().max(1.0) as u32;
        BloomFilter {
            bits: vec![0; m.div_ceil(64)],
            num_bits: m,
            num_hashes: k,
            inserted: 0,
            set_bits: 0,
        }
    }

    /// Number of hash functions in use.
    pub fn num_hashes(&self) -> u32 {
        self.num_hashes
    }

    /// Size of the bit array.
    pub fn num_bits(&self) -> usize {
        self.num_bits
    }

    /// Items inserted so far (an upper bound; duplicates are counted).
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Insert an item.
    pub fn insert(&mut self, item: &[u8]) {
        let (h1, h2) = self.base_hashes(item);
        for i in 0..self.num_hashes {
            let bit = self.bit_index(h1, h2, i);
            let word = &mut self.bits[bit / 64];
            let mask = 1u64 << (bit % 64);
            self.set_bits += u64::from(*word & mask == 0);
            *word |= mask;
        }
        self.inserted += 1;
    }

    /// Check membership: false means *definitely not present*; true means
    /// present with probability 1 − fp-rate.
    pub fn contains(&self, item: &[u8]) -> bool {
        let (h1, h2) = self.base_hashes(item);
        (0..self.num_hashes).all(|i| {
            let bit = self.bit_index(h1, h2, i);
            self.bits[bit / 64] & (1u64 << (bit % 64)) != 0
        })
    }

    /// Insert and report whether the item was (probably) already present —
    /// the exact operation the eviction gate needs, in one pass.
    pub fn check_and_insert(&mut self, item: &[u8]) -> bool {
        let (h1, h2) = self.base_hashes(item);
        let mut present = true;
        for i in 0..self.num_hashes {
            let bit = self.bit_index(h1, h2, i);
            let word = &mut self.bits[bit / 64];
            let mask = 1u64 << (bit % 64);
            if *word & mask == 0 {
                present = false;
                *word |= mask;
                self.set_bits += 1;
            }
        }
        self.inserted += 1;
        present
    }

    /// Clear all bits (used when rotating eviction-gate generations).
    pub fn clear(&mut self) {
        self.bits.fill(0);
        self.inserted = 0;
        self.set_bits = 0;
    }

    /// Fraction of bits set; a loaded filter (>0.5) has degraded accuracy.
    pub fn fill_ratio(&self) -> f64 {
        self.set_bits as f64 / self.num_bits as f64
    }

    /// The raw bit array, one little-endian word per 64 bits. Hashing is
    /// fully deterministic (fixed xxh64 seeds), so serializing the words
    /// and rebuilding with [`BloomFilter::from_parts`] yields a filter
    /// whose every future answer matches the original's.
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Rebuild a filter from serialized parts. Returns `None` when the
    /// parts are inconsistent (word count must cover exactly `num_bits`,
    /// and both sizing parameters must be nonzero) — deserializers turn
    /// that into their own typed error.
    pub fn from_parts(
        bits: Vec<u64>,
        num_bits: usize,
        num_hashes: u32,
        inserted: u64,
    ) -> Option<Self> {
        if num_bits == 0 || num_hashes == 0 || bits.len() != num_bits.div_ceil(64) {
            return None;
        }
        let set_bits = bits.iter().map(|w| u64::from(w.count_ones())).sum();
        Some(BloomFilter {
            bits,
            num_bits,
            num_hashes,
            inserted,
            set_bits,
        })
    }

    #[inline]
    fn base_hashes(&self, item: &[u8]) -> (u64, u64) {
        let h1 = xxh64(item, 0x9d2c_5680_5bd1_e995);
        let h2 = xxh64(item, 0xca62_c1d6_8f1b_bcdc) | 1; // odd stride
        (h1, h2)
    }

    #[inline]
    fn bit_index(&self, h1: u64, h2: u64, i: u32) -> usize {
        (h1.wrapping_add(h2.wrapping_mul(i as u64)) % self.num_bits as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut bf = BloomFilter::new(1000, 0.01);
        for i in 0..1000u32 {
            bf.insert(&i.to_le_bytes());
        }
        for i in 0..1000u32 {
            assert!(bf.contains(&i.to_le_bytes()), "lost item {i}");
        }
    }

    #[test]
    fn false_positive_rate_near_target() {
        let mut bf = BloomFilter::new(10_000, 0.01);
        for i in 0..10_000u32 {
            bf.insert(&i.to_le_bytes());
        }
        let mut fps = 0;
        let probes = 100_000u32;
        for i in 10_000..10_000 + probes {
            if bf.contains(&i.to_le_bytes()) {
                fps += 1;
            }
        }
        let rate = fps as f64 / probes as f64;
        assert!(rate < 0.03, "false positive rate {rate} too high");
    }

    #[test]
    fn check_and_insert_semantics() {
        let mut bf = BloomFilter::new(100, 0.01);
        assert!(!bf.check_and_insert(b"key"));
        assert!(bf.check_and_insert(b"key"));
        assert!(bf.contains(b"key"));
    }

    #[test]
    fn clear_empties() {
        let mut bf = BloomFilter::new(100, 0.01);
        bf.insert(b"x");
        assert!(bf.contains(b"x"));
        bf.clear();
        assert!(!bf.contains(b"x"));
        assert_eq!(bf.inserted(), 0);
        assert_eq!(bf.fill_ratio(), 0.0);
    }

    #[test]
    fn sizing_matches_formula() {
        let bf = BloomFilter::new(1000, 0.01);
        // m ≈ 9585 bits, k ≈ 7 for 1% at n=1000.
        assert!((9000..11000).contains(&bf.num_bits()));
        assert_eq!(bf.num_hashes(), 7);
    }

    #[test]
    #[should_panic(expected = "false positive rate")]
    fn invalid_rate_panics() {
        BloomFilter::new(10, 1.5);
    }

    #[test]
    fn from_parts_roundtrips_behavior() {
        let mut bf = BloomFilter::new(1000, 0.02);
        for i in 0..500u32 {
            bf.insert(&i.to_le_bytes());
        }
        let back = BloomFilter::from_parts(
            bf.words().to_vec(),
            bf.num_bits(),
            bf.num_hashes(),
            bf.inserted(),
        )
        .expect("consistent parts");
        assert_eq!(back.inserted(), bf.inserted());
        // Deterministic hashing: every probe answers identically.
        for i in 0..2000u32 {
            let item = i.to_le_bytes();
            assert_eq!(back.contains(&item), bf.contains(&item), "probe {i}");
        }
    }

    #[test]
    fn from_parts_rejects_inconsistent_sizes() {
        assert!(BloomFilter::from_parts(vec![0; 2], 64, 3, 0).is_none());
        assert!(BloomFilter::from_parts(vec![0; 1], 0, 3, 0).is_none());
        assert!(BloomFilter::from_parts(vec![0; 1], 64, 0, 0).is_none());
        assert!(BloomFilter::from_parts(vec![0; 1], 64, 3, 9).is_some());
    }
}
