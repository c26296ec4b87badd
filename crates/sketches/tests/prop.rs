//! Property-based tests for the sketch invariants the pipeline relies on.

use proptest::prelude::*;
use sketches::{BloomFilter, HyperLogLog, LogHistogram, SpaceSaving, TopValues};
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Space-Saving: for every monitored key,
    /// `count − error ≤ true count ≤ count`, and `error ≤ N/k`.
    #[test]
    fn space_saving_error_bounds(
        keys in prop::collection::vec(0u32..50, 1..2000),
        k in 2usize..32,
    ) {
        let mut ss: SpaceSaving<u32, ()> = SpaceSaving::new(k, 60.0);
        let mut truth: HashMap<u32, u64> = HashMap::new();
        for (i, key) in keys.iter().enumerate() {
            ss.observe(key, i as f64 * 0.001);
            *truth.entry(*key).or_default() += 1;
        }
        let n = keys.len() as u64;
        prop_assert_eq!(ss.observed(), n);
        for e in ss.iter_desc() {
            let true_count = truth[e.key];
            prop_assert!(e.count >= true_count,
                "count {} < true {}", e.count, true_count);
            prop_assert!(e.count - e.error <= true_count,
                "lower bound {} > true {}", e.count - e.error, true_count);
            prop_assert!(e.error <= n / k as u64,
                "error {} > N/k {}", e.error, n / k as u64);
        }
    }

    /// Space-Saving: any key whose true frequency exceeds N/k must be
    /// monitored (the classic frequent-elements guarantee).
    #[test]
    fn space_saving_finds_frequent_elements(
        keys in prop::collection::vec(0u32..20, 100..1500),
        k in 4usize..16,
    ) {
        let mut ss: SpaceSaving<u32, ()> = SpaceSaving::new(k, 60.0);
        let mut truth: HashMap<u32, u64> = HashMap::new();
        for (i, key) in keys.iter().enumerate() {
            ss.observe(key, i as f64);
            *truth.entry(*key).or_default() += 1;
        }
        let n = keys.len() as u64;
        let threshold = n / k as u64;
        for (key, &count) in &truth {
            if count > threshold {
                prop_assert!(ss.count(key).is_some(),
                    "frequent key {key} (count {count} > {threshold}) evicted");
            }
        }
    }

    /// HyperLogLog: estimate within 6 standard errors of the truth for
    /// arbitrary distinct-item counts.
    #[test]
    fn hll_relative_error(n in 1u64..30_000, p in 8u8..14) {
        let mut h = HyperLogLog::new(p);
        for i in 0..n {
            h.insert(&i.to_le_bytes());
        }
        let est = h.estimate();
        let rel = (est - n as f64).abs() / n as f64;
        // Allow generous slack for small n where quantization dominates.
        let allowed = 6.0 * h.standard_error() + 3.0 / n as f64;
        prop_assert!(rel <= allowed, "n={n} p={p} est={est:.1} rel={rel:.4}");
    }

    /// HyperLogLog merge is commutative and idempotent.
    #[test]
    fn hll_merge_laws(
        xs in prop::collection::vec(any::<u64>(), 0..500),
        ys in prop::collection::vec(any::<u64>(), 0..500),
    ) {
        let mut a = HyperLogLog::new(10);
        let mut b = HyperLogLog::new(10);
        for x in &xs { a.insert(&x.to_le_bytes()); }
        for y in &ys { b.insert(&y.to_le_bytes()); }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab.estimate().to_bits(), ba.estimate().to_bits());
        let mut abb = ab.clone();
        abb.merge(&b);
        prop_assert_eq!(abb.estimate().to_bits(), ab.estimate().to_bits());
    }

    /// Bloom filter: zero false negatives, whatever the input.
    #[test]
    fn bloom_no_false_negatives(
        items in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..32), 1..500),
    ) {
        let mut bf = BloomFilter::new(items.len().max(8), 0.02);
        for item in &items {
            bf.insert(item);
        }
        for item in &items {
            prop_assert!(bf.contains(item));
        }
    }

    /// Bloom filter: the running set-bit count behind `fill_ratio` is the
    /// population count of the bit array, through every way the array
    /// changes (insert, check-and-insert, clear, rebuild from parts —
    /// stray bits past `num_bits` in the last word included).
    #[test]
    fn bloom_fill_ratio_is_the_popcount(
        ops in prop::collection::vec((0u8..16, any::<u16>()), 1..400),
        stray in any::<u64>(),
    ) {
        let mut bf = BloomFilter::new(64, 0.02);
        for (op, item) in ops {
            let item = item.to_le_bytes();
            match op {
                0 => bf.clear(),
                1 => {
                    let mut words = bf.words().to_vec();
                    *words.last_mut().expect("never empty") |= stray;
                    bf = BloomFilter::from_parts(
                        words,
                        bf.num_bits(),
                        bf.num_hashes(),
                        bf.inserted(),
                    )
                    .expect("consistent parts");
                }
                2..=8 => bf.insert(&item),
                _ => {
                    bf.check_and_insert(&item);
                }
            }
            let set: u32 = bf.words().iter().map(|w| w.count_ones()).sum();
            prop_assert_eq!(bf.fill_ratio(), set as f64 / bf.num_bits() as f64);
        }
    }

    /// HyperLogLog and histogram: the split forms the fold digest uses
    /// (`insert_hash(hash(item))`, `record_at(index_of(v), v)`) are the
    /// whole forms.
    #[test]
    fn split_sketch_updates_equal_whole_ones(
        items in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 1..200),
        values in prop::collection::vec(0.01f64..50_000.0, 1..200),
    ) {
        let (mut whole, mut split) = (HyperLogLog::new(7), HyperLogLog::new(7));
        for item in &items {
            whole.insert(item);
            split.insert_hash(HyperLogLog::hash(item));
        }
        prop_assert_eq!(whole.registers(), split.registers());
        let (mut whole, mut split) = (LogHistogram::for_delays_ms(), LogHistogram::for_delays_ms());
        for &v in &values {
            whole.record(v);
            split.record_at(split.buckets().index_of(v), v);
        }
        prop_assert_eq!(whole.counts(), split.counts());
        prop_assert_eq!(whole.mean(), split.mean());
        prop_assert_eq!(whole.quartiles(), split.quartiles());
    }

    /// Histogram: quantiles are monotone in q and bracketed by min/max.
    #[test]
    fn histogram_quantile_monotone(
        values in prop::collection::vec(0.5f64..5000.0, 1..300),
        qs in prop::collection::vec(0.0f64..=1.0, 2..6),
    ) {
        let mut h = LogHistogram::new(0.5, 10_000.0, 20);
        for &v in &values {
            h.record(v);
        }
        let mut qs = qs;
        qs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut last = f64::NEG_INFINITY;
        for &q in &qs {
            let v = h.quantile(q).unwrap();
            prop_assert!(v >= last, "quantile not monotone at q={q}");
            prop_assert!(v >= h.min_value().unwrap() && v <= h.max_value().unwrap());
            last = v;
        }
    }

    /// Sharded Space-Saving: partitioning a stream by key hash across N
    /// independent trackers (the pipeline's shard layout) and merging by
    /// concatenation preserves the per-partition error bound. Because the
    /// partitions are disjoint, each merged entry keeps the guarantees of
    /// the shard that produced it: `count − error ≤ true ≤ count` with
    /// `error ≤ N_shard / k_shard`, and any key whose frequency within its
    /// shard exceeds that bound is present in the merged view.
    #[test]
    fn sharded_space_saving_merge_preserves_partition_bounds(
        keys in prop::collection::vec(0u32..60, 1..2500),
        k in 2usize..24,
        shards in 1usize..5,
    ) {
        let shard_of = |key: u32| -> usize {
            (sketches::hash::xxh64(&key.to_be_bytes(), 0) % shards as u64) as usize
        };
        let mut parts: Vec<SpaceSaving<u32, ()>> =
            (0..shards).map(|_| SpaceSaving::new(k, 60.0)).collect();
        let mut truth: HashMap<u32, u64> = HashMap::new();
        for (i, key) in keys.iter().enumerate() {
            parts[shard_of(*key)].observe(key, i as f64 * 0.001);
            *truth.entry(*key).or_default() += 1;
        }
        // Disjoint partitions ⇒ merge is concatenation: no key appears in
        // two shards, and per-shard totals sum to the stream length.
        let total: u64 = parts.iter().map(|p| p.observed()).sum();
        prop_assert_eq!(total, keys.len() as u64);
        let mut seen: HashMap<u32, usize> = HashMap::new();
        for (s, part) in parts.iter().enumerate() {
            let bound = part.error_bound();
            for e in part.iter_desc() {
                prop_assert!(seen.insert(*e.key, s).is_none(),
                    "key {} reported by two shards", e.key);
                let true_count = truth[e.key];
                prop_assert!(e.count >= true_count,
                    "merged count {} < true {}", e.count, true_count);
                prop_assert!(e.count - e.error <= true_count,
                    "merged lower bound {} > true {}", e.count - e.error, true_count);
                prop_assert!(e.error <= bound,
                    "shard {s}: error {} > per-partition bound {}", e.error, bound);
            }
        }
        // Frequent-elements guarantee survives the merge, per partition.
        for (key, &count) in &truth {
            let part = &parts[shard_of(*key)];
            if count > part.error_bound() {
                prop_assert!(seen.contains_key(key),
                    "shard-frequent key {key} missing from merged view");
            }
        }
    }

    /// Histogram: median has bounded relative error vs the exact median.
    #[test]
    fn histogram_median_accuracy(
        mut values in prop::collection::vec(1.0f64..10_000.0, 11..400),
    ) {
        let mut h = LogHistogram::new(1.0, 10_000.0, 20);
        for &v in &values {
            h.record(v);
        }
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let exact = values[(values.len() - 1) / 2];
        let approx = h.quantile(0.5).unwrap();
        // One log-bucket is a factor of 10^(1/20) ≈ 1.122; allow two
        // buckets of slack either way for rank-rounding.
        let factor = 10f64.powf(2.0 / 20.0);
        prop_assert!(approx <= exact * factor && approx >= exact / factor,
            "approx {approx} exact {exact}");
    }

    /// TopValues: the reported counts are exact for values that were never
    /// evicted, and the top value is the true mode when capacity suffices.
    #[test]
    fn topvalues_exact_within_capacity(
        values in prop::collection::vec(0u64..8, 1..500),
    ) {
        let mut t = TopValues::new(8);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &v in &values {
            t.record(v);
            *truth.entry(v).or_default() += 1;
        }
        for (v, c) in t.ranked() {
            prop_assert_eq!(truth[&v], c);
        }
        let mode = truth.iter().max_by_key(|(v, c)| (*c, std::cmp::Reverse(*v))).unwrap();
        let top = t.top().unwrap();
        prop_assert_eq!(truth[&top], *mode.1);
    }

    /// HyperLogLog merge: associative, with the empty sketch as identity,
    /// and merging per-part sketches is indistinguishable from sketching
    /// the concatenated stream — the property the collector relies on
    /// when it unions per-sensor sketches in any grouping the network
    /// happens to produce.
    #[test]
    fn hll_merge_associativity_identity_and_parts_equal_whole(
        xs in prop::collection::vec(any::<u64>(), 0..400),
        ys in prop::collection::vec(any::<u64>(), 0..400),
        zs in prop::collection::vec(any::<u64>(), 0..400),
    ) {
        let sketch = |items: &[u64]| {
            let mut h = HyperLogLog::new(10);
            for i in items {
                h.insert(&i.to_le_bytes());
            }
            h
        };
        let (a, b, c) = (sketch(&xs), sketch(&ys), sketch(&zs));

        // Associativity: (a ∪ b) ∪ c == a ∪ (b ∪ c).
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(left.estimate().to_bits(), right.estimate().to_bits());

        // Identity: merging an empty sketch changes nothing.
        let mut with_empty = a.clone();
        with_empty.merge(&HyperLogLog::new(10));
        prop_assert_eq!(with_empty.estimate().to_bits(), a.estimate().to_bits());

        // Parts equal whole: however the stream was split, the union is
        // the sketch of the concatenation.
        let mut whole_items = xs.clone();
        whole_items.extend_from_slice(&ys);
        whole_items.extend_from_slice(&zs);
        let whole = sketch(&whole_items);
        prop_assert_eq!(left.estimate().to_bits(), whole.estimate().to_bits());
    }

    /// Space-Saving: `error ≤ N/k` and the count bracket hold regardless
    /// of insertion order — including adversarial schedules engineered to
    /// maximize eviction churn (rare keys round-robining against the
    /// table, and frequency-sorted runs in both directions).
    #[test]
    fn space_saving_error_bound_is_order_independent(
        freqs in prop::collection::vec(1u64..40, 3..40),
        k in 2usize..16,
    ) {
        // Key i occurs freqs[i] times; three schedules over one multiset.
        let mut ascending: Vec<u32> = Vec::new();
        let mut order: Vec<usize> = (0..freqs.len()).collect();
        order.sort_by_key(|&i| freqs[i]);
        for &i in &order {
            ascending.extend(std::iter::repeat_n(i as u32, freqs[i] as usize));
        }
        let descending: Vec<u32> = ascending.iter().rev().copied().collect();
        // Churn: one copy of each still-remaining key per round, so low-
        // frequency keys keep re-entering and evicting monitored entries.
        let mut remaining = freqs.clone();
        let mut churn: Vec<u32> = Vec::new();
        loop {
            let mut any = false;
            for (i, r) in remaining.iter_mut().enumerate() {
                if *r > 0 {
                    *r -= 1;
                    churn.push(i as u32);
                    any = true;
                }
            }
            if !any {
                break;
            }
        }

        let n: u64 = freqs.iter().sum();
        for (name, stream) in [
            ("ascending", &ascending),
            ("descending", &descending),
            ("churn", &churn),
        ] {
            let mut ss: SpaceSaving<u32, ()> = SpaceSaving::new(k, 60.0);
            for (i, key) in stream.iter().enumerate() {
                ss.observe(key, i as f64 * 0.001);
            }
            prop_assert_eq!(ss.observed(), n);
            for e in ss.iter_desc() {
                let true_count = freqs[*e.key as usize];
                prop_assert!(e.error <= n / k as u64,
                    "{name}: error {} > N/k {}", e.error, n / k as u64);
                prop_assert!(e.count >= true_count,
                    "{name}: count {} < true {}", e.count, true_count);
                prop_assert!(e.count - e.error <= true_count,
                    "{name}: lower bound {} > true {}", e.count - e.error, true_count);
            }
            // Frequent-elements guarantee must also be order-independent.
            for (i, &count) in freqs.iter().enumerate() {
                if count > n / k as u64 {
                    prop_assert!(ss.count(&(i as u32)).is_some(),
                        "{name}: frequent key {i} (count {count}) evicted");
                }
            }
        }
    }
}
