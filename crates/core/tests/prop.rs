//! Property-based tests for the core pipeline's data-handling laws:
//! TSV round-trips for arbitrary feature rows, merge/rollup arithmetic,
//! and distribution-analysis invariants.

use dns_observatory::aggregate::rollup;
use dns_observatory::analysis::distribution::traffic_distribution;
use dns_observatory::{
    tsv, Dataset, FeatureConfig, FeatureRow, FeatureSet, Key, KeyBuf, TopKTracker, TxSummary,
    WindowDump,
};
use proptest::prelude::*;
use sketches::{BloomFilter, SpaceSaving};

fn arb_tops() -> impl Strategy<Value = Vec<(u64, f64)>> {
    prop::collection::vec((1u64..100_000, 0.01f64..=1.0), 0..=3).prop_map(|mut v| {
        // Normalize shares to sum ≤ 1 and sort descending like the real code.
        let total: f64 = v.iter().map(|(_, s)| s).sum();
        if total > 1.0 {
            for (_, s) in &mut v {
                *s /= total;
            }
        }
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        v.dedup_by_key(|(val, _)| *val);
        v
    })
}

fn arb_quartiles() -> impl Strategy<Value = [f64; 3]> {
    prop_oneof![
        Just([f64::NAN; 3]),
        (0.5f64..100.0, 0.0f64..50.0, 0.0f64..50.0).prop_map(|(a, d1, d2)| [
            a,
            a + d1,
            a + d1 + d2
        ]),
    ]
}

prop_compose! {
    fn arb_row()(
        counters in prop::collection::vec(0u64..1_000_000, 13),
        cards in prop::collection::vec(0.0f64..100_000.0, 10),
        qdots in 0.0f64..40.0,
        qdots_max in 0u8..=40,
        lvl in 0.0f64..20.0,
        nslvl in 0.0f64..20.0,
        ttl_top in arb_tops(),
        ttl_a_top in arb_tops(),
        nsttl_top in arb_tops(),
        negttl_top in arb_tops(),
        a_data_top in arb_tops(),
        ns_names_top in arb_tops(),
        delays in arb_quartiles(),
        hops in arb_quartiles(),
        sizes in arb_quartiles(),
    ) -> FeatureRow {
        let mut row = FeatureSet::new(FeatureConfig::default()).row();
        let hits = counters[0].max(counters.iter().copied().max().unwrap_or(0));
        row.hits = hits;
        row.unans = counters[1].min(hits);
        row.ok = counters[2].min(hits);
        row.nxd = counters[3].min(hits);
        row.rfs = counters[4].min(hits);
        row.fail = counters[5].min(hits);
        row.ok_ans = counters[6].min(row.ok);
        row.ok_ns = counters[7].min(row.ok);
        row.ok_add = counters[8].min(row.ok);
        row.ok_nil = counters[9].min(row.ok);
        row.ok6 = counters[10].min(row.ok);
        row.ok6nil = counters[11].min(row.ok6);
        row.ok_sec = counters[12].min(row.ok);
        row.srvips = cards[0];
        row.srcips = cards[1];
        row.sources = cards[2];
        row.qnamesa = cards[3];
        row.qnames = cards[4];
        row.tlds = cards[5];
        row.eslds = cards[6];
        row.qtypes = cards[7];
        row.ip4s = cards[8];
        row.ip6s = cards[9];
        row.qdots = qdots;
        row.qdots_max = qdots_max;
        row.lvl = lvl;
        row.nslvl = nslvl;
        row.ttl_top = ttl_top;
        row.ttl_a_top = ttl_a_top;
        row.nsttl_top = nsttl_top;
        row.negttl_top = negttl_top;
        row.a_data_top = a_data_top;
        row.ns_names_top = ns_names_top;
        row.resp_delays = delays;
        row.network_hops = hops;
        row.resp_size = sizes;
        row
    }
}

fn dump(rows: Vec<(String, FeatureRow)>, start: f64) -> WindowDump {
    WindowDump {
        dataset: "prop".into(),
        start,
        length: 60.0,
        kept: rows.iter().map(|(_, r)| r.hits).sum(),
        dropped: 0,
        filtered: 0,
        rows,
    }
}

fn rows_close(a: &FeatureRow, b: &FeatureRow) -> bool {
    let f_eq =
        |x: f64, y: f64| (x.is_nan() && y.is_nan()) || (x - y).abs() < 2e-3 * (1.0 + x.abs());
    a.hits == b.hits
        && a.nxd == b.nxd
        && a.ok_nil == b.ok_nil
        && f_eq(a.srvips, b.srvips)
        && f_eq(a.qdots, b.qdots)
        && a.qdots_max == b.qdots_max
        && f_eq(a.resp_delays[1], b.resp_delays[1])
        && a.ttl_top.len() == b.ttl_top.len()
        && a.ttl_top
            .iter()
            .zip(&b.ttl_top)
            .all(|((v1, s1), (v2, s2))| v1 == v2 && (s1 - s2).abs() < 1e-3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every representable window dump round-trips through its TSV file.
    #[test]
    fn tsv_roundtrip_arbitrary_rows(
        rows in prop::collection::vec(("k[a-z0-9.]{1,30}", arb_row()), 0..20),
    ) {
        let d = dump(rows, 120.0);
        let mut buf = Vec::new();
        tsv::write_window(&mut buf, &d).unwrap();
        let parsed = tsv::read_window(&buf[..]).unwrap();
        prop_assert_eq!(parsed.rows.len(), d.rows.len());
        prop_assert_eq!(parsed.kept, d.kept);
        for ((ka, ra), (kb, rb)) in d.rows.iter().zip(&parsed.rows) {
            prop_assert_eq!(ka, kb);
            prop_assert!(rows_close(ra, rb), "row drift for {}", ka);
        }
    }

    /// Rolling up n copies of the same window is the identity on counter
    /// rates and on present-window means.
    #[test]
    fn rollup_identity(row in arb_row(), n in 2usize..6) {
        let windows: Vec<WindowDump> =
            (0..n).map(|i| dump(vec![("k".into(), row.clone())], i as f64 * 60.0)).collect();
        let rolled = rollup(&windows);
        prop_assert_eq!(rolled.rows.len(), 1);
        let out = &rolled.rows[0].1;
        prop_assert_eq!(out.hits, row.hits);
        prop_assert_eq!(out.nxd, row.nxd);
        prop_assert!((out.srvips - row.srvips).abs() < 1e-6 * (1.0 + row.srvips));
        if !row.resp_delays[1].is_nan() {
            prop_assert!((out.resp_delays[1] - row.resp_delays[1]).abs() < 1e-9);
        }
    }

    /// Rolling up a window with an absent partner halves counter rates
    /// (fill-zero) but leaves non-counters untouched.
    #[test]
    fn rollup_fill_zero(row in arb_row()) {
        let w1 = dump(vec![("k".into(), row.clone())], 0.0);
        let w2 = dump(vec![], 60.0);
        let rolled = rollup(&[w1, w2]);
        let out = &rolled.rows[0].1;
        let half = (row.hits as f64 / 2.0).round() as u64;
        prop_assert!(out.hits == half || out.hits == row.hits / 2);
        prop_assert!((out.srvips - row.srvips).abs() < 1e-9 * (1.0 + row.srvips));
    }

    /// Distribution curves are monotone and correctly normalized for any
    /// input rows.
    #[test]
    fn distribution_invariants(
        mut rows in prop::collection::vec(("k[a-z0-9]{1,10}", arb_row()), 1..40),
    ) {
        rows.sort_by_key(|r| std::cmp::Reverse(r.1.hits));
        let dist = traffic_distribution(&rows);
        prop_assert_eq!(
            dist.captured_hits,
            rows.iter().map(|(_, r)| r.hits).sum::<u64>()
        );
        for curve in &dist.curves {
            for w in curve.cdf.windows(2) {
                prop_assert!(w[1] >= w[0] - 1e-12);
            }
            if let Some(&last) = curve.cdf.last() {
                prop_assert!(last <= 1.0 + 1e-9);
            }
        }
    }
}

/// What [`TopKTracker`] is defined to do, with none of its recycling:
/// feature state is built anew for every admitted key and every window,
/// and the gate is consulted after a separate lookup.
struct FreshStateTracker {
    dataset: Dataset,
    ss: SpaceSaving<Key, FeatureSet>,
    bloom: BloomFilter,
    keybuf: KeyBuf,
    stats: (u64, u64, u64),
}

impl FreshStateTracker {
    fn new(dataset: Dataset, k: usize) -> FreshStateTracker {
        FreshStateTracker {
            dataset,
            ss: SpaceSaving::new(k, 60.0),
            bloom: BloomFilter::new(4 * k.max(1_024), 0.02),
            keybuf: KeyBuf::new(),
            stats: (0, 0, 0),
        }
    }

    fn observe(&mut self, s: &TxSummary) {
        if !self.dataset.key_into(s, &mut self.keybuf) {
            self.stats.2 += 1;
            return;
        }
        let key = self.keybuf.as_bytes();
        if self.ss.len() == self.ss.capacity() && self.ss.count(key).is_none() {
            if !self.bloom.check_and_insert(key) {
                self.stats.1 += 1;
                return;
            }
            let set: u32 = self.bloom.words().iter().map(|w| w.count_ones()).sum();
            if set as f64 / self.bloom.num_bits() as f64 > 0.5 {
                self.bloom.clear();
            }
        }
        let fresh = || FeatureSet::new(FeatureConfig::default());
        self.ss
            .observe_with_ref(
                key,
                s.time,
                || self.keybuf.to_key(),
                fresh,
                |fs| *fs = fresh(),
            )
            .fold(s);
        self.stats.0 += 1;
    }

    fn dump(&mut self, window_start: f64) -> Vec<(String, FeatureRow)> {
        let mut rows = Vec::new();
        self.ss.for_each_value(|key, _, _, inserted_at, fs| {
            if inserted_at <= window_start && fs.hits() > 0 {
                rows.push((key.render(), fs.row()));
            }
            *fs = FeatureSet::new(FeatureConfig::default());
        });
        rows.sort_by(|a, b| b.1.hits.cmp(&a.1.hits).then_with(|| a.0.cmp(&b.0)));
        rows
    }

    fn export(&mut self) -> sketchwire::TopKState {
        let entries = self
            .ss
            .iter_restore()
            .into_iter()
            .map(|e| sketchwire::TopKEntry {
                key: e.key.render(),
                count: e.count,
                error: e.error,
                inserted_at: e.inserted_at,
                features: e.value.to_state(),
            })
            .collect();
        self.dump(f64::NEG_INFINITY);
        sketchwire::TopKState {
            dataset: self.dataset.name().to_string(),
            capacity: self.ss.capacity() as u64,
            observed: self.ss.observed(),
            min_count: self.ss.min_count(),
            error_bound: self.ss.error_bound(),
            evictions: self.ss.evictions(),
            kept: 0,
            dropped: 0,
            filtered: 0,
            chunk: 0,
            chunks: 1,
            entries,
            gate: Some(sketchwire::GateState::from_filter(&self.bloom)),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Recycling is invisible: over saturated, gated key streams with
    /// dumps and exports interleaved at random, the tracker and the
    /// fresh-state reference agree on every dumped row, every exported
    /// state (gate words included), every admission and every eviction.
    #[test]
    fn recycling_tracker_equals_fresh_state_reference(
        seed in 0u64..1_000_000,
        k in 8usize..96,
        qname in any::<bool>(),
        breaks in prop::collection::vec((0.0f64..1.0, any::<bool>()), 1..6),
    ) {
        let psl = psl::Psl::embedded();
        let cfg = simnet::SimConfig {
            seed,
            weight_botnet: 40.0, // unique names: churn past any small cache
            ..simnet::SimConfig::small()
        };
        let mut summaries = Vec::new();
        simnet::Simulation::from_config(cfg).run(4.0, &mut |tx| {
            summaries.push(TxSummary::from_transaction(tx, &psl));
        });
        let dataset = if qname { Dataset::Qname } else { Dataset::SrvIp };
        let mut tracker = TopKTracker::new(dataset, k, FeatureConfig::default(), true);
        let mut reference = FreshStateTracker::new(dataset, k);

        let mut breaks: Vec<(usize, bool)> = breaks
            .into_iter()
            .map(|(at, export)| ((at * summaries.len() as f64) as usize, export))
            .collect();
        breaks.push((summaries.len(), true));
        breaks.sort();
        let mut from = 0;
        for (to, export) in breaks {
            for s in &summaries[from..to] {
                tracker.observe(s);
                reference.observe(s);
            }
            from = to;
            prop_assert_eq!(tracker.stats(), reference.stats);
            if export {
                prop_assert_eq!(tracker.export_state(0, 0, 0), reference.export());
            } else {
                let start = summaries[to / 2].time;
                let (got, want) = (tracker.dump(start), reference.dump(start));
                prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
            }
        }
        prop_assert!(tracker.evictions() > 0, "premise: the cache saturated");
    }
}

/// A few real summaries whose times the clock property overwrites.
fn template_summaries() -> &'static [TxSummary] {
    static TEMPLATE: std::sync::OnceLock<Vec<TxSummary>> = std::sync::OnceLock::new();
    TEMPLATE.get_or_init(|| {
        let psl = psl::Psl::embedded();
        let mut sim = simnet::Simulation::from_config(simnet::SimConfig::small());
        let txs = sim.collect(0.5);
        txs.iter()
            .take(64)
            .map(|tx| TxSummary::from_transaction(tx, &psl))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One window clock: over time-ordered feeds with gaps of whole
    /// windows and summaries exactly on window boundaries, the rows and
    /// the state rendering cut the same windows; their starts strictly
    /// increase; every summary lies in `[start, start + w)` of the window
    /// that counted it; and every window closes once.
    #[test]
    fn both_renderings_cut_the_same_windows(
        w in prop_oneof![Just(0.25f64), Just(0.5), Just(1.0), Just(2.0), Just(3.0), Just(60.0)],
        t0 in 0.0f64..200.0,
        steps in prop::collection::vec((0u8..3, 0.0f64..1.0), 1..60),
    ) {
        use dns_observatory::{Observatory, ObservatoryConfig, StateExporter};
        use telemetry::trace::{TraceKind, TraceRing};

        let mut times = vec![t0];
        for (kind, frac) in steps {
            let t = *times.last().unwrap();
            times.push(match kind {
                0 => t + frac * w / 2.0,
                1 => t + (1.0 + (frac * 5.0).floor()) * w + frac,
                _ => ((t / w).floor() + 1.0) * w,
            });
        }
        let template = template_summaries();
        let summaries: Vec<TxSummary> = (times.iter().enumerate())
            .map(|(i, &t)| TxSummary { time: t, ..template[i % template.len()].clone() })
            .collect();
        let cfg = ObservatoryConfig {
            datasets: vec![(Dataset::SrvIp, 64), (Dataset::Qtype, 16)],
            window_secs: w,
            ..ObservatoryConfig::default()
        };
        let ring = TraceRing::new(1 << 12);
        let mut obs = Observatory::new(cfg.clone()).with_trace(ring.clone());
        let mut exporter = StateExporter::new(cfg, 0, 0);
        let mut states = Vec::new();
        for s in summaries {
            obs.ingest_summary(s.clone());
            exporter.ingest_summary(s, &mut states);
        }
        exporter.finish(&mut states);
        let store = obs.finish();

        let rows: Vec<(f64, u64)> = (store.dataset(Dataset::SrvIp).iter())
            .map(|d| (d.start, d.kept + d.dropped + d.filtered))
            .collect();
        let exported: Vec<(f64, u64)> = (states.iter())
            .filter(|ws| ws.topk.dataset == "srvip")
            .map(|ws| (ws.start, ws.topk.kept + ws.topk.dropped + ws.topk.filtered))
            .collect();
        prop_assert_eq!(&rows, &exported);
        prop_assert!(rows.windows(2).all(|p| p[0].0 < p[1].0), "starts increase: {:?}", rows);
        for &(start, counted) in &rows {
            let inside = times.iter().filter(|&&t| start <= t && t < start + w).count();
            prop_assert_eq!(counted, inside as u64, "window at {}", start);
        }
        prop_assert_eq!(rows.iter().map(|r| r.1).sum::<u64>(), times.len() as u64);
        let closes: Vec<u64> = (ring.events().into_iter())
            .filter(|(_, e)| e.kind == TraceKind::Close)
            .map(|(_, e)| e.window_us)
            .collect();
        let starts: Vec<u64> = rows.iter().map(|r| pubsub::window_id_us(r.0)).collect();
        prop_assert_eq!(closes, starts, "one close per window");
    }
}
