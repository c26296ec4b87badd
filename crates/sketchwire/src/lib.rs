//! Serialized sketch state + the federated aggregation tier.
//!
//! The paper's Observatory terminates at one collector. Production scale
//! needs collectors that merge *upward*: each collector exports its
//! per-window sketch state (Space-Saving counters with error terms, HLL
//! registers, feature accumulators) instead of rendered rows, and an
//! aggregation tier merges N such streams into one global Top-k/feature
//! view with a *stated* error bound.
//!
//! This crate provides the three layers of that tier:
//!
//! * [`state`] — plain-data mirrors of every sketch with a strict,
//!   never-panicking codec; [`WindowState`] and the uplink item
//!   [`Uplink`] (a record, or a "closed through" watermark) implement
//!   `feed::FeedItem`, so state streams ride the existing
//!   sensor→collector transport (framing, CRC, gap/dup ledgers,
//!   reconnect backoff) unchanged.
//! * [`record`] — the versioned, CRC-framed, length-prefixed at-rest
//!   record format (files today, historical-store compaction next).
//! * [`merge`] + [`aggregator`] — associative/commutative merge laws and
//!   the sans-io [`AggregatorCore`] that seals a window once every
//!   upstream has closed it and emits [`GlobalWindow`]s whose error bound
//!   is the sum of the per-input Space-Saving bounds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregator;
pub mod merge;
pub mod record;
pub mod state;

pub use aggregator::{
    AggregatorConfig, AggregatorCore, AggregatorReport, GlobalWindow, UpstreamStats, WindowLineage,
};
pub use merge::{assemble_chunks, merge_chunks, merge_features, merge_topk, merge_topk_into};
pub use record::{
    decode_payload, open_record, read_all, take_record, write_record, write_record_bytes,
    RecordCodec, RecordReader, MAX_RECORD, RECORD_MAGIC, RECORD_VERSION,
};
pub use state::{
    FeatureState, GateState, HistogramState, HllState, RecordHead, StateError, TopKEntry,
    TopKState, TopValuesState, Uplink, WindowState,
};

#[cfg(test)]
mod tests {
    use super::*;
    use feed::{ByteReader, FeedItem};

    fn tiny_features(seed: u64) -> FeatureState {
        let mut hll = sketches::HyperLogLog::new(4);
        hll.insert(&seed.to_le_bytes());
        FeatureState {
            adds: vec![seed % 7 + 1, seed % 3],
            maxes: vec![seed % 5],
            hlls: vec![HllState::from_sketch(&hll)],
            source_cap: 8,
            sources: vec![(seed % 100) as u16],
            tops: vec![TopValuesState {
                capacity: 4,
                observed: 3,
                slots: vec![(seed % 10, 2), (seed % 10 + 1, 1)],
            }],
            hists: vec![HistogramState::from_sketch(&{
                let mut h = sketches::LogHistogram::new(1.0, 100.0, 5);
                h.record(seed as f64 % 90.0 + 1.0);
                h
            })],
        }
    }

    pub(crate) fn tiny_state(
        upstream: u64,
        window: f64,
        dataset: &str,
        keys: &[&str],
    ) -> WindowState {
        let entries = keys
            .iter()
            .enumerate()
            .map(|(i, k)| TopKEntry {
                key: k.to_string(),
                count: 10 + i as u64,
                error: i as u64,
                inserted_at: 0.0,
                features: tiny_features(upstream * 31 + i as u64),
            })
            .collect();
        WindowState {
            upstream,
            start: window,
            length: 60.0,
            topk: TopKState {
                dataset: dataset.to_string(),
                capacity: 16,
                observed: 40,
                min_count: 1,
                error_bound: 2,
                evictions: 1,
                kept: 30,
                dropped: 5,
                filtered: 5,
                chunk: 0,
                chunks: 1,
                entries,
                gate: None,
            },
        }
    }

    #[test]
    fn window_state_roundtrip() {
        let ws = tiny_state(3, 120.0, "esld", &["a.example", "b.example"]);
        let mut buf = Vec::new();
        ws.encode(&mut buf);
        let mut r = ByteReader::new(&buf);
        let back = WindowState::decode(&mut r).expect("decode");
        assert!(r.is_empty());
        assert_eq!(back, ws);
    }

    /// An uplink record is its window state's item bytes behind a tag;
    /// a watermark round-trips too, and a bad tag or time is refused.
    #[test]
    fn uplink_roundtrip_keeps_the_state_bytes() {
        let ws = tiny_state(3, 120.0, "esld", &["a.example"]);
        let items = [
            Uplink::State(std::sync::Arc::new(ws.clone())),
            Uplink::Closed {
                upstream: 3,
                through: 180.0,
            },
        ];
        for item in &items {
            let mut buf = Vec::new();
            item.encode(&mut buf);
            let mut r = ByteReader::new(&buf);
            assert_eq!(&Uplink::decode(&mut r).expect("decode"), item);
            assert!(r.is_empty());
        }
        let mut buf = Vec::new();
        items[0].encode(&mut buf);
        assert_eq!(buf[1..], ws.item_bytes());
        for bad in [vec![9u8], {
            let mut b = Vec::new();
            Uplink::Closed {
                upstream: 1,
                through: f64::NAN,
            }
            .encode(&mut b);
            b
        }] {
            assert!(Uplink::decode(&mut ByteReader::new(&bad)).is_err());
        }
    }

    #[test]
    fn record_roundtrip_and_corruption() {
        let ws = tiny_state(1, 0.0, "srvip", &["198.51.100.7"]);
        let mut buf = Vec::new();
        write_record(&ws, &mut buf);
        write_record(&ws, &mut buf);
        let all = read_all(&buf).expect("read");
        assert_eq!(all, vec![ws.clone(), ws]);

        // Any single flipped byte fails with a typed error, never panics.
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0xff;
            assert!(read_all(&bad).is_err(), "flip at {i} went undetected");
        }
        // Every mid-record truncation is detected; a cut at a record
        // boundary is simply a shorter valid stream.
        let rec_len = buf.len() / 2;
        for n in 0..buf.len() {
            if n % rec_len == 0 {
                assert_eq!(
                    read_all(&buf[..n]).expect("boundary cut").len(),
                    n / rec_len
                );
            } else {
                assert!(read_all(&buf[..n]).is_err(), "cut at {n} went undetected");
            }
        }
    }

    #[test]
    fn chunk_split_reassembles() {
        let ws = tiny_state(1, 0.0, "esld", &["a", "b", "c", "d", "e"]);
        let chunks = ws.topk.clone().into_chunks(2);
        assert_eq!(chunks.len(), 3);
        assert!(chunks.iter().all(|c| c.chunks == 3));
        let back = merge_chunks(&chunks).expect("reassemble");
        let mut want = ws.topk;
        want.entries.sort_by(|a, b| a.key.cmp(&b.key));
        assert_eq!(back, want);

        // Duplicate chunks refuse to merge.
        let dup = vec![chunks[0].clone(), chunks[0].clone()];
        assert_eq!(
            merge_chunks(&dup),
            Err(StateError::ChunkMismatch("duplicate chunk"))
        );
    }

    #[test]
    fn absent_key_gains_min_count_on_both_bounds() {
        let a = tiny_state(1, 0.0, "esld", &["both", "only-a"]).topk;
        let b = tiny_state(2, 0.0, "esld", &["both", "only-b"]).topk;
        let m = merge_topk(&a, &b).expect("merge");
        assert_eq!(m.min_count, a.min_count + b.min_count);
        assert_eq!(m.error_bound, a.error_bound + b.error_bound);
        let only_a = m.entries.iter().find(|e| e.key == "only-a").unwrap();
        let src = a.entries.iter().find(|e| e.key == "only-a").unwrap();
        assert_eq!(only_a.count, src.count + b.min_count);
        assert_eq!(only_a.error, src.error + b.min_count);
        let both = m.entries.iter().find(|e| e.key == "both").unwrap();
        let (sa, sb) = (
            a.entries.iter().find(|e| e.key == "both").unwrap(),
            b.entries.iter().find(|e| e.key == "both").unwrap(),
        );
        assert_eq!(both.count, sa.count + sb.count);
        assert_eq!(both.error, sa.error + sb.error);
        // Stated-bound law: no merged entry's error exceeds the bound.
        assert!(m.max_entry_error() <= m.error_bound);
    }

    #[test]
    fn aggregator_seals_on_frontiers() {
        let cfg = AggregatorConfig::new(2);
        let mut core = AggregatorCore::new(&cfg);
        let mut out = Vec::new();
        core.on_state(tiny_state(1, 0.0, "esld", &["a"])).unwrap();
        core.poll(&mut out);
        assert!(out.is_empty(), "one upstream missing, nothing seals");
        core.on_state(tiny_state(2, 0.0, "esld", &["b"])).unwrap();
        core.poll(&mut out);
        assert!(out.is_empty(), "frontiers still at window end");
        core.on_state(tiny_state(1, 60.0, "esld", &["a"])).unwrap();
        core.on_state(tiny_state(2, 60.0, "esld", &["b"])).unwrap();
        core.poll(&mut out);
        assert_eq!(out.len(), 1, "both frontiers passed window 0");
        assert_eq!(out[0].start, 0.0);
        assert_eq!(out[0].upstreams, vec![1, 2]);
        // A record for the sealed window is late, ledgered, dropped.
        core.on_state(tiny_state(2, 0.0, "qtype", &["c"])).unwrap();
        let report = core.finish(&mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(report.late_records, 1);
        assert_eq!(report.upstreams[&2].late_records, 1);
        assert_eq!(report.windows_sealed, 2);
    }

    #[test]
    fn aggregator_gap_ledger_counts_missing_windows() {
        let cfg = AggregatorConfig::new(1);
        let mut core = AggregatorCore::new(&cfg);
        core.on_state(tiny_state(1, 0.0, "esld", &["a"])).unwrap();
        // Windows at 60 and 120 never arrive.
        core.on_state(tiny_state(1, 180.0, "esld", &["a"])).unwrap();
        let report = core.report();
        assert_eq!(report.upstreams[&1].windows, 2);
        assert_eq!(report.upstreams[&1].window_gaps, 2);
    }

    #[test]
    fn lineage_and_trace_track_window_provenance() {
        use telemetry::TraceKind;

        let ring = telemetry::TraceRing::new(64);
        let cfg = AggregatorConfig::new(2);
        let mut core = AggregatorCore::new(&cfg).with_trace(ring.clone());
        core.set_now_us(1_000);
        core.on_state(tiny_state(1, 0.0, "esld", &["a"])).unwrap();
        core.set_now_us(2_000);
        core.on_state(tiny_state(2, 0.0, "esld", &["b"])).unwrap();
        core.set_now_us(5_000);
        let mut out = Vec::new();
        core.finish(&mut out);
        assert_eq!(out.len(), 1);

        let lineage = out[0].lineage;
        assert_eq!(lineage.first_seen_us, 1_000);
        assert_eq!(lineage.sealed_us, 5_000);
        assert_eq!(lineage.records, 2);
        assert_eq!(lineage.conflicts, 0);
        assert_eq!(lineage.latency_us(), 4_000);

        let events: Vec<_> = ring.events().into_iter().map(|(_, e)| e).collect();
        assert_eq!(
            events
                .iter()
                .filter(|e| e.kind == TraceKind::Ingest)
                .count(),
            2
        );
        let terminals: Vec<_> = events.iter().filter(|e| e.kind.is_terminal()).collect();
        assert_eq!(terminals.len(), 1, "exactly one terminal per window");
        assert_eq!(terminals[0].kind, TraceKind::Seal);
        assert_eq!(terminals[0].value, 2, "terminal carries the record count");
        assert_eq!(terminals[0].window_us, 0);

        // Lineage is provenance, not payload: equality ignores it.
        let mut other = out[0].clone();
        other.lineage = WindowLineage::default();
        assert_eq!(other, out[0]);
    }

    #[test]
    fn aggregator_metrics_mirror_report() {
        let registry = telemetry::Registry::new();
        let cfg = AggregatorConfig::new(2);
        let mut core = AggregatorCore::with_registry(&cfg, &registry);
        let mut out = Vec::new();
        for w in 0..3 {
            core.on_state(tiny_state(1, w as f64 * 60.0, "esld", &["a", "b"]))
                .unwrap();
            core.on_state(tiny_state(2, w as f64 * 60.0, "esld", &["b", "c"]))
                .unwrap();
            core.poll(&mut out);
        }
        // Duplicate chunk → one reject for upstream 2.
        let dup = tiny_state(2, 120.0, "esld", &["b", "c"]);
        let mut chunked = dup.clone();
        chunked.topk.chunks = 2;
        let mut c2 = chunked.clone();
        c2.topk.chunk = 1;
        c2.topk.entries.clear();
        // Fresh window with declared 2 chunks, then a duplicate of chunk 0.
        let mut fresh = chunked.clone();
        fresh.start = 180.0;
        let mut fresh_dup = fresh.clone();
        fresh_dup.topk.entries.clear();
        core.on_state(fresh).unwrap();
        assert!(core.on_state(fresh_dup).is_err());
        let report = core.finish(&mut out);

        let snapshot = registry.snapshot(0);
        assert_eq!(snapshot.counter("agg_records_total"), report.records);
        assert_eq!(
            snapshot.counter("agg_rejected_records_total"),
            report.rejected
        );
        assert_eq!(
            snapshot.counter("agg_windows_sealed_total"),
            report.windows_sealed
        );
        assert_eq!(
            snapshot.counter("agg_dataset_merges_total"),
            report.dataset_merges
        );
        for (&id, stats) in &report.upstreams {
            let labeled = |base: &str| snapshot.counter(&format!("{base}{{upstream=\"{id}\"}}"));
            assert_eq!(labeled("agg_upstream_records_total"), stats.records);
            assert_eq!(labeled("agg_upstream_rejected_total"), stats.rejected);
            assert_eq!(labeled("agg_upstream_windows_total"), stats.windows);
            assert_eq!(labeled("agg_upstream_window_gaps_total"), stats.window_gaps);
            assert_eq!(
                labeled("agg_upstream_merged_windows_total"),
                stats.merged_windows
            );
        }
    }
}
