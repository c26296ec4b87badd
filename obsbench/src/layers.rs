//! The one adapter between the benchmark and the system's public entry
//! points.
//!
//! Every call the traced replay and the history workload make into a
//! layer goes through a function here, inside a span named
//! `<crate>.<operation>`. When an API moves, a later benchmark change
//! edits this file and nothing else.

use crate::span::Spans;
use crate::workload::Capture;
use dns_observatory::analysis::ttl::{detect_changes, ChangeCategory, DetectedChange};
use dns_observatory::{
    Dataset, FeatureConfig, Observatory, ObservatoryConfig, StateExporter, ThreadedPipeline,
    TimeSeriesStore, TopKTracker, TxSummary, WindowDump,
};
use feed::{CollectorCore, FeedItem, Frame, FrameOutcome, FrameReader, SealedFrame, SensorEncoder};
use psl::Psl;
use pubsub::{Action, BrokerCore, SubEvent, SubscriberCore};
use sketchwire::{AggregatorCore, GlobalWindow, WindowState};
use std::path::Path;
use std::time::Instant;
use store::{CompactionPolicy, QueryStats, Store};

// --- dnswire + psl + core: packets to a summary --------------------------

/// `TxSummary::from_packets`: IP/UDP/DNS parse, PSL split, summarize.
/// Summaries land in `out[sensor]`, as each sensor taps its own resolvers.
pub fn summarize(
    spans: &mut Spans,
    batch: u64,
    captures: &[Capture],
    lap_offset: f64,
    psl: &Psl,
    out: &mut [Vec<TxSummary>],
) -> Result<(), String> {
    spans.time("core.summarize", batch, || {
        for c in captures {
            let s = TxSummary::from_packets(
                &c.query,
                c.response.as_deref(),
                lap_offset + c.time,
                c.contributor,
                c.delay_ms,
                psl,
            )
            .ok_or("generated packets do not parse")?;
            out[c.sensor].push(s);
        }
        Ok(())
    })
}

// --- feed: the sensor → collector transport -------------------------------

/// `SensorEncoder::push` for a run of items; sealed frames go to `out`.
pub fn feed_encode<T: FeedItem>(
    spans: &mut Spans,
    name: &'static str,
    trace_id: u64,
    encoder: &mut SensorEncoder<T>,
    items: impl Iterator<Item = T>,
    out: &mut Vec<SealedFrame>,
) {
    spans.time(name, trace_id, || {
        out.extend(items.filter_map(|item| encoder.push(item)));
    });
}

/// `FrameReader::push` + `next_frame` over one sealed frame's bytes.
pub fn feed_decode<T: FeedItem>(
    spans: &mut Spans,
    name: &'static str,
    trace_id: u64,
    reader: &mut FrameReader<T>,
    bytes: &[u8],
) -> Result<Frame<T>, String> {
    spans.time(name, trace_id, || {
        reader.push(bytes);
        reader
            .next_frame()
            .map_err(|e| format!("{name}: {e}"))?
            .ok_or_else(|| format!("{name}: a whole frame did not decode"))
    })
}

/// `CollectorCore::on_frame`: ledger, time-ordered merge, release.
pub fn feed_collect<T: FeedItem>(
    spans: &mut Spans,
    name: &'static str,
    trace_id: u64,
    core: &mut CollectorCore<T>,
    conn: u64,
    frame: Frame<T>,
    out: &mut Vec<T>,
) -> FrameOutcome {
    spans.time(name, trace_id, || core.on_frame(conn, frame, out))
}

// --- core: the window fold ----------------------------------------------------

/// `Observatory::ingest_summary` for a run of summaries that close no
/// window.
pub fn observatory_fold(
    spans: &mut Spans,
    batch: u64,
    obs: &mut Observatory,
    items: impl Iterator<Item = TxSummary>,
) {
    spans.time("core.fold", batch, || {
        for s in items {
            obs.ingest_summary(s);
        }
    });
}

/// `Observatory::ingest_summary` for the one summary that closes a
/// window: the call dumps every tracker before folding the summary.
pub fn observatory_dump(spans: &mut Spans, window_us: u64, obs: &mut Observatory, s: TxSummary) {
    spans.time("core.dump", window_us, || obs.ingest_summary(s));
}

/// `Observatory::finish`: dump the last, partial window.
pub fn observatory_finish(spans: &mut Spans, window_us: u64, obs: Observatory) -> TimeSeriesStore {
    spans.time("core.dump", window_us, || obs.finish())
}

/// `tsv::render_store`: every window as the bytes `dnsobs` writes.
pub fn tsv_render(
    spans: &mut Spans,
    store: &TimeSeriesStore,
    datasets: &[dns_observatory::Dataset],
) -> Vec<(String, Vec<u8>)> {
    spans.time("core.tsv_write", 0, || {
        dns_observatory::tsv::render_store(store, datasets)
    })
}

/// `StateExporter::ingest_summary` for summaries that close no window.
pub fn exporter_fold(
    spans: &mut Spans,
    batch: u64,
    exporter: &mut StateExporter,
    items: impl Iterator<Item = TxSummary>,
    out: &mut Vec<WindowState>,
) {
    spans.time("core.fold", batch, || {
        for s in items {
            exporter.ingest_summary(s, out);
        }
    });
}

/// `StateExporter::ingest_summary` for the summary that closes a
/// window: the call exports every tracker's state into `out`.
pub fn exporter_export(
    spans: &mut Spans,
    window_us: u64,
    exporter: &mut StateExporter,
    s: TxSummary,
    out: &mut Vec<WindowState>,
) {
    spans.time("core.export", window_us, || exporter.ingest_summary(s, out));
}

/// `StateExporter::finish`: export the last, partial window.
pub fn exporter_finish(
    spans: &mut Spans,
    window_us: u64,
    exporter: StateExporter,
    out: &mut Vec<WindowState>,
) -> u64 {
    spans.time("core.export", window_us, || exporter.finish(out))
}

/// `write_global`: render a sealed window and write its TSV files.
pub fn render_global(
    spans: &mut Spans,
    window_us: u64,
    dir: &Path,
    gw: &GlobalWindow,
) -> Result<usize, String> {
    spans.time("core.render_global", window_us, || {
        dns_observatory::write_global(dir, gw).map_err(|e| format!("write_global: {e}"))
    })
}

// --- sketchwire: the global merge --------------------------------------------

/// `AggregatorCore::on_state`: merge one record into its open window.
pub fn aggregator_merge(
    spans: &mut Spans,
    window_us: u64,
    core: &mut AggregatorCore,
    ws: WindowState,
) -> Result<(), String> {
    spans.time("sketchwire.merge", window_us, || {
        core.on_state(ws).map_err(|e| format!("on_state: {e}"))
    })
}

/// `AggregatorCore::poll`: seal what every upstream has moved past.
pub fn aggregator_poll(
    spans: &mut Spans,
    window_us: u64,
    core: &mut AggregatorCore,
    out: &mut Vec<GlobalWindow>,
) {
    spans.time("sketchwire.seal", window_us, || core.poll(out));
}

/// `AggregatorCore::finish`: seal everything still open.
pub fn aggregator_finish(
    spans: &mut Spans,
    core: AggregatorCore,
    out: &mut Vec<GlobalWindow>,
) -> sketchwire::AggregatorReport {
    spans.time("sketchwire.seal", 0, || core.finish(out))
}

// --- store ----------------------------------------------------------------------

/// `Store::open`.
pub fn store_open(spans: &mut Spans, dir: &Path) -> Result<Store, String> {
    spans.time("store.open", 0, || {
        Store::open(dir)
            .map(|(s, _)| s)
            .map_err(|e| format!("open store {}: {e}", dir.display()))
    })
}

/// `Store::append`; returns the segment written.
pub fn store_append(
    spans: &mut Spans,
    window_us: u64,
    s: &mut Store,
    batch: &[WindowState],
) -> Result<store::SegmentMeta, String> {
    spans.time("store.append", window_us, || {
        s.append(batch).map_err(|e| format!("store append: {e}"))
    })
}

/// `store::compact` with the CLI's policy.
pub fn store_compact(
    spans: &mut Spans,
    window_us: u64,
    s: &mut Store,
    policy: &CompactionPolicy,
) -> Result<(), String> {
    spans.time("store.compact", window_us, || {
        store::compact(s, policy)
            .map(|_| ())
            .map_err(|e| format!("store compact: {e}"))
    })
}

/// `store::query::history`; returns the number of points.
pub fn query_history(
    spans: &mut Spans,
    seq: u64,
    s: &Store,
    dataset: &str,
    key: &str,
    from_us: u64,
    to_us: u64,
) -> Result<(usize, QueryStats), String> {
    spans.time("store.history", seq, || {
        store::query::history(s, dataset, key, from_us, to_us)
            .map(|(points, _, stats)| (points.len(), stats))
            .map_err(|e| format!("history: {e}"))
    })
}

/// The renumbering scan as `dnsobs query renumber` runs it:
/// `store::query::windows_in`, render every window, detect TTL changes.
pub fn query_renumber(
    spans: &mut Spans,
    seq: u64,
    s: &Store,
    from_us: u64,
    to_us: u64,
) -> Result<(Vec<DetectedChange>, QueryStats), String> {
    spans.time("store.renumber", seq, || {
        let (groups, stats) = store::query::windows_in(s, "aafqdn", from_us, to_us, None)
            .map_err(|e| format!("windows_in: {e}"))?;
        let dumps = groups
            .iter()
            .map(|g| dns_observatory::render_state(&g.state, g.start, g.length))
            .collect::<Result<Vec<WindowDump>, _>>()
            .map_err(|e| format!("render: {e}"))?;
        let refs: Vec<&WindowDump> = dumps.iter().collect();
        let found = detect_changes(&refs)
            .into_iter()
            .filter(|c| c.category == ChangeCategory::Renumbering)
            .collect();
        Ok((found, stats))
    })
}

/// `store::query::topk_at`.
pub fn query_topk(
    spans: &mut Spans,
    seq: u64,
    s: &Store,
    dataset: &str,
    at_us: u64,
) -> Result<QueryStats, String> {
    spans.time("store.topk", seq, || {
        store::query::topk_at(s, dataset, at_us)
            .map(|(_, stats)| stats)
            .map_err(|e| format!("topk_at: {e}"))
    })
}

// --- pubsub -----------------------------------------------------------------------

/// `BrokerCore::on_sealed`: reassemble, canonicalize, diff, encode.
pub fn broker_seal(
    spans: &mut Spans,
    window_us: u64,
    broker: &mut BrokerCore,
    batch: Vec<WindowState>,
    actions: &mut Vec<Action>,
) -> Result<(), String> {
    spans.time("pubsub.seal", window_us, || {
        broker
            .on_sealed(batch, actions)
            .map_err(|e| format!("on_sealed: {e}"))
    })
}

/// `pubsub::FrameReader::push` + `next_frame` over one broker frame.
pub fn pubsub_decode(
    spans: &mut Spans,
    window_us: u64,
    reader: &mut pubsub::FrameReader,
    bytes: &[u8],
) -> Result<pubsub::Frame, String> {
    spans.time("pubsub.decode", window_us, || {
        reader.push(bytes);
        reader
            .next_frame()
            .map_err(|e| format!("pubsub decode: {e}"))?
            .ok_or_else(|| "pubsub decode: a whole frame did not decode".to_string())
    })
}

/// `SubscriberCore::on_frame`: install a snapshot or apply a delta.
pub fn subscriber_apply(
    spans: &mut Spans,
    window_us: u64,
    sub: &mut SubscriberCore,
    frame: pubsub::Frame,
) -> Result<Option<SubEvent>, String> {
    spans.time("pubsub.apply", window_us, || {
        sub.on_frame(frame).map_err(|e| format!("on_frame: {e}"))
    })
}

// --- kernels†: tight loops over one lap, outside the budget -----------------------

/// Time `f` over `n` operations; nanoseconds per operation.
fn ns_per_op(n: u64, f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// The kernels†: each a tight loop over the same lap of input, outside
/// the budget table. Returns `(per-layer metric, value)` pairs.
pub fn kernels(
    datasets: &[(Dataset, usize)],
    window_secs: f64,
    trace: &[Capture],
) -> Vec<(&'static str, f64)> {
    use std::hint::black_box;
    let mut v = Kernels(Vec::new());
    let psl = Psl::embedded();
    let n = trace.len() as u64;

    let mut failed = 0u64;
    let parse = |pkt: &[u8]| -> bool {
        let Ok(dg) = dnswire::ip::parse_udp_packet(pkt) else {
            return false;
        };
        pkt.get(dg.payload_offset..dg.payload_offset + dg.payload_len)
            .and_then(|payload| dnswire::Message::parse(payload).ok())
            .map(black_box)
            .is_some()
    };
    v.set(
        "dnswire.parse_ns_per_tx",
        ns_per_op(n, || {
            for c in trace {
                let ok = parse(&c.query) && c.response.as_deref().is_none_or(parse);
                failed += u64::from(!ok);
            }
        }),
    );
    v.set("dnswire.parse_failed", failed as f64);

    let summaries: Vec<TxSummary> = trace
        .iter()
        .filter_map(|c| {
            TxSummary::from_packets(
                &c.query,
                c.response.as_deref(),
                c.time,
                c.contributor,
                c.delay_ms,
                &psl,
            )
        })
        .collect();
    v.set(
        "psl.split_ns_per_tx",
        ns_per_op(n, || {
            for s in &summaries {
                black_box(psl.etld(&s.qname));
                black_box(psl.esld(&s.qname));
            }
        }),
    );

    let mut keybuf = dns_observatory::KeyBuf::new();
    v.set(
        "core.key_ns_per_tx",
        ns_per_op(n, || {
            for s in &summaries {
                for &(ds, _) in datasets {
                    black_box(ds.key_into(s, &mut keybuf));
                }
            }
        }),
    );

    // Two passes, so the second meets trackers as full as the looped
    // trace leaves them in the process tree.
    let mut evictions = 0u64;
    for (&(ds, k), name) in datasets.iter().zip([
        "core.observe_ns_per_tx.srvip",
        "core.observe_ns_per_tx.esld",
        "core.observe_ns_per_tx.qname",
        "core.observe_ns_per_tx.qtype",
        "core.observe_ns_per_tx.rcode",
    ]) {
        let mut tracker = TopKTracker::new(ds, k, FeatureConfig::default(), true);
        for s in &summaries {
            tracker.observe(s);
        }
        let before = tracker.evictions();
        v.set(
            name,
            ns_per_op(n, || {
                for s in &summaries {
                    tracker.observe(s);
                }
            }),
        );
        evictions += tracker.evictions() - before;
    }
    v.set(
        "core.evictions_per_ktx",
        evictions as f64 * 1e3 / n.max(1) as f64,
    );

    // Sketch operations on the qname stream: the key as bytes, its
    // hash, and the delay as the histogram's value.
    let keys: Vec<Vec<u8>> = summaries
        .iter()
        .map(|s| {
            Dataset::Qname.key_into(s, &mut keybuf);
            keybuf.as_bytes().to_vec()
        })
        .collect();
    let hashes: Vec<u64> = keys.iter().map(|k| sketches::hash::xxh64(k, 0)).collect();
    let mut ss: sketches::SpaceSaving<u64, ()> = sketches::SpaceSaving::new(datasets[0].1, 60.0);
    v.set(
        "sketches.spacesaving_ns_per_op",
        ns_per_op(n, || {
            for (h, s) in hashes.iter().zip(&summaries) {
                ss.observe(h, s.time);
            }
        }),
    );
    let mut hll = sketches::HyperLogLog::new(FeatureConfig::default().hll_precision);
    v.set(
        "sketches.hll_ns_per_op",
        ns_per_op(n, || {
            for &h in &hashes {
                hll.insert_hash(h);
            }
        }),
    );
    black_box(hll.count());
    let mut hist = sketches::LogHistogram::for_delays_ms();
    v.set(
        "sketches.histogram_ns_per_op",
        ns_per_op(n, || {
            for s in &summaries {
                hist.record(s.delay_ms.unwrap_or(1.0));
            }
        }),
    );
    black_box(hist.count());
    let mut bloom = sketches::BloomFilter::new(datasets[0].1 * 8, 0.01);
    v.set(
        "sketches.bloom_ns_per_op",
        ns_per_op(n, || {
            for k in &keys {
                black_box(bloom.check_and_insert(k));
            }
        }),
    );

    let pipeline = ThreadedPipeline::new(
        ObservatoryConfig {
            datasets: datasets.to_vec(),
            window_secs,
            ..ObservatoryConfig::default()
        },
        1,
    );
    let input = summaries.clone();
    let started = Instant::now();
    black_box(pipeline.run_summaries(input));
    v.set(
        "core.pipeline_tx_per_s",
        n as f64 / started.elapsed().as_secs_f64(),
    );
    v.0
}

/// The kernels' results as they accumulate.
struct Kernels(Vec<(&'static str, f64)>);

impl Kernels {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }
}
