//! The traced run: per-layer numbers for one workload.
//!
//! One thread replays the generated input through the same sequence of
//! public calls the `dnsobs` glue makes (all of them via `layers`), with
//! a span around every call; the spans' self times form a budget table
//! that sums to the replay's wall time. Kernels marked † in the README
//! are separate loops over the same input. A fixed-work process-tree
//! run of the same laps (the replay's twin) supplies the counters that
//! exist only between processes and the bytes the replay's own output
//! must equal.

use crate::e2e::{self, StreamOutcome, Until};
use crate::history;
use crate::layers;
use crate::span::{self, Row, Spans};
use crate::stats;
use crate::workload::{self, Capture, HistorySpec, StreamSpec, SENSORS};
use crate::{Metrics, RunResult};
use dns_observatory::{Dataset, Observatory, ObservatoryConfig, StateExporter, TxSummary};
use feed::{CollectorConfig, CollectorCore, FeedItem, FrameReader, SensorEncoder};
use psl::Psl;
use pubsub::{Action, BrokerConfig, BrokerCore, SubscriberCore};
use sketchwire::{AggregatorConfig, AggregatorCore, GlobalWindow, WindowState};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Transactions one per-transaction span covers.
const BATCH: usize = 256;
/// Entries per exported chunk, the CLI's `--chunk-entries` default.
const CHUNK_ENTRIES: usize = 1_024;
/// Queries the traced history run answers (a tenth of it with `--quick`).
const TRACED_QUERIES: usize = 600;

/// Every per-layer metric, in the order BENCHMARK.json lists them.
/// A workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 67] = [
    ("dnswire.parse_ns_per_tx", "ns"),
    ("dnswire.parse_failed", "count"),
    ("psl.split_ns_per_tx", "ns"),
    ("core.summarize_ns_per_tx", "ns"),
    ("core.key_ns_per_tx", "ns"),
    ("core.observe_ns_per_tx.srvip", "ns"),
    ("core.observe_ns_per_tx.esld", "ns"),
    ("core.observe_ns_per_tx.qname", "ns"),
    ("core.observe_ns_per_tx.qtype", "ns"),
    ("core.observe_ns_per_tx.rcode", "ns"),
    ("core.fold_ns_per_tx", "ns"),
    ("core.pipeline_tx_per_s", "1/s"),
    ("core.evictions_per_ktx", "count"),
    ("core.export_ms_per_window", "ms"),
    ("core.render_global_ms_per_window", "ms"),
    ("core.dump_ms_per_window", "ms"),
    ("core.tsv_write_ms_per_window", "ms"),
    ("sketches.spacesaving_ns_per_op", "ns"),
    ("sketches.hll_ns_per_op", "ns"),
    ("sketches.histogram_ns_per_op", "ns"),
    ("sketches.bloom_ns_per_op", "ns"),
    ("feed.encode_ns_per_tx", "ns"),
    ("feed.decode_ns_per_tx", "ns"),
    ("feed.collect_ns_per_tx", "ns"),
    ("feed.wire_bytes_per_tx", "bytes"),
    ("feed.send_blocked_s", "s"),
    ("feed.dropped_items", "count"),
    ("feed.gap_frames", "count"),
    ("sketchwire.encode_us_per_record", "us"),
    ("sketchwire.decode_us_per_record", "us"),
    ("sketchwire.bytes_per_record", "bytes"),
    ("sketchwire.records_per_window", "count"),
    ("sketchwire.uplink_bytes_per_window", "bytes"),
    ("sketchwire.uplink_collect_us_per_record", "us"),
    ("sketchwire.merge_us_per_record", "us"),
    ("sketchwire.seal_ms_per_window", "ms"),
    ("sketchwire.merge_conflicts", "count"),
    ("store.append_ms_per_window", "ms"),
    ("store.append_bytes_per_window", "bytes"),
    ("store.compact_ms_per_window", "ms"),
    ("store.ingest_windows_per_s", "1/s"),
    ("store.disk_mb", "MB"),
    ("store.open_ms", "ms"),
    ("store.history_ms", "ms"),
    ("store.renumber_ms", "ms"),
    ("store.topk_ms", "ms"),
    ("store.query_p99_ms", "ms"),
    ("store.scanned_share", "ratio"),
    ("store.records_decoded_per_query", "count"),
    ("pubsub.seal_ms_per_window", "ms"),
    ("pubsub.frame_bytes_per_window", "bytes"),
    ("pubsub.delta_share", "ratio"),
    ("pubsub.decode_ms_per_window", "ms"),
    ("pubsub.apply_ms_per_window", "ms"),
    ("pubsub.dropped_windows", "count"),
    ("pubsub.evictions", "count"),
    ("bench.window_latency_p50_ms", "ms"),
    ("bench.window_latency_p90_ms", "ms"),
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.host_probe_ms", "ms"),
    ("bench.trace_gen_s", "s"),
    ("bench.replay_tx_per_s", "1/s"),
    ("bench.inline_tx_per_s", "1/s"),
    ("bench.glue_share", "ratio"),
    ("bench.span_cost_ns", "ns"),
    ("bench.span_overhead_share", "ratio"),
    ("bench.budget_residual_share", "ratio"),
];

/// Values of the per-layer metrics a run produced; the rest stay 0.
#[derive(Default)]
struct Values(BTreeMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    fn into_metrics(self) -> Metrics {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, self.0.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }
}

fn self_ms(rows: &BTreeMap<&'static str, Row>, name: &str) -> f64 {
    rows.get(name).map_or(0.0, |r| r.self_ns as f64 / 1e6)
}

/// `a / b`, or 0 when there is nothing to divide by.
fn per(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Tells, before the call, whether a summary will close the open window,
/// so the closing call gets a span of its own. It repeats the rule of
/// the fold it shadows; a wrong guess would misfile a span, never change
/// a result.
struct WindowClock {
    start: Option<f64>,
    secs: f64,
    /// `true`: windows are aligned to multiples of the length
    /// (`StateExporter`); `false`: they start at the first summary and
    /// advance in whole lengths (`Observatory`).
    aligned: bool,
}

impl WindowClock {
    fn closes(&self, time: f64) -> bool {
        match self.start {
            None => false,
            Some(start) if self.aligned => (time / self.secs).floor() * self.secs > start,
            Some(start) => time >= start + self.secs,
        }
    }

    /// Record that `time` was folded.
    fn note(&mut self, time: f64) {
        let w = self.secs;
        self.start = Some(match self.start {
            _ if self.aligned => (time / w).floor() * w,
            None => time,
            Some(start) if time >= start + w => start + ((time - start) / w).floor() * w,
            Some(start) => start,
        });
    }

    fn window_us(&self) -> u64 {
        (self.start.unwrap_or(0.0) * 1e6).round() as u64
    }
}

/// One sensor → collector hop of the feed, as the replay drives it:
/// encoder on the sending side, frame reader and ledger/merge core on
/// the receiving side.
struct Hop<T: FeedItem> {
    encoders: Vec<SensorEncoder<T>>,
    readers: Vec<FrameReader<T>>,
    core: CollectorCore<T>,
    wire_bytes: u64,
    items: u64,
    /// Span names of the three steps on this hop.
    names: [&'static str; 3],
}

impl<T: FeedItem> Hop<T> {
    /// A hop with `senders` sending ends, ids `first_id..`, all
    /// announced to the collector core as a connecting sensor does.
    fn open(first_id: u64, senders: usize, names: [&'static str; 3]) -> Hop<T> {
        let mut hop = Hop {
            encoders: (0..senders)
                .map(|i| SensorEncoder::new(first_id + i as u64, BATCH, 0))
                .collect(),
            readers: (0..senders).map(|_| FrameReader::new()).collect(),
            core: CollectorCore::new(&CollectorConfig::new(senders as u64)),
            wire_bytes: 0,
            items: 0,
            names,
        };
        let mut none = Vec::new();
        for i in 0..senders {
            let hello = hop.encoders[i].hello_frame();
            hop.readers[i].push(&hello);
            let frame = hop.readers[i]
                .next_frame()
                .expect("own hello decodes")
                .expect("hello is a whole frame");
            hop.core.on_frame(i as u64, frame, &mut none);
        }
        hop
    }

    /// Push `items` through sender `i`; whatever the merge releases is
    /// appended to `out`.
    fn send(
        &mut self,
        spans: &mut Spans,
        trace_id: u64,
        i: usize,
        items: impl Iterator<Item = T>,
        out: &mut Vec<T>,
    ) -> Result<(), String> {
        let mut sealed = Vec::new();
        layers::feed_encode(
            spans,
            self.names[0],
            trace_id,
            &mut self.encoders[i],
            items,
            &mut sealed,
        );
        self.deliver(spans, trace_id, i, sealed, out)
    }

    fn deliver(
        &mut self,
        spans: &mut Spans,
        trace_id: u64,
        i: usize,
        sealed: Vec<feed::SealedFrame>,
        out: &mut Vec<T>,
    ) -> Result<(), String> {
        for frame in sealed {
            self.wire_bytes += frame.bytes.len() as u64;
            self.items += frame.items;
            let decoded = layers::feed_decode(
                spans,
                self.names[1],
                trace_id,
                &mut self.readers[i],
                &frame.bytes,
            )?;
            layers::feed_collect(
                spans,
                self.names[2],
                trace_id,
                &mut self.core,
                i as u64,
                decoded,
                out,
            );
        }
        Ok(())
    }

    /// Flush every sender's partial batch and say BYE, as
    /// `Sensor::finish` does: the merge releases everything it holds.
    /// Returns the frames the collector's ledger counts as lost.
    fn close(&mut self, spans: &mut Spans, out: &mut Vec<T>) -> Result<u64, String> {
        for i in 0..self.encoders.len() {
            let mut last: Vec<feed::SealedFrame> = self.encoders[i].flush().into_iter().collect();
            last.push(self.encoders[i].bye_frame(0, 0));
            self.deliver(spans, u64::MAX, i, last, out)?;
        }
        Ok(self.core.total_gap_recorded())
    }
}

/// Counters the replay gathers next to its spans.
#[derive(Default)]
struct Counts {
    tx: u64,
    windows: u64,
    feed_wire_bytes: u64,
    uplink_records: u64,
    uplink_wire_bytes: u64,
    store_bytes: u64,
    pubsub_frame_bytes: u64,
    delta_bytes_sampled: u64,
    snapshot_bytes_sampled: u64,
    merge_conflicts: u64,
    gap_frames: u64,
    /// What the replay delivered, as `(file name, bytes)`.
    delivered: Vec<(String, Vec<u8>)>,
}

fn observatory_config(spec: &StreamSpec) -> ObservatoryConfig {
    ObservatoryConfig {
        datasets: spec.datasets(),
        window_secs: spec.window_secs,
        ..ObservatoryConfig::default()
    }
}

/// What a replay folds released summaries into.
trait WindowFold {
    /// A run of summaries none of which closes the open window.
    fn fold(&mut self, spans: &mut Spans, batch: u64, run: &mut dyn Iterator<Item = TxSummary>);
    /// The one summary that closes window `window_us` first.
    fn close(&mut self, spans: &mut Spans, window_us: u64, s: TxSummary);
}

impl WindowFold for Observatory {
    fn fold(&mut self, spans: &mut Spans, batch: u64, run: &mut dyn Iterator<Item = TxSummary>) {
        layers::observatory_fold(spans, batch, self, run);
    }
    fn close(&mut self, spans: &mut Spans, window_us: u64, s: TxSummary) {
        layers::observatory_dump(spans, window_us, self, s);
    }
}

/// A `StateExporter` together with where its exports go.
struct Exporting<'a> {
    exporter: &'a mut StateExporter,
    states: &'a mut Vec<WindowState>,
}

impl WindowFold for Exporting<'_> {
    fn fold(&mut self, spans: &mut Spans, batch: u64, run: &mut dyn Iterator<Item = TxSummary>) {
        layers::exporter_fold(spans, batch, self.exporter, run, self.states);
    }
    fn close(&mut self, spans: &mut Spans, window_us: u64, s: TxSummary) {
        layers::exporter_export(spans, window_us, self.exporter, s, self.states);
    }
}

/// Fold released summaries into `into`, giving the summary that closes a
/// window its own span.
fn fold_runs(
    spans: &mut Spans,
    batch: u64,
    clock: &mut WindowClock,
    released: &mut Vec<TxSummary>,
    into: &mut dyn WindowFold,
) {
    let mut it = released.drain(..).peekable();
    while let Some(next) = it.peek() {
        if clock.closes(next.time) {
            let s = it.next().expect("peeked");
            let closing = clock.window_us();
            clock.note(s.time);
            into.close(spans, closing, s);
        } else {
            let mut run = std::iter::from_fn(|| {
                let s = it.next_if(|s| !clock.closes(s.time))?;
                clock.note(s.time);
                Some(s)
            });
            into.fold(spans, batch, &mut run);
        }
    }
}

/// The single-collector topology: two sensors → collector → pipeline →
/// TSV, as `dnsobs collect --out` runs it.
fn replay_single(
    spec: &StreamSpec,
    trace: &[Capture],
    laps: u32,
    spans: &mut Spans,
) -> Result<Counts, String> {
    let psl = Psl::embedded();
    let mut counts = Counts::default();
    let mut hop: Hop<TxSummary> =
        Hop::open(0, SENSORS, ["feed.encode", "feed.decode", "feed.collect"]);
    let mut obs = Observatory::new(observatory_config(spec));
    let mut clock = WindowClock {
        start: None,
        secs: spec.window_secs,
        aligned: false,
    };
    let mut summaries: [Vec<TxSummary>; SENSORS] = Default::default();
    let mut released = Vec::new();
    let mut batch = 0u64;
    let root = spans.begin("bench.glue", 0);
    for lap in 0..laps {
        let offset = f64::from(lap) * spec.lap_advance();
        for chunk in trace.chunks(BATCH) {
            batch += 1;
            layers::summarize(spans, batch, chunk, offset, &psl, &mut summaries)?;
            counts.tx += chunk.len() as u64;
            for (sensor, mine) in summaries.iter_mut().enumerate() {
                hop.send(spans, batch, sensor, mine.drain(..), &mut released)?;
            }
            fold_runs(spans, batch, &mut clock, &mut released, &mut obs);
        }
    }
    counts.gap_frames = hop.close(spans, &mut released)?;
    counts.feed_wire_bytes = hop.wire_bytes;
    fold_runs(spans, batch, &mut clock, &mut released, &mut obs);
    let store = layers::observatory_finish(spans, clock.window_us(), obs);
    let datasets: Vec<Dataset> = spec.datasets().iter().map(|&(ds, _)| ds).collect();
    counts.delivered = layers::tsv_render(spans, &store, &datasets)
        .into_iter()
        .map(|(name, bytes)| (format!("{name}.tsv"), bytes))
        .collect();
    counts.windows = store.dataset(Dataset::Rcode).len() as u64;
    spans.end(root);
    Ok(counts)
}

/// One forwarding collector of the federated topology.
struct Forwarder {
    hop: Hop<TxSummary>,
    exporter: StateExporter,
    clock: WindowClock,
    released: Vec<TxSummary>,
}

/// The aggregator's side of the federated topology, with its store,
/// broker and the one subscriber.
struct Global {
    uplink: Hop<WindowState>,
    core: Option<AggregatorCore>,
    store: store::Store,
    policy: store::CompactionPolicy,
    broker: BrokerCore,
    sub_reader: pubsub::FrameReader,
    sub: SubscriberCore,
    out_dir: std::path::PathBuf,
    released: Vec<WindowState>,
    sealed: Vec<GlobalWindow>,
}

const SUBSCRIBER: u64 = 1;

impl Global {
    /// What `aggregate` does with every record its feed releases:
    /// `on_state`, `poll`, then the seal path for whatever sealed.
    fn absorb(&mut self, spans: &mut Spans, counts: &mut Counts) -> Result<(), String> {
        for ws in std::mem::take(&mut self.released) {
            let window_us = (ws.start * 1e6).round() as u64;
            let core = self.core.as_mut().expect("aggregator lives until the end");
            if layers::aggregator_merge(spans, window_us, core, ws).is_err() {
                counts.merge_conflicts += 1;
            }
            layers::aggregator_poll(spans, window_us, core, &mut self.sealed);
            self.seal_path(spans, counts)?;
        }
        Ok(())
    }

    /// `write_sealed`: persist, publish, render — in the CLI's order.
    fn seal_path(&mut self, spans: &mut Spans, counts: &mut Counts) -> Result<(), String> {
        for gw in std::mem::take(&mut self.sealed) {
            let window_us = (gw.start * 1e6).round() as u64;
            let batch: Vec<WindowState> = gw
                .datasets
                .iter()
                .map(|topk| WindowState {
                    upstream: 0,
                    start: gw.start,
                    length: gw.length,
                    topk: topk.clone(),
                })
                .collect();
            let meta = layers::store_append(spans, window_us, &mut self.store, &batch)?;
            counts.store_bytes +=
                std::fs::metadata(self.store.dir().join(&meta.name)).map_or(0, |m| m.len());
            layers::store_compact(spans, window_us, &mut self.store, &self.policy)?;

            // The first window goes out as snapshots; sample the delta
            // share on a few of the later ones (encoding a snapshot to
            // size it is work the real seal path does not do).
            let sample = (2..6).contains(&counts.windows);
            if sample {
                counts.snapshot_bytes_sampled += batch
                    .iter()
                    .map(|ws| {
                        pubsub::encode_frame_vec(&pubsub::Frame::Snapshot(Box::new(ws.clone())))
                            .len() as u64
                    })
                    .sum::<u64>();
            }
            let mut actions = Vec::new();
            layers::broker_seal(spans, window_us, &mut self.broker, batch, &mut actions)?;
            let mut sent = 0u64;
            for action in actions {
                match action {
                    Action::Send { frame, .. } => {
                        counts.pubsub_frame_bytes += frame.len() as u64;
                        if sample {
                            counts.delta_bytes_sampled += frame.len() as u64;
                        }
                        let decoded =
                            layers::pubsub_decode(spans, window_us, &mut self.sub_reader, &frame)?;
                        layers::subscriber_apply(spans, window_us, &mut self.sub, decoded)?;
                        sent += 1;
                    }
                    Action::Evict { reason, .. } => {
                        return Err(format!("replay's subscriber evicted: {reason}"));
                    }
                }
            }
            self.broker.on_drained(SUBSCRIBER, sent);
            layers::render_global(spans, window_us, &self.out_dir, &gw)?;
            counts.windows += 1;
        }
        Ok(())
    }
}

/// The federated topology: two sensors → two forwarding collectors →
/// aggregator → store + broker → one subscriber.
fn replay_federated(
    spec: &StreamSpec,
    trace: &[Capture],
    laps: u32,
    spans: &mut Spans,
    dir: &Path,
) -> Result<Counts, String> {
    let psl = Psl::embedded();
    let mut counts = Counts::default();
    let out_dir = dir.join("global");
    let store_dir = dir.join("store");
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;

    let mut forwarders: Vec<Forwarder> = (0..SENSORS)
        .map(|i| Forwarder {
            hop: Hop::open(i as u64, 1, ["feed.encode", "feed.decode", "feed.collect"]),
            exporter: StateExporter::new(observatory_config(spec), i as u64, CHUNK_ENTRIES),
            clock: WindowClock {
                start: None,
                secs: spec.window_secs,
                aligned: true,
            },
            released: Vec::new(),
        })
        .collect();
    let mut global = Global {
        uplink: Hop::open(
            0,
            SENSORS,
            [
                "sketchwire.encode",
                "sketchwire.decode",
                "sketchwire.uplink_collect",
            ],
        ),
        core: Some(AggregatorCore::new(&AggregatorConfig::new(SENSORS))),
        store: layers::store_open(&mut Spans::disabled(), &store_dir)?,
        policy: store::CompactionPolicy::default(),
        broker: BrokerCore::new(BrokerConfig::default()),
        sub_reader: pubsub::FrameReader::new(),
        sub: SubscriberCore::new(),
        out_dir,
        released: Vec::new(),
        sealed: Vec::new(),
    };
    // The handshake the server shell performs around the two cores.
    global
        .broker
        .on_client_connect(SUBSCRIBER, &[], &mut Vec::new());
    global
        .sub
        .on_frame(pubsub::Frame::Hello {
            protocol: pubsub::PROTOCOL_VERSION,
            item_version: WindowState::ITEM_VERSION,
        })
        .map_err(|e| format!("subscriber hello: {e}"))?;

    let mut summaries: [Vec<TxSummary>; SENSORS] = Default::default();
    let mut states = Vec::new();
    let mut batch = 0u64;
    let root = spans.begin("bench.glue", 0);
    for lap in 0..laps {
        let offset = f64::from(lap) * spec.lap_advance();
        for chunk in trace.chunks(BATCH) {
            batch += 1;
            layers::summarize(spans, batch, chunk, offset, &psl, &mut summaries)?;
            counts.tx += chunk.len() as u64;
            for (i, (f, mine)) in forwarders.iter_mut().zip(&mut summaries).enumerate() {
                f.hop
                    .send(spans, batch, 0, mine.drain(..), &mut f.released)?;
                fold_exporter(spans, batch, f, &mut states);
                forward(spans, i, &mut states, &mut global, &mut counts)?;
            }
        }
    }
    // The feed ends: each collector drains, exports its last window and
    // says BYE upward; the aggregator seals what is left.
    for (i, mut f) in forwarders.into_iter().enumerate() {
        counts.gap_frames += f.hop.close(spans, &mut f.released)?;
        counts.feed_wire_bytes += f.hop.wire_bytes;
        fold_exporter(spans, batch, &mut f, &mut states);
        layers::exporter_finish(spans, f.clock.window_us(), f.exporter, &mut states);
        forward(spans, i, &mut states, &mut global, &mut counts)?;
    }
    counts.gap_frames += global.uplink.close(spans, &mut global.released)?;
    counts.uplink_wire_bytes = global.uplink.wire_bytes;
    counts.uplink_records = global.uplink.items;
    global.absorb(spans, &mut counts)?;
    let core = global.core.take().expect("aggregator lives until the end");
    let report = layers::aggregator_finish(spans, core, &mut global.sealed);
    counts.merge_conflicts += report.merge_conflicts;
    global.seal_path(spans, &mut counts)?;
    spans.end(root);

    counts.delivered = e2e::render_held(&global.sub)?;
    Ok(counts)
}

fn fold_exporter(spans: &mut Spans, batch: u64, f: &mut Forwarder, states: &mut Vec<WindowState>) {
    let mut into = Exporting {
        exporter: &mut f.exporter,
        states,
    };
    fold_runs(spans, batch, &mut f.clock, &mut f.released, &mut into);
}

/// `collect --forward`'s push: every exported record goes up the uplink;
/// the aggregator absorbs whatever its feed releases.
fn forward(
    spans: &mut Spans,
    upstream: usize,
    states: &mut Vec<WindowState>,
    global: &mut Global,
    counts: &mut Counts,
) -> Result<(), String> {
    if states.is_empty() {
        return Ok(());
    }
    let window_us = (states[0].start * 1e6).round() as u64;
    global.uplink.send(
        spans,
        window_us,
        upstream,
        states.drain(..),
        &mut global.released,
    )?;
    global.absorb(spans, counts)
}

/// Run the replay of a stream workload over `laps` laps.
fn replay_stream(
    spec: &StreamSpec,
    trace: &[Capture],
    laps: u32,
    spans: &mut Spans,
    dir: &Path,
) -> Result<Counts, String> {
    if spec.federated {
        replay_federated(spec, trace, laps, spans, dir)
    } else {
        replay_single(spec, trace, laps, spans)
    }
}

/// Compare what the replay delivered with what the process tree did.
fn compare_delivered(
    tree: &[(String, Vec<u8>)],
    replay: &[(String, Vec<u8>)],
    failures: &mut Vec<String>,
) {
    let tree: BTreeMap<&str, &[u8]> = tree
        .iter()
        .map(|(n, b)| (n.as_str(), b.as_slice()))
        .collect();
    let replay: BTreeMap<&str, &[u8]> = replay
        .iter()
        .map(|(n, b)| (n.as_str(), b.as_slice()))
        .collect();
    if tree.keys().ne(replay.keys()) {
        failures.push(format!(
            "process tree delivered {:?}, replay {:?}",
            tree.keys().collect::<Vec<_>>(),
            replay.keys().collect::<Vec<_>>()
        ));
        return;
    }
    for (name, bytes) in &tree {
        if replay[name] != *bytes {
            failures.push(format!(
                "{name}: replay's bytes differ from the process tree's"
            ));
        }
    }
}

fn traced_stream(spec: &StreamSpec, seed: u64, work: &Path) -> Result<RunResult, String> {
    let mut v = Values::default();
    let mut failures = Vec::new();

    v.set("bench.host_probe_ms", crate::proc::host_probe_ms());
    let started = Instant::now();
    let trace = workload::generate_trace(spec, seed);
    v.set("bench.trace_gen_s", started.elapsed().as_secs_f64());

    // The twin: whole laps through real processes. Its warm-up may
    // take it past the laps asked for; the replay repeats what it sent.
    let twin: StreamOutcome = e2e::run_stream(
        spec,
        &trace,
        Until::TotalLaps(spec.replay_laps),
        0,
        &work.join("tmp"),
    )?;
    failures.extend(twin.failures.iter().cloned());
    let laps = (twin.sent_total / trace.len() as u64) as u32;
    v.set("feed.send_blocked_s", twin.blocked_s);
    v.set(
        "feed.dropped_items",
        twin.ledger.sensor_dropped_items as f64,
    );
    v.set(
        "feed.gap_frames",
        twin.ledger.gap_frames.unwrap_or(0) as f64,
    );
    v.set(
        "sketchwire.merge_conflicts",
        twin.ledger.merge_conflicts.unwrap_or(0) as f64,
    );
    v.set(
        "pubsub.dropped_windows",
        twin.ledger.broker_dropped.unwrap_or(0) as f64,
    );
    v.set(
        "pubsub.evictions",
        twin.ledger.broker_evicted.unwrap_or(0) as f64,
    );
    if spec.federated {
        let lat = stats::sorted(&twin.latency_ms);
        v.set(
            "bench.window_latency_p50_ms",
            stats::percentile_sorted(&lat, 50.0),
        );
        v.set(
            "bench.window_latency_p90_ms",
            stats::percentile_sorted(&lat, 90.0),
        );
    }
    v.set(
        "bench.gen_late_p99_ms",
        stats::percentile_sorted(&stats::sorted(&twin.late_ms), 99.0),
    );

    // The replay, traced, then the same again with spans off.
    let dir = work
        .join("tmp")
        .join(format!("replay-{}-{}", spec.name, std::process::id()));
    let mut spans = Spans::enabled();
    let wall = Instant::now();
    let counts = replay_stream(spec, &trace, laps, &mut spans, &dir)?;
    let wall_ns = wall.elapsed().as_nanos() as u64;
    let inline_started = Instant::now();
    let inline = replay_stream(spec, &trace, laps, &mut Spans::disabled(), &dir)?;
    let inline_s = inline_started.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);

    compare_delivered(&twin.delivered, &counts.delivered, &mut failures);
    if inline.delivered != counts.delivered {
        failures.push("traced and untraced replays delivered different bytes".into());
    }
    if counts.tx != twin.sent_total {
        failures.push(format!(
            "replay folded {} transactions, the process tree was sent {}",
            counts.tx, twin.sent_total
        ));
    }

    let rows = span::budget(spans.spans());
    let table = span::render_budget(&rows, wall_ns);
    eprintln!("obsbench: {} budget over {} laps\n{table}", spec.name, laps);
    let trace_path = work.join(format!("{}.trace.tsv", spec.name));
    spans
        .write_tsv(&trace_path)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    std::fs::write(work.join(format!("{}.budget.txt", spec.name)), &table)
        .map_err(|e| format!("write budget table: {e}"))?;

    let tx = counts.tx as f64;
    let windows = counts.windows as f64;
    let records = counts.uplink_records as f64;
    let ns = |name: &str| self_ms(&rows, name) * 1e6;
    v.set("core.summarize_ns_per_tx", per(ns("core.summarize"), tx));
    v.set("core.fold_ns_per_tx", per(ns("core.fold"), tx));
    v.set("feed.encode_ns_per_tx", per(ns("feed.encode"), tx));
    v.set("feed.decode_ns_per_tx", per(ns("feed.decode"), tx));
    v.set("feed.collect_ns_per_tx", per(ns("feed.collect"), tx));
    v.set(
        "feed.wire_bytes_per_tx",
        per(counts.feed_wire_bytes as f64, tx),
    );
    // Each collector exports every window, so the export row is shared
    // by window and collector.
    let exports = windows * if spec.federated { SENSORS as f64 } else { 1.0 };
    v.set(
        "core.export_ms_per_window",
        per(self_ms(&rows, "core.export"), exports),
    );
    v.set(
        "core.dump_ms_per_window",
        per(self_ms(&rows, "core.dump"), windows),
    );
    v.set(
        "core.tsv_write_ms_per_window",
        per(self_ms(&rows, "core.tsv_write"), windows),
    );
    v.set(
        "core.render_global_ms_per_window",
        per(self_ms(&rows, "core.render_global"), windows),
    );
    v.set(
        "sketchwire.encode_us_per_record",
        per(ns("sketchwire.encode") / 1e3, records),
    );
    v.set(
        "sketchwire.decode_us_per_record",
        per(ns("sketchwire.decode") / 1e3, records),
    );
    v.set(
        "sketchwire.uplink_collect_us_per_record",
        per(ns("sketchwire.uplink_collect") / 1e3, records),
    );
    v.set(
        "sketchwire.merge_us_per_record",
        per(ns("sketchwire.merge") / 1e3, records),
    );
    v.set(
        "sketchwire.seal_ms_per_window",
        per(self_ms(&rows, "sketchwire.seal"), windows),
    );
    v.set(
        "sketchwire.bytes_per_record",
        per(counts.uplink_wire_bytes as f64, records),
    );
    v.set("sketchwire.records_per_window", per(records, windows));
    v.set(
        "sketchwire.uplink_bytes_per_window",
        per(counts.uplink_wire_bytes as f64, windows),
    );
    v.set(
        "store.append_ms_per_window",
        per(self_ms(&rows, "store.append"), windows),
    );
    v.set(
        "store.compact_ms_per_window",
        per(self_ms(&rows, "store.compact"), windows),
    );
    v.set(
        "store.append_bytes_per_window",
        per(counts.store_bytes as f64, windows),
    );
    v.set(
        "pubsub.seal_ms_per_window",
        per(self_ms(&rows, "pubsub.seal"), windows),
    );
    v.set(
        "pubsub.decode_ms_per_window",
        per(self_ms(&rows, "pubsub.decode"), windows),
    );
    v.set(
        "pubsub.apply_ms_per_window",
        per(self_ms(&rows, "pubsub.apply"), windows),
    );
    v.set(
        "pubsub.frame_bytes_per_window",
        per(counts.pubsub_frame_bytes as f64, windows),
    );
    v.set(
        "pubsub.delta_share",
        per(
            counts.delta_bytes_sampled as f64,
            counts.snapshot_bytes_sampled as f64,
        ),
    );
    if !spec.federated {
        v.set("sketchwire.merge_conflicts", counts.merge_conflicts as f64);
    }

    let sum_ns: u64 = rows.values().map(|r| r.self_ns).sum();
    let cost = span::span_cost_ns();
    v.set("bench.replay_tx_per_s", per(tx, wall_ns as f64 / 1e9));
    v.set("bench.inline_tx_per_s", per(inline.tx as f64, inline_s));
    v.set("bench.glue_share", per(ns("bench.glue"), wall_ns as f64));
    v.set("bench.span_cost_ns", cost);
    v.set(
        "bench.span_overhead_share",
        per(spans.len() as f64 * cost, wall_ns as f64),
    );
    v.set(
        "bench.budget_residual_share",
        per(sum_ns.abs_diff(wall_ns) as f64, wall_ns as f64),
    );

    for (name, value) in layers::kernels(&spec.datasets(), spec.window_secs, &trace) {
        v.set(name, value);
    }

    Ok(RunResult {
        correct: failures.is_empty(),
        attempted: twin.sent_total,
        failed: twin.sent_total.abs_diff(twin.accounted_tx),
        metrics: v.into_metrics(),
        failures,
    })
}

fn traced_history(
    spec: &HistorySpec,
    seed: u64,
    queries: usize,
    work: &Path,
) -> Result<RunResult, String> {
    let mut v = Values::default();
    let dir = work
        .join("tmp")
        .join(format!("replay-history-{}", std::process::id()));
    let mut spans = Spans::enabled();
    let wall = Instant::now();
    let root = spans.begin("bench.glue", 0);
    let s = history::build_store(spec, seed, &dir, &mut spans)?;
    let windows = (spec.days * spec.windows_per_day) as f64;
    drop(s);
    v.set("store.disk_mb", crate::proc::dir_bytes(&dir) as f64 / 1e6);

    let mix = workload::query_mix(spec, seed, queries);
    let mut query_ms = Vec::with_capacity(mix.len());
    let (mut scanned, mut total, mut decoded, mut errors) = (0u64, 0u64, 0u64, 0u64);
    for (i, q) in mix.iter().enumerate() {
        let t0 = Instant::now();
        match history::answer(&mut spans, &dir, q, i as u64) {
            Ok(stats) => {
                scanned += stats.segments_scanned as u64;
                total += stats.segments_total as u64;
                decoded += stats.records_decoded as u64;
            }
            Err(_) => errors += 1,
        }
        query_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    spans.end(root);
    let wall_ns = wall.elapsed().as_nanos() as u64;
    let _ = std::fs::remove_dir_all(&dir);

    let rows = span::budget(spans.spans());
    let table = span::render_budget(&rows, wall_ns);
    eprintln!("obsbench: history_store budget\n{table}");
    let trace_path = work.join("history_store.trace.tsv");
    spans
        .write_tsv(&trace_path)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    std::fs::write(work.join("history_store.budget.txt"), &table)
        .map_err(|e| format!("write budget table: {e}"))?;

    let count = |name: &str| rows.get(name).map_or(0.0, |r| r.spans as f64);
    let mean_ms = |name: &str| per(self_ms(&rows, name), count(name));
    let ingest_ms = self_ms(&rows, "store.append") + self_ms(&rows, "store.compact");
    v.set(
        "store.append_ms_per_window",
        per(self_ms(&rows, "store.append"), windows),
    );
    v.set(
        "store.compact_ms_per_window",
        per(self_ms(&rows, "store.compact"), windows),
    );
    v.set(
        "store.append_bytes_per_window",
        per(v.0["store.disk_mb"] * 1e6, windows),
    );
    v.set("store.ingest_windows_per_s", per(windows * 1e3, ingest_ms));
    v.set("store.open_ms", mean_ms("store.open"));
    v.set("store.history_ms", mean_ms("store.history"));
    v.set("store.renumber_ms", mean_ms("store.renumber"));
    v.set("store.topk_ms", mean_ms("store.topk"));
    let q = stats::sorted(&query_ms);
    v.set("store.query_p99_ms", stats::percentile_sorted(&q, 99.0));
    v.set("store.scanned_share", per(scanned as f64, total as f64));
    v.set(
        "store.records_decoded_per_query",
        per(decoded as f64, mix.len() as f64),
    );

    let sum_ns: u64 = rows.values().map(|r| r.self_ns).sum();
    let cost = span::span_cost_ns();
    v.set(
        "bench.glue_share",
        per(self_ms(&rows, "bench.glue") * 1e6, wall_ns as f64),
    );
    v.set("bench.span_cost_ns", cost);
    v.set(
        "bench.span_overhead_share",
        per(spans.len() as f64 * cost, wall_ns as f64),
    );
    v.set(
        "bench.budget_residual_share",
        per(sum_ns.abs_diff(wall_ns) as f64, wall_ns as f64),
    );
    let failures = if errors > 0 {
        vec![format!("{errors} traced queries failed")]
    } else {
        Vec::new()
    };
    Ok(RunResult {
        correct: failures.is_empty(),
        attempted: mix.len() as u64,
        failed: errors,
        metrics: v.into_metrics(),
        failures,
    })
}

/// The traced run of one workload: every per-layer metric.
pub fn run_traced(name: &str, seed: u64, quick: bool, work: &Path) -> Result<RunResult, String> {
    match workload::stream_spec(name, quick) {
        Some(spec) => traced_stream(&spec, seed, work),
        None => {
            let queries = if quick {
                TRACED_QUERIES / 10
            } else {
                TRACED_QUERIES
            };
            traced_history(&workload::history_spec(quick), seed, queries, work)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_clock_shadows_both_folds() {
        // Observatory: starts at the first summary, advances in lengths.
        let mut c = WindowClock {
            start: None,
            secs: 10.0,
            aligned: false,
        };
        assert!(!c.closes(3.0));
        c.note(3.0);
        assert!(!c.closes(12.9));
        assert!(c.closes(13.0));
        c.note(27.0);
        assert_eq!(c.start, Some(23.0));
        // Exporter: aligned to multiples of the length.
        let mut c = WindowClock {
            start: None,
            secs: 10.0,
            aligned: true,
        };
        c.note(3.0);
        assert_eq!(c.start, Some(0.0));
        assert!(!c.closes(9.9));
        assert!(c.closes(10.0));
        c.note(25.0);
        assert_eq!(c.window_us(), 20_000_000);
    }

    #[test]
    fn per_layer_names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }
}
