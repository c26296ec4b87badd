//! Collector side of the feed: a TCP server that accepts many sensor
//! connections, decodes each stream on its own thread, audits per-sensor
//! sequence numbers, and merges the concurrent streams into one
//! time-ordered feed.
//!
//! Structure: the sans-io [`CollectorCore`] on the thread that owns a
//! [`Hub`] (the one server shell, see [`crate::hub`]):
//!
//! ```text
//! hub: accept thread ──spawns──▶ reader thread per connection (decode)
//!                                   │  (conn, frame | bad frame | closed)
//!                                   ▼  bounded, QUEUE_FRAMES deep
//!                 core thread: CollectorCore ──▶ merged output (bounded,
//!                                   QUEUE_FRAMES messages, one per frame,
//!                                   each sensor's BYE after its items)
//! ```
//!
//! The core owns the [`TimeMerger`] and one [`SensorLedger`] per sensor;
//! for time-merged items it releases items only when every live sensor
//! has something to compare against, so the merged order is
//! deterministic regardless of how the network interleaves the streams.
//! Items whose [`FeedItem::MERGE`] is [`crate::MergeOrder::Arrival`]
//! leave as their frame arrives, each sensor's in order. The thread stops
//! once the configured number of BYE frames has arrived.
//!
//! Every hand-off is bounded: when the consumer of the merged output
//! falls behind, the core blocks on it, the hub's input channel fills,
//! the readers block, TCP fills, and each sensor's send buffer sheds
//! into its ledger.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

use telemetry::trace::{TraceEvent, TraceKind, TraceRing};
use telemetry::{Clock, FlightRecorder, RateLimiter, Registry, SystemClock};

use crate::codec::FeedItem;
use crate::error::FeedError;
use crate::frame::{FeedCodec, Frame};
use crate::hub::{self, Event, Hub, Inbox, QUEUE_FRAMES};
use crate::merge::TimeMerger;
use crate::metrics::{CollectorMetrics, CollectorTotals};

/// Per-sensor accounting kept by the collector.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SensorStats {
    /// Connections this sensor made (HELLO frames seen).
    pub connects: u64,
    /// Fresh BATCH frames accepted.
    pub frames: u64,
    /// BATCH frames discarded as retransmitted duplicates.
    pub duplicate_frames: u64,
    /// Items delivered into the merge.
    pub items: u64,
    /// Observed sequence gaps, as inclusive `(first, last)` missing
    /// frame numbers.
    pub gaps: Vec<(u64, u64)>,
    /// Total frames missing across all gaps.
    pub gap_frames: u64,
    /// Frames that arrived *after* having been recorded as missing — an
    /// overtaken connection's in-flight data surfacing late. The gap
    /// entry is removed again; this counts how often that happened.
    pub gap_filled: u64,
    /// Frames that failed their CRC on this sensor's connections.
    pub crc_errors: u64,
    /// Frames whose payload failed to decode after a clean CRC.
    pub decode_errors: u64,
    /// BYE frames received.
    pub byes: u64,
    /// Frames the sensor itself reported dropping (from BYE).
    pub reported_dropped_frames: u64,
    /// Items the sensor itself reported dropping (from BYE).
    pub reported_dropped_items: u64,
    /// Items from accepted frames discarded because they arrived behind
    /// the merge watermark (a reconnecting sensor delivering data older
    /// than what was already released; see [`TimeMerger`]).
    pub late_items: u64,
    /// Sequence number the ledger expected next when the feed ended —
    /// frames at or beyond it that never arrived are invisible to the
    /// collector unless a BYE advanced past them.
    pub final_expected_seq: Option<u64>,
    /// The ledger's first baseline (the first valid HELLO's `next_seq`,
    /// or the first accepted batch for streams whose HELLO never made
    /// it). Frames before it are attributable only to a poisoned
    /// connection, never to silent loss.
    pub first_expected_seq: Option<u64>,
}

/// Sans-io per-sensor sequence auditor: feed it the frames of one sensor
/// (across any number of connections) and it tracks gaps, duplicates,
/// and the sensor's self-reported losses.
#[derive(Debug, Default)]
pub struct SensorLedger {
    expected: Option<u64>,
    /// Accumulated statistics.
    pub stats: SensorStats,
}

impl SensorLedger {
    /// Fresh ledger.
    pub fn new() -> SensorLedger {
        SensorLedger::default()
    }

    /// Sequence number the next fresh batch should carry.
    pub fn expected_seq(&self) -> Option<u64> {
        self.expected
    }

    fn advance_to(&mut self, seq: u64) {
        match self.expected {
            None => {
                self.expected = Some(seq);
                self.stats.first_expected_seq = Some(seq);
            }
            Some(e) if seq > e => {
                self.stats.gaps.push((e, seq - 1));
                self.stats.gap_frames += seq - e;
                self.expected = Some(seq);
            }
            Some(_) => {}
        }
    }

    /// A HELLO announced the stream (re)starts at `next_seq`. A value
    /// above the expected sequence means frames were lost while the
    /// sensor was away; below means the sensor is retransmitting and the
    /// duplicates will be discarded batch by batch.
    ///
    /// A `next_seq` below the ledger's *baseline* is a different story:
    /// the stream has positions this ledger has never heard of, because
    /// a newer connection's HELLO overtook an older connection whose
    /// data is still in flight (a stalled link, reordered reader
    /// threads). Those frames must not be mistaken for retransmits —
    /// the baseline is lowered and the unknown range recorded as a gap,
    /// which the old connection's frames then fill as they surface
    /// ([`SensorLedger::on_batch`]). Whatever never surfaces stays a
    /// gap: visible loss, never silent.
    pub fn on_hello(&mut self, next_seq: u64) {
        self.stats.connects += 1;
        match self.stats.first_expected_seq {
            Some(first) if next_seq < first => {
                self.stats.gaps.insert(0, (next_seq, first - 1));
                self.stats.gap_frames += first - next_seq;
                self.stats.first_expected_seq = Some(next_seq);
            }
            _ => self.advance_to(next_seq),
        }
    }

    /// Remove `seq` from the recorded gaps if present (splitting the
    /// range it sat in). Returns true when a gap was filled.
    fn fill_gap(&mut self, seq: u64) -> bool {
        let Some(idx) = self
            .stats
            .gaps
            .iter()
            .position(|&(a, b)| a <= seq && seq <= b)
        else {
            return false;
        };
        let (a, b) = self.stats.gaps.remove(idx);
        if seq < b {
            self.stats.gaps.insert(idx, (seq + 1, b));
        }
        if a < seq {
            self.stats.gaps.insert(idx, (a, seq - 1));
        }
        self.stats.gap_frames -= 1;
        self.stats.gap_filled += 1;
        true
    }

    /// A BATCH with `seq` holding `items` items arrived. Returns true
    /// when the batch is fresh (its items should be delivered), false for
    /// a duplicate. A below-expectation sequence that matches a recorded
    /// gap is *not* a duplicate — it is missing data surfacing late from
    /// an overtaken connection, and fills the gap.
    pub fn on_batch(&mut self, seq: u64, items: u64) -> bool {
        if let Some(e) = self.expected {
            if seq < e {
                if !self.fill_gap(seq) {
                    self.stats.duplicate_frames += 1;
                    return false;
                }
                self.stats.frames += 1;
                self.stats.items += items;
                return true;
            }
        }
        self.advance_to(seq);
        self.expected = Some(seq + 1);
        self.stats.frames += 1;
        self.stats.items += items;
        true
    }

    /// A BYE closed the stream at `next_seq` with the sensor's own drop
    /// tally. A `next_seq` above expectation exposes frames dropped at
    /// the very tail of the stream.
    pub fn on_bye(&mut self, next_seq: u64, dropped_frames: u64, dropped_items: u64) {
        self.advance_to(next_seq);
        self.stats.byes += 1;
        self.stats.reported_dropped_frames += dropped_frames;
        self.stats.reported_dropped_items += dropped_items;
    }
}

/// Collector tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectorConfig {
    /// Sensors in the deployment. Each must say HELLO before any item is
    /// released (an early sensor must not drain ahead of peers that are
    /// still connecting, or the merged order would depend on connect
    /// timing), and the merged output ends after this many BYEs.
    pub sensors: u64,
}

impl CollectorConfig {
    /// A deployment of `sensors` sensors.
    pub fn new(sensors: u64) -> CollectorConfig {
        CollectorConfig { sensors }
    }
}

/// Final collector accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CollectorReport {
    /// Per-sensor statistics, keyed by sensor id.
    pub sensors: BTreeMap<u64, SensorStats>,
    /// Items released into the merged output.
    pub items_merged: u64,
    /// Protocol errors on connections that never completed a HELLO.
    pub unattributed_errors: u64,
    /// Data frames rejected because their connection never completed a
    /// valid HELLO (e.g. the HELLO was corrupted in flight). Such a
    /// connection is poisoned and must be dropped so the sensor
    /// reconnects and re-announces its position — otherwise frames lost
    /// before the first accepted batch would vanish without a gap entry.
    pub unheralded_frames: u64,
    /// Connections that disconnected before completing a valid HELLO —
    /// they arrived, possibly carried data (a HELLO and frames that
    /// never made it out of the network), and vanished without ever
    /// identifying a sensor. The collector cannot attribute such a
    /// connection, but it *can* record that it happened: any frames a
    /// sensor wrote there before its reconnect re-baselined the ledger
    /// are attributable only to these, never to silent loss.
    pub anonymous_disconnects: u64,
}

impl CollectorReport {
    /// Total frames lost across all sensors (collector-observed gaps).
    pub fn total_gap_frames(&self) -> u64 {
        self.sensors.values().map(|s| s.gap_frames).sum()
    }
}

/// Stage name on collector trace events.
const STAGE: &str = "collector";

/// What [`CollectorCore::on_frame`] did with a frame — the observability
/// hook the chaos differential oracle audits frame-by-frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameOutcome {
    /// A HELLO (re)opened the sensor's stream.
    Hello {
        /// Announcing sensor.
        sensor: u64,
    },
    /// A fresh batch was accepted and entered the merge.
    Accepted {
        /// Originating sensor.
        sensor: u64,
        /// Frame sequence number.
        seq: u64,
        /// Items the frame carried.
        items: u64,
        /// Of those, items discarded as behind the merge watermark
        /// (accounted in [`SensorStats::late_items`]).
        late: u64,
    },
    /// A retransmitted duplicate was discarded.
    Duplicate {
        /// Originating sensor.
        sensor: u64,
        /// Duplicate sequence number.
        seq: u64,
    },
    /// A BYE closed the sensor's stream.
    Bye {
        /// Closing sensor.
        sensor: u64,
    },
    /// A data frame arrived on a connection with no valid HELLO (or for a
    /// different sensor than the HELLO announced). The frame is rejected
    /// and the connection must be dropped: only a reconnect HELLO can
    /// re-establish where the stream stands.
    Unheralded,
}

impl FrameOutcome {
    /// True when the connection that produced this frame is poisoned and
    /// should be closed by the transport.
    pub fn is_fatal(&self) -> bool {
        matches!(self, FrameOutcome::Unheralded)
    }
}

/// Sans-io heart of the collector: per-sensor ledgers, connection→sensor
/// attribution, and the gap-free time merge — everything the core
/// thread does, minus the sockets and channels.
///
/// The TCP [`Collector`] drives one instance from its event loop; the
/// `chaos` fault-injection harness drives another through a scripted
/// virtual transport. Both paths share *this* accounting code, so an
/// invariant proven under chaos holds for the real server.
#[derive(Debug)]
pub struct CollectorCore<T> {
    merger: TimeMerger<T>,
    ledgers: BTreeMap<u64, SensorLedger>,
    /// conn → sensor identity (learned from HELLO), and per-sensor latest
    /// conn so a stale disconnect cannot close a reconnected stream.
    conn_sensor: BTreeMap<u64, u64>,
    latest_conn: BTreeMap<u64, u64>,
    items_merged: u64,
    unattributed_errors: u64,
    unheralded_frames: u64,
    anonymous_disconnects: u64,
    byes: u64,
    sensors: u64,
    metrics: CollectorMetrics,
    trace: TraceRing,
    now_us: u64,
}

impl<T: FeedItem> CollectorCore<T> {
    /// Core expecting `config.sensors` distinct sensors before releasing
    /// items and as many BYEs before [`CollectorCore::done`] reports
    /// completion. Telemetry goes to the global registry.
    pub fn new(config: &CollectorConfig) -> CollectorCore<T> {
        CollectorCore::with_registry(config, &Registry::global())
    }

    /// Core reporting telemetry to `registry` (the chaos harness injects
    /// a fresh registry per run to keep seeds isolated).
    pub fn with_registry(config: &CollectorConfig, registry: &Registry) -> CollectorCore<T> {
        let metrics = CollectorMetrics::register(registry);
        CollectorCore {
            merger: TimeMerger::new(),
            ledgers: BTreeMap::new(),
            conn_sensor: BTreeMap::new(),
            latest_conn: BTreeMap::new(),
            items_merged: 0,
            unattributed_errors: 0,
            unheralded_frames: 0,
            anonymous_disconnects: 0,
            byes: 0,
            sensors: config.sensors,
            metrics,
            trace: TraceRing::disabled(),
            now_us: 0,
        }
    }

    /// Record frame-level provenance events into `ring` (see
    /// [`telemetry::trace`]). Disabled by default; the TCP collector
    /// attaches the global flight recorder's `feed/collector` ring.
    pub fn with_trace(mut self, ring: TraceRing) -> CollectorCore<T> {
        self.trace = ring;
        self
    }

    /// Clock reading stamped onto subsequent trace events. The io driver
    /// forwards its wall clock; sans-io tests pass virtual time.
    pub fn set_now_us(&mut self, now_us: u64) {
        self.now_us = now_us;
    }

    /// Leave the outcome of one frame on the trace: Open for HELLO,
    /// Ingest (+ a Drop for watermark-late items) for accepted batches,
    /// Mark for duplicates and unheralded frames, Close for BYE.
    fn trace_outcome(&self, outcome: FrameOutcome) {
        if !self.trace.is_enabled() {
            return;
        }
        let event = match outcome {
            FrameOutcome::Hello { sensor } => {
                TraceEvent::new(self.now_us, STAGE, TraceKind::Open).source(sensor)
            }
            FrameOutcome::Accepted {
                sensor,
                items,
                late,
                ..
            } => {
                if late > 0 {
                    self.trace.record(
                        TraceEvent::new(self.now_us, STAGE, TraceKind::Drop)
                            .source(sensor)
                            .value(late),
                    );
                }
                TraceEvent::new(self.now_us, STAGE, TraceKind::Ingest)
                    .source(sensor)
                    .value(items)
            }
            FrameOutcome::Duplicate { sensor, seq } => {
                TraceEvent::new(self.now_us, STAGE, TraceKind::Mark)
                    .source(sensor)
                    .value(seq)
            }
            FrameOutcome::Bye { sensor } => {
                TraceEvent::new(self.now_us, STAGE, TraceKind::Close).source(sensor)
            }
            FrameOutcome::Unheralded => {
                TraceEvent::new(self.now_us, STAGE, TraceKind::Mark).value(1)
            }
        };
        self.trace.record(event);
    }

    /// Aggregate totals over every ledger plus the core's own counts —
    /// the exact numbers mirrored into the telemetry counters.
    pub fn totals(&self) -> CollectorTotals {
        let mut t = CollectorTotals {
            items_merged: self.items_merged,
            unattributed_errors: self.unattributed_errors,
            unheralded_frames: self.unheralded_frames,
            anonymous_disconnects: self.anonymous_disconnects,
            ..CollectorTotals::default()
        };
        for ledger in self.ledgers.values() {
            let s = &ledger.stats;
            t.frames += s.frames;
            t.items += s.items;
            t.duplicate_frames += s.duplicate_frames;
            t.gap_recorded_frames += s.gap_frames + s.gap_filled;
            t.gap_filled_frames += s.gap_filled;
            t.crc_errors += s.crc_errors;
            t.decode_errors += s.decode_errors;
            t.late_items += s.late_items;
            t.connects += s.connects;
            t.byes += s.byes;
        }
        t
    }

    /// Frames currently recorded missing (unfilled gaps, all sensors).
    pub fn open_gap_frames(&self) -> u64 {
        self.ledgers.values().map(|l| l.stats.gap_frames).sum()
    }

    /// Frames ever recorded missing, filled or not — the monotone number
    /// the collector's gap-growth warning watches.
    pub fn total_gap_recorded(&self) -> u64 {
        self.ledgers
            .values()
            .map(|l| l.stats.gap_frames + l.stats.gap_filled)
            .sum()
    }

    fn sync_metrics(&mut self) {
        self.metrics.events.inc(1);
        let totals = self.totals();
        let open = self.open_gap_frames();
        self.metrics.sync(totals, open, self.ledgers.len() as u64);
    }

    /// A decoded frame arrived on `conn`. Releasable items are appended
    /// to `out` in merged time order; the returned outcome says what the
    /// frame did (and whether the connection is now poisoned).
    pub fn on_frame(&mut self, conn: u64, frame: Frame<T>, out: &mut Vec<T>) -> FrameOutcome {
        let outcome = match frame {
            Frame::Hello {
                sensor, next_seq, ..
            } => {
                self.conn_sensor.insert(conn, sensor);
                self.latest_conn.insert(sensor, conn);
                self.ledgers.entry(sensor).or_default().on_hello(next_seq);
                self.merger.open(sensor);
                FrameOutcome::Hello { sensor }
            }
            Frame::Batch { sensor, seq, items } => {
                if self.conn_sensor.get(&conn) != Some(&sensor) {
                    self.unheralded_frames += 1;
                    self.sync_metrics();
                    self.trace_outcome(FrameOutcome::Unheralded);
                    return FrameOutcome::Unheralded;
                }
                let ledger = self.ledgers.entry(sensor).or_default();
                let count = items.len() as u64;
                if ledger.on_batch(seq, count) {
                    let late = self.merger.push(sensor, items);
                    self.ledgers.entry(sensor).or_default().stats.late_items += late;
                    FrameOutcome::Accepted {
                        sensor,
                        seq,
                        items: count,
                        late,
                    }
                } else {
                    FrameOutcome::Duplicate { sensor, seq }
                }
            }
            Frame::Bye {
                sensor,
                next_seq,
                dropped_frames,
                dropped_items,
            } => {
                if self.conn_sensor.get(&conn) != Some(&sensor) {
                    self.unheralded_frames += 1;
                    self.sync_metrics();
                    self.trace_outcome(FrameOutcome::Unheralded);
                    return FrameOutcome::Unheralded;
                }
                self.ledgers.entry(sensor).or_default().on_bye(
                    next_seq,
                    dropped_frames,
                    dropped_items,
                );
                self.merger.close(sensor);
                self.byes += 1;
                FrameOutcome::Bye { sensor }
            }
        };
        self.drain_into(out);
        self.sync_metrics();
        self.trace_outcome(outcome);
        outcome
    }

    /// A frame on `conn` failed its CRC or its decode.
    pub fn on_bad_frame(&mut self, conn: u64, error: &FeedError) {
        match self.conn_sensor.get(&conn) {
            Some(&sensor) => {
                let stats = &mut self.ledgers.entry(sensor).or_default().stats;
                if matches!(error, FeedError::Crc { .. }) {
                    stats.crc_errors += 1;
                } else {
                    stats.decode_errors += 1;
                }
            }
            None => self.unattributed_errors += 1,
        }
        self.sync_metrics();
    }

    /// `conn` is gone. If it was the sensor's live connection, its
    /// silence stops gating the merge; releasable items drain into `out`.
    /// A connection that vanishes before completing a HELLO is counted —
    /// it may have swallowed a sensor's in-flight frames (written to a
    /// socket that died before delivering a byte), and that count is the
    /// only evidence of such pre-baseline loss the collector can record.
    pub fn on_disconnect(&mut self, conn: u64, out: &mut Vec<T>) {
        match self.conn_sensor.get(&conn) {
            Some(&sensor) => {
                if self.latest_conn.get(&sensor) == Some(&conn) {
                    self.merger.close(sensor);
                }
            }
            None => self.anonymous_disconnects += 1,
        }
        self.drain_into(out);
        self.sync_metrics();
    }

    /// True once the expected number of BYEs has arrived.
    pub fn done(&self) -> bool {
        self.sensors > 0 && self.byes >= self.sensors
    }

    /// Close every stream, drain the remainder into `out`, and return
    /// the final accounting.
    pub fn finish(mut self, out: &mut Vec<T>) -> CollectorReport {
        let sensors: Vec<u64> = self.ledgers.keys().copied().collect();
        for sensor in sensors {
            self.merger.close(sensor);
        }
        let drained = self.merger.drain_ready();
        self.items_merged += drained.len() as u64;
        out.extend(drained);
        self.sync_metrics();
        let mut report = CollectorReport {
            sensors: BTreeMap::new(),
            items_merged: self.items_merged,
            unattributed_errors: self.unattributed_errors,
            unheralded_frames: self.unheralded_frames,
            anonymous_disconnects: self.anonymous_disconnects,
        };
        report.sensors = self
            .ledgers
            .into_iter()
            .map(|(id, l)| {
                let mut stats = l.stats;
                stats.final_expected_seq = l.expected;
                (id, stats)
            })
            .collect();
        report
    }

    fn drain_into(&mut self, out: &mut Vec<T>) {
        // An early sensor must not drain ahead of peers still connecting,
        // or the merged order would depend on connect timing.
        if (self.ledgers.len() as u64) < self.sensors {
            return;
        }
        let drained = self.merger.drain_ready();
        self.items_merged += drained.len() as u64;
        out.extend(drained);
    }
}

/// What the merged feed carries, in order.
#[derive(Debug, Clone, PartialEq)]
pub enum Merged<T> {
    /// The next item in merged order.
    Item(T),
    /// `sensor` said BYE: nothing more comes from it, and the items it
    /// sent are all above.
    Bye {
        /// The departed sensor.
        sensor: u64,
    },
}

/// The collector's merged, time-ordered output. The core thread hands
/// over everything a frame released as one message (one channel
/// round-trip per frame, not per item), with the sensor whose BYE it was;
/// [`MergedFeed::iter`] and [`MergedFeed::events`] flatten that back.
pub struct MergedFeed<T> {
    batches: Receiver<(Vec<T>, Option<u64>)>,
}

impl<T> MergedFeed<T> {
    /// The merged items, blocking for more until the feed has ended.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.batches.iter().flat_map(|(items, _)| items)
    }

    /// The merged items and each sensor's departure, blocking for more
    /// until the feed has ended.
    pub fn events(&self) -> impl Iterator<Item = Merged<T>> + '_ {
        self.batches.iter().flat_map(|(items, bye)| {
            let bye = bye.map(|sensor| Merged::Bye { sensor });
            items.into_iter().map(Merged::Item).chain(bye)
        })
    }
}

/// TCP feed server: accepts sensors on a [`Hub`], merges their streams
/// on the hub's thread, and hands the merged items out through a bounded
/// channel.
pub struct Collector<T: FeedItem> {
    addr: SocketAddr,
    stop: Inbox<Frame<T>, ()>,
    output: Option<MergedFeed<T>>,
    core: Option<JoinHandle<CollectorReport>>,
}

impl<T: FeedItem> Collector<T> {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start accepting sensors.
    pub fn bind(addr: &str, config: CollectorConfig) -> std::io::Result<Collector<T>> {
        let hub = Hub::<FeedCodec<T>, ()>::bind(addr, "feed")?;
        let (addr, stop) = (hub.local_addr(), hub.inbox());
        let (out, batches) = sync_channel(QUEUE_FRAMES);
        let core = hub::spawn("feed-collector", move || run(hub, &out, config))?;
        Ok(Collector {
            addr,
            stop,
            output: Some(MergedFeed { batches }),
            core: Some(core),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Take the merged output. Iterate it to drive the pipeline; it ends
    /// when the expected number of BYEs has arrived.
    pub fn take_output(&mut self) -> MergedFeed<T> {
        self.output.take().expect("collector output already taken")
    }

    /// Wait for the feed to complete and return the accounting. Call
    /// after draining (or dropping) the output: the core thread waits for
    /// room in it.
    pub fn finish(mut self) -> CollectorReport {
        self.core
            .take()
            .map(|h| h.join().expect("collector core thread panicked"))
            .unwrap_or_default()
    }
}

impl<T: FeedItem> Drop for Collector<T> {
    /// Stop the core thread, which drops the hub. A taken output must be
    /// dropped (or drained) first.
    fn drop(&mut self) {
        drop(self.output.take());
        if let Some(core) = self.core.take() {
            self.stop.send(());
            let _ = core.join();
        }
    }
}

/// The core thread: events from the hub into the [`CollectorCore`], what
/// it releases into the merged output, until the expected BYEs (or a
/// stop) have arrived.
fn run<T: FeedItem>(
    mut hub: Hub<FeedCodec<T>, ()>,
    output: &SyncSender<(Vec<T>, Option<u64>)>,
    config: CollectorConfig,
) -> CollectorReport {
    let mut core = CollectorCore::<T>::new(&config)
        .with_trace(FlightRecorder::global().ring("feed/collector"));
    let mut ready = Vec::new();
    // Operator-facing loss warnings: one line when the gap ledger grows,
    // rate-limited so a lossy deployment cannot flood the log. The full
    // totals stay in the telemetry counters.
    let warn_clock = SystemClock::new();
    let mut warn_limit = RateLimiter::new(5_000_000);
    let mut last_gap_recorded = 0u64;

    while !core.done() {
        let event = hub.recv();
        core.set_now_us(warn_clock.now_us());
        let mut bye = None;
        match event {
            Event::Frame { conn, frame } => match core.on_frame(conn, frame, &mut ready) {
                FrameOutcome::Bye { sensor } => bye = Some(sensor),
                outcome if outcome.is_fatal() => hub.close(conn),
                _ => {}
            },
            Event::BadFrame { conn, error } => core.on_bad_frame(conn, &error),
            Event::Closed { conn } => core.on_disconnect(conn, &mut ready),
            Event::Wrote { .. } => {}
            Event::Local(()) => break,
        }
        let gap_recorded = core.total_gap_recorded();
        if gap_recorded > last_gap_recorded {
            if let Some(suppressed) = warn_limit.allow(warn_clock.now_us()) {
                eprintln!(
                    "collector: gap ledger grew to {gap_recorded} missing frames \
                     ({} open, {suppressed} earlier warnings suppressed)",
                    core.open_gap_frames()
                );
            }
            last_gap_recorded = gap_recorded;
        }
        // A dropped output only means nobody reads the items; the ledger
        // is kept to the end either way.
        if !ready.is_empty() || bye.is_some() {
            let _ = output.send((std::mem::take(&mut ready), bye));
        }
    }

    // Everything still buffered belongs to closed or abandoned streams.
    let report = core.finish(&mut ready);
    if !ready.is_empty() {
        let _ = output.send((ready, None));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensor::{Sensor, SensorConfig};
    use crate::testitem::TestItem;

    #[test]
    fn ledger_tracks_gaps_duplicates_and_byes() {
        let mut l = SensorLedger::new();
        l.on_hello(0);
        assert!(l.on_batch(0, 10));
        assert!(l.on_batch(1, 10));
        // Frames 2..=4 lost at the sensor's full buffer.
        assert!(l.on_batch(5, 10));
        // A retransmit of frame 1 after reconnect is a duplicate.
        assert!(!l.on_batch(1, 10));
        // BYE says next would have been 8: frames 6..=7 lost at the tail.
        l.on_bye(8, 5, 50);
        let s = &l.stats;
        assert_eq!(s.frames, 3);
        assert_eq!(s.items, 30);
        assert_eq!(s.duplicate_frames, 1);
        assert_eq!(s.gaps, vec![(2, 4), (6, 7)]);
        assert_eq!(s.gap_frames, 5);
        assert_eq!(s.byes, 1);
        assert_eq!(s.reported_dropped_frames, 5);
        assert_eq!(s.reported_dropped_items, 50);
    }

    #[test]
    fn ledger_gap_on_reconnect_hello() {
        let mut l = SensorLedger::new();
        l.on_hello(0);
        assert!(l.on_batch(0, 1));
        // Reconnect announcing seq 4: frames 1..=3 were lost offline.
        l.on_hello(4);
        assert!(l.on_batch(4, 1));
        assert_eq!(l.stats.gaps, vec![(1, 3)]);
        assert_eq!(l.stats.connects, 2);
    }

    /// Regression (chaos kernel, minimized from seed 9 of the "flaky"
    /// profile: stall the first connection's deliveries, then reset it):
    /// a reconnect HELLO overtakes the stalled connection's in-flight
    /// frames, so the ledger baselines at `next_seq` above data it has
    /// never seen. When the old frames finally surface they are *not*
    /// retransmits — classifying them as duplicates silently discarded
    /// never-delivered data. The ledger must lower its baseline,
    /// claim the unknown range as a gap, and let the frames fill it;
    /// whatever never surfaces stays a gap (visible loss).
    #[test]
    fn ledger_lowers_baseline_and_fills_gaps_for_overtaken_connection() {
        let mut l = SensorLedger::new();
        l.on_hello(3); // overtaking connection processed first
        assert!(l.on_batch(3, 1));
        l.on_hello(0); // stalled connection's HELLO surfaces late
        assert_eq!(l.stats.gaps, vec![(0, 2)]);
        assert_eq!(l.stats.gap_frames, 3);
        assert!(l.on_batch(1, 1), "gap fill, not a duplicate");
        assert_eq!(l.stats.gaps, vec![(0, 0), (2, 2)]);
        assert!(!l.on_batch(1, 1), "a second arrival IS a duplicate");
        assert!(l.on_batch(0, 1));
        assert_eq!(l.stats.gaps, vec![(2, 2)], "never surfaced: stays visible");
        assert_eq!(l.stats.gap_frames, 1);
        assert_eq!(l.stats.gap_filled, 2);
        assert_eq!(l.stats.duplicate_frames, 1);
        assert_eq!(l.stats.first_expected_seq, Some(0));
    }

    fn batch(sensor: u64, seq: u64, items: &[(u64, f64)]) -> Frame<TestItem> {
        Frame::Batch {
            sensor,
            seq,
            items: items.iter().map(|&(v, t)| TestItem::at(v, t)).collect(),
        }
    }

    fn hello(sensor: u64, next_seq: u64) -> Frame<TestItem> {
        Frame::Hello {
            sensor,
            next_seq,
            item_version: TestItem::ITEM_VERSION,
        }
    }

    /// An arrival-ordered item type goes through the core without the
    /// time-merge gate: a heralded, silent sensor holds back nobody, and
    /// a sensor's items keep their order.
    #[test]
    fn core_releases_arrival_items_without_waiting_for_peers() {
        use crate::testitem::ArrivalItem;
        let mut core = CollectorCore::<ArrivalItem>::new(&CollectorConfig::new(2));
        let mut out = Vec::new();
        let batch = |sensor, seq, items: &[(u64, f64)]| Frame::Batch {
            sensor,
            seq,
            items: items.iter().map(|&(v, t)| ArrivalItem::at(v, t)).collect(),
        };
        for (conn, sensor) in [(0, 1), (1, 2)] {
            core.on_frame(
                conn,
                Frame::Hello {
                    sensor,
                    next_seq: 0,
                    item_version: ArrivalItem::ITEM_VERSION,
                },
                &mut out,
            );
        }
        core.on_frame(1, batch(2, 0, &[(20, 5.0), (21, 5.0)]), &mut out);
        let values = |out: &[ArrivalItem]| out.iter().map(|i| i.0.value).collect::<Vec<_>>();
        assert_eq!(values(&out), [20, 21], "sensor 1's silence holds nothing");
        core.on_frame(0, batch(1, 0, &[(10, 1.0)]), &mut out);
        core.on_frame(1, batch(2, 1, &[(22, 6.0)]), &mut out);
        assert_eq!(values(&out), [20, 21, 10, 22]);
        let report = core.finish(&mut out);
        assert_eq!(report.sensors[&1].late_items, 0, "no global watermark");
        assert_eq!(report.items_merged, 4);
    }

    /// Regression (chaos seed minimized to this sequence): a connection
    /// whose HELLO was lost to corruption delivers a batch. Accepting it
    /// would baseline the ledger at the batch's own sequence, silently
    /// erasing every frame lost before it. The core must reject the
    /// frame as unheralded (poisoning the connection) so the reconnect
    /// HELLO exposes the loss as a gap.
    #[test]
    fn core_rejects_batch_before_hello_and_gap_surfaces_on_reconnect() {
        let mut core = CollectorCore::<TestItem>::new(&CollectorConfig::new(1));
        let mut out = Vec::new();

        // conn 0: HELLO corrupted in flight → only a CRC error arrives.
        core.on_bad_frame(
            0,
            &FeedError::Crc {
                expected: 1,
                computed: 2,
            },
        );
        // Frame 0 was also corrupted; frame 1 decodes fine but the
        // connection was never heralded.
        let outcome = core.on_frame(0, batch(7, 1, &[(1, 1.0)]), &mut out);
        assert_eq!(outcome, FrameOutcome::Unheralded);
        assert!(outcome.is_fatal());
        assert!(out.is_empty(), "unheralded items must not merge");
        core.on_disconnect(0, &mut out);

        // conn 1: the sensor reconnects and re-announces at frame 1 (its
        // retransmit position after the failed write of frame 2).
        core.on_frame(1, hello(7, 1), &mut out);
        core.on_frame(1, batch(7, 1, &[(1, 1.0)]), &mut out);
        core.on_frame(1, batch(7, 2, &[(2, 2.0)]), &mut out);
        let report = core.finish(&mut out);

        let stats = &report.sensors[&7];
        assert_eq!(report.unheralded_frames, 1);
        assert_eq!(report.unattributed_errors, 1, "pre-HELLO CRC error");
        assert_eq!(stats.frames, 2);
        assert_eq!(stats.items, 2);
        assert_eq!(out.len(), 2);
        // Frame 0 (lost on the poisoned connection) sits before the
        // ledger's first baseline — the report pins that baseline plus
        // the poisoning evidence, so the oracle can attribute the loss
        // instead of it vanishing silently.
        assert_eq!(stats.first_expected_seq, Some(1));
        assert_eq!(stats.final_expected_seq, Some(3));
    }

    /// Regression (chaos seed minimized to this sequence): a connection
    /// dies before its HELLO ever arrives — everything the sensor wrote
    /// into it (HELLO plus early frames) vanished in the network. The
    /// sensor, whose local writes all "succeeded", reconnects announcing
    /// an advanced `next_seq`, so the ledger baselines above frames the
    /// collector never knew existed. The disconnect count is the only
    /// possible record of that loss; silently dropping it would make the
    /// early frames unaccountable.
    #[test]
    fn core_counts_disconnects_of_never_heralded_connections() {
        let mut core = CollectorCore::<TestItem>::new(&CollectorConfig::new(1));
        let mut out = Vec::new();

        // conn 0: accepted by the listener, never delivered a byte.
        core.on_disconnect(0, &mut out);

        // conn 1: the sensor reconnects believing frames 0–2 were
        // delivered (they died in conn 0's buffers).
        core.on_frame(1, hello(7, 3), &mut out);
        core.on_frame(1, batch(7, 3, &[(3, 3.0)]), &mut out);
        // conn 1 disconnecting is attributed — not anonymous.
        core.on_disconnect(1, &mut out);
        let report = core.finish(&mut out);

        assert_eq!(report.anonymous_disconnects, 1);
        assert_eq!(report.sensors[&7].first_expected_seq, Some(3));
        assert_eq!(out.len(), 1);
    }

    /// End-to-end version of the overtaken-connection regression above,
    /// through [`CollectorCore`]: the filled frames' items land behind
    /// the merge watermark and are accounted as late, never reordered in
    /// and never called duplicates.
    #[test]
    fn core_gap_fills_frames_from_overtaken_connection() {
        let mut core = CollectorCore::<TestItem>::new(&CollectorConfig::new(1));
        let mut out = Vec::new();

        // conn 1 (the reconnect) is processed before conn 0 (stalled).
        core.on_frame(1, hello(5, 2), &mut out);
        core.on_frame(1, batch(5, 2, &[(2, 3.0)]), &mut out);
        // conn 0's stalled traffic finally surfaces.
        core.on_frame(0, hello(5, 0), &mut out);
        let a = core.on_frame(0, batch(5, 0, &[(0, 1.0)]), &mut out);
        assert!(
            matches!(
                a,
                FrameOutcome::Accepted {
                    seq: 0,
                    late: 1,
                    ..
                }
            ),
            "gap-filling frame accepted with its item counted late, got {a:?}"
        );
        let b = core.on_frame(0, batch(5, 1, &[(1, 2.0)]), &mut out);
        assert!(matches!(
            b,
            FrameOutcome::Accepted {
                seq: 1,
                late: 1,
                ..
            }
        ));

        let report = core.finish(&mut out);
        let stats = &report.sensors[&5];
        assert_eq!(
            stats.duplicate_frames, 0,
            "in-flight data is not a retransmit"
        );
        assert_eq!(stats.gaps, Vec::<(u64, u64)>::new());
        assert_eq!((stats.gap_frames, stats.gap_filled), (0, 2));
        assert_eq!((stats.frames, stats.items, stats.late_items), (3, 3, 2));
        assert_eq!(stats.first_expected_seq, Some(0));
        assert_eq!(
            out.iter().map(|i| i.time).collect::<Vec<_>>(),
            [3.0],
            "only the overtaking frame's item was still deliverable"
        );
    }

    /// Regression (chaos seed minimized to this sequence): sensor 2's
    /// connection dies, the merge advances past T on the surviving
    /// sensor, then sensor 2 reconnects and retransmits items older than
    /// T. Before the watermark fix those items re-entered the merge out
    /// of time order — downstream output silently diverged. Now they are
    /// dropped and *accounted* as `late_items`.
    #[test]
    fn core_accounts_late_items_after_reconnect_instead_of_reordering() {
        let mut core = CollectorCore::<TestItem>::new(&CollectorConfig::new(2));
        let mut out = Vec::new();

        core.on_frame(0, hello(1, 0), &mut out);
        core.on_frame(1, hello(2, 0), &mut out);
        core.on_frame(0, batch(1, 0, &[(10, 1.0), (11, 5.0)]), &mut out);
        // Sensor 2's connection dies before delivering anything.
        core.on_disconnect(1, &mut out);
        assert_eq!(
            out.iter().map(|i| i.time).collect::<Vec<_>>(),
            [1.0, 5.0],
            "merge advances once the dead stream stops gating"
        );

        // Sensor 2 reconnects and delivers items from before the
        // watermark plus one current item.
        core.on_frame(2, hello(2, 0), &mut out);
        let outcome = core.on_frame(2, batch(2, 0, &[(20, 0.5), (21, 2.0), (22, 6.0)]), &mut out);
        assert_eq!(
            outcome,
            FrameOutcome::Accepted {
                sensor: 2,
                seq: 0,
                items: 3,
                late: 2
            }
        );
        let report = core.finish(&mut out);
        assert_eq!(
            out.iter().map(|i| i.time).collect::<Vec<_>>(),
            [1.0, 5.0, 6.0],
            "late items must not reorder the merged stream"
        );
        let stats = &report.sensors[&2];
        assert_eq!(stats.late_items, 2, "every suppressed item is accounted");
        assert_eq!(stats.items, 3, "ledger counts what the frame carried");
        assert_eq!(report.items_merged, 3);
    }

    #[test]
    fn core_matches_threaded_collector_accounting() {
        // Drive the same event sequence through CollectorCore that the
        // ledger unit test runs, and check the report shape end to end.
        let mut core = CollectorCore::<TestItem>::new(&CollectorConfig::new(1));
        let mut out = Vec::new();
        core.on_frame(0, hello(3, 0), &mut out);
        core.on_frame(0, batch(3, 0, &[(0, 0.0)]), &mut out);
        core.on_frame(0, batch(3, 2, &[(2, 2.0)]), &mut out); // frame 1 missing
                                                              // Frame 1 surfaces after all: it fills the recorded gap (its item
                                                              // is behind the watermark by now, so it is counted late, not
                                                              // reordered in), and a second copy is a true duplicate.
        core.on_frame(0, batch(3, 1, &[(1, 1.0)]), &mut out);
        core.on_frame(0, batch(3, 1, &[(1, 1.0)]), &mut out);
        core.on_frame(
            0,
            Frame::Bye {
                sensor: 3,
                next_seq: 4,
                dropped_frames: 1,
                dropped_items: 1,
            },
            &mut out,
        );
        assert!(core.done());
        let report = core.finish(&mut out);
        let stats = &report.sensors[&3];
        assert_eq!(stats.gaps, vec![(3, 3)], "gap (1,1) was filled");
        assert_eq!((stats.gap_frames, stats.gap_filled), (1, 1));
        assert_eq!(stats.duplicate_frames, 1);
        assert_eq!(stats.late_items, 1);
        assert_eq!(stats.byes, 1);
        assert_eq!(stats.final_expected_seq, Some(4));
        assert_eq!(report.items_merged, 2);
    }

    #[test]
    fn collector_merges_sensors_in_time_order() {
        let mut collector =
            Collector::<TestItem>::bind("127.0.0.1:0", CollectorConfig::new(3)).unwrap();
        let addr = collector.local_addr().to_string();
        let output = collector.take_output();

        let mut handles = Vec::new();
        for sensor_id in 0..3u64 {
            let addr = addr.clone();
            handles.push(std::thread::spawn(move || {
                let mut config = SensorConfig::new(sensor_id);
                config.batch_items = 4;
                let sensor = Sensor::connect(addr, config);
                // Sensor k owns times k, k+3, k+6, ... so the merged
                // stream must be exactly 0,1,2,...,29.
                for i in 0..10u64 {
                    let t = (sensor_id + 3 * i) as f64;
                    sensor.send(TestItem::at(sensor_id + 3 * i, t));
                }
                sensor.finish()
            }));
        }
        let merged: Vec<TestItem> = output.iter().collect();
        let reports: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let report = collector.finish();

        let times: Vec<f64> = merged.iter().map(|i| i.time).collect();
        let want: Vec<f64> = (0..30).map(|v| v as f64).collect();
        assert_eq!(times, want);
        assert_eq!(report.items_merged, 30);
        assert_eq!(report.total_gap_frames(), 0);
        for r in &reports {
            assert_eq!(r.dropped_frames, 0);
            let stats = &report.sensors[&r.sensor];
            assert_eq!(stats.items, 10);
            assert_eq!(stats.byes, 1);
            assert_eq!(stats.crc_errors, 0);
        }
    }

    #[test]
    fn collector_reports_restart_gap() {
        let mut collector =
            Collector::<TestItem>::bind("127.0.0.1:0", CollectorConfig::new(1)).unwrap();
        let addr = collector.local_addr().to_string();
        let output = collector.take_output();

        // Incarnation 1: frames 0..=1, then crash (no BYE).
        let mut config = SensorConfig::new(5);
        config.batch_items = 1;
        let sensor = Sensor::connect(addr.clone(), config);
        sensor.send(TestItem::at(0, 0.0));
        sensor.send(TestItem::at(1, 1.0));
        sensor.wait_drained();
        // Drained means written, not read: see both items merged before
        // the next incarnation can race its BYE past them.
        let mut merged: Vec<TestItem> = output.iter().take(2).collect();
        let r1 = sensor.abort();
        assert_eq!(r1.next_seq, 2);

        // Incarnation 2 lost 3 frames before restarting: resume at 5.
        let mut config = SensorConfig::new(5);
        config.batch_items = 1;
        config.first_seq = r1.next_seq + 3;
        let sensor = Sensor::connect(addr, config);
        sensor.send(TestItem::at(5, 5.0));
        let r2 = sensor.finish();
        assert_eq!(r2.next_seq, 6);

        merged.extend(output.iter());
        let report = collector.finish();
        assert_eq!(merged.len(), 3);
        let stats = &report.sensors[&5];
        assert_eq!(stats.gaps, vec![(2, 4)]);
        assert_eq!(stats.gap_frames, 3);
        assert_eq!(stats.connects, 2);
        assert_eq!(stats.byes, 1);
    }
}
