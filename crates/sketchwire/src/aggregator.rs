//! The sans-io federated aggregation core.
//!
//! [`AggregatorCore`] ingests N collector uplink streams (already
//! transported and deduplicated by the feed collector, each in its own
//! order), reassembles chunked tracker states, merges them per
//! `(window, dataset)` with the laws in [`crate::merge`], and emits
//! [`GlobalWindow`]s whose Space-Saving error bound is computed and
//! stated (the sum of the per-input bounds).
//!
//! # When a window seals
//!
//! One rule. Each upstream has a monotone `closed_through` time: every
//! window starting before it is complete for that upstream. A record
//! raises it to the record's window start (the upstream's fold has
//! reached that window); a [`Uplink::Closed`] watermark raises it to its
//! `through`. A window `W` seals once every open upstream is closed or
//! has `closed_through ≥ W.end`. Without watermarks (`--input` files, a
//! replay of bare records) that is each upstream's first record of a
//! later window; with them it is the moment the last upstream closes `W`.
//! Upstreams fold in id order at seal time, so how their streams
//! interleave never changes a sealed window; a record for a window
//! already sealed is late, ledgered and dropped.
//!
//! Same discipline as `feed::machine`: no sockets, no clocks, no
//! threads — events in, decisions out — so the chaos kernel can drive it
//! deterministically and diff it against a plain fold of the survivor
//! streams.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

use telemetry::trace::{TraceEvent, TraceKind, TraceRing};
use telemetry::{Counter, Gauge, Histogram, Registry};

use crate::merge::{assemble_chunks, merge_topk_into};
use crate::state::{StateError, TopKState, Uplink, WindowState};

/// Stage name the aggregator records trace events under.
const STAGE: &str = "aggregator";

/// Microseconds per second — window starts are keyed on integer µs so
/// float window boundaries computed identically on every collector map
/// to identical keys.
const US: f64 = 1e6;

/// Aggregator configuration.
#[derive(Debug, Clone, Copy)]
pub struct AggregatorConfig {
    /// Upstream collectors expected to contribute. [`AggregatorCore::poll`]
    /// holds every window until all of them have been seen (or closed),
    /// so a late-starting upstream cannot be silently excluded from
    /// early windows. [`AggregatorCore::finish`] seals unconditionally.
    pub expected_upstreams: usize,
}

impl AggregatorConfig {
    /// Expect `n` upstream collectors.
    pub fn new(n: usize) -> AggregatorConfig {
        AggregatorConfig {
            expected_upstreams: n,
        }
    }
}

/// Per-upstream ledger: every record accounted, every gap visible. The
/// telemetry registry mirrors these byte-exactly (see
/// [`AggregatorMetrics`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UpstreamStats {
    /// Window-state records accepted from this upstream.
    pub records: u64,
    /// Records rejected (structural conflicts, duplicate chunks).
    pub rejected: u64,
    /// Records for windows already sealed (counted, then dropped).
    pub late_records: u64,
    /// Distinct windows this upstream contributed to.
    pub windows: u64,
    /// Windows skipped between consecutive contributions — lost whole
    /// windows (the transport's frame ledger tracks sub-window loss).
    pub window_gaps: u64,
    /// Records that arrived for an older window than the upstream's
    /// newest (out-of-order within the stream; still merged if open).
    pub out_of_order: u64,
    /// Sealed global windows this upstream contributed to.
    pub merged_windows: u64,
    /// Every window starting before this time (seconds) is complete for
    /// this upstream: the newest record's window start, or a newer
    /// [`Uplink::Closed`] watermark. Never lowered.
    pub closed_through: Option<f64>,
    /// Upstream said goodbye (or its connection is gone) — it no longer
    /// gates window sealing.
    pub closed: bool,
}

struct UpstreamLedger {
    stats: UpstreamStats,
    last_window_us: Option<u64>,
    /// `stats.closed_through` in µs: what sealing compares.
    closed_through_us: Option<u64>,
}

/// Provenance of one sealed window: where its time went and what it
/// absorbed on the way. Timestamps come from whatever clock the io edge
/// injects via [`AggregatorCore::set_now_us`] — wall time in `dnsobs
/// aggregate`, virtual time under the chaos kernel, zero when nobody
/// injects one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowLineage {
    /// Clock reading when the first record for this window arrived, µs.
    pub first_seen_us: u64,
    /// Clock reading when the window was sealed, µs.
    pub sealed_us: u64,
    /// Window-state records merged into this window.
    pub records: u64,
    /// Merge conflicts absorbed while sealing (chunk loss, cross-
    /// collector shape conflicts).
    pub conflicts: u64,
}

impl WindowLineage {
    /// Open-to-seal residency, µs.
    pub fn latency_us(&self) -> u64 {
        self.sealed_us.saturating_sub(self.first_seen_us)
    }
}

/// One sealed global window: the merged per-dataset tracker states, each
/// carrying its stated error bound (`TopKState::error_bound` — the sum
/// of the contributing upstreams' bounds).
#[derive(Debug, Clone)]
pub struct GlobalWindow {
    /// Window start, seconds.
    pub start: f64,
    /// Window length, seconds.
    pub length: f64,
    /// Contributing upstream ids, ascending.
    pub upstreams: Vec<u64>,
    /// Merged per-dataset states, dataset-name ascending.
    pub datasets: Vec<TopKState>,
    /// Provenance metadata (see [`WindowLineage`]).
    pub lineage: WindowLineage,
}

/// Equality is *payload* equality: two windows with the same merged
/// state are equal no matter what path or clock produced them. Lineage
/// is provenance metadata, deliberately excluded so the differential
/// suites can compare a traced run against an untraced reference fold.
impl PartialEq for GlobalWindow {
    fn eq(&self, other: &Self) -> bool {
        self.start == other.start
            && self.length == other.length
            && self.upstreams == other.upstreams
            && self.datasets == other.datasets
    }
}

/// Aggregate accounting, mirrored byte-exactly into telemetry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AggregatorReport {
    /// Per-upstream ledgers.
    pub upstreams: BTreeMap<u64, UpstreamStats>,
    /// Records accepted in total.
    pub records: u64,
    /// Records rejected in total.
    pub rejected: u64,
    /// Late records in total.
    pub late_records: u64,
    /// Global windows sealed.
    pub windows_sealed: u64,
    /// Source dataset states folded into global states.
    pub dataset_merges: u64,
    /// Source states skipped at seal time because they refused to merge
    /// (cross-collector shape conflicts).
    pub merge_conflicts: u64,
}

struct WindowAccum {
    start: f64,
    length: f64,
    /// upstream → dataset → received chunks.
    sources: BTreeMap<u64, BTreeMap<String, Vec<TopKState>>>,
    /// Clock reading when the first record arrived (µs).
    first_seen_us: u64,
    /// Records accepted into this window.
    records: u64,
}

/// The sans-io aggregation state machine.
pub struct AggregatorCore {
    cfg: AggregatorConfig,
    upstreams: BTreeMap<u64, UpstreamLedger>,
    windows: BTreeMap<u64, WindowAccum>,
    /// Start (µs) of the newest sealed window — records at or below it
    /// are late.
    sealed_through_us: Option<u64>,
    records: u64,
    rejected: u64,
    late_records: u64,
    windows_sealed: u64,
    dataset_merges: u64,
    merge_conflicts: u64,
    metrics: Option<AggregatorMetrics>,
    /// Injected clock reading (µs); stamps lineage and trace events.
    now_us: u64,
    /// Provenance ring; disabled (zero-capacity) unless installed.
    trace: TraceRing,
}

impl AggregatorCore {
    /// New core without telemetry.
    pub fn new(cfg: &AggregatorConfig) -> AggregatorCore {
        AggregatorCore {
            cfg: *cfg,
            upstreams: BTreeMap::new(),
            windows: BTreeMap::new(),
            sealed_through_us: None,
            records: 0,
            rejected: 0,
            late_records: 0,
            windows_sealed: 0,
            dataset_merges: 0,
            merge_conflicts: 0,
            metrics: None,
            now_us: 0,
            trace: TraceRing::disabled(),
        }
    }

    /// New core mirroring its ledgers into `registry`.
    pub fn with_registry(cfg: &AggregatorConfig, registry: &Registry) -> AggregatorCore {
        let mut core = AggregatorCore::new(cfg);
        core.metrics = Some(AggregatorMetrics::register(registry));
        core
    }

    /// Record provenance events into `ring` (builder style).
    pub fn with_trace(mut self, ring: TraceRing) -> AggregatorCore {
        self.trace = ring;
        self
    }

    /// Inject the current clock reading (µs). Sans-io discipline: the
    /// core never reads a clock; the io edge (or the chaos kernel, with
    /// virtual time) tells it what time it is before each event, and
    /// lineage/trace timestamps follow.
    pub fn set_now_us(&mut self, now_us: u64) {
        self.now_us = now_us;
    }

    /// Resume the sealing frontier from a durable store: every record for
    /// a window at or before `window_us` is treated as late (ledgered and
    /// dropped), exactly as if this core had sealed those windows itself.
    ///
    /// This is the crash-recovery contract of `aggregate --store`: on
    /// restart the aggregator replays upstream retransmissions without
    /// double-merging windows that already reached disk. The frontier
    /// only moves forward; a resume behind the current frontier is a
    /// no-op.
    pub fn resume_sealed_through(&mut self, window_us: u64) {
        if self.sealed_through_us.is_none_or(|s| s < window_us) {
            self.sealed_through_us = Some(window_us);
        }
    }

    /// The sealing frontier: the window-start (µs) through which windows
    /// have been sealed, if any. Mirrors what a `--store` run persists.
    pub fn sealed_through_us(&self) -> Option<u64> {
        self.sealed_through_us
    }

    fn ledger(&mut self, upstream: u64) -> &mut UpstreamLedger {
        self.upstreams
            .entry(upstream)
            .or_insert_with(|| UpstreamLedger {
                stats: UpstreamStats::default(),
                last_window_us: None,
                closed_through_us: None,
            })
    }

    /// Raise `upstream`'s closed-through time to `through` (seconds; `us`
    /// is the same instant in µs); an older one is a no-op.
    fn raise_closed_through(&mut self, upstream: u64, us: u64, through: f64) {
        let ledger = self.ledger(upstream);
        if ledger.closed_through_us.is_none_or(|c| c < us) {
            ledger.closed_through_us = Some(us);
            ledger.stats.closed_through = Some(through);
        }
    }

    fn sync_metrics(&mut self) {
        if let Some(metrics) = self.metrics.as_mut() {
            let report = AggregatorReport {
                upstreams: self
                    .upstreams
                    .iter()
                    .map(|(&id, l)| (id, l.stats.clone()))
                    .collect(),
                records: self.records,
                rejected: self.rejected,
                late_records: self.late_records,
                windows_sealed: self.windows_sealed,
                dataset_merges: self.dataset_merges,
                merge_conflicts: self.merge_conflicts,
            };
            metrics.sync(&report, self.windows.len() as u64);
        }
    }

    fn reject(&mut self, upstream: u64, window_us: u64, err: StateError) -> Result<(), StateError> {
        self.rejected += 1;
        self.ledger(upstream).stats.rejected += 1;
        self.trace.record(
            TraceEvent::new(self.now_us, STAGE, TraceKind::Mark)
                .window(window_us)
                .source(upstream)
                .value(1),
        );
        self.sync_metrics();
        Err(err)
    }

    /// Ingest one window-state record. Structural conflicts reject the
    /// record (ledgered per upstream) and surface the typed error.
    pub fn on_state(&mut self, ws: WindowState) -> Result<(), StateError> {
        let upstream = ws.upstream;
        let window_us = (ws.start * US).round() as u64;
        let length_us = ((ws.length * US).round() as u64).max(1);

        // Every record, accepted or not, shows the upstream's fold
        // reached this window: everything before it is closed.
        self.raise_closed_through(upstream, window_us, ws.start);

        if self.sealed_through_us.is_some_and(|s| window_us <= s) {
            self.late_records += 1;
            self.ledger(upstream).stats.late_records += 1;
            self.trace.record(
                TraceEvent::new(self.now_us, STAGE, TraceKind::Drop)
                    .window(window_us)
                    .source(upstream)
                    .value(1),
            );
            self.sync_metrics();
            return Ok(());
        }

        // Window/gap accounting on the per-upstream window sequence.
        let ledger = self.ledger(upstream);
        match ledger.last_window_us {
            None => {
                ledger.stats.windows += 1;
                ledger.last_window_us = Some(window_us);
            }
            Some(last) if window_us > last => {
                ledger.stats.windows += 1;
                ledger.stats.window_gaps += (window_us - last) / length_us.max(1) - 1;
                ledger.last_window_us = Some(window_us);
            }
            Some(last) if window_us < last => {
                ledger.stats.out_of_order += 1;
            }
            Some(_) => {}
        }

        let now_us = self.now_us;
        let accum = self
            .windows
            .entry(window_us)
            .or_insert_with(|| WindowAccum {
                start: ws.start,
                length: ws.length,
                sources: BTreeMap::new(),
                first_seen_us: now_us,
                records: 0,
            });
        if accum.length.to_bits() != ws.length.to_bits() {
            return self.reject(
                upstream,
                window_us,
                StateError::LayoutMismatch("window length"),
            );
        }
        let parts = accum
            .sources
            .entry(upstream)
            .or_default()
            .entry(ws.topk.dataset.clone())
            .or_default();
        if let Some(first) = parts.first() {
            if first.chunks != ws.topk.chunks {
                return self.reject(
                    upstream,
                    window_us,
                    StateError::ChunkMismatch("chunk count disagreement"),
                );
            }
            if parts.iter().any(|p| p.chunk == ws.topk.chunk) {
                return self.reject(
                    upstream,
                    window_us,
                    StateError::ChunkMismatch("duplicate chunk"),
                );
            }
        }
        parts.push(ws.topk);
        accum.records += 1;
        self.records += 1;
        self.ledger(upstream).stats.records += 1;
        self.trace.record(
            TraceEvent::new(now_us, STAGE, TraceKind::Ingest)
                .window(window_us)
                .source(upstream)
                .value(1),
        );
        self.sync_metrics();
        Ok(())
    }

    /// Ingest one uplink item: a record ([`AggregatorCore::on_state`]),
    /// or a watermark saying upstream `upstream` has closed every window
    /// starting before `through` (seconds). Duplicated, reordered or
    /// stale watermarks are harmless: the closed-through time only moves
    /// forward.
    pub fn on_uplink(&mut self, item: Uplink) -> Result<(), StateError> {
        match item {
            Uplink::State(ws) => self.on_state(Arc::unwrap_or_clone(ws)),
            Uplink::Closed { upstream, through } => {
                self.raise_closed_through(upstream, (through * US).round() as u64, through);
                self.sync_metrics();
                Ok(())
            }
        }
    }

    /// Mark an upstream as finished (BYE or lost connection): it stops
    /// gating window sealing.
    pub fn on_closed(&mut self, upstream: u64) {
        self.ledger(upstream).stats.closed = true;
        self.sync_metrics();
    }

    /// Seal every window each open upstream has closed (see the module
    /// docs) and append the merged results to `out`, oldest first.
    /// Windows are held until all expected upstreams have been seen.
    pub fn poll(&mut self, out: &mut Vec<GlobalWindow>) {
        if self.upstreams.len() < self.cfg.expected_upstreams {
            return;
        }
        loop {
            let Some((&window_us, accum)) = self.windows.iter().next() else {
                return;
            };
            let end_us = window_us + (accum.length * US).round() as u64;
            let complete = self
                .upstreams
                .values()
                .all(|l| l.stats.closed || l.closed_through_us.is_some_and(|c| c >= end_us));
            if !complete {
                return;
            }
            self.seal_first(out);
        }
    }

    /// Seal the oldest open window unconditionally.
    fn seal_first(&mut self, out: &mut Vec<GlobalWindow>) {
        let Some((window_us, accum)) = self.windows.pop_first() else {
            return;
        };
        let conflicts_before = self.merge_conflicts;
        let mut by_dataset: BTreeMap<String, TopKState> = BTreeMap::new();
        let mut contributors: Vec<u64> = Vec::new();
        // The window is sealed once: its states merge by move.
        for (upstream, datasets) in accum.sources {
            let mut contributed = false;
            for (name, parts) in datasets {
                let assembled = match assemble_chunks(parts) {
                    Ok(s) => s,
                    Err(_) => {
                        self.merge_conflicts += 1;
                        continue;
                    }
                };
                match by_dataset.entry(name) {
                    Entry::Vacant(slot) => {
                        slot.insert(assembled);
                    }
                    Entry::Occupied(mut merged) => {
                        if merge_topk_into(merged.get_mut(), assembled).is_err() {
                            self.merge_conflicts += 1;
                        }
                    }
                }
                self.dataset_merges += 1;
                contributed = true;
            }
            if contributed {
                contributors.push(upstream);
            }
        }
        for &u in &contributors {
            self.ledger(u).stats.merged_windows += 1;
        }
        self.windows_sealed += 1;
        self.sealed_through_us = Some(
            self.sealed_through_us
                .map_or(window_us, |s| s.max(window_us)),
        );
        let lineage = WindowLineage {
            first_seen_us: accum.first_seen_us,
            sealed_us: self.now_us,
            records: accum.records,
            conflicts: self.merge_conflicts - conflicts_before,
        };
        // Exactly one terminal event per window: a clean seal, or a seal
        // that absorbed merge conflicts. Either way the payload is the
        // record count, so the trace-conservation law can balance Ingest
        // events against terminals.
        let terminal = if lineage.conflicts > 0 {
            TraceKind::Conflict
        } else {
            TraceKind::Seal
        };
        self.trace.record(
            TraceEvent::new(self.now_us, STAGE, terminal)
                .window(window_us)
                .value(lineage.records),
        );
        if let Some(metrics) = self.metrics.as_ref() {
            metrics
                .seal_latency
                .record(lineage.latency_us() as f64 / 1e6);
        }
        out.push(GlobalWindow {
            start: accum.start,
            length: accum.length,
            upstreams: contributors,
            datasets: by_dataset.into_values().collect(),
            lineage,
        });
        self.sync_metrics();
    }

    /// Current accounting snapshot.
    pub fn report(&self) -> AggregatorReport {
        AggregatorReport {
            upstreams: self
                .upstreams
                .iter()
                .map(|(&id, l)| (id, l.stats.clone()))
                .collect(),
            records: self.records,
            rejected: self.rejected,
            late_records: self.late_records,
            windows_sealed: self.windows_sealed,
            dataset_merges: self.dataset_merges,
            merge_conflicts: self.merge_conflicts,
        }
    }

    /// Open (unsealed) windows.
    pub fn open_windows(&self) -> usize {
        self.windows.len()
    }

    /// Seal everything still open (oldest first) and return the final
    /// report.
    pub fn finish(mut self, out: &mut Vec<GlobalWindow>) -> AggregatorReport {
        while !self.windows.is_empty() {
            self.seal_first(out);
        }
        self.sync_metrics();
        self.report()
    }
}

/// Telemetry mirror of the aggregator ledgers, byte-exact with
/// [`AggregatorReport`] after every event — the same positive-delta
/// discipline as `feed::CollectorMetrics`.
struct AggregatorMetrics {
    registry: Registry,
    records: Counter,
    rejected: Counter,
    late_records: Counter,
    windows_sealed: Counter,
    dataset_merges: Counter,
    merge_conflicts: Counter,
    open_windows: Gauge,
    upstreams: Gauge,
    /// Open-to-seal residency per window, seconds.
    seal_latency: Histogram,
    per_upstream: BTreeMap<u64, UpstreamCounters>,
}

struct UpstreamCounters {
    records: Counter,
    rejected: Counter,
    late_records: Counter,
    windows: Counter,
    window_gaps: Counter,
    out_of_order: Counter,
    merged_windows: Counter,
    /// `closed_through`, seconds.
    closed_through: Gauge,
    mirror: UpstreamStats,
}

impl AggregatorMetrics {
    fn register(registry: &Registry) -> AggregatorMetrics {
        AggregatorMetrics {
            registry: registry.clone(),
            records: registry.counter("agg_records_total"),
            rejected: registry.counter("agg_rejected_records_total"),
            late_records: registry.counter("agg_late_records_total"),
            windows_sealed: registry.counter("agg_windows_sealed_total"),
            dataset_merges: registry.counter("agg_dataset_merges_total"),
            merge_conflicts: registry.counter("agg_merge_conflicts_total"),
            open_windows: registry.gauge("agg_open_windows"),
            upstreams: registry.gauge("agg_upstreams"),
            seal_latency: registry
                .histogram("agg_window_seal_seconds", Histogram::seconds_layout()),
            per_upstream: BTreeMap::new(),
        }
    }

    fn sync(&mut self, report: &AggregatorReport, open_windows: u64) {
        fn advance(counter: &Counter, old: u64, new: u64) {
            if new > old {
                counter.inc(new - old);
            }
        }
        let mut records = 0;
        let mut rejected = 0;
        let mut late = 0;
        for u in self.per_upstream.values() {
            records += u.mirror.records;
            rejected += u.mirror.rejected;
            late += u.mirror.late_records;
        }
        advance(&self.records, records, report.records);
        advance(&self.rejected, rejected, report.rejected);
        advance(&self.late_records, late, report.late_records);
        let sealed = self.windows_sealed.value();
        advance(&self.windows_sealed, sealed, report.windows_sealed);
        let merges = self.dataset_merges.value();
        advance(&self.dataset_merges, merges, report.dataset_merges);
        let conflicts = self.merge_conflicts.value();
        advance(&self.merge_conflicts, conflicts, report.merge_conflicts);
        self.open_windows.set(open_windows as f64);
        self.upstreams.set(report.upstreams.len() as f64);
        for (&id, stats) in &report.upstreams {
            let registry = &self.registry;
            let u = self.per_upstream.entry(id).or_insert_with(|| {
                let label = id.to_string();
                let labels: &[(&str, &str)] = &[("upstream", label.as_str())];
                UpstreamCounters {
                    records: registry.counter_with("agg_upstream_records_total", labels),
                    rejected: registry.counter_with("agg_upstream_rejected_total", labels),
                    late_records: registry.counter_with("agg_upstream_late_records_total", labels),
                    windows: registry.counter_with("agg_upstream_windows_total", labels),
                    window_gaps: registry.counter_with("agg_upstream_window_gaps_total", labels),
                    out_of_order: registry.counter_with("agg_upstream_out_of_order_total", labels),
                    merged_windows: registry
                        .counter_with("agg_upstream_merged_windows_total", labels),
                    closed_through: registry.gauge_with("agg_upstream_frontier_seconds", labels),
                    mirror: UpstreamStats::default(),
                }
            });
            advance(&u.records, u.mirror.records, stats.records);
            advance(&u.rejected, u.mirror.rejected, stats.rejected);
            advance(&u.late_records, u.mirror.late_records, stats.late_records);
            advance(&u.windows, u.mirror.windows, stats.windows);
            advance(&u.window_gaps, u.mirror.window_gaps, stats.window_gaps);
            advance(&u.out_of_order, u.mirror.out_of_order, stats.out_of_order);
            advance(
                &u.merged_windows,
                u.mirror.merged_windows,
                stats.merged_windows,
            );
            u.closed_through.set(stats.closed_through.unwrap_or(0.0));
            u.mirror = stats.clone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::tiny_state;

    /// Windows are 60 s long in `tiny_state`.
    fn record(upstream: u64, start: f64) -> Uplink {
        Uplink::State(Arc::new(tiny_state(upstream, start, "esld", &["a"])))
    }

    fn closed(upstream: u64, through: f64) -> Uplink {
        Uplink::Closed { upstream, through }
    }

    /// Feed `items` in order, polling after each; the starts sealed.
    fn drive(core: &mut AggregatorCore, items: impl IntoIterator<Item = Uplink>) -> Vec<f64> {
        let mut out = Vec::new();
        for item in items {
            core.on_uplink(item).expect("valid item");
            core.poll(&mut out);
        }
        out.iter().map(|gw| gw.start).collect()
    }

    #[test]
    fn window_seals_on_both_watermarks_before_any_next_record() {
        let mut core = AggregatorCore::new(&AggregatorConfig::new(2));
        let sealed = drive(
            &mut core,
            [
                record(1, 0.0),
                record(2, 0.0),
                closed(1, 60.0),
                closed(2, 60.0),
            ],
        );
        assert_eq!(sealed, [0.0], "both upstreams closed window 0");
        let stats = &core.report().upstreams;
        assert_eq!(stats[&1].closed_through, Some(60.0));
        assert_eq!(stats[&2].closed_through, Some(60.0));
    }

    #[test]
    fn one_watermark_alone_does_not_seal() {
        let mut core = AggregatorCore::new(&AggregatorConfig::new(2));
        let sealed = drive(
            &mut core,
            [
                record(1, 0.0),
                record(2, 0.0),
                closed(1, 60.0),
                closed(1, 120.0),
            ],
        );
        assert!(sealed.is_empty(), "upstream 2 may still send window 0");
        assert_eq!(core.open_windows(), 1);
    }

    #[test]
    fn duplicate_reordered_and_stale_watermarks_are_idempotent() {
        let mut core = AggregatorCore::new(&AggregatorConfig::new(2));
        let sealed = drive(
            &mut core,
            [
                record(1, 0.0),
                record(2, 0.0),
                closed(1, 120.0),
                closed(1, 60.0),  // reordered: behind closed_through
                closed(1, 120.0), // duplicate
                record(1, 120.0),
                closed(2, 60.0),
                closed(2, 60.0),
                closed(2, 0.0), // stale
            ],
        );
        assert_eq!(sealed, [0.0]);
        let report = core.report();
        assert_eq!(report.upstreams[&1].closed_through, Some(120.0));
        assert_eq!(report.upstreams[&2].closed_through, Some(60.0));
        assert_eq!(report.late_records, 0);
        // Upstream 1's record opened window 120: its own watermark
        // closes it.
        assert!(drive(&mut core, [closed(2, 180.0)]).is_empty());
        assert_eq!(drive(&mut core, [closed(1, 180.0)]), [120.0]);
    }

    #[test]
    fn record_for_a_sealed_window_is_ledgered_late() {
        let mut core = AggregatorCore::new(&AggregatorConfig::new(2));
        let sealed = drive(
            &mut core,
            [
                record(1, 0.0),
                closed(1, 60.0),
                closed(2, 60.0),
                record(2, 0.0),
            ],
        );
        assert_eq!(sealed, [0.0]);
        let mut out = Vec::new();
        let report = core.finish(&mut out);
        assert!(out.is_empty(), "the late record opens no window");
        assert_eq!(report.late_records, 1);
        assert_eq!(report.upstreams[&2].late_records, 1);
        assert_eq!(report.upstreams[&1].merged_windows, 1);
        assert_eq!(report.upstreams[&2].merged_windows, 0);
    }

    /// Bare records seal as they always did: window W once every
    /// upstream has a record for a later window.
    #[test]
    fn records_without_watermarks_seal_on_the_next_window() {
        let mut core = AggregatorCore::new(&AggregatorConfig::new(2));
        let steps: [(Uplink, &[f64]); 6] = [
            (record(1, 0.0), &[]),
            (record(2, 0.0), &[]),
            (record(1, 60.0), &[]),
            (record(2, 180.0), &[0.0]),
            (record(1, 120.0), &[0.0, 60.0]),
            (record(1, 180.0), &[0.0, 60.0, 120.0]),
        ];
        let mut out = Vec::new();
        for (item, want) in steps {
            core.on_uplink(item).unwrap();
            core.poll(&mut out);
            let got: Vec<f64> = out.iter().map(|gw| gw.start).collect();
            assert_eq!(got, want);
        }
        let report = core.finish(&mut out);
        assert_eq!(out.last().map(|gw| gw.start), Some(180.0));
        assert_eq!(out.last().map(|gw| gw.upstreams.clone()), Some(vec![1, 2]));
        assert_eq!(report.late_records, 0);
    }
}
