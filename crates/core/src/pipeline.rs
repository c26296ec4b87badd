//! The assembled Observatory (steps B–F of the paper's Figure 1), in two
//! flavours: a single-threaded [`Observatory`] and a multi-core
//! [`ThreadedPipeline`] built on lock-free SPSC stage rings
//! (`crates/spsc`) with parallel summarizers, an order-restoring
//! sequencer, and hash-partitioned tracker shards.
//!
//! Concurrency architecture (see DESIGN.md for the full protocol):
//!
//! * **Stage rings** — every inter-stage edge (feeder → worker, worker →
//!   sequencer, sequencer → shard) is a single-producer/single-consumer
//!   ring; a hand-off costs one slot write and one release store,
//!   amortized over a whole batch of transactions.
//! * **Round-robin sequencing** — the feeder deals batches to workers in
//!   round-robin order and the sequencer collects them in the same
//!   order, so global stream order is restored with no reorder buffer.
//! * **Per-shard watermark frontiers** — window closes are not broadcast
//!   as a barrier; each shard's next message piggybacks the list of
//!   window starts that closed since the shard last heard from the
//!   sequencer, so idle shards never stall the hot path and every shard
//!   still dumps at exactly the same points in the (deterministic)
//!   stream.
//! * **Adaptive batching** — the feeder grows its batch size under
//!   backlog (deep stage rings / shard queues) and shrinks it when the
//!   pipeline runs idle, between a configurable `[min, max]`.
//! * **Bounded hand-offs** — every ring is a few batches deep, so the
//!   pipeline holds a fixed number of batches between its input and the
//!   trackers' state ([`ThreadedPipeline::in_flight_bound`]) and a slow
//!   shard pushes back on the caller's iterator instead of queueing the
//!   stream.
//! * **Streaming windows** — shards ship each closed window's parts to a
//!   merge stage as they dump; it hands the caller's sink one
//!   [`WindowDump`] per dataset in window order while the run goes on.
//!
//! The threaded output is byte-identical to the single-threaded
//! [`Observatory`] (in the unsaturated-cache regime for `shards > 1`);
//! the differential tests below and `crates/core/tests/frontier_prop.rs`
//! enforce it.

use crate::features::{FeatureConfig, FoldDigest};
use crate::keys::Dataset;
use crate::metrics::{SequencerMetrics, ShardMetrics};
use crate::summarize::TxSummary;
use crate::timeseries::{TimeSeriesStore, WindowDump};
use crate::topk::TopKTracker;
use psl::Psl;
use simnet::Transaction;
use spsc::{ring, Consumer, Pool, Producer, Recycled};
use std::sync::Arc;
use telemetry::trace::{TraceEvent, TraceKind, TraceRing};
use telemetry::{Clock, FlightRecorder, Registry, SystemClock};

/// Observatory configuration.
#[derive(Debug, Clone)]
pub struct ObservatoryConfig {
    /// Datasets to track, with their top-k capacities.
    pub datasets: Vec<(Dataset, usize)>,
    /// Window length in seconds (the paper uses 60).
    pub window_secs: f64,
    /// Sketch sizing for per-object features.
    pub feature_cfg: FeatureConfig,
    /// Use the Bloom eviction gate (paper §2.2's optional filter).
    pub bloom_gate: bool,
}

impl Default for ObservatoryConfig {
    fn default() -> Self {
        ObservatoryConfig {
            datasets: vec![(Dataset::SrvIp, 10_000)],
            window_secs: 60.0,
            feature_cfg: FeatureConfig::default(),
            bloom_gate: true,
        }
    }
}

/// The single-threaded stream processor: summarize → track → window-dump.
pub struct Observatory {
    cfg: ObservatoryConfig,
    psl: Psl,
    trackers: Vec<TopKTracker>,
    store: TimeSeriesStore,
    window_start: Option<f64>,
    /// Stats captured at the previous window boundary, per tracker.
    prev_stats: Vec<(u64, u64, u64)>,
    ingested: u64,
    /// The current summary's digest, shared by every tracker.
    digest: FoldDigest,
}

impl Observatory {
    /// Build from config.
    pub fn new(cfg: ObservatoryConfig) -> Observatory {
        let trackers = cfg
            .datasets
            .iter()
            .map(|&(ds, k)| TopKTracker::new(ds, k, cfg.feature_cfg, cfg.bloom_gate))
            .collect::<Vec<_>>();
        let prev_stats = vec![(0, 0, 0); trackers.len()];
        Observatory {
            cfg,
            psl: Psl::embedded(),
            trackers,
            store: TimeSeriesStore::new(),
            window_start: None,
            prev_stats,
            ingested: 0,
            digest: FoldDigest::default(),
        }
    }

    /// Total transactions ingested.
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// Ingest one simulator transaction (structured fast path).
    pub fn ingest(&mut self, tx: &Transaction) {
        let summary = TxSummary::from_transaction(tx, &self.psl);
        self.ingest_summary(summary);
    }

    /// Ingest one transaction from raw captured packets; silently drops
    /// unparseable input (the preprocessing filter).
    pub fn ingest_packets(
        &mut self,
        query_pkt: &[u8],
        response_pkt: Option<&[u8]>,
        time: f64,
        contributor: u16,
        delay_ms: f64,
    ) {
        if let Some(summary) = TxSummary::from_packets(
            query_pkt,
            response_pkt,
            time,
            contributor,
            delay_ms,
            &self.psl,
        ) {
            self.ingest_summary(summary);
        }
    }

    /// Ingest a pre-built summary.
    pub fn ingest_summary(&mut self, summary: TxSummary) {
        let start = *self.window_start.get_or_insert(summary.time);
        if summary.time >= start + self.cfg.window_secs {
            self.dump_window();
            self.window_start = Some(next_window_start(start, summary.time, self.cfg.window_secs));
        }
        self.ingested += 1;
        self.digest.load(&summary);
        for t in &mut self.trackers {
            t.observe_digest(&summary, &self.digest);
        }
    }

    fn dump_window(&mut self) {
        let start = self.window_start.expect("dump only after first tx");
        for (i, t) in self.trackers.iter_mut().enumerate() {
            let rows = t.dump(start);
            let (kept, dropped, filtered) = t.stats();
            let (pk, pd, pf) = self.prev_stats[i];
            self.prev_stats[i] = (kept, dropped, filtered);
            self.store.push(WindowDump {
                dataset: t.dataset().name().to_string(),
                start,
                length: self.cfg.window_secs,
                rows,
                kept: kept - pk,
                dropped: dropped - pd,
                filtered: filtered - pf,
            });
        }
    }

    /// Flush the final partial window and return the collected store.
    pub fn finish(mut self) -> TimeSeriesStore {
        if self.window_start.is_some() && self.ingested > 0 {
            self.dump_window();
        }
        self.store
    }

    /// Borrow the store collected so far (completed windows only).
    pub fn store(&self) -> &TimeSeriesStore {
        &self.store
    }

    /// Take the windows completed since the last call, leaving the store
    /// empty: a long run that writes windows out as they close holds
    /// trackers, not every window it ever closed.
    pub fn take_windows(&mut self) -> Vec<WindowDump> {
        self.store.take_windows()
    }
}

/// Start of the window containing `t`, given that the window opened at
/// `start` has just closed (`t >= start + w`). Always advances at least
/// one window: `(t - start) / w` can round below 1 while `t >= start + w`
/// holds, and re-opening the closed window would dump it twice.
fn next_window_start(start: f64, t: f64, w: f64) -> f64 {
    start + ((t - start) / w).floor().max(1.0) * w
}

/// Chaos-testing hook: called by each tracker shard as `(shard index,
/// message index)` before every message it processes, so fault-injection
/// harnesses can stall one shard on a deterministic schedule (see
/// `chaos::slowshard`). Production pipelines leave it unset.
pub type StallHook = Arc<dyn Fn(usize, u64) + Send + Sync>;

/// Feeder → worker and worker → sequencer ring depth, in batches.
const STAGE_RING_BATCHES: usize = 4;
/// Sequencer → shard ring depth, in messages. A few batches ride out a
/// window dump; anything deeper only lets the sequencer's ingest counter
/// run ahead of the tracker state it stands for.
const SHARD_RING_MSGS: usize = 4;
/// Shard → merge ring depth, in closed windows.
const WINDOW_RING_PARTS: usize = 4;
/// A shard hears of window closes at the latest when it is this many
/// behind (normally they ride on its next batch). The merge stage needs
/// every shard's part of a window before it can emit it, so an idle
/// shard left arbitrarily far behind would fill the busy shards' window
/// rings and, through them, stall the sequencer that alone can wake it;
/// keeping the lag below [`WINDOW_RING_PARTS`] rules that cycle out.
const MAX_SHARD_LAG: usize = 2;
/// Default adaptive batch bounds (transactions per batch).
const BATCH_MIN_DEFAULT: usize = 64;
const BATCH_MAX_DEFAULT: usize = 2_048;
/// Batches `run_summaries` holds between its input and the trackers'
/// state when a shard stops: one each in the feeder's, the sequencer's
/// and the shard's hands, and both rings between them full. Times the
/// batch maximum (2 048 by default) that is 22 528 summaries, of which
/// the `pipeline_ingested_total` counter — bumped by the sequencer as it
/// takes a batch — can be ahead of the trackers by at most the
/// `SHARD_RING_MSGS + 2` batches downstream of it (12 288).
const IN_FLIGHT_BATCHES: usize = STAGE_RING_BATCHES + SHARD_RING_MSGS + 3;
/// Initial batch size before the controller has seen any signal.
const BATCH_START: usize = 512;

/// One message on a shard's ring.
///
/// `closes` is this shard's watermark frontier delta: the window starts
/// (in global stream order) that closed since the sequencer last sent
/// this shard a message. The shard dumps its trackers for each close
/// *before* observing `batch` — all of the batch's assignments belong to
/// the window that is open after the last close. Batches carry the
/// summaries by `Arc` (shared with every other shard that got
/// assignments from the same feeder batch) plus this shard's private
/// assignment list: `(index into the batch, bitmask of dataset slots)`.
struct ShardMsg {
    closes: Vec<f64>,
    batch: Option<ShardBatch>,
}

/// A shared summary batch plus one shard's private assignment list.
type ShardBatch = (Arc<Recycled<TxSummary>>, Vec<(u32, u16)>);

/// The sequencer's view of how far each shard's window clock lags the
/// global one: the closed window starts some shard still lacks, plus a
/// per-shard cursor of how many have been shipped. Shards learn about
/// closes lazily — piggybacked on their next batch, in a message of
/// their own once [`MAX_SHARD_LAG`] behind, or in the final drain — so a
/// window close costs nothing on the hot path and never synchronizes
/// the shard pool.
struct Frontier {
    /// Closed window starts not yet shipped to every shard.
    closes: Vec<f64>,
    /// Closes recorded before `closes[0]` (every shard has them).
    base: usize,
    /// Closes shipped to each shard, counted from the stream's start.
    sent: Vec<usize>,
}

impl Frontier {
    fn new(shards: usize) -> Frontier {
        Frontier {
            closes: Vec::new(),
            base: 0,
            sent: vec![0; shards],
        }
    }

    /// Record a window close at `start` (global stream order).
    fn close(&mut self, start: f64) {
        self.closes.push(start);
    }

    /// How many closes shard `sh` has not heard about yet.
    fn lag(&self, sh: usize) -> usize {
        self.base + self.closes.len() - self.sent[sh]
    }

    /// The closes shard `sh` has not heard about yet; marks them sent
    /// and forgets what every shard has now been sent. Returns an empty
    /// (allocation-free) `Vec` when the shard is current.
    fn take(&mut self, sh: usize) -> Vec<f64> {
        let unsent = self.closes[self.sent[sh] - self.base..].to_vec();
        self.sent[sh] = self.base + self.closes.len();
        let everyone_has = self.sent.iter().copied().min().unwrap_or(self.base);
        self.closes.drain(..everyone_has - self.base);
        self.base = everyone_has;
        unsent
    }
}

/// The feeder's batch-size controller: grow under backlog, shrink when
/// idle, clamp to `[min, max]`.
///
/// Signals (both already exported as telemetry gauges): the occupancy of
/// the stage ring being pushed to, and the deepest sequencer → shard
/// queue. A nearly-full ring or deep shard queues mean downstream is the
/// bottleneck — larger batches amortize per-batch overhead. An empty
/// ring with idle shard queues means the pipeline is keeping up —
/// smaller batches reduce latency and memory. Output is *independent* of
/// batch size (the window clock is driven per summary), so adaptation
/// never affects byte-identicality.
struct AdaptiveBatch {
    cur: usize,
    min: usize,
    max: usize,
}

impl AdaptiveBatch {
    fn new(min: usize, max: usize) -> AdaptiveBatch {
        AdaptiveBatch {
            cur: BATCH_START.clamp(min, max),
            min,
            max,
        }
    }

    fn size(&self) -> usize {
        self.cur
    }

    fn adapt(&mut self, ring_occupancy: usize, ring_cap: usize, deepest_shard_queue: f64) {
        let backlog =
            ring_occupancy + 1 >= ring_cap || deepest_shard_queue >= (SHARD_RING_MSGS / 2) as f64;
        let idle = ring_occupancy == 0 && deepest_shard_queue <= 0.0;
        if backlog {
            self.cur = (self.cur * 2).min(self.max);
        } else if idle {
            self.cur = (self.cur / 2).max(self.min);
        }
    }
}

/// Per-window output of one shard: for each configured dataset (in config
/// order) the dumped rows plus this window's `(kept, dropped, filtered)`
/// deltas.
type ShardPart = (Vec<(String, crate::features::FeatureRow)>, (u64, u64, u64));
/// One closed window as one shard saw it: its start and a part per
/// dataset.
type ShardWindow = (f64, Vec<ShardPart>);

/// A threaded pipeline: transactions are chunked into recycled batches
/// and dealt round-robin to `workers` summarizer threads over SPSC
/// rings; a sequencer collects the batches in the same round-robin order
/// (restoring global stream order with no reorder buffer), drives the
/// window clock, and routes each summary to one of `shards` tracker
/// threads by `xxh64(key) % shards` — so the Top-k state itself is
/// partitioned, not just the parsing. Disjoint key partitions make the
/// merge trivial (concatenate + re-sort) and keep the sharded output
/// byte-identical to the single-threaded [`Observatory`].
pub struct ThreadedPipeline {
    cfg: ObservatoryConfig,
    workers: usize,
    shards: usize,
    batch_min: usize,
    batch_max: usize,
    stall: Option<StallHook>,
    registry: Registry,
    recorder: Option<FlightRecorder>,
    clock: Arc<dyn Clock>,
}

impl ThreadedPipeline {
    /// Build a pipeline with `workers` summarizer threads and a single
    /// tracker shard (exact single-tracker capacities).
    pub fn new(cfg: ObservatoryConfig, workers: usize) -> ThreadedPipeline {
        Self::with_shards(cfg, workers, 1)
    }

    /// Build a pipeline with `workers` summarizer threads and `shards`
    /// tracker threads. With `shards > 1` each shard gets capacity
    /// `ceil(k/shards)` plus 25 % headroom against uneven hashing; with
    /// `shards == 1` capacities match the single-threaded tracker
    /// exactly.
    pub fn with_shards(cfg: ObservatoryConfig, workers: usize, shards: usize) -> ThreadedPipeline {
        assert!(
            cfg.datasets.len() <= 16,
            "shard routing packs dataset slots into a u16 bitmask"
        );
        ThreadedPipeline {
            cfg,
            workers: workers.max(1),
            shards: shards.max(1),
            batch_min: BATCH_MIN_DEFAULT,
            batch_max: BATCH_MAX_DEFAULT,
            stall: None,
            registry: Registry::global(),
            recorder: None,
            clock: Arc::new(SystemClock::new()),
        }
    }

    /// Report telemetry into `registry` instead of the global one (tests
    /// and multi-pipeline processes that need isolated metric spaces).
    pub fn with_registry(mut self, registry: Registry) -> ThreadedPipeline {
        self.registry = registry;
        self
    }

    /// Constrain the adaptive feeder batch size to `[min, max]`
    /// transactions. Passing `min == max` pins the batch size — the
    /// frontier-equivalence property tests use this to sweep schedules.
    /// Output never depends on batch size; only throughput and latency
    /// do.
    pub fn with_batch_range(mut self, min: usize, max: usize) -> ThreadedPipeline {
        assert!(min >= 1 && max >= min, "need 1 <= min <= max");
        self.batch_min = min;
        self.batch_max = max;
        self
    }

    /// Attach a flight recorder: every stage records window-provenance
    /// [`TraceEvent`]s into its own bounded ring (`pipeline/feeder`,
    /// `pipeline/worker<i>`, `pipeline/sequencer`, `pipeline/shard<sh>`,
    /// `pipeline/seal`). Window ids on the trace are the window start in
    /// integer microseconds — the same keying `sketchwire` uses on the
    /// wire. Without a recorder the rings are disabled and the hot path
    /// skips the per-event clock reads entirely.
    pub fn with_flight_recorder(mut self, recorder: FlightRecorder) -> ThreadedPipeline {
        self.recorder = Some(recorder);
        self
    }

    /// Trace timestamps come from `clock` — tests pin a
    /// [`telemetry::ManualClock`] (or the chaos `VirtualClock`) for
    /// deterministic dumps. Defaults to [`SystemClock`].
    pub fn with_trace_clock(mut self, clock: Arc<dyn Clock>) -> ThreadedPipeline {
        self.clock = clock;
        self
    }

    /// Install a chaos-testing [`StallHook`] invoked by each shard before
    /// every message it processes. Used by the slow-shard fault axis to
    /// stall one shard's consumer on a deterministic schedule; must not
    /// be set in production pipelines.
    pub fn with_stall_injector(mut self, hook: StallHook) -> ThreadedPipeline {
        self.stall = Some(hook);
        self
    }

    /// The most summaries [`Self::run_summaries_into`] holds between its
    /// input and the trackers' state, however far a shard falls behind.
    pub fn in_flight_bound(&self) -> usize {
        IN_FLIGHT_BATCHES * self.batch_max
    }

    /// Per-shard cache capacity for a dataset configured with capacity `k`.
    fn shard_capacity(k: usize, shards: usize) -> usize {
        if shards <= 1 {
            k
        } else {
            let per = k.div_ceil(shards);
            (per + per / 4).max(8)
        }
    }

    /// Consume `transactions`, returning the collected time series:
    /// [`Self::run_into`] with every window kept.
    pub fn run<I>(&self, transactions: I) -> TimeSeriesStore
    where
        I: IntoIterator<Item = Transaction>,
    {
        let mut store = TimeSeriesStore::new();
        self.run_into(transactions, |dump| store.push(dump));
        store
    }

    /// Consume `transactions`, handing `sink` every window as it closes
    /// (one [`WindowDump`] per dataset, in window order, from the merge
    /// stage's thread).
    ///
    /// The input is chunked into batches on the calling thread (batch
    /// storage is recycled through bounded [`Pool`]s, so the steady state
    /// allocates no batch storage on any path); each batch is summarized
    /// by one worker; the sequencer collects batches in round-robin order
    /// so window boundaries are deterministic and identical to the
    /// single-threaded result, then scatters summaries to the tracker
    /// shards with per-shard frontier watermarks.
    pub fn run_into<I>(&self, transactions: I, sink: impl FnMut(WindowDump) + Send)
    where
        I: IntoIterator<Item = Transaction>,
    {
        let workers = self.workers;
        // One SPSC ring per stage edge.
        let mut task_txs = Vec::with_capacity(workers);
        let mut task_rxs = Vec::with_capacity(workers);
        let mut done_txs = Vec::with_capacity(workers);
        let mut done_rxs = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = ring::<Vec<Transaction>>(STAGE_RING_BATCHES);
            task_txs.push(tx);
            task_rxs.push(rx);
            let (tx, rx) = ring::<Vec<TxSummary>>(STAGE_RING_BATCHES);
            done_txs.push(tx);
            done_rxs.push(rx);
        }
        // Batch-storage pools, bounded to the rings' aggregate depth (a
        // slow stage can never accumulate more idle buffers than the
        // rings could hold in flight).
        let tx_pool: Pool<Transaction> = Pool::new(workers * STAGE_RING_BATCHES + 2);
        let summary_pool: Pool<TxSummary> =
            Pool::new(workers * (STAGE_RING_BATCHES + 1) + SHARD_RING_MSGS + 2);
        let seq_metrics = SequencerMetrics::register(&self.registry, self.shards);
        let trace = self.trace(workers);

        std::thread::scope(|scope| {
            for (w, (task_rx, done_tx)) in task_rxs.into_iter().zip(done_txs).enumerate() {
                let tx_pool = tx_pool.clone();
                let summary_pool = summary_pool.clone();
                let wtrace = trace.workers[w].clone();
                scope
                    .spawn(move || worker_loop(w, task_rx, done_tx, tx_pool, summary_pool, wtrace));
            }
            self.spawn_tracking(scope, done_rxs, &summary_pool, &seq_metrics, &trace, sink);
            // Feeder (this thread): chunk the input into recycled batch
            // Vecs, dealing them round-robin to the workers.
            feed_batches(
                transactions.into_iter(),
                task_txs,
                &tx_pool,
                AdaptiveBatch::new(self.batch_min, self.batch_max),
                &seq_metrics,
                &trace.feeder,
            );
        });
    }

    /// Consume pre-built summaries, returning the collected time series:
    /// [`Self::run_summaries_into`] with every window kept.
    pub fn run_summaries<I>(&self, summaries: I) -> TimeSeriesStore
    where
        I: IntoIterator<Item = TxSummary>,
    {
        let mut store = TimeSeriesStore::new();
        self.run_summaries_into(summaries, |dump| store.push(dump));
        store
    }

    /// Consume pre-built summaries, handing `sink` every window as it
    /// closes, like [`Self::run_into`].
    ///
    /// This is the collector-side entry point of the feed transport: the
    /// summaries were produced (and parallelized) on the sensors, so the
    /// summarizer stage is skipped and the stream goes straight through
    /// the sequencer → shard → merge machinery shared with [`Self::run`].
    /// The feeder is the same recycling, adaptive-batch chunker — batch
    /// storage flows back through the bounded summary pool exactly as on
    /// the transaction path. With one shard the result is byte-identical
    /// to feeding the same summaries through
    /// [`Observatory::ingest_summary`]. While a shard is stopped the
    /// feeder takes at most [`Self::in_flight_bound`] summaries from the
    /// input and then waits.
    pub fn run_summaries_into<I>(&self, summaries: I, sink: impl FnMut(WindowDump) + Send)
    where
        I: IntoIterator<Item = TxSummary>,
    {
        let (feed_tx, feed_rx) = ring::<Vec<TxSummary>>(STAGE_RING_BATCHES);
        let summary_pool: Pool<TxSummary> = Pool::new(IN_FLIGHT_BATCHES);
        let seq_metrics = SequencerMetrics::register(&self.registry, self.shards);
        let trace = self.trace(0);

        std::thread::scope(|scope| {
            self.spawn_tracking(
                scope,
                vec![feed_rx],
                &summary_pool,
                &seq_metrics,
                &trace,
                sink,
            );
            feed_batches(
                summaries.into_iter(),
                vec![feed_tx],
                &summary_pool,
                AdaptiveBatch::new(self.batch_min, self.batch_max),
                &seq_metrics,
                &trace.feeder,
            );
        });
    }

    fn trace(&self, workers: usize) -> PipelineTrace {
        PipelineTrace::new(
            self.recorder.as_ref(),
            self.clock.clone(),
            workers,
            self.shards,
        )
    }

    /// The stages both entry points share, spawned on `scope`: the
    /// sequencer over `inputs`, the tracker shards, and the merge stage
    /// that feeds `sink`. They end by themselves once `inputs` end.
    fn spawn_tracking<'scope, 'env>(
        &'env self,
        scope: &'scope std::thread::Scope<'scope, 'env>,
        inputs: Vec<Consumer<Vec<TxSummary>>>,
        summary_pool: &Pool<TxSummary>,
        seq_metrics: &SequencerMetrics,
        trace: &PipelineTrace,
        sink: impl FnMut(WindowDump) + Send + 'scope,
    ) {
        let shards = self.shards;
        let datasets: Vec<Dataset> = self.cfg.datasets.iter().map(|&(ds, _)| ds).collect();
        let window_secs = self.cfg.window_secs;
        let assign_pool: Pool<(u32, u16)> = Pool::new(shards * SHARD_RING_MSGS + shards + 2);

        let mut shard_txs = Vec::with_capacity(shards);
        let mut window_rxs = Vec::with_capacity(shards);
        for sh in 0..shards {
            let (tx, rx) = ring::<ShardMsg>(SHARD_RING_MSGS);
            shard_txs.push(tx);
            let (window_tx, window_rx) = ring::<ShardWindow>(WINDOW_RING_PARTS);
            window_rxs.push(window_rx);
            let cfg = &self.cfg;
            let metrics = ShardMetrics::register(&self.registry, sh, &datasets);
            let stall = self.stall.clone();
            let assign_pool = assign_pool.clone();
            let strace = trace.shards[sh].clone();
            scope.spawn(move || {
                shard_loop(
                    sh,
                    rx,
                    window_tx,
                    cfg,
                    shards,
                    metrics,
                    stall,
                    assign_pool,
                    strace,
                )
            });
        }

        let seal_trace = trace.seal.clone();
        let merge_datasets = datasets.clone();
        scope.spawn(move || merge_loop(window_rxs, &merge_datasets, window_secs, seal_trace, sink));

        let seq_m = seq_metrics.clone();
        let seq_summary_pool = summary_pool.clone();
        let seq_trace = trace.sequencer.clone();
        scope.spawn(move || {
            sequencer_loop(
                inputs,
                shard_txs,
                &datasets,
                window_secs,
                seq_m,
                seq_summary_pool,
                assign_pool,
                seq_trace,
            )
        });
    }
}

/// Window ids on the trace: the window start in integer microseconds,
/// the same keying `sketchwire::AggregatorCore` uses for windows on the
/// wire — so a window's provenance can be followed from the pipeline
/// stages through the federation tier with one id.
pub(crate) fn window_id_us(start: f64) -> u64 {
    (start * 1e6).round() as u64
}

/// One stage's handle on the flight recorder: its bounded trace ring
/// plus the clock that stamps events. With no recorder attached the
/// ring is disabled, so the tracing-off hot path checks one bool and
/// performs no clock reads and takes no locks.
#[derive(Clone)]
struct StageTrace {
    ring: TraceRing,
    clock: Arc<dyn Clock>,
}

impl StageTrace {
    fn is_enabled(&self) -> bool {
        self.ring.is_enabled()
    }

    fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    fn record(&self, event: TraceEvent) {
        self.ring.record(event);
    }
}

/// Per-run trace handles: one [`StageTrace`] per pipeline stage.
#[derive(Clone)]
struct PipelineTrace {
    feeder: StageTrace,
    workers: Vec<StageTrace>,
    sequencer: StageTrace,
    shards: Vec<StageTrace>,
    seal: StageTrace,
}

impl PipelineTrace {
    fn new(
        recorder: Option<&FlightRecorder>,
        clock: Arc<dyn Clock>,
        workers: usize,
        shards: usize,
    ) -> PipelineTrace {
        let stage = |name: String| StageTrace {
            ring: match recorder {
                Some(fr) => fr.ring(&name),
                None => TraceRing::disabled(),
            },
            clock: clock.clone(),
        };
        PipelineTrace {
            feeder: stage("pipeline/feeder".to_string()),
            workers: (0..workers)
                .map(|w| stage(format!("pipeline/worker{w}")))
                .collect(),
            sequencer: stage("pipeline/sequencer".to_string()),
            shards: (0..shards)
                .map(|sh| stage(format!("pipeline/shard{sh}")))
                .collect(),
            seal: stage("pipeline/seal".to_string()),
        }
    }
}

/// The shared feeder: chunk `it` into pooled batch `Vec`s and deal them
/// round-robin to `outs`, adapting the batch size to backpressure. Both
/// `run` (transactions → workers) and `run_summaries` (summaries →
/// sequencer) go through here, so batch recycling and adaptive sizing
/// behave identically on both paths.
fn feed_batches<T, I>(
    mut it: I,
    mut outs: Vec<Producer<Vec<T>>>,
    pool: &Pool<T>,
    mut ctl: AdaptiveBatch,
    metrics: &SequencerMetrics,
    trace: &StageTrace,
) where
    T: Send,
    I: Iterator<Item = T>,
{
    let mut w = 0usize;
    loop {
        let mut batch = pool.get();
        batch.extend(it.by_ref().take(ctl.size()));
        if batch.is_empty() {
            pool.put(batch);
            break;
        }
        if trace.is_enabled() {
            trace.record(
                TraceEvent::new(trace.now_us(), "feeder", TraceKind::Ingest)
                    .source(w as u64)
                    .value(batch.len() as u64),
            );
        }
        let out = &mut outs[w];
        let deepest = metrics
            .queue_depth
            .iter()
            .map(telemetry::Gauge::value)
            .fold(0.0, f64::max);
        ctl.adapt(out.len(), out.capacity(), deepest);
        metrics.batch_size.set(ctl.size() as f64);
        if out.push(batch).is_err() {
            break; // downstream died (panic propagates at scope join)
        }
        w = (w + 1) % outs.len();
    }
    // Dropping the producers here ends the stream for every worker.
}

/// Summarizer worker: pooled transaction batches in, pooled summary
/// batches out, strict FIFO so round-robin sequencing holds.
fn worker_loop(
    w: usize,
    mut rx: Consumer<Vec<Transaction>>,
    mut tx: Producer<Vec<TxSummary>>,
    tx_pool: Pool<Transaction>,
    summary_pool: Pool<TxSummary>,
    trace: StageTrace,
) {
    let psl = Psl::embedded();
    while let Some(batch) = rx.pop() {
        let mut out = summary_pool.get();
        out.extend(batch.iter().map(|t| TxSummary::from_transaction(t, &psl)));
        tx_pool.put(batch);
        if trace.is_enabled() {
            trace.record(
                TraceEvent::new(trace.now_us(), "worker", TraceKind::Ingest)
                    .source(w as u64)
                    .value(out.len() as u64),
            );
        }
        if tx.push(out).is_err() {
            return;
        }
    }
}

/// Tracker shard: owns an independent TopKTracker per dataset over its
/// disjoint slice of the key space. Processes each message's frontier
/// closes (window dumps) before its batch assignments, which restores
/// exactly the single-threaded dump-before-observe order, and ships
/// every dumped window to the merge stage at once.
#[allow(clippy::too_many_arguments)] // internal stage entry point
fn shard_loop(
    sh: usize,
    mut rx: Consumer<ShardMsg>,
    mut windows: Producer<ShardWindow>,
    cfg: &ObservatoryConfig,
    shards: usize,
    mut metrics: ShardMetrics,
    stall: Option<StallHook>,
    assign_pool: Pool<(u32, u16)>,
    trace: StageTrace,
) {
    let mut trackers: Vec<TopKTracker> = cfg
        .datasets
        .iter()
        .map(|&(ds, k)| {
            TopKTracker::new(
                ds,
                ThreadedPipeline::shard_capacity(k, shards),
                cfg.feature_cfg,
                cfg.bloom_gate,
            )
        })
        .collect();
    let mut prev = vec![(0u64, 0u64, 0u64); trackers.len()];
    let mut digest = FoldDigest::default();
    let mut msg_idx = 0u64;
    while let Some(msg) = rx.pop() {
        metrics.queue_depth.add(-1.0);
        if let Some(stall) = &stall {
            stall(sh, msg_idx);
        }
        msg_idx += 1;
        for &start in &msg.closes {
            let tracker_metrics = &mut metrics.trackers;
            let parts: Vec<ShardPart> = trackers
                .iter_mut()
                .enumerate()
                .map(|(i, t)| {
                    let rows = t.dump(start);
                    let (k, dr, f) = t.stats();
                    let (pk, pd, pf) = prev[i];
                    prev[i] = (k, dr, f);
                    let delta = (k - pk, dr - pd, f - pf);
                    tracker_metrics[i].flush(t, delta);
                    (rows, delta)
                })
                .collect();
            if trace.is_enabled() {
                let rows: usize = parts.iter().map(|(r, _)| r.len()).sum();
                trace.record(
                    TraceEvent::new(trace.now_us(), "shard", TraceKind::Close)
                        .window(window_id_us(start))
                        .source(sh as u64)
                        .value(rows as u64),
                );
            }
            if windows.push((start, parts)).is_err() {
                return; // merge stage died (panic propagates at scope join)
            }
        }
        if let Some((summaries, assign)) = msg.batch {
            let t0 = std::time::Instant::now();
            for &(idx, mask) in &assign {
                let s = &summaries[idx as usize];
                digest.load(s);
                for (d, t) in trackers.iter_mut().enumerate() {
                    if mask & (1 << d) != 0 {
                        t.observe_digest(s, &digest);
                    }
                }
            }
            metrics.batch_seconds.record(t0.elapsed().as_secs_f64());
            assign_pool.put(assign);
            // `summaries` drops here; the last shard to finish with the
            // batch returns its storage to the summary pool.
        }
    }
}

/// Sequencer: collect worker batches in round-robin order (global stream
/// order by construction), drive the window clock with the exact
/// arithmetic of `Observatory::ingest_summary`, and scatter assignments
/// to the shards with per-shard frontier closes piggybacked. Dropping
/// the ring producers on return disconnects the shards.
#[allow(clippy::too_many_arguments)] // internal stage entry point
fn sequencer_loop(
    mut inputs: Vec<Consumer<Vec<TxSummary>>>,
    mut shard_txs: Vec<Producer<ShardMsg>>,
    datasets: &[Dataset],
    window_secs: f64,
    metrics: SequencerMetrics,
    summary_pool: Pool<TxSummary>,
    assign_pool: Pool<(u32, u16)>,
    trace: StageTrace,
) {
    use crate::keys::KeyBuf;

    let shards = shard_txs.len();
    let n_datasets = datasets.len();
    let full_mask: u16 = if n_datasets >= 16 {
        u16::MAX
    } else {
        (1u16 << n_datasets) - 1
    };

    let mut next = 0usize;
    let mut window_start: Option<f64> = None;
    let mut ingested = 0u64;
    // Per-window provenance: when the open window was opened (clock
    // time) and how many summaries landed in it.
    let mut window_opened_us = 0u64;
    let mut window_count = 0u64;
    let mut keybuf = KeyBuf::new();
    let mut masks: Vec<u16> = vec![0; shards];
    let mut pending: Vec<Vec<(u32, u16)>> = vec![Vec::new(); shards];
    let mut frontier = Frontier::new(shards);

    // Strict round-robin: when the batch due from a ring does not exist
    // (producer gone, ring drained), no later batch exists either — the
    // stream is over.
    while let Some(buf) = inputs[next].pop() {
        next = (next + 1) % inputs.len();
        let batch = Arc::new(summary_pool.wrap(buf));
        metrics.batches.inc(1);
        metrics.ingested.inc(batch.len() as u64);
        for (i, s) in batch.iter().enumerate() {
            let start = match window_start {
                Some(start) => start,
                None => {
                    // First summary of the stream opens the first window.
                    window_start = Some(s.time);
                    window_opened_us = trace.now_us();
                    if trace.is_enabled() {
                        trace.record(
                            TraceEvent::new(window_opened_us, "sequencer", TraceKind::Open)
                                .window(window_id_us(s.time)),
                        );
                    }
                    s.time
                }
            };
            if s.time >= start + window_secs {
                // Window boundary *before* this summary: everything
                // routed so far belongs to the closing window, so flush
                // it, then record the close on the frontier. Idle shards
                // learn of it with their next batch, once they are
                // `MAX_SHARD_LAG` closes behind, or in the final drain.
                flush_pending(
                    &mut pending,
                    &batch,
                    &mut shard_txs,
                    &mut frontier,
                    &metrics,
                );
                frontier.close(start);
                send_closes(&mut shard_txs, &mut frontier, &metrics, MAX_SHARD_LAG);
                metrics.windows.inc(1);
                metrics.watermark_lag_seconds.set(s.time - start);
                let closed_us = trace.now_us();
                metrics
                    .window_seconds
                    .record(closed_us.saturating_sub(window_opened_us) as f64 / 1e6);
                let new_start = next_window_start(start, s.time, window_secs);
                window_start = Some(new_start);
                if trace.is_enabled() {
                    trace.record(
                        TraceEvent::new(closed_us, "sequencer", TraceKind::Close)
                            .window(window_id_us(start))
                            .value(window_count),
                    );
                    trace.record(
                        TraceEvent::new(closed_us, "sequencer", TraceKind::Open)
                            .window(window_id_us(new_start)),
                    );
                }
                window_opened_us = closed_us;
                window_count = 0;
            }
            ingested += 1;
            window_count += 1;
            if shards == 1 {
                push_assign(&mut pending[0], &assign_pool, (i as u32, full_mask));
            } else {
                masks.iter_mut().for_each(|m| *m = 0);
                for (d, ds) in datasets.iter().enumerate() {
                    // Filtered summaries still count once: route them
                    // by dataset slot so exactly one shard tallies
                    // the `filtered` stat.
                    let sh = if ds.key_into(s, &mut keybuf) {
                        (sketches::hash::xxh64(keybuf.as_bytes(), 0) % shards as u64) as usize
                    } else {
                        d % shards
                    };
                    masks[sh] |= 1 << d;
                }
                for (sh, m) in masks.iter().enumerate() {
                    if *m != 0 {
                        push_assign(&mut pending[sh], &assign_pool, (i as u32, *m));
                    }
                }
            }
        }
        // Messages never span feeder batches (assignments index into one
        // `Arc` batch), so flush the remainder before the next batch.
        flush_pending(
            &mut pending,
            &batch,
            &mut shard_txs,
            &mut frontier,
            &metrics,
        );
    }
    // Final partial window, matching `Observatory::finish`.
    if let Some(start) = window_start {
        if ingested > 0 {
            frontier.close(start);
            metrics.windows.inc(1);
            let closed_us = trace.now_us();
            metrics
                .window_seconds
                .record(closed_us.saturating_sub(window_opened_us) as f64 / 1e6);
            if trace.is_enabled() {
                trace.record(
                    TraceEvent::new(closed_us, "sequencer", TraceKind::Close)
                        .window(window_id_us(start))
                        .value(window_count),
                );
            }
        }
    }
    // Drain outstanding frontier deltas so every shard closes every
    // window (idle shards included) before the rings disconnect.
    send_closes(&mut shard_txs, &mut frontier, &metrics, 1);
}

/// Tell every shard that is at least `min_lag` window closes behind the
/// frontier about them, in a message without a batch.
fn send_closes(
    shard_txs: &mut [Producer<ShardMsg>],
    frontier: &mut Frontier,
    metrics: &SequencerMetrics,
    min_lag: usize,
) {
    for (sh, tx) in shard_txs.iter_mut().enumerate() {
        if frontier.lag(sh) >= min_lag {
            metrics.queue_depth[sh].add(1.0);
            tx.push(ShardMsg {
                closes: frontier.take(sh),
                batch: None,
            })
            .unwrap_or_else(|_| panic!("shard thread alive"));
        }
    }
}

/// Append one assignment, fetching pooled storage on first use (the
/// previous `Vec` left with the last message to this shard).
#[inline]
fn push_assign(pending: &mut Vec<(u32, u16)>, pool: &Pool<(u32, u16)>, item: (u32, u16)) {
    if pending.capacity() == 0 {
        *pending = pool.get();
    }
    pending.push(item);
}

/// Ship every shard's pending assignments for `batch`, with that shard's
/// outstanding frontier closes piggybacked. Shards without assignments
/// get nothing — no barrier, no wakeup.
fn flush_pending(
    pending: &mut [Vec<(u32, u16)>],
    batch: &Arc<Recycled<TxSummary>>,
    shard_txs: &mut [Producer<ShardMsg>],
    frontier: &mut Frontier,
    metrics: &SequencerMetrics,
) {
    for (sh, assign) in pending.iter_mut().enumerate() {
        if assign.is_empty() {
            continue;
        }
        let closes = frontier.take(sh);
        // Gauge first: the bounded ring may block, and the depth should
        // reflect the message the shard will see.
        metrics.queue_depth[sh].add(1.0);
        shard_txs[sh]
            .push(ShardMsg {
                closes,
                batch: Some((Arc::clone(batch), std::mem::take(assign))),
            })
            .unwrap_or_else(|_| panic!("shard thread alive"));
    }
}

/// Merge stage: every shard processes every frontier close, so the
/// rings deliver the same window starts in the same order and the k-th
/// part on each belongs to the k-th window. Partitions are disjoint, so a
/// window's rows are the concatenation, re-sorted with the tracker's own
/// dump order (hits desc, then key). Each merged window goes to `sink`
/// at once, one dump per dataset; the stage ends with the shards.
fn merge_loop(
    mut parts: Vec<Consumer<ShardWindow>>,
    datasets: &[Dataset],
    window_secs: f64,
    seal: StageTrace,
    mut sink: impl FnMut(WindowDump),
) {
    loop {
        let mut window: Vec<ShardWindow> = Vec::with_capacity(parts.len());
        for rx in &mut parts {
            match rx.pop() {
                Some(part) => window.push(part),
                // The shards end together, after the final drain.
                None => return,
            }
        }
        let start = window[0].0;
        debug_assert!(window.iter().all(|(s, _)| *s == start));
        let mut window_rows = 0u64;
        for (d, ds) in datasets.iter().enumerate() {
            let mut rows = Vec::new();
            let (mut kept, mut dropped, mut filtered) = (0u64, 0u64, 0u64);
            for (_, shard_parts) in window.iter_mut() {
                let (part_rows, (dk, dd, df)) = std::mem::take(&mut shard_parts[d]);
                if rows.is_empty() {
                    rows = part_rows;
                } else {
                    rows.extend(part_rows);
                }
                kept += dk;
                dropped += dd;
                filtered += df;
            }
            rows.sort_by(|a, b| b.1.hits.cmp(&a.1.hits).then_with(|| a.0.cmp(&b.0)));
            window_rows += rows.len() as u64;
            sink(WindowDump {
                dataset: ds.name().to_string(),
                start,
                length: window_secs,
                rows,
                kept,
                dropped,
                filtered,
            });
        }
        // The merged window is final — the pipeline-local terminal of its
        // provenance trace (the federation tier seals across upstreams).
        if seal.is_enabled() {
            seal.record(
                TraceEvent::new(seal.now_us(), "seal", TraceKind::Seal)
                    .window(window_id_us(start))
                    .value(window_rows),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{SimConfig, Simulation};

    fn small_cfg() -> ObservatoryConfig {
        ObservatoryConfig {
            datasets: vec![(Dataset::SrvIp, 500), (Dataset::Qtype, 32)],
            window_secs: 1.0,
            ..ObservatoryConfig::default()
        }
    }

    #[test]
    fn windows_are_produced() {
        let mut sim = Simulation::from_config(SimConfig::small());
        let mut obs = Observatory::new(small_cfg());
        sim.run(3.5, &mut |tx| obs.ingest(tx));
        let store = obs.finish();
        // 3 full windows + final partial, × 2 datasets.
        let srvip = store.dataset(Dataset::SrvIp).len();
        assert!((3..=4).contains(&srvip), "srvip windows: {srvip}");
        assert_eq!(store.windows().len() % srvip, 0);
    }

    #[test]
    fn window_rows_have_traffic() {
        let mut sim = Simulation::from_config(SimConfig::small());
        let mut obs = Observatory::new(small_cfg());
        sim.run(2.5, &mut |tx| obs.ingest(tx));
        let store = obs.finish();
        let windows = store.dataset(Dataset::Qtype);
        let with_rows = windows.iter().filter(|w| !w.rows.is_empty()).count();
        assert!(with_rows >= 1);
        for w in &windows {
            for (key, row) in &w.rows {
                assert!(!key.is_empty());
                assert!(row.hits > 0);
            }
        }
    }

    #[test]
    fn kept_dropped_are_per_window() {
        let mut sim = Simulation::from_config(SimConfig::small());
        let mut obs = Observatory::new(small_cfg());
        sim.run(3.5, &mut |tx| obs.ingest(tx));
        let ingested = obs.ingested();
        let store = obs.finish();
        let total_kept: u64 = store
            .dataset(Dataset::SrvIp)
            .iter()
            .map(|w| w.kept + w.dropped + w.filtered)
            .sum();
        assert_eq!(total_kept, ingested, "per-window stats must sum to total");
    }

    #[test]
    fn packet_path_matches_structured_path() {
        let mut sim1 = Simulation::from_config(SimConfig::small());
        let mut obs1 = Observatory::new(small_cfg());
        sim1.run(1.5, &mut |tx| obs1.ingest(tx));

        let mut sim2 = Simulation::from_config(SimConfig::small());
        let mut obs2 = Observatory::new(small_cfg());
        sim2.run(1.5, &mut |tx| {
            let (q, r) = tx.to_packets();
            obs2.ingest_packets(&q, r.as_deref(), tx.time, tx.contributor, tx.delay_ms);
        });

        let s1 = obs1.finish();
        let s2 = obs2.finish();
        assert_eq!(s1.windows().len(), s2.windows().len());
        for (w1, w2) in s1.windows().iter().zip(s2.windows()) {
            assert_eq!(w1.rows.len(), w2.rows.len(), "{} window", w1.dataset);
            assert_eq!(w1.total_hits(), w2.total_hits());
        }
    }

    #[test]
    fn threaded_pipeline_matches_single_threaded() {
        let mut sim = Simulation::from_config(SimConfig::small());
        let txs = sim.collect(2.0);

        let mut obs = Observatory::new(small_cfg());
        for tx in &txs {
            obs.ingest(tx);
        }
        let single = obs.finish();

        // small_cfg's SrvIp cache saturates (evictions happen), so exact
        // equality is only guaranteed with one tracker shard — any number
        // of summarizer workers.
        for workers in [1, 4] {
            let threaded = ThreadedPipeline::new(small_cfg(), workers).run(txs.clone());
            assert_eq!(
                single.windows().len(),
                threaded.windows().len(),
                "workers={workers}"
            );
            for (a, b) in single.windows().iter().zip(threaded.windows()) {
                assert_eq!(a.dataset, b.dataset);
                assert_eq!(a.start, b.start);
                assert_eq!(a.rows.len(), b.rows.len(), "{} window", a.dataset);
                assert_eq!(a.total_hits(), b.total_hits());
                for ((ka, ra), (kb, rb)) in a.rows.iter().zip(&b.rows) {
                    assert_eq!(ka, kb);
                    assert_eq!(ra.hits, rb.hits);
                }
            }
        }

        // With unsaturated caches, equality extends to sharded trackers
        // (see sharded_pipeline_is_byte_identical_to_observatory for the
        // full 8-dataset version of this assertion).
        let roomy_cfg = ObservatoryConfig {
            datasets: vec![(Dataset::SrvIp, 16_000), (Dataset::Qtype, 64)],
            window_secs: 1.0,
            ..ObservatoryConfig::default()
        };
        let mut obs = Observatory::new(roomy_cfg.clone());
        for tx in &txs {
            obs.ingest(tx);
        }
        let single = obs.finish();
        for (workers, shards) in [(4, 2), (4, 4)] {
            let threaded =
                ThreadedPipeline::with_shards(roomy_cfg.clone(), workers, shards).run(txs.clone());
            assert_eq!(single.windows().len(), threaded.windows().len());
            for (a, b) in single.windows().iter().zip(threaded.windows()) {
                assert_eq!(a.dataset, b.dataset);
                assert_eq!(a.start, b.start);
                assert_eq!(
                    format!("{:?}", a.rows),
                    format!("{:?}", b.rows),
                    "{} @ {} (workers={workers} shards={shards})",
                    a.dataset,
                    a.start
                );
            }
        }
    }

    /// Every paper dataset, including the filtered ones (AaFqdn only sees
    /// authoritative answers, Esld/Etld drop unparseable names): the
    /// sharded pipeline must be byte-identical to the single-threaded
    /// Observatory — rows, feature values, and per-window stat deltas.
    ///
    /// Exactness requires the unsaturated regime (no cache is ever full,
    /// in either pipeline): eviction consults a *global* minimum that a
    /// key-partitioned shard cannot see. The `dropped == 0` asserts guard
    /// that premise; under saturation the sharded result degrades to the
    /// per-partition Space-Saving error bound instead (covered by the
    /// sketches proptest).
    #[test]
    fn sharded_pipeline_is_byte_identical_to_observatory() {
        let cfg = ObservatoryConfig {
            datasets: vec![
                // ~10k transactions in the 3 s workload below, so 16k
                // capacity can never saturate even for per-tx-unique keys.
                (Dataset::SrvIp, 16_000),
                (Dataset::Etld, 2_000),
                (Dataset::Esld, 16_000),
                (Dataset::Qname, 16_000),
                (Dataset::Qtype, 64),
                (Dataset::Rcode, 32),
                (Dataset::AaFqdn, 16_000),
                (Dataset::SrcSrv, 16_000),
            ],
            window_secs: 1.0,
            ..ObservatoryConfig::default()
        };
        let mut sim = Simulation::from_config(SimConfig::small());
        let txs = sim.collect(3.0);

        let mut obs = Observatory::new(cfg.clone());
        for tx in &txs {
            obs.ingest(tx);
        }
        let single = obs.finish();
        for w in single.windows() {
            assert_eq!(w.dropped, 0, "test premise: no eviction in {}", w.dataset);
        }

        for (workers, shards) in [(4, 4), (2, 3)] {
            let threaded =
                ThreadedPipeline::with_shards(cfg.clone(), workers, shards).run(txs.clone());
            assert_eq!(single.windows().len(), threaded.windows().len());
            for (a, b) in single.windows().iter().zip(threaded.windows()) {
                assert_eq!(a.dataset, b.dataset);
                assert_eq!(a.start, b.start);
                assert_eq!(a.length, b.length);
                assert_eq!(
                    (a.kept, a.dropped, a.filtered),
                    (b.kept, b.dropped, b.filtered),
                    "{} @ {} (workers={workers} shards={shards})",
                    a.dataset,
                    a.start
                );
                // Debug formatting covers every feature field (and renders
                // NaN stably, which f64 == would reject).
                assert_eq!(
                    format!("{:?}", a.rows),
                    format!("{:?}", b.rows),
                    "{} @ {} (workers={workers} shards={shards})",
                    a.dataset,
                    a.start
                );
            }
        }
    }

    /// Under eviction pressure the sharded rows legitimately differ, but
    /// the per-window data-collection stats must still be conserved:
    /// every transaction lands in exactly one shard's kept/dropped/
    /// filtered tally for each dataset.
    #[test]
    fn sharded_stats_sum_to_ingested_under_pressure() {
        let mut sim = Simulation::from_config(SimConfig::small());
        let txs = sim.collect(2.0);
        let total = txs.len() as u64;
        let store = ThreadedPipeline::with_shards(small_cfg(), 2, 3).run(txs);
        for ds in [Dataset::SrvIp, Dataset::Qtype] {
            let sum: u64 = store
                .dataset(ds)
                .iter()
                .map(|w| w.kept + w.dropped + w.filtered)
                .sum();
            assert_eq!(sum, total, "{} stats must sum to ingested", ds.name());
        }
    }

    /// `run` takes any IntoIterator, so transactions can stream straight
    /// off a generator without being collected first.
    #[test]
    fn run_accepts_streaming_iterator() {
        let mut sim = Simulation::from_config(SimConfig::small());
        let txs = sim.collect(1.5);
        let from_vec = ThreadedPipeline::new(small_cfg(), 2).run(txs.clone());
        let from_iter = ThreadedPipeline::new(small_cfg(), 2).run(txs.into_iter().filter(|_| true));
        assert_eq!(from_vec.windows().len(), from_iter.windows().len());
        for (a, b) in from_vec.windows().iter().zip(from_iter.windows()) {
            assert_eq!(format!("{:?}", a.rows), format!("{:?}", b.rows));
        }
    }

    /// `run_summaries` (the collector-side feed entry point) must agree
    /// with ingesting the same pre-built summaries one by one — the
    /// guarantee the distributed loopback equivalence test builds on.
    #[test]
    fn run_summaries_matches_ingest_summary() {
        let psl = psl::Psl::embedded();
        let mut sim = Simulation::from_config(SimConfig::small());
        let txs = sim.collect(2.0);
        let summaries: Vec<TxSummary> = txs
            .iter()
            .map(|tx| TxSummary::from_transaction(tx, &psl))
            .collect();

        let mut obs = Observatory::new(small_cfg());
        for s in summaries.clone() {
            obs.ingest_summary(s);
        }
        let single = obs.finish();

        let threaded = ThreadedPipeline::new(small_cfg(), 2).run_summaries(summaries);
        assert_eq!(single.windows().len(), threaded.windows().len());
        for (a, b) in single.windows().iter().zip(threaded.windows()) {
            assert_eq!(a.dataset, b.dataset);
            assert_eq!(a.start, b.start);
            assert_eq!(
                (a.kept, a.dropped, a.filtered),
                (b.kept, b.dropped, b.filtered)
            );
            assert_eq!(format!("{:?}", a.rows), format!("{:?}", b.rows));
        }
    }

    /// A summary exactly one window after the first, at a start where
    /// `(t - start) / w` rounds below 1 (`(0.3 + 2.0) - 0.3 < 2.0` in
    /// f64), must open the *next* window — never re-open and re-dump the
    /// one just closed.
    #[test]
    fn boundary_summary_never_reopens_the_closed_window() {
        let (t0, w) = (0.3_f64, 2.0_f64);
        let t1 = t0 + w;
        assert!(
            t1 >= t0 + w && ((t1 - t0) / w).floor() == 0.0,
            "inputs must trip the rounding"
        );
        let psl = psl::Psl::embedded();
        let mut sim = Simulation::from_config(SimConfig::small());
        let mut summaries: Vec<TxSummary> = sim
            .collect(0.2)
            .iter()
            .take(2)
            .map(|tx| TxSummary::from_transaction(tx, &psl))
            .collect();
        summaries[0].time = t0;
        summaries[1].time = t1;
        let cfg = || ObservatoryConfig {
            window_secs: w,
            ..small_cfg()
        };

        let mut obs = Observatory::new(cfg());
        for s in summaries.clone() {
            obs.ingest_summary(s);
        }
        let reference = obs.finish();
        let threaded = ThreadedPipeline::new(cfg(), 2).run_summaries(summaries);
        for store in [&reference, &threaded] {
            let windows = store.dataset(Dataset::Qtype);
            let starts: Vec<f64> = windows.iter().map(|w| w.start).collect();
            assert_eq!(starts, [t0, t1], "one dump per window, each its own start");
            let seen: Vec<u64> = windows
                .iter()
                .map(|w| w.kept + w.dropped + w.filtered)
                .collect();
            assert_eq!(seen, [1, 1]);
        }
    }

    /// Batch size must never affect output: pin the adaptive controller
    /// at several sizes (including degenerate 1-transaction batches that
    /// maximize frontier piggybacking) and demand identical stores.
    #[test]
    fn output_is_invariant_under_batch_size() {
        let mut sim = Simulation::from_config(SimConfig::small());
        let txs = sim.collect(2.0);
        let reference = ThreadedPipeline::with_shards(small_cfg(), 2, 2)
            .with_batch_range(512, 512)
            .run(txs.clone());
        for pinned in [1, 7, 64, 4096] {
            let got = ThreadedPipeline::with_shards(small_cfg(), 2, 2)
                .with_batch_range(pinned, pinned)
                .run(txs.clone());
            assert_eq!(reference.windows().len(), got.windows().len());
            for (a, b) in reference.windows().iter().zip(got.windows()) {
                assert_eq!(a.start, b.start, "batch={pinned}");
                assert_eq!(
                    (a.kept, a.dropped, a.filtered),
                    (b.kept, b.dropped, b.filtered),
                    "batch={pinned}"
                );
                assert_eq!(
                    format!("{:?}", a.rows),
                    format!("{:?}", b.rows),
                    "batch={pinned}"
                );
            }
        }
    }

    /// The stall hook exists for chaos testing; stalling must delay, not
    /// change, the output.
    #[test]
    fn stall_injector_does_not_change_output() {
        let mut sim = Simulation::from_config(SimConfig::small());
        let txs = sim.collect(1.5);
        let clean = ThreadedPipeline::with_shards(small_cfg(), 2, 2).run(txs.clone());
        let stalled = ThreadedPipeline::with_shards(small_cfg(), 2, 2)
            .with_stall_injector(Arc::new(|sh, idx| {
                if sh == 0 && idx % 3 == 0 {
                    for _ in 0..50 {
                        std::thread::yield_now();
                    }
                }
            }))
            .run(txs);
        assert_eq!(clean.windows().len(), stalled.windows().len());
        for (a, b) in clean.windows().iter().zip(stalled.windows()) {
            assert_eq!(format!("{:?}", a.rows), format!("{:?}", b.rows));
        }
    }

    /// The frontier forgets a close once every shard has been sent it:
    /// what it retains is the slowest shard's lag, not the run's length.
    #[test]
    fn frontier_retains_only_what_the_slowest_shard_lacks() {
        let mut frontier = Frontier::new(3);
        let mut heard: Vec<Vec<f64>> = vec![Vec::new(); 3];
        for w in 0..10_000usize {
            frontier.close(w as f64);
            // Shard 0 hears of every close, shard 1 of every 7th, shard 2
            // of every 50th.
            for (sh, every) in [1usize, 7, 50].into_iter().enumerate() {
                if w % every == 0 {
                    heard[sh].extend(frontier.take(sh));
                }
            }
            let slowest = (0..3).map(|sh| frontier.lag(sh)).max().unwrap();
            assert!(slowest < 50);
            assert_eq!(frontier.closes.len(), slowest, "after close {w}");
        }
        let all: Vec<f64> = (0..10_000).map(|w| w as f64).collect();
        for (sh, heard) in heard.iter_mut().enumerate() {
            heard.extend(frontier.take(sh));
            assert_eq!(*heard, all, "shard {sh} hears every close once, in order");
        }
        assert!(frontier.closes.is_empty());
    }

    /// With the one shard frozen on its first message the feeder takes
    /// exactly `in_flight_bound()` summaries from its input — every ring
    /// full, one batch in each stage's hands — and then waits.
    #[test]
    fn frozen_shard_stops_the_feeder_at_the_in_flight_bound() {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        use std::sync::{mpsc, Mutex};
        use std::time::Duration;

        const BATCH: usize = 64;
        let pipeline = ThreadedPipeline::new(
            ObservatoryConfig {
                window_secs: 1e9,
                ..small_cfg()
            },
            1,
        )
        .with_batch_range(BATCH, BATCH);
        let bound = pipeline.in_flight_bound();
        assert_eq!(bound, 11 * BATCH);

        let psl = psl::Psl::embedded();
        let mut sim = Simulation::from_config(SimConfig::small());
        let summaries: Vec<TxSummary> = sim
            .collect(2.0)
            .iter()
            .map(|tx| TxSummary::from_transaction(tx, &psl))
            .collect();
        assert!(summaries.len() > 2 * bound);

        let frozen = Arc::new(AtomicBool::new(true));
        let overrun = Arc::new(AtomicBool::new(false));
        let pulled = Arc::new(AtomicUsize::new(0));
        let (at_bound_tx, at_bound_rx) = mpsc::channel::<()>();
        let at_bound_rx = Mutex::new(at_bound_rx);
        let thaw = Arc::clone(&frozen);
        let pipeline = pipeline.with_stall_injector(Arc::new(move |_, msg| {
            if msg == 0 {
                at_bound_rx
                    .lock()
                    .unwrap()
                    .recv_timeout(Duration::from_secs(30))
                    .expect("the feeder fills the pipeline up to its bound");
                // Time for a feeder that is not held back to show itself;
                // one that is held back takes nothing however long this is.
                std::thread::sleep(Duration::from_millis(100));
                thaw.store(false, Ordering::SeqCst);
            }
        }));

        let total = summaries.len();
        let input = summaries.into_iter().inspect(|_| {
            let n = pulled.fetch_add(1, Ordering::SeqCst) + 1;
            if n == bound {
                at_bound_tx.send(()).unwrap();
            }
            if n > bound && frozen.load(Ordering::SeqCst) {
                overrun.store(true, Ordering::SeqCst);
            }
        });
        let store = pipeline.run_summaries(input);
        assert!(
            !overrun.load(Ordering::SeqCst),
            "feeder took more than {bound} summaries while the shard was frozen"
        );
        let seen: u64 = store
            .dataset(Dataset::Qtype)
            .iter()
            .map(|w| w.kept + w.dropped + w.filtered)
            .sum();
        assert_eq!(seen, total as u64, "and nothing was lost to the stall");
    }

    /// An empty input stream must terminate cleanly with an empty store
    /// on every stage topology.
    #[test]
    fn empty_input_produces_empty_store() {
        let store = ThreadedPipeline::with_shards(small_cfg(), 3, 2).run(Vec::new());
        assert!(store.windows().is_empty());
        let store = ThreadedPipeline::new(small_cfg(), 2).run_summaries(Vec::new());
        assert!(store.windows().is_empty());
    }

    /// The telemetry counters must reconcile exactly with the store the
    /// pipeline produced: ingested matches the input, and each dataset's
    /// kept/dropped/filtered counters equal the per-window TSV totals.
    #[test]
    fn telemetry_reconciles_with_store() {
        let registry = Registry::new();
        let mut sim = Simulation::from_config(SimConfig::small());
        let txs = sim.collect(2.0);
        let total = txs.len() as u64;
        let store = ThreadedPipeline::with_shards(small_cfg(), 2, 3)
            .with_registry(registry.clone())
            .run(txs);
        let snap = registry.snapshot(0);
        assert_eq!(snap.counter("pipeline_ingested_total"), total);
        assert!(snap.counter("pipeline_batches_total") > 0);
        let boundaries = snap.counter("pipeline_windows_total");
        assert_eq!(
            boundaries as usize,
            store.dataset(Dataset::SrvIp).len(),
            "one frontier close per produced window"
        );
        for ds in [Dataset::SrvIp, Dataset::Qtype] {
            let from_store: (u64, u64, u64) =
                store.dataset(ds).iter().fold((0, 0, 0), |(k, d, f), w| {
                    (k + w.kept, d + w.dropped, f + w.filtered)
                });
            let sel = |what: &str| {
                snap.counter_sum(&format!("pipeline_{what}_total{{dataset=\"{}\"", ds.name()))
            };
            assert_eq!(
                (sel("kept"), sel("dropped"), sel("filtered")),
                from_store,
                "{} counters must mirror the TSV totals",
                ds.name()
            );
        }
        // Every queued message was consumed: the depth gauges are back
        // to zero once the run returns.
        for sh in 0..3 {
            assert_eq!(
                snap.gauge(&format!("pipeline_queue_depth{{shard=\"{sh}\"}}")),
                0.0
            );
        }
        // The adaptive feeder reported its batch size.
        assert!(snap.gauge("pipeline_batch_size") >= 1.0);
        // Each batch was timed.
        let h = snap
            .histogram("pipeline_batch_seconds")
            .expect("batch histogram registered");
        assert!(h.count > 0);
    }

    /// With a flight recorder attached, every stage leaves a provenance
    /// trail and the record-level balance holds: one sequencer Open and
    /// one Close per produced window, the Close values summing to the
    /// input size; one Close per (shard, window); one Seal per window at
    /// the merge. Attaching the recorder must not change the output.
    #[test]
    fn flight_recorder_captures_window_provenance() {
        use telemetry::trace::parse_dump;
        use telemetry::{FlightRecorder, ManualClock};

        let mut sim = Simulation::from_config(SimConfig::small());
        let txs = sim.collect(2.0);
        let plain = ThreadedPipeline::with_shards(small_cfg(), 2, 2).run(txs.clone());

        let recorder = FlightRecorder::new();
        let clock = Arc::new(ManualClock::new());
        clock.set(7);
        let traced = ThreadedPipeline::with_shards(small_cfg(), 2, 2)
            .with_flight_recorder(recorder.clone())
            .with_trace_clock(clock)
            .run(txs.clone());

        // Tracing is observability, never behaviour.
        assert_eq!(plain.windows().len(), traced.windows().len());
        for (a, b) in plain.windows().iter().zip(traced.windows()) {
            assert_eq!(format!("{:?}", a.rows), format!("{:?}", b.rows));
        }

        let n_windows = plain.dataset(Dataset::SrvIp).len();
        let rows = parse_dump(&recorder.dump());
        let count = |subsystem: &str, kind: TraceKind| {
            rows.iter()
                .filter(|r| r.subsystem == subsystem && r.kind == kind)
                .count()
        };
        assert_eq!(count("pipeline/sequencer", TraceKind::Open), n_windows);
        assert_eq!(count("pipeline/sequencer", TraceKind::Close), n_windows);
        let routed: u64 = rows
            .iter()
            .filter(|r| r.subsystem == "pipeline/sequencer" && r.kind == TraceKind::Close)
            .map(|r| r.value)
            .sum();
        assert_eq!(routed, txs.len() as u64, "every summary lands in a window");
        for sh in 0..2 {
            assert_eq!(
                count(&format!("pipeline/shard{sh}"), TraceKind::Close),
                n_windows
            );
        }
        assert_eq!(count("pipeline/seal", TraceKind::Seal), n_windows);
        // The feeder and both workers saw the stream go by.
        assert!(count("pipeline/feeder", TraceKind::Ingest) > 0);
        // Window ids are the window start in µs; every Seal id matches a
        // produced window, stamped by the manual clock.
        for r in rows.iter().filter(|r| r.kind == TraceKind::Seal) {
            assert_eq!(r.at_us, 7);
            assert!(plain
                .dataset(Dataset::SrvIp)
                .iter()
                .any(|w| (w.start * 1e6).round() as u64 == r.window_us));
        }
    }

    /// The sequencer's window-residency histogram records one sample per
    /// produced window even with tracing disabled.
    #[test]
    fn window_residency_histogram_fills_without_a_recorder() {
        let registry = Registry::new();
        let mut sim = Simulation::from_config(SimConfig::small());
        let txs = sim.collect(2.0);
        let store = ThreadedPipeline::with_shards(small_cfg(), 2, 2)
            .with_registry(registry.clone())
            .run(txs);
        let snap = registry.snapshot(0);
        let h = snap
            .histogram("pipeline_window_seconds{stage=\"sequencer\"}")
            .expect("window residency histogram registered");
        assert_eq!(h.count as usize, store.dataset(Dataset::SrvIp).len());
    }

    #[test]
    fn gap_in_traffic_does_not_break_windows() {
        let mut sim = Simulation::from_config(SimConfig::small());
        let mut obs = Observatory::new(small_cfg());
        sim.run(1.2, &mut |tx| obs.ingest(tx));
        sim.skip_to(10.0);
        sim.run(1.2, &mut |tx| obs.ingest(tx));
        let store = obs.finish();
        // Windows must align to the 1 s grid despite the jump.
        for w in store.windows() {
            assert!(w.length == 1.0);
        }
        assert!(store.windows().iter().any(|w| w.start >= 9.0));
    }
}
