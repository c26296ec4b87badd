//! Black-box runs of the stream workloads against real `dnsobs`
//! processes.
//!
//! The load generator (packets → `TxSummary::from_packets` → two
//! `feed::Sensor` connections) and the subscriber (`SubscribeClient`)
//! live in this process as library clients; everything between them is
//! the `dnsobs` executable, started with the flags an operator would
//! use. Tracing is off here: per-layer numbers come from `replay`.

use crate::proc::{self, Proc, RssWatch, ScratchDir, WAIT_LIMIT};
use crate::workload::{Capture, Pacing, StreamSpec, SENSORS};
use dns_observatory::{tsv, TxSummary};
use feed::{Sensor, SensorConfig};
use psl::Psl;
use pubsub::{SubEvent, SubscribeClient};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Measured set-ups per untraced run; `setup_s` is their median.
pub const SET_UPS: usize = 3;
/// Load of one measured set-up: windows (federated) or transactions.
const TOKEN_WINDOWS: i64 = 4;
const TOKEN_TX: usize = 4_096;
/// Windows after the switch to the measured phase whose latency is not
/// sampled: they still carry the warm-up's queue.
const SETTLE_WINDOWS: i64 = 5;
/// An open-loop run whose generator sent more than a tenth of its
/// transactions later than this did not offer the load it claims: it is
/// invalid, not slow. (A single scheduler stall of the generator thread
/// moves the p99 on a two-core box, so the rule is on the share.)
const LATE_LIMIT_MS: f64 = 5.0;
const LATE_SHARE_LIMIT: f64 = 0.10;
/// Windows in flight while an open-loop workload warms up.
const WARM_UP_WINDOWS: u64 = 8;
/// Transactions between two looks at the ingest counter.
const INGEST_POLL_EVERY: u64 = 2_048;

/// When the measured phase ends.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After this long, at the next lap or window boundary.
    Elapsed(Duration),
    /// At the first lap boundary where this many laps of the trace have
    /// been sent in all, warm-up included: whole laps, fixed work, which
    /// the traced replay can repeat.
    TotalLaps(u32),
}

/// What one process-tree run measured.
#[derive(Debug, Default)]
pub struct StreamOutcome {
    pub set_up_s: Vec<f64>,
    pub sent_total: u64,
    pub measured_tx: u64,
    pub measured_wall_s: f64,
    pub cpu_s: f64,
    pub children_peak_rss_mb: f64,
    /// Window latencies (federated) or the one finish latency, ms.
    pub latency_ms: Vec<f64>,
    pub blocked_s: f64,
    pub late_ms: Vec<f64>,
    /// Transactions the final ledger accounts for.
    pub accounted_tx: u64,
    pub windows_expected: u64,
    pub windows_delivered: u64,
    /// `(file name, bytes)` of what the tree delivered, for the
    /// byte-equality oracle against the traced replay.
    pub delivered: Vec<(String, Vec<u8>)>,
    pub ledger: Ledger,
    pub failures: Vec<String>,
}

/// Loss counters read off the children's exit reports. `None`: the
/// report line was not found (the conservation oracles still hold).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Ledger {
    pub sensor_dropped_items: u64,
    pub gap_frames: Option<u64>,
    pub merge_conflicts: Option<u64>,
    pub broker_dropped: Option<u64>,
    pub broker_evicted: Option<u64>,
}

/// The number right before `word` on the first line holding `marker`.
fn number_before(text: &str, marker: &str, word: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.contains(marker))?;
    let at = line.find(word)?;
    line[..at]
        .trim_end()
        .rsplit(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

/// Sum of the numbers right before `word` over all lines holding
/// `marker`; `None` when no such line exists.
fn sum_before(text: &str, marker: &str, word: &str) -> Option<u64> {
    let mut found = None;
    for line in text.lines().filter(|l| l.contains(marker)) {
        if let Some(n) = number_before(line, marker, word) {
            *found.get_or_insert(0) += n;
        }
    }
    found
}

/// What the subscriber thread shares with the generator while it runs.
struct SubShared {
    /// Highest window index applied for every dataset; -1 before any.
    applied_through: AtomicI64,
    /// `(window index, when it was applied for the last dataset)`.
    applied_at: Mutex<Vec<(i64, Instant)>>,
}

/// What the subscriber thread returns when the stream ends.
struct SubReport {
    accounted_tx: u64,
    windows: u64,
    held: Vec<(String, Vec<u8>)>,
    error: Option<String>,
}

fn subscriber_loop(
    mut client: SubscribeClient,
    shared: &SubShared,
    window_secs: f64,
    datasets: usize,
) -> SubReport {
    let mut latest: BTreeMap<String, i64> = BTreeMap::new();
    let mut report = SubReport {
        accounted_tx: 0,
        windows: 0,
        held: Vec::new(),
        error: None,
    };
    loop {
        match client.next_event() {
            Ok(Some(SubEvent::Window(h))) => {
                let idx = (h.start / window_secs).round() as i64;
                if h.state.dataset == "rcode" {
                    report.accounted_tx += h.state.kept + h.state.dropped + h.state.filtered;
                    report.windows += 1;
                }
                latest.insert(h.state.dataset.clone(), idx);
                if latest.len() == datasets {
                    let through = latest.values().copied().min().unwrap_or(-1);
                    let before = shared.applied_through.load(Ordering::SeqCst);
                    if through > before {
                        let now = Instant::now();
                        let mut at = shared.applied_at.lock().expect("applied_at poisoned");
                        at.extend((before + 1..=through).map(|w| (w, now)));
                        drop(at);
                        shared.applied_through.store(through, Ordering::SeqCst);
                    }
                }
            }
            Ok(Some(SubEvent::Meta { .. })) => {}
            Ok(Some(SubEvent::Evicted { reason, .. })) => {
                report.error = Some(format!("subscriber evicted: {reason}"));
                break;
            }
            Ok(Some(SubEvent::End)) | Ok(None) => break,
            Err(e) => {
                report.error = Some(format!("subscription failed: {e}"));
                break;
            }
        }
    }
    match render_held(client.core()) {
        Ok(held) => report.held = held,
        Err(e) => report.error = Some(e),
    }
    report
}

/// The windows a subscriber holds, rendered to the files `dnsobs
/// subscribe` would write for them: `(file name, bytes)`.
pub fn render_held(core: &pubsub::SubscriberCore) -> Result<Vec<(String, Vec<u8>)>, String> {
    core.held_windows()
        .map(|(name, h)| {
            let dump = dns_observatory::render_state(&h.state, h.start, h.length)
                .map_err(|e| format!("held {name} does not render: {e}"))?;
            let mut bytes = Vec::new();
            tsv::write_window(&mut bytes, &dump).expect("writing to a Vec cannot fail");
            Ok((format!("{name}-{:05}.tsv", dump.start as u64), bytes))
        })
        .collect()
}

/// A brought-up process tree with its in-process clients attached.
struct Tree {
    /// Children in the order they exit once the sensors say BYE.
    procs: Vec<Proc>,
    sensors: Vec<Sensor<TxSummary>>,
    /// `collect --metrics` endpoint (single-collector topology only).
    metrics: Option<String>,
    sub_shared: Arc<SubShared>,
    subscriber: Option<JoinHandle<SubReport>>,
    /// Where the tree writes its TSV files.
    out_dir: std::path::PathBuf,
}

impl Drop for Tree {
    /// Kill what is still running, then join the clients: their
    /// sockets fail once the processes are gone.
    fn drop(&mut self) {
        self.procs.clear();
        self.sensors.clear();
        if let Some(h) = self.subscriber.take() {
            let _ = h.join();
        }
    }
}

fn pids(tree: &Tree) -> Vec<u32> {
    tree.procs.iter().map(Proc::pid).collect()
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("scratch paths are UTF-8")
}

fn spawn_tree(spec: &StreamSpec, scratch: &ScratchDir, round: usize) -> Result<Tree, String> {
    let out_dir = scratch.sub(&format!("out-{round}"))?;
    let window = spec.window_secs.to_string();
    let topk = spec.topk.to_string();
    let sub_shared = Arc::new(SubShared {
        applied_through: AtomicI64::new(-1),
        applied_at: Mutex::new(Vec::new()),
    });
    if !spec.federated {
        let (listen, metrics) = (proc::free_addr(), proc::free_addr());
        let sensors = SENSORS.to_string();
        let mut collect = Proc::spawn(
            "collect",
            &[
                "collect",
                "--listen",
                &listen,
                "--sensors",
                &sensors,
                "--window",
                &window,
                "--topk",
                &topk,
                "--out",
                path_str(&out_dir),
                "--metrics",
                &metrics,
            ],
            scratch.path(),
        )?;
        proc::wait_listening(&listen, &mut collect)?;
        proc::wait_listening(&metrics, &mut collect)?;
        let sensors = (0..SENSORS)
            .map(|i| Sensor::connect(listen.clone(), SensorConfig::new(i as u64)))
            .collect();
        return Ok(Tree {
            procs: vec![collect],
            sensors,
            metrics: Some(metrics),
            sub_shared,
            subscriber: None,
            out_dir,
        });
    }

    let store_dir = scratch.sub(&format!("store-{round}"))?;
    let (agg_addr, serve_addr) = (proc::free_addr(), proc::free_addr());
    let upstreams = SENSORS.to_string();
    let mut aggregate = Proc::spawn(
        "aggregate",
        &[
            "aggregate",
            "--listen",
            &agg_addr,
            "--upstreams",
            &upstreams,
            "--out",
            path_str(&out_dir),
            "--store",
            path_str(&store_dir),
            "--serve",
            &serve_addr,
        ],
        scratch.path(),
    )?;
    proc::wait_listening(&agg_addr, &mut aggregate)?;
    proc::wait_listening(&serve_addr, &mut aggregate)?;
    let mut collects = Vec::new();
    let mut sensors = Vec::new();
    for i in 0..SENSORS {
        let listen = proc::free_addr();
        let upstream = i.to_string();
        let mut collect = Proc::spawn(
            if i == 0 { "collect-0" } else { "collect-1" },
            &[
                "collect",
                "--listen",
                &listen,
                "--sensors",
                "1",
                "--window",
                &window,
                "--topk",
                &topk,
                "--forward",
                &agg_addr,
                "--upstream",
                &upstream,
            ],
            scratch.path(),
        )?;
        proc::wait_listening(&listen, &mut collect)?;
        sensors.push(Sensor::connect(listen, SensorConfig::new(i as u64)));
        collects.push(collect);
    }
    let client = SubscribeClient::connect(serve_addr.as_str(), &[]).map_err(|e| {
        format!(
            "subscribe to {serve_addr}: {e}\n{}",
            aggregate.stderr_tail()
        )
    })?;
    let shared = Arc::clone(&sub_shared);
    let (window_secs, datasets) = (spec.window_secs, spec.datasets().len());
    let subscriber =
        std::thread::spawn(move || subscriber_loop(client, &shared, window_secs, datasets));
    collects.push(aggregate);
    Ok(Tree {
        procs: collects,
        sensors,
        metrics: None,
        sub_shared,
        subscriber: Some(subscriber),
        out_dir,
    })
}

/// The load generator: a cursor over the looped trace plus the pacing
/// and window bookkeeping of one run.
struct Generator<'a> {
    spec: &'a StreamSpec,
    trace: &'a [Capture],
    psl: Psl,
    lap: u32,
    idx: usize,
    sent: u64,
    /// Ingest counter as last scraped (closed loop on ingest).
    ingested: u64,
    blocked: Duration,
    /// Open loop: wall instant and stream time the schedule starts at.
    pace_origin: Option<(Instant, f64)>,
    late_ms: Vec<f64>,
    /// Window being filled, and when its last transaction was due.
    window: i64,
    last_due: Instant,
    /// `(window index, due time of its last transaction)`.
    closed_at: Vec<(i64, Instant)>,
}

fn scrape_ingested(addr: &str) -> Result<u64, String> {
    let text = telemetry::fetch(addr).map_err(|e| format!("scrape {addr}: {e}"))?;
    Ok(telemetry::prometheus::parse(&text)
        .get("pipeline_ingested_total")
        .copied()
        .unwrap_or(0.0) as u64)
}

impl<'a> Generator<'a> {
    fn new(spec: &'a StreamSpec, trace: &'a [Capture]) -> Generator<'a> {
        Generator {
            spec,
            trace,
            psl: Psl::embedded(),
            lap: 0,
            idx: 0,
            sent: 0,
            ingested: 0,
            blocked: Duration::ZERO,
            pace_origin: None,
            late_ms: Vec::new(),
            window: 0,
            last_due: Instant::now(),
            closed_at: Vec::new(),
        }
    }

    fn stream_time(&self) -> f64 {
        f64::from(self.lap) * self.spec.lap_advance() + self.trace[self.idx].time
    }

    /// Start the open-loop schedule at the next transaction.
    fn start_pacing(&mut self) {
        self.pace_origin = Some((Instant::now(), self.stream_time()));
    }

    /// Hold the generator back until the system has caught up to the
    /// closed loop's limit. A wait past the limit is a hung run. The
    /// open loop warms up as a closed one, so that it starts its
    /// schedule on short queues.
    fn wait_for_room(&mut self, tree: &Tree, window: i64) -> Result<(), String> {
        let started = Instant::now();
        let pacing = match self.spec.pacing {
            Pacing::Open { .. } if self.pace_origin.is_none() => Pacing::ClosedOnWindows {
                max_windows: WARM_UP_WINDOWS,
            },
            other => other,
        };
        match pacing {
            Pacing::ClosedOnWindows { max_windows } => {
                // `window` is about to be opened: windows before it are
                // fully sent.
                while window - 1 - tree.sub_shared.applied_through.load(Ordering::SeqCst)
                    >= max_windows as i64
                {
                    if started.elapsed() > WAIT_LIMIT {
                        return Err(hung(tree, "subscriber stopped advancing"));
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            Pacing::ClosedOnIngest { max_backlog } => {
                let addr = tree.metrics.as_deref().expect("ingest loop has metrics");
                if self.sent - self.ingested < max_backlog {
                    return Ok(());
                }
                loop {
                    self.ingested = scrape_ingested(addr)?;
                    if self.sent - self.ingested < max_backlog / 2 {
                        break;
                    }
                    if started.elapsed() > WAIT_LIMIT {
                        return Err(hung(tree, "collector stopped ingesting"));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            Pacing::Open { .. } => return Ok(()),
        }
        self.blocked += started.elapsed();
        Ok(())
    }

    /// Summarize the next capture as a sensor would and send it.
    fn send_next(&mut self, tree: &Tree) -> Result<(), String> {
        let time = self.stream_time();
        let c = &self.trace[self.idx];
        let summary = TxSummary::from_packets(
            &c.query,
            c.response.as_deref(),
            time,
            c.contributor,
            c.delay_ms,
            &self.psl,
        )
        .ok_or("generated packets do not parse")?;
        tree.sensors[c.sensor].send(summary);
        self.sent += 1;
        self.idx += 1;
        if self.idx == self.trace.len() {
            self.idx = 0;
            self.lap += 1;
        }
        Ok(())
    }

    /// Send transactions until `stop` says so; `stop` is asked at every
    /// window boundary (federated) or lap boundary (single collector).
    fn run(
        &mut self,
        tree: &Tree,
        mut stop: impl FnMut(&Generator<'_>) -> bool,
    ) -> Result<(), String> {
        loop {
            let time = self.stream_time();
            let window = (time / self.spec.window_secs).floor() as i64;
            if self.spec.federated && window > self.window {
                self.closed_at.push((self.window, self.last_due));
                self.window = window;
                if stop(self) {
                    return Ok(());
                }
                self.wait_for_room(tree, window)?;
            }
            if !self.spec.federated {
                if self.idx == 0 && self.lap > 0 && stop(self) {
                    return Ok(());
                }
                if self.sent.is_multiple_of(INGEST_POLL_EVERY) {
                    self.wait_for_room(tree, window)?;
                }
            }
            self.last_due = match (self.spec.pacing, self.pace_origin) {
                (Pacing::Open { compress }, Some((origin, t0))) => {
                    let due = due_at(origin, t0, time, compress);
                    wait_until(due);
                    let late = Instant::now().saturating_duration_since(due);
                    self.late_ms.push(late.as_secs_f64() * 1e3);
                    due
                }
                _ => Instant::now(),
            };
            self.send_next(tree)?;
        }
    }
}

/// Shortest sleep of the open-loop generator. Transactions are due
/// every ~100 µs, closer than a sleep can resolve, and spinning between
/// them would take a whole core from the system under test; so the
/// generator sleeps at least this long and then sends, in one burst,
/// everything that has fallen due. Each transaction is still timed from
/// its own due time.
const PACE_QUANTUM: Duration = Duration::from_micros(500);

/// When the transaction at stream time `time` is due, on a schedule
/// that started at wall instant `origin` with stream time `t0` and runs
/// `compress` times faster than the trace. Latency and lateness are
/// both measured from this instant, never from the actual send, so a
/// stall of the generator shows as latency instead of hiding it.
fn due_at(origin: Instant, t0: f64, time: f64, compress: f64) -> Instant {
    origin + Duration::from_secs_f64(((time - t0) / compress).max(0.0))
}

/// Return once `due` has passed.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        std::thread::sleep((due - now).max(PACE_QUANTUM));
    }
}

fn hung(tree: &Tree, what: &str) -> String {
    let tails: Vec<String> = tree.procs.iter().map(Proc::stderr_tail).collect();
    format!("run hung: {what}\n{}", tails.join("\n"))
}

fn read_dir_sorted(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| {
                    let name = e.file_name().to_string_lossy().into_owned();
                    std::fs::read(e.path()).ok().map(|bytes| (name, bytes))
                })
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

/// Data windows only: `meta-*` self-reports depend on wall-clock
/// counters and `*-10win-*` are rollups of the windows already counted.
fn is_data_window(name: &str) -> bool {
    name.ends_with(".tsv") && !name.starts_with("meta-") && !name.contains("-10win-")
}

/// A tree after its feed ended and every process exited on its own.
struct Finished {
    last_sent: Instant,
    exited: Instant,
    /// `(window, when applied)` as the subscriber saw them.
    applied: Vec<(i64, Instant)>,
}

/// End the feed (BYE from both sensors), wait for every process to
/// drain and exit, and check what the tree delivered against what was
/// sent: conservation, window count, loss ledgers.
fn finish(
    spec: &StreamSpec,
    trace: &[Capture],
    mut tree: Tree,
    gen: &Generator<'_>,
    out: &mut StreamOutcome,
) -> Result<Finished, String> {
    let last_sent = Instant::now();
    out.sent_total = gen.sent;
    for sensor in tree.sensors.drain(..) {
        out.ledger.sensor_dropped_items += sensor.finish().dropped_items;
    }
    let mut stderr = String::new();
    for p in tree.procs.drain(..) {
        stderr.push_str(&p.join()?);
    }
    let exited = Instant::now();
    let sub = match tree.subscriber.take() {
        Some(h) => Some(h.join().map_err(|_| "subscriber thread panicked")?),
        None => None,
    };

    out.ledger.gap_frames = sum_before(&stderr, "sensor ", "missing frames");
    if spec.federated {
        out.ledger.merge_conflicts = number_before(&stderr, "aggregated ", "conflicts");
        out.ledger.broker_dropped = number_before(&stderr, "served ", "dropped");
        out.ledger.broker_evicted = number_before(&stderr, "served ", "evicted");
    }

    let files = read_dir_sorted(&tree.out_dir);
    match sub {
        Some(sub) => {
            out.failures.extend(sub.error);
            out.accounted_tx = sub.accounted_tx;
            out.windows_delivered = sub.windows;
            // The generator stops on a boundary: `gen.window` is open
            // but empty.
            out.windows_expected = gen.window as u64;
            // The subscriber's view of the last window must be the
            // files the aggregator wrote for it.
            for (name, bytes) in &sub.held {
                match files.iter().find(|(n, _)| n == name) {
                    Some((_, served)) if served == bytes => {}
                    Some(_) => out.failures.push(format!("{name}: subscriber != server")),
                    None => out
                        .failures
                        .push(format!("{name}: server wrote no such file")),
                }
            }
            out.delivered = sub.held;
        }
        None => {
            for (name, bytes) in files.into_iter().filter(|(n, _)| is_data_window(n)) {
                if name.starts_with("rcode-") {
                    let dump = tsv::read_window(bytes.as_slice())
                        .map_err(|e| format!("{name} does not parse: {e}"))?;
                    out.accounted_tx += dump.kept + dump.dropped + dump.filtered;
                    out.windows_delivered += 1;
                }
                out.delivered.push((name, bytes));
            }
            // Windows start at the first transaction and advance in
            // whole window lengths; dense traffic leaves none empty.
            let last = if gen.idx == 0 {
                f64::from(gen.lap) * spec.lap_advance()
            } else {
                gen.stream_time()
            };
            out.windows_expected = ((last - trace[0].time) / spec.window_secs).ceil() as u64;
        }
    }

    if out.accounted_tx != out.sent_total {
        out.failures.push(format!(
            "conservation: sent {} transactions, windows account for {}",
            out.sent_total, out.accounted_tx
        ));
    }
    if out.windows_delivered != out.windows_expected {
        out.failures.push(format!(
            "expected {} windows, {} delivered",
            out.windows_expected, out.windows_delivered
        ));
    }
    let l = &out.ledger;
    let mut ledger = vec![
        ("sensor-dropped items", Some(l.sensor_dropped_items)),
        ("gap frames", l.gap_frames),
    ];
    if spec.federated {
        ledger.extend([
            ("merge conflicts", l.merge_conflicts),
            ("broker-dropped frames", l.broker_dropped),
            ("broker evictions", l.broker_evicted),
        ]);
    }
    for (what, n) in ledger {
        match n {
            Some(0) => {}
            Some(n) => out.failures.push(format!("{n} {what}")),
            // Not fatal: the conservation checks above catch any loss.
            None => eprintln!("obsbench: note: no `{what}` line in the children's reports"),
        }
    }
    let applied = tree
        .sub_shared
        .applied_at
        .lock()
        .expect("applied_at poisoned")
        .clone();
    Ok(Finished {
        last_sent,
        exited,
        applied,
    })
}

/// One measured set-up: start a tree cold, push a token load through
/// it, end the feed and wait for the clean exit. Fixed work from spawn
/// to the first complete results, so that anything a change moves into
/// process start shows here.
fn token_run(
    spec: &StreamSpec,
    trace: &[Capture],
    scratch: &ScratchDir,
    round: usize,
) -> Result<f64, String> {
    let started = Instant::now();
    let tree = spawn_tree(spec, scratch, round)?;
    let mut gen = Generator::new(spec, trace);
    if spec.federated {
        gen.run(&tree, |g| g.window >= TOKEN_WINDOWS)?;
    } else {
        for _ in 0..TOKEN_TX.min(trace.len() - 1) {
            gen.send_next(&tree)?;
        }
    }
    let mut out = StreamOutcome::default();
    finish(spec, trace, tree, &gen, &mut out)?;
    if let Some(f) = out.failures.first() {
        return Err(format!("set-up run failed its oracles: {f}"));
    }
    Ok(started.elapsed().as_secs_f64())
}

/// Run one stream workload against a fresh process tree.
pub fn run_stream(
    spec: &StreamSpec,
    trace: &[Capture],
    until: Until,
    set_ups: usize,
    scratch_root: &Path,
) -> Result<StreamOutcome, String> {
    let mut scratch = ScratchDir::create(scratch_root, spec.name)?;
    let result = run_stream_in(spec, trace, until, set_ups, &scratch);
    if result.is_err() {
        scratch.keep();
    }
    result
}

fn run_stream_in(
    spec: &StreamSpec,
    trace: &[Capture],
    until: Until,
    set_ups: usize,
    scratch: &ScratchDir,
) -> Result<StreamOutcome, String> {
    let mut out = StreamOutcome::default();
    for round in 0..set_ups {
        out.set_up_s.push(token_run(spec, trace, scratch, round)?);
    }

    let tree = spawn_tree(spec, scratch, set_ups)?;
    let rss = RssWatch::start(pids(&tree));
    let mut gen = Generator::new(spec, trace);

    // Warm-up: fill the trackers and every queue on the way, and see
    // the first result arrive, before anything is timed.
    if spec.federated {
        gen.run(&tree, |_| {
            tree.sub_shared.applied_through.load(Ordering::SeqCst) >= 0
        })?;
        let target = gen.window + SETTLE_WINDOWS;
        gen.run(&tree, |g| g.window >= target)?;
    } else {
        gen.run(&tree, |g| g.lap >= 1)?;
        settle_ingest(&mut gen, &tree)?;
    }

    // Measured phase.
    let cpu_before = proc::cpu_seconds_self_and_reaped()
        + pids(&tree)
            .into_iter()
            .map(proc::cpu_seconds_of)
            .sum::<f64>();
    let sent_before = gen.sent;
    let first_measured_window = gen.window;
    gen.blocked = Duration::ZERO;
    gen.start_pacing();
    let started = Instant::now();
    match until {
        Until::Elapsed(limit) => gen.run(&tree, |_| started.elapsed() >= limit)?,
        Until::TotalLaps(laps) => gen.run(&tree, |g| g.lap >= laps && g.idx == 0)?,
    }
    out.measured_tx = gen.sent - sent_before;
    out.blocked_s = gen.blocked.as_secs_f64();
    out.late_ms = std::mem::take(&mut gen.late_ms);

    let done = finish(spec, trace, tree, &gen, &mut out)?;
    out.children_peak_rss_mb = rss.finish();
    out.cpu_s = proc::cpu_seconds_self_and_reaped() - cpu_before;

    if spec.federated {
        let result_at = done.applied.last().map_or(done.exited, |&(_, at)| at);
        out.measured_wall_s = result_at.duration_since(started).as_secs_f64();
        let applied: BTreeMap<i64, Instant> = done.applied.into_iter().collect();
        // The last window sent is closed by BYE, not by a later
        // transaction, so it takes another path and is not sampled.
        let last_window = gen.window - 1;
        for &(w, due) in &gen.closed_at {
            if w < first_measured_window + SETTLE_WINDOWS || w == last_window {
                continue;
            }
            match applied.get(&w) {
                Some(at) => out
                    .latency_ms
                    .push(at.saturating_duration_since(due).as_secs_f64() * 1e3),
                None => out.failures.push(format!("window {w} never applied")),
            }
        }
    } else {
        // One result, the TSV tree: it exists when the collector exits.
        out.measured_wall_s = done.exited.duration_since(started).as_secs_f64();
        out.latency_ms
            .push(done.exited.duration_since(done.last_sent).as_secs_f64() * 1e3);
    }
    if let Pacing::Open { .. } = spec.pacing {
        let late = out.late_ms.iter().filter(|&&ms| ms > LATE_LIMIT_MS).count();
        let share = late as f64 / out.late_ms.len().max(1) as f64;
        if share > LATE_SHARE_LIMIT {
            out.failures.push(format!(
                "generator sent {:.0}% of its transactions more than {LATE_LIMIT_MS} ms late: run invalid, not slow",
                share * 100.0
            ));
        }
    }
    Ok(out)
}

/// Wait until the single collector's ingest counter stops moving: the
/// warm-up's backlog is gone and the measured phase starts clean.
fn settle_ingest(gen: &mut Generator<'_>, tree: &Tree) -> Result<(), String> {
    let addr = tree
        .metrics
        .as_deref()
        .expect("single collector has metrics");
    for s in &tree.sensors {
        s.flush();
        s.wait_drained();
    }
    let started = Instant::now();
    let mut still = 0;
    while still < 3 {
        std::thread::sleep(Duration::from_millis(5));
        let now = scrape_ingested(addr)?;
        still = if now == gen.ingested { still + 1 } else { 0 };
        gen.ingested = now;
        if started.elapsed() > WAIT_LIMIT {
            return Err(hung(tree, "warm-up never drained"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_numbers_are_read_off_report_lines() {
        let text = "merged 10 items\n  sensor 0: 5 frames/900 items, 1 gap(s)/3 missing frames, 0 dup(s)\n  sensor 1: 5 frames/900 items, 0 gap(s)/4 missing frames, 0 dup(s)\naggregated 40 records into 8 global window(s) (16 dataset merges, 2 conflicts, 0 late, 0 rejected)\nserved 1 client(s): 48 frames delivered, 7 dropped, 0 undelivered at exit, 1 evicted\n";
        assert_eq!(number_before(text, "aggregated ", "conflicts"), Some(2));
        assert_eq!(number_before(text, "served ", "dropped"), Some(7));
        assert_eq!(number_before(text, "served ", "evicted"), Some(1));
        assert_eq!(sum_before(text, "sensor ", "missing frames"), Some(7));
        assert_eq!(number_before(text, "absent", "x"), None);
    }

    #[test]
    fn open_loop_times_from_the_schedule_not_from_the_send() {
        let origin = Instant::now();
        // Stream second 110 on a schedule started at stream second 100,
        // five times faster: due two wall seconds in.
        let due = due_at(origin, 100.0, 110.0, 5.0);
        assert_eq!(due - origin, Duration::from_secs(2));
        // A generator that stalls and sends 300 ms late: the lateness is
        // what the run reports, and a result at +2.5 s has taken 500 ms
        // from the due time, not 200 ms from the send.
        let sent = due + Duration::from_millis(300);
        let applied = origin + Duration::from_millis(2_500);
        assert_eq!(
            sent.saturating_duration_since(due),
            Duration::from_millis(300)
        );
        assert_eq!(
            applied.saturating_duration_since(due),
            Duration::from_millis(500)
        );
        // The schedule never runs backwards, and waiting honours it.
        assert_eq!(due_at(origin, 100.0, 99.0, 5.0), origin);
        let soon = Instant::now() + Duration::from_millis(2);
        wait_until(soon);
        assert!(Instant::now() >= soon);
    }

    #[test]
    fn only_data_windows_enter_the_oracles() {
        assert!(is_data_window("rcode-00030.tsv"));
        assert!(!is_data_window("meta-00030.tsv"));
        assert!(!is_data_window("rcode-10win-00000.tsv"));
        assert!(!is_data_window("state.bin"));
    }
}
