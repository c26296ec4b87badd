//! Process scaffolding every long-running subcommand shares: the
//! `--metrics` endpoint, the `--trace-out` flight recorder, the stall
//! watchdog, and the one place a store directory is opened.

use crate::flags::{self, Parsed};
use crate::{fail, Done};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use store::Store;
use telemetry::{
    FlightRecorder, MetricsServer, Registry, StallEvent, SystemClock, TraceRing, Watchdog,
    WatchdogCore,
};

/// Held for the whole run; dropping it stops the watchdog and writes the
/// `--trace-out` dump.
pub struct Session {
    _metrics: Option<MetricsServer>,
    trace_out: Option<PathBuf>,
    watchdog: Option<Watchdog>,
}

impl Session {
    /// Serve the global registry on `--metrics ADDR` when asked and note
    /// where `--trace-out` goes. `Err` only when the bind failed.
    pub fn start(p: &Parsed) -> Done<Session> {
        let metrics = match p.opt::<String>(&flags::METRICS) {
            Some(addr) => {
                let clock = Arc::new(SystemClock::new());
                let server = MetricsServer::serve(&addr, Registry::global(), clock)
                    .map_err(|e| fail(format_args!("cannot serve metrics on {addr}: {e}")))?;
                eprintln!("metrics: http://{}/metrics", server.addr());
                Some(server)
            }
            None => None,
        };
        Ok(Session {
            _metrics: metrics,
            trace_out: p.opt(&flags::TRACE_OUT),
            watchdog: None,
        })
    }

    /// True when `--trace-out` asked for span events.
    pub fn tracing(&self) -> bool {
        self.trace_out.is_some()
    }

    /// The global recorder, for stages that take it whole, when tracing.
    pub fn recorder(&self) -> Option<FlightRecorder> {
        self.tracing().then(FlightRecorder::global)
    }

    /// The recorder ring of `subsystem` when tracing, else a ring that
    /// records nothing (what every stage starts with).
    pub fn ring(&self, subsystem: &str) -> TraceRing {
        match self.recorder() {
            Some(recorder) => recorder.ring(subsystem),
            None => TraceRing::disabled(),
        }
    }

    /// Start the stall watchdog on the collector's event counter: a feed
    /// frozen past `stall_secs` gets one stderr line (and one more when
    /// it recovers) plus a flight-recorder dump. `collect` only — an
    /// aggregator is legitimately silent for a whole window.
    pub fn watch_feed(&mut self, stall_secs: f64) {
        let clock = Arc::new(SystemClock::new());
        let mut dog = WatchdogCore::new();
        dog.watch_counter(
            "collector_events",
            Registry::global().counter("feed_collector_events_total"),
            (stall_secs.max(1.0) * 1e6) as u64,
            telemetry::Clock::now_us(clock.as_ref()),
        );
        let trace_out = self.trace_out.clone();
        // The black box goes to disk (or stderr) on the stall itself, so
        // the evidence exists before anyone attaches a debugger.
        let report = move |event: &StallEvent| {
            eprintln!("watchdog: {event}");
            if matches!(event, StallEvent::Stalled { .. }) {
                dump_recorder(trace_out.as_deref(), "stall");
            }
        };
        self.watchdog = Watchdog::spawn(dog, clock, Duration::from_millis(500), report).ok();
    }

    /// The feed is over: what follows (rendering, ledgers) is not a stall.
    pub fn feed_ended(&mut self) {
        self.watchdog = None;
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.feed_ended();
        if let Some(path) = &self.trace_out {
            dump_recorder(Some(path), "run end");
        }
    }
}

/// Dump the global flight recorder: to `path` when given, otherwise as a
/// delimited block on stderr (skipped when nothing was recorded).
fn dump_recorder(path: Option<&Path>, why: &str) {
    let recorder = FlightRecorder::global();
    match path {
        Some(p) => match recorder.dump_to(p) {
            Ok(()) => eprintln!("flight recorder ({why}): wrote {}", p.display()),
            Err(e) => eprintln!("flight recorder ({why}): cannot write {}: {e}", p.display()),
        },
        None => {
            let dump = recorder.dump();
            if dump.lines().count() > 1 {
                eprintln!("--- flight recorder dump ({why}) ---");
                eprint!("{dump}");
                eprintln!("--- end flight recorder dump ---");
            }
        }
    }
}

/// Open a store directory (created empty when missing) with its counters
/// mirrored into the global registry. Recovery leftovers are printed —
/// ledgered, never silent.
pub fn open_store(dir: &Path) -> Done<Store> {
    let (store, report) = Store::open(dir)
        .map_err(|e| store_failed(format_args!("cannot open store {}", dir.display()), &e))?;
    if !report.is_clean() {
        eprintln!(
            "store recovery: removed {} tmp file(s) {:?} and {} orphan segment(s) {:?}",
            report.removed_tmp.len(),
            report.removed_tmp,
            report.removed_orphans.len(),
            report.removed_orphans
        );
    }
    Ok(store.with_registry(&Registry::global(), &report))
}

/// Print a typed store failure and, for a corrupt store, which segment
/// to quarantine.
pub fn store_failed(what: impl std::fmt::Display, e: &store::StoreError) -> i32 {
    let code = fail(format_args!("{what}: {e}"));
    if let Some(seg) = e.bad_segment() {
        eprintln!("bad segment: {seg} (quarantine it or restore from a replica)");
    }
    code
}
