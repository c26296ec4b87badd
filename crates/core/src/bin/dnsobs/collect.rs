//! `collect`: accept N sensors, merge their streams in time order, and
//! fold the merged feed in the one fold core. `collect` picks the
//! rendering from the sinks asked for: TSV rows like `simulate` when
//! `--out` is the only sink, per-window sketch state for the federated
//! tier when any state sink is on.

use crate::flags::{self, Parsed};
use crate::session::Session;
use crate::sinks::{Sinks, DEFAULT_OUT};
use crate::{fail, Done};
use dns_observatory::{Observatory, ObservatoryConfig, StateExporter, TxSummary};
use feed::{Collector, CollectorConfig};
use telemetry::{Clock, Registry, SystemClock};

/// Entries per exported state record: chunks big trackers so every record
/// stays comfortably under the feed's frame cap at the default 10k caps.
const CHUNK_ENTRIES: usize = 1024;

pub fn collect(p: &Parsed) -> Done {
    let listen: String = p.req(&flags::LISTEN);
    let sensors: u64 = p.req(&flags::SENSORS);
    let cfg = crate::observatory_config(p);
    let exports_state = [flags::FORWARD, flags::STATE_OUT, flags::STORE, flags::SERVE]
        .iter()
        .any(|sink| p.opt::<String>(sink).is_some());
    let mut session = Session::start(p)?;
    let mut collector = Collector::<TxSummary>::bind(&listen, CollectorConfig::new(sensors))
        .map_err(|e| fail(format_args!("cannot listen on {listen}: {e}")))?;
    let (on, window) = (collector.local_addr(), cfg.window_secs);
    eprintln!("collecting from {sensors} sensor(s) on {on}, windows of {window}s");
    session.watch_feed(p.req(&flags::STALL_THRESHOLD));

    // Rows always go to a directory; states render TSVs only into an
    // `--out` that was given.
    let out = p.opt(&flags::OUT);
    let out = out.or_else(|| (!exports_state).then(|| DEFAULT_OUT.into()));
    let sinks = Sinks::from_flags(p, &session, out)?;
    let feed = collector.take_output();
    let done = if exports_state {
        let exporter = exporter(p, &sinks, cfg).with_registry(Registry::global());
        let exporter = exporter.with_trace(session.ring("exporter"));
        run(&mut session, sinks, feed.iter(), exporter)
    } else {
        let obs = Observatory::new(cfg).with_registry(Registry::global());
        let obs = obs.with_trace(session.ring("pipeline"));
        run(&mut session, sinks, feed.iter(), obs)
    };
    // A fold that failed leaves the feed unread: let it go first.
    drop(feed);
    print_feed_report(&collector.finish());
    done
}

/// Print the transport-level ledger of a finished feed: merged totals
/// plus per-sensor gap/dup/CRC accounting.
pub fn print_feed_report(report: &feed::CollectorReport) {
    eprintln!("merged {} items", report.items_merged);
    for (id, s) in &report.sensors {
        eprintln!(
            "  sensor {id}: {} frames/{} items, {} gap(s)/{} missing frames, {} dup(s), {} crc error(s), self-reported drops {} frames/{} items",
            s.frames,
            s.items,
            s.gaps.len(),
            s.gap_frames,
            s.duplicate_frames,
            s.crc_errors,
            s.reported_dropped_frames,
            s.reported_dropped_items
        );
    }
}

/// The state rendering for `--upstream`. With a store, a restart resumes
/// the watermark frontier from the last durable window instead of
/// re-counting from zero: exports carry the admission gate's bloom and the
/// eviction order, so resumed trackers continue exactly where the durable
/// ones stood.
fn exporter(p: &Parsed, sinks: &Sinks, cfg: ObservatoryConfig) -> StateExporter {
    let upstream: u64 = p.req(&flags::UPSTREAM);
    if let Some((start, states)) = sinks.resume_point() {
        match StateExporter::resume(cfg.clone(), upstream, CHUNK_ENTRIES, *start, states) {
            Ok(exporter) => {
                eprintln!("store: resumed watermark frontier after window t={start}s");
                return exporter;
            }
            Err(e) => eprintln!("store: cannot resume from last window ({e}); starting fresh"),
        }
    }
    StateExporter::new(cfg, upstream, CHUNK_ENTRIES)
}

/// The one feed loop: stamp the trace clock, tick the meta self-report on
/// the feed's stream time, fold, and hand closed windows on.
fn run(
    session: &mut Session,
    mut sinks: Sinks,
    feed: impl Iterator<Item = TxSummary>,
    mut fold: impl Rendering,
) -> Done {
    let (clock, tracing) = (SystemClock::new(), session.tracing());
    let now_us = || if tracing { clock.now_us() } else { 0 };
    for summary in feed {
        fold.set_now_us(now_us());
        sinks.tick_meta((summary.time.max(0.0) * 1e6) as u64);
        fold.fold(summary, &mut sinks)?;
    }
    session.feed_ended();
    fold.set_now_us(now_us());
    fold.close(&mut sinks)?;
    sinks.finish()
}

/// A rendering of the fold, as the feed loop drives it.
trait Rendering {
    fn set_now_us(&mut self, now_us: u64);
    /// Fold one summary and hand the windows it closed to `sinks`.
    fn fold(&mut self, summary: TxSummary, sinks: &mut Sinks) -> Done;
    /// Hand on the last window.
    fn close(self, sinks: &mut Sinks) -> Done;
}

impl Rendering for Observatory {
    fn set_now_us(&mut self, now_us: u64) {
        Observatory::set_now_us(self, now_us);
    }
    fn fold(&mut self, summary: TxSummary, sinks: &mut Sinks) -> Done {
        self.ingest_summary(summary);
        sinks.write_windows(self.take_windows())
    }
    fn close(self, sinks: &mut Sinks) -> Done {
        sinks.write_windows(self.finish().take_windows())
    }
}

impl Rendering for StateExporter {
    fn set_now_us(&mut self, now_us: u64) {
        StateExporter::set_now_us(self, now_us);
    }
    fn fold(&mut self, summary: TxSummary, sinks: &mut Sinks) -> Done {
        let mut states = Vec::new();
        self.ingest_summary(summary, &mut states);
        sinks.seal(states, self.open_window())
    }
    fn close(self, sinks: &mut Sinks) -> Done {
        let skipped = self.resumed_skipped();
        if skipped > 0 {
            eprintln!("store: skipped {skipped} summaries already covered by durable windows");
        }
        let mut states = Vec::new();
        self.finish(&mut states);
        // Nothing stays open: the last window is closed too.
        let through = states.last().map(|ws| ws.start + ws.length);
        sinks.seal(states, through)
    }
}
