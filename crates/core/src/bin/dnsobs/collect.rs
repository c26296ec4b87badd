//! `collect`: accept N sensors, merge their streams in time order, and
//! fold the merged feed — into TSV windows like `simulate`, or, when a
//! state sink is asked for, into per-window sketch state for the
//! federated tier.

use crate::flags::{self, Parsed};
use crate::session::Session;
use crate::sinks::{meta_reporter, Sinks, TsvDir};
use crate::{fail, Done};
use dns_observatory::{Observatory, ObservatoryConfig, StateExporter, TxSummary};
use feed::{Collector, CollectorConfig};
use telemetry::{Registry, SystemClock};

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
    eprintln!(
        "collecting from {sensors} sensor(s) on {}, windows of {}s",
        collector.local_addr(),
        cfg.window_secs
    );
    session.watch_feed(p.req(&flags::STALL_THRESHOLD));

    let feed = collector.take_output();
    let done = if exports_state {
        export_state(p, &mut session, feed.iter(), cfg)
    } else {
        render_locally(p, &mut session, feed.iter(), cfg)
    };
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

/// The local path: one `Observatory` folds the merged feed on this
/// thread, the same TSV layout as `simulate`, each window written as it
/// closes.
fn render_locally(
    p: &Parsed,
    session: &mut Session,
    feed: impl Iterator<Item = TxSummary>,
    cfg: ObservatoryConfig,
) -> Done {
    let mut out = TsvDir::create(p.opt(&flags::OUT))?;
    // Meta self-reports ride on the merged feed's stream time, one per
    // data window.
    let mut meta = meta_reporter(cfg.window_secs);
    let mut obs = Observatory::new(cfg)
        .with_registry(Registry::global())
        .with_trace(session.ring("pipeline"));
    let clock = SystemClock::new();
    let mut last_us = 0u64;
    let mut written = Ok(());
    for summary in feed {
        if session.tracing() {
            obs.set_now_us(telemetry::Clock::now_us(&clock));
        }
        last_us = (summary.time.max(0.0) * 1e6) as u64;
        if let Some(bytes) = meta.tick(last_us) {
            out.write_meta(&bytes);
        }
        obs.ingest_summary(summary);
        for dump in obs.take_windows() {
            written = written.and_then(|()| out.write_window(dump));
        }
    }
    session.feed_ended();
    if session.tracing() {
        obs.set_now_us(telemetry::Clock::now_us(&clock));
    }
    for dump in obs.finish().take_windows() {
        written = written.and_then(|()| out.write_window(dump));
    }
    if let Some(bytes) = meta.finish(last_us) {
        out.write_meta(&bytes);
    }
    out.report();
    written
}

/// The federated path: fold the merged feed into per-window sketch state
/// and hand every closed window to the sinks. With a store, a restart
/// resumes the watermark frontier from the last durable window instead
/// of re-counting from zero.
fn export_state(
    p: &Parsed,
    session: &mut Session,
    feed: impl Iterator<Item = TxSummary>,
    cfg: ObservatoryConfig,
) -> Done {
    let upstream: u64 = p.req(&flags::UPSTREAM);
    let mut sinks = Sinks::from_flags(p, session, p.opt(&flags::OUT))?;
    // Exports carry the admission gate's bloom and the eviction order, so
    // resumed trackers continue exactly where the durable ones stood.
    let resumed = sinks.resume_point().map(|(start, states)| {
        let exporter = StateExporter::resume(cfg.clone(), upstream, CHUNK_ENTRIES, *start, states);
        (*start, exporter)
    });
    let exporter = match resumed {
        Some((start, Ok(exporter))) => {
            eprintln!("store: resumed watermark frontier after window t={start}s");
            exporter
        }
        Some((_, Err(e))) => {
            eprintln!("store: cannot resume from last window ({e}); starting fresh");
            StateExporter::new(cfg, upstream, CHUNK_ENTRIES)
        }
        None => StateExporter::new(cfg, upstream, CHUNK_ENTRIES),
    };
    let mut exporter = exporter.with_trace(session.ring("exporter"));
    let clock = SystemClock::new();
    let mut states = Vec::new();
    for summary in feed {
        if session.tracing() {
            exporter.set_now_us(telemetry::Clock::now_us(&clock));
        }
        sinks.tick_meta((summary.time.max(0.0) * 1e6) as u64);
        exporter.ingest_summary(summary, &mut states);
        sinks.seal(std::mem::take(&mut states))?;
    }
    session.feed_ended();
    let skipped = exporter.resumed_skipped();
    let ingested = exporter.finish(&mut states);
    sinks.seal(states)?;
    if skipped > 0 {
        eprintln!("store: skipped {skipped} summaries already covered by durable windows");
    }
    eprintln!("upstream {upstream}: ingested {ingested} summaries");
    sinks.finish()
}
