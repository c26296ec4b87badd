//! `aggregate`: merge N forwarding collectors' window-state streams
//! (over TCP, or from `--state-out` record files) into global windows
//! whose error bound is the sum of the per-collector bounds.

use crate::collect::print_feed_report;
use crate::flags::{self, Parsed};
use crate::session::Session;
use crate::sinks::{Sinks, DEFAULT_OUT};
use crate::{fail, misuse, Done};
use feed::{Collector, CollectorConfig};
use sketchwire::{AggregatorConfig, AggregatorCore, GlobalWindow, WindowState};
use std::collections::BTreeSet;
use telemetry::{Registry, SystemClock};

pub fn aggregate(p: &Parsed) -> Done {
    let session = Session::start(p)?;
    let inputs = p.all(&flags::INPUT);
    if !inputs.is_empty() {
        let records = read_state_files(&inputs)?;
        let upstreams: BTreeSet<u64> = records.iter().map(|r| r.upstream).collect();
        // Files are folded whole: nothing in them can be late.
        return fold(
            p,
            &session,
            records.into_iter(),
            upstreams.len().max(1),
            false,
        );
    }
    let Some(listen) = p.opt::<String>(&flags::LISTEN) else {
        let (listen, input) = (flags::LISTEN.name, flags::INPUT.name);
        return Err(misuse(format_args!(
            "aggregate: {listen} ADDR (or {input} FILE) is required"
        )));
    };
    let upstreams: usize = p.req(&flags::UPSTREAMS);
    let config = CollectorConfig::new(upstreams as u64);
    let mut collector = Collector::<WindowState>::bind(&listen, config)
        .map_err(|e| fail(format_args!("cannot listen on {listen}: {e}")))?;
    let on = collector.local_addr();
    eprintln!("aggregating {upstreams} upstream(s) on {on}");
    let feed = collector.take_output();
    let done = fold(p, &session, feed.iter(), upstreams, true);
    print_feed_report(&collector.finish());
    done
}

/// Fold `records` from `upstreams` sources into sealed global windows and
/// hand each to the sinks; `live` seals as the frontiers move instead of
/// only at the end.
fn fold(
    p: &Parsed,
    session: &Session,
    records: impl Iterator<Item = WindowState>,
    upstreams: usize,
    live: bool,
) -> Done {
    let out = p.opt(&flags::OUT).unwrap_or_else(|| DEFAULT_OUT.into());
    let mut sinks = Sinks::from_flags(p, session, Some(out))?;
    let mut core =
        AggregatorCore::with_registry(&AggregatorConfig::new(upstreams), &Registry::global())
            .with_trace(session.ring("aggregator"));
    // With a store, sealed global windows are persisted (upstream id 0)
    // and a restart resumes the seal watermark from the last durable
    // window instead of re-sealing — records at or before it are late.
    if let Some((start, _)) = sinks.resume_point() {
        core.resume_sealed_through((start * 1e6).round() as u64);
        eprintln!("store: resumed seal watermark after window t={start}s");
    }
    // Lineage timestamps are always stamped — one clock read per record
    // keeps every sealed window's first-seen/sealed times meaningful
    // even when span tracing is off.
    let clock = SystemClock::new();
    let mut sealed = Vec::new();
    for ws in records {
        core.set_now_us(telemetry::Clock::now_us(&clock));
        if let Err(e) = core.on_state(ws) {
            eprintln!("rejected window-state record: {e}");
        }
        if live {
            core.poll(&mut sealed);
            seal_all(&mut sinks, &mut sealed)?;
        }
    }
    let report = core.finish(&mut sealed);
    seal_all(&mut sinks, &mut sealed)?;
    sinks.finish()?;
    print_aggregator_report(&report);
    Ok(())
}

/// Every record of every `--input` file, in file order.
fn read_state_files(paths: &[&str]) -> Done<Vec<WindowState>> {
    let mut records = Vec::new();
    for path in paths {
        let bytes =
            std::fs::read(path).map_err(|e| fail(format_args!("cannot read {path}: {e}")))?;
        let mut parsed = sketchwire::read_all(&bytes)
            .map_err(|e| fail(format_args!("cannot parse {path}: {e}")))?;
        records.append(&mut parsed);
    }
    Ok(records)
}

/// Hand every sealed global window to the sinks as upstream-0 records,
/// one per dataset.
fn seal_all(sinks: &mut Sinks, sealed: &mut Vec<GlobalWindow>) -> Done {
    for gw in sealed.drain(..) {
        let (start, length) = (gw.start, gw.length);
        let records = gw.datasets.into_iter().map(|topk| WindowState {
            upstream: 0,
            start,
            length,
            topk,
        });
        sinks.seal(records.collect())?;
    }
    Ok(())
}

/// Print the aggregator's semantic ledger: per-upstream record, window,
/// gap, and late counts (the transport ledger is printed separately).
fn print_aggregator_report(report: &sketchwire::AggregatorReport) {
    eprintln!(
        "aggregated {} records into {} global window(s) ({} dataset merges, {} conflicts, {} late, {} rejected)",
        report.records,
        report.windows_sealed,
        report.dataset_merges,
        report.merge_conflicts,
        report.late_records,
        report.rejected
    );
    for (id, s) in &report.upstreams {
        eprintln!(
            "  upstream {id}: {} records, {} windows, {} gap(s), {} out-of-order, {} late, {} rejected, {} merged",
            s.records, s.windows, s.window_gaps, s.out_of_order, s.late_records, s.rejected, s.merged_windows
        );
    }
}
