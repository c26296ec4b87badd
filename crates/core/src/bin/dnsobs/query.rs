//! `query`: answer historical questions from a `--store` directory —
//! footer indexes plus merged sketch state, never raw transactions.
//! Every answer states the merged Space-Saving error bound it carries.

use crate::flags::{self, Flag, Parsed};
use crate::session::{load_store, store_failed};
use crate::{fail, Done};
use dns_observatory::analysis::ttl::{detect_changes, ChangeCategory};
use dns_observatory::{render_state, WindowDump};
use std::path::PathBuf;
use std::time::Instant;
use store::query::{history, topk_at, windows_in};
use store::{QueryStats, Store, StoreError};

/// A `--flag SECS` time as integer microseconds.
fn secs_us(p: &Parsed, flag: &Flag) -> Option<u64> {
    p.opt::<f64>(flag).map(|s| (s * 1e6).round() as u64)
}

pub fn query(p: &Parsed, kind: &str) -> Done {
    let started = Instant::now();
    let store = load_store(&p.req::<PathBuf>(&flags::STORE))?;
    let t0_us = secs_us(p, &flags::FROM).unwrap_or(0);
    let t1_us = secs_us(p, &flags::TO)
        .or_else(|| store.frontier_us().map(|f| f.saturating_add(1)))
        .unwrap_or(u64::MAX);
    let dataset: String = p.req(&flags::DATASET);
    let stats = match kind {
        "history" => history_of(p, &store, &dataset, t0_us, t1_us),
        "renumber" => renumberings(&store, &dataset, t0_us, t1_us),
        _ => topk(p, &store, &dataset),
    }?;
    println!(
        "answered in {:.2} ms ({} of {} segment(s) scanned, {} record(s) decoded; pruned {} time, {} dataset, {} bloom)",
        started.elapsed().as_secs_f64() * 1e3,
        stats.segments_scanned,
        stats.segments_total,
        stats.records_decoded,
        stats.pruned_time,
        stats.pruned_dataset,
        stats.pruned_bloom
    );
    Ok(())
}

fn failed(e: StoreError) -> i32 {
    store_failed("query failed", &e)
}

fn history_of(
    p: &Parsed,
    store: &Store,
    dataset: &str,
    t0_us: u64,
    t1_us: u64,
) -> Done<QueryStats> {
    let key: String = p.req(&flags::KEY);
    let (points, total_bound, stats) =
        history(store, dataset, &key, t0_us, t1_us).map_err(failed)?;
    println!(
        "history of {key:?} in {dataset} over [{}s, {}s): {} window(s)",
        t0_us as f64 / 1e6,
        t1_us as f64 / 1e6,
        points.len()
    );
    for p in &points {
        println!(
            "  t={:>12.0}s len={:>7.0}s level={} hits={:<10} count<={} (err<={}) window-bound={}",
            p.start, p.length, p.level, p.hits, p.count, p.error, p.error_bound
        );
    }
    let hits: u64 = points.iter().map(|p| p.hits).sum();
    println!("exact hits (feature counters, sum of per-window deltas): {hits}");
    println!(
        "merged Space-Saving error bound: {total_bound} (sum over {} window(s))",
        points.len()
    );
    Ok(stats)
}

fn renumberings(store: &Store, dataset: &str, t0_us: u64, t1_us: u64) -> Done<QueryStats> {
    let (groups, stats) = windows_in(store, dataset, t0_us, t1_us, None).map_err(failed)?;
    let mut dumps = Vec::new();
    let mut total_bound = 0u64;
    for g in &groups {
        total_bound = total_bound.saturating_add(g.state.error_bound);
        match render_state(&g.state, g.start, g.length) {
            Ok(d) => dumps.push(d),
            Err(e) => {
                return Err(fail(format_args!(
                    "window t={}s does not render: {e}",
                    g.start
                )))
            }
        }
    }
    let refs: Vec<&WindowDump> = dumps.iter().collect();
    let changes = detect_changes(&refs);
    let renumberings: Vec<_> = changes
        .iter()
        .filter(|c| c.category == ChangeCategory::Renumbering)
        .collect();
    println!(
        "renumbering events in [{}s, {}s): {}",
        t0_us as f64 / 1e6,
        t1_us as f64 / 1e6,
        renumberings.len()
    );
    for c in &renumberings {
        println!(
            "  t={:>12.0}s {:<40} A-TTL {} -> {}",
            c.at, c.key, c.ttl_before, c.ttl_after
        );
    }
    println!(
        "inspected {} window(s) of {dataset}; merged Space-Saving error bound: {total_bound}",
        groups.len()
    );
    Ok(stats)
}

fn topk(p: &Parsed, store: &Store, dataset: &str) -> Done<QueryStats> {
    let at_us = secs_us(p, &flags::AT).expect("the row requires it");
    let n: usize = p.req(&flags::N);
    let (group, stats) = topk_at(store, dataset, at_us).map_err(failed)?;
    let Some(g) = group else {
        println!("no {dataset} window covers t={}s", at_us as f64 / 1e6);
        return Ok(stats);
    };
    // adds[0] is `hits`: per-window traffic, not the cumulative count.
    let hits_of = |e: &sketchwire::TopKEntry| e.features.adds.first().copied().unwrap_or(0);
    let mut rows: Vec<_> = g.state.entries.iter().collect();
    rows.sort_by(|a, b| hits_of(b).cmp(&hits_of(a)).then(a.key.cmp(&b.key)));
    println!(
        "top-{n} of {dataset} at t={}s (window t={}s len={}s, level {}):",
        at_us as f64 / 1e6,
        g.start,
        g.length,
        g.level
    );
    println!(
        "{:<40} {:>10} {:>12} {:>8}",
        "key", "hits", "count<=", "err<="
    );
    for e in rows.into_iter().take(n) {
        println!(
            "{:<40} {:>10} {:>12} {:>8}",
            e.key,
            hits_of(e),
            e.count,
            e.error
        );
    }
    println!(
        "merged Space-Saving error bound: {} (observed {}, capacity {})",
        g.state.error_bound, g.state.observed, g.state.capacity
    );
    Ok(stats)
}
