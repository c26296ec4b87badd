//! The `history_store` workload: build a compacted store of synthetic
//! ten-minute windows the way `dnsobs`'s seal path does, then answer a
//! seeded mix of historical queries the way `dnsobs query` does.

use crate::layers;
use crate::proc::{self, ScratchDir};
use crate::span::Spans;
use crate::workload::{query_mix, HistorySpec, Query};
use dns_observatory::synth::{key_name, renumber_truth, SynthStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// Queries generated per run; the closed loop cycles through them.
const MIX_LEN: usize = 4_096;

#[derive(Debug, Default)]
pub struct HistoryOutcome {
    /// Seconds the build of the store took: this workload's set-up.
    pub build_s: f64,
    pub windows: u64,
    pub disk_mb: f64,
    pub live_segments: usize,
    pub query_ms: Vec<f64>,
    pub queries_wall_s: f64,
    pub cpu_s: f64,
    pub over_budget: u64,
    pub errors: u64,
    pub planted: usize,
    pub recovered: usize,
    pub segments_scanned: u64,
    pub segments_total: u64,
    pub records_decoded: u64,
    pub failures: Vec<String>,
}

/// Append the whole synthetic history to an empty store at `dir`, one
/// `Store::append` + `store::compact` per window as the CLI's
/// `store_append` does.
pub fn build_store(
    spec: &HistorySpec,
    seed: u64,
    dir: &Path,
    spans: &mut Spans,
) -> Result<store::Store, String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut s = layers::store_open(spans, dir)?;
    let policy = store::CompactionPolicy::default();
    let mut stream = SynthStream::new(spec.synth(seed));
    while let Some(batch) = stream.next_window() {
        let trace_id = store::segment::window_us(batch[0].start);
        layers::store_append(spans, trace_id, &mut s, &batch)?;
        layers::store_compact(spans, trace_id, &mut s, &policy)?;
    }
    Ok(s)
}

/// Answer one query against a freshly opened store, as one `dnsobs
/// query` invocation does. Returns the planner's accounting.
pub fn answer(
    spans: &mut Spans,
    dir: &Path,
    q: &Query,
    seq: u64,
) -> Result<store::QueryStats, String> {
    let s = layers::store_open(spans, dir)?;
    match q {
        Query::History {
            key,
            from_us,
            to_us,
        } => {
            let key = key_name("aafqdn", *key);
            layers::query_history(spans, seq, &s, "aafqdn", &key, *from_us, *to_us)
                .map(|(_, stats)| stats)
        }
        Query::Renumber { from_us, to_us } => {
            layers::query_renumber(spans, seq, &s, *from_us, *to_us).map(|(_, stats)| stats)
        }
        Query::TopK { at_us } => layers::query_topk(spans, seq, &s, "esld", *at_us),
    }
}

pub fn run_history(
    spec: &HistorySpec,
    seed: u64,
    measure: Duration,
    scratch_root: &Path,
) -> Result<HistoryOutcome, String> {
    let scratch = ScratchDir::create(scratch_root, "history_store")?;
    let dir = scratch.path().join("store");
    let mut out = HistoryOutcome::default();
    let mut off = Spans::disabled();
    proc::reset_own_peak_rss();

    // Set-up: seconds of work, so one build is a steady sample.
    let started = Instant::now();
    let s = build_store(spec, seed, &dir, &mut off)?;
    out.build_s = started.elapsed().as_secs_f64();
    out.windows = (spec.days * spec.windows_per_day) as u64;
    out.disk_mb = proc::dir_bytes(&dir) as f64 / 1e6;
    out.live_segments = s.segments().len();
    drop(s);

    // Oracle: a scan of the whole range recovers every planted event.
    let truth = renumber_truth(&spec.synth(seed));
    out.planted = truth.len();
    let s = layers::store_open(&mut off, &dir)?;
    let (found, _) = layers::query_renumber(&mut off, 0, &s, 0, spec.span_us() + 1)?;
    drop(s);
    for event in &truth {
        if found
            .iter()
            .any(|c| c.key == event.key && (c.at - event.window_start).abs() < 1e-6)
        {
            out.recovered += 1;
        } else {
            out.failures.push(format!(
                "planted renumbering of {} at t={}s not recovered",
                event.key, event.window_start
            ));
        }
    }
    if found.len() != truth.len() {
        out.failures.push(format!(
            "{} renumbering events found, {} planted",
            found.len(),
            truth.len()
        ));
    }

    // Measured phase: one closed-loop client.
    let mix = query_mix(spec, seed, MIX_LEN);
    let cpu_before = proc::cpu_seconds_self_and_reaped();
    let started = Instant::now();
    let mut i = 0usize;
    while started.elapsed() < measure {
        let q = &mix[i % mix.len()];
        let t0 = Instant::now();
        match answer(&mut off, &dir, q, i as u64) {
            Ok(stats) => {
                out.segments_scanned += stats.segments_scanned as u64;
                out.segments_total += stats.segments_total as u64;
                out.records_decoded += stats.records_decoded as u64;
            }
            Err(e) => {
                out.errors += 1;
                if out.errors == 1 {
                    out.failures.push(format!("query {q:?} failed: {e}"));
                }
            }
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if ms > spec.budget_ms {
            out.over_budget += 1;
        }
        out.query_ms.push(ms);
        i += 1;
    }
    out.queries_wall_s = started.elapsed().as_secs_f64();
    out.cpu_s = proc::cpu_seconds_self_and_reaped() - cpu_before;
    Ok(out)
}
