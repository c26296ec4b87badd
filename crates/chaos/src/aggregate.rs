//! The federated tier's differential check.
//!
//! Forwarding collectors' uplink streams — window-state records, each
//! closed window followed by a "closed through" watermark — ship through
//! the seeded faulty transport; whatever survives drives the real
//! `AggregatorCore`, which seals live as the watermarks arrive. The
//! reference is an independent fold of the predicted survivor records
//! with `merge_chunks`/`merge_topk` directly. The fault schedule plus
//! ground truth fully determine the global view:
//!
//! * each upstream's delivery equals the transport oracle's prediction;
//! * the sealed windows equal the reference fold of every survivor record
//!   except those the aggregator ledgered late (a record for a window it
//!   had already sealed) — so a window sealed too early is either
//!   accounted or a divergence, never silent;
//! * every sealed dataset states its error bound as the sum of the
//!   contributing upstreams' bounds, and no entry's error exceeds it;
//! * chunk loss is accounted: each (upstream, window, dataset) group with
//!   missing chunks is one merge conflict, never a silent merge.

use std::collections::BTreeMap;
use std::sync::Arc;

use feed::SensorConfig;
use sketchwire::{
    merge_chunks, merge_topk, AggregatorConfig, AggregatorCore, TopKState, Uplink, WindowState,
};

use crate::fault::{plans_for, FaultProfile, Rng};
use crate::harness::{run, SensorInput};
use crate::oracle::{check, predicted_streams};

/// What one passing run saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AggregateRun {
    /// Records the upstreams pushed.
    pub records: u64,
    /// Records the transport delivered.
    pub delivered: u64,
    /// Watermarks the transport delivered.
    pub watermarks: u64,
    /// Groups with missing chunks (merge conflicts).
    pub conflicts: u64,
    /// Records ledgered late by the aggregator.
    pub late: u64,
    /// Windows sealed.
    pub sealed: u64,
    /// Windows sealed while the feed was still running, not by `finish`.
    pub sealed_live: u64,
}

/// An upstream's uplink stream: after the records of each window its fold
/// closed, the watermark through the window it has open (the end of the
/// last window at the end of the feed) — what a forwarding collector
/// sends. `batches` are the record batches the fold emitted, each with
/// the start of the window then open.
pub fn uplink_stream(upstream: u64, batches: Vec<(Vec<WindowState>, f64)>) -> Vec<Uplink> {
    let mut out = Vec::new();
    for (records, through) in batches.into_iter().filter(|(r, _)| !r.is_empty()) {
        out.extend(records.into_iter().map(|ws| Uplink::State(Arc::new(ws))));
        out.push(Uplink::Closed { upstream, through });
    }
    out
}

/// Lose, duplicate and reorder watermarks (seeded), on top of what the
/// faulty wire does: drop some, send some twice, and re-send some one
/// window later, behind the upstream's newer watermark. The last
/// watermark of a stream is kept, so a lossless run seals every window
/// live.
pub fn perturb_watermarks(seed: u64, stream: Vec<Uplink>) -> Vec<Uplink> {
    let mut rng = Rng::new(seed ^ 0x5741_5445_524d_4b53);
    let last = stream
        .iter()
        .rposition(|item| matches!(item, Uplink::Closed { .. }));
    let mut out = Vec::with_capacity(stream.len());
    let mut stale: Option<Uplink> = None;
    for (i, item) in stream.into_iter().enumerate() {
        if !matches!(item, Uplink::Closed { .. }) {
            out.push(item);
            continue;
        }
        if Some(i) != last && rng.chance(0.2) {
            continue;
        }
        out.push(item.clone());
        if let Some(old) = stale.take() {
            out.push(old);
        }
        if rng.chance(0.2) {
            out.push(item.clone());
        }
        if rng.chance(0.3) {
            stale = Some(item);
        }
    }
    out
}

/// The chaos inputs that ship `streams` (indexed by upstream id) through
/// `profile`'s faults for `seed`.
pub fn uplink_inputs(
    seed: u64,
    profile: &FaultProfile,
    streams: &[Vec<Uplink>],
) -> Vec<SensorInput<Uplink>> {
    let plans = plans_for(seed, streams.len() as u64, profile);
    (streams.iter().zip(plans).enumerate())
        .map(|(u, (items, plan))| {
            let mut config = SensorConfig::new(u as u64);
            // One item per frame: faults land on record and watermark
            // boundaries, so a watermark can be lost, or overtake the
            // records before it, on its own. The buffer must ride out
            // injected stalls (records burst at window boundaries), so
            // loss comes from the *wire* faults — resets and corruption —
            // not from a starved send queue.
            config.batch_items = 1;
            config.buffer_frames = 256;
            config.backoff.seed = seed.wrapping_mul(31).wrapping_add(u as u64);
            config.backoff.base_ms = 2;
            config.backoff.max_ms = 40;
            SensorInput {
                config,
                items: items.clone(),
                plan,
            }
        })
        .collect()
}

/// Ship `streams` (indexed by upstream id) through `profile`'s faults for
/// `seed`, aggregate what survives live, and judge it (see the module
/// docs). `Err` names the first violated clause.
pub fn run_aggregate(
    seed: u64,
    profile: &FaultProfile,
    streams: &[Vec<Uplink>],
) -> Result<AggregateRun, String> {
    let upstreams = streams.len();
    let outcome = run(uplink_inputs(seed, profile, streams));
    check(&outcome).map_err(|d| format!("transport diverged: {d}"))?;

    let mut core = AggregatorCore::new(&AggregatorConfig::new(upstreams));
    let (mut sealed, mut late) = (Vec::new(), Vec::new());
    let mut watermarks = 0u64;
    for item in outcome.delivered.iter().cloned() {
        let late_before = core.report().late_records;
        let record = match &item {
            Uplink::State(ws) => Some(ws.clone()),
            Uplink::Closed { .. } => None,
        };
        watermarks += u64::from(record.is_none());
        core.on_uplink(item)
            .map_err(|e| format!("aggregator rejected a survivor record: {e}"))?;
        if core.report().late_records > late_before {
            late.push(record.ok_or("a watermark was ledgered late")?);
        }
        core.poll(&mut sealed);
    }
    let sealed_live = sealed.len() as u64;
    let report = core.finish(&mut sealed);

    // Every survivor record the aggregator did not ledger late.
    let mut survivors: Vec<Arc<WindowState>> = (predicted_streams(&outcome).into_values())
        .flatten()
        .filter_map(|item| match item {
            Uplink::State(ws) => Some(ws),
            Uplink::Closed { .. } => None,
        })
        .collect();
    let delivered = survivors.len() as u64;
    for ws in &late {
        let at = (survivors.iter().position(|s| s == ws))
            .ok_or("a record ledgered late is no survivor")?;
        survivors.remove(at);
    }
    if report.late_records != late.len() as u64 {
        return Err(format!(
            "aggregator ledgered {} late records, {} seen going late",
            report.late_records,
            late.len()
        ));
    }

    let (want, conflicts) = reference_merge(&survivors);
    if sealed.len() != want.len() {
        return Err(format!(
            "sealed {} windows, reference has {}",
            sealed.len(),
            want.len()
        ));
    }
    for (gw, rw) in sealed.iter().zip(&want) {
        let start = rw.start;
        if gw.start != rw.start || gw.upstreams != rw.upstreams {
            return Err(format!("window @{start}: contributors diverged"));
        }
        if gw.datasets != rw.datasets {
            return Err(format!(
                "window @{start}: merged state diverged (sealed before a record that is not ledgered late?)"
            ));
        }
        for state in &gw.datasets {
            let want_bound = rw.bound_sums[&state.dataset];
            if state.error_bound != want_bound {
                return Err(format!(
                    "window @{start} {}: stated bound {} != sum of contributing bounds {want_bound}",
                    state.dataset, state.error_bound
                ));
            }
            if state.max_entry_error() > state.error_bound {
                return Err(format!(
                    "window @{start} {}: entry error exceeds the stated bound",
                    state.dataset
                ));
            }
        }
    }
    if report.merge_conflicts != conflicts {
        return Err(format!(
            "aggregator counted {} merge conflicts, reference predicts {conflicts}",
            report.merge_conflicts
        ));
    }
    let records = (streams.iter().flatten())
        .filter(|item| matches!(item, Uplink::State(_)))
        .count() as u64;
    let result = AggregateRun {
        records,
        delivered,
        watermarks,
        conflicts,
        late: late.len() as u64,
        sealed: sealed.len() as u64,
        sealed_live,
    };
    if profile.name == "lossless" {
        let whole = delivered == records && conflicts == 0 && result.late == 0;
        if !whole || sealed_live != result.sealed {
            return Err(format!(
                "lossless schedule lost, conflicted or held back: {result:?}"
            ));
        }
    }
    Ok(result)
}

/// Per-window expectation from the independent reference fold.
struct RefWindow {
    start: f64,
    upstreams: Vec<u64>,
    datasets: Vec<TopKState>,
    /// Per dataset, the sum of the contributing upstreams' error bounds
    /// — what the sealed state must *state* as its bound.
    bound_sums: BTreeMap<String, u64>,
}

/// Fold the survivor records with the sketchwire merge primitives
/// directly, mirroring the aggregator's documented policy (chunks
/// reassembled per upstream; a group with missing chunks is skipped and
/// counted; upstreams merged in ascending id order). Returns the windows
/// and the predicted merge-conflict count.
fn reference_merge(survivors: &[Arc<WindowState>]) -> (Vec<RefWindow>, u64) {
    type Sources = BTreeMap<u64, BTreeMap<String, Vec<TopKState>>>;
    let mut windows: BTreeMap<u64, (f64, Sources)> = BTreeMap::new();
    for ws in survivors {
        let us = (ws.start * 1e6).round() as u64;
        let entry = windows.entry(us).or_insert((ws.start, BTreeMap::new()));
        entry
            .1
            .entry(ws.upstream)
            .or_default()
            .entry(ws.topk.dataset.clone())
            .or_default()
            .push(ws.topk.clone());
    }
    let mut conflicts = 0u64;
    let out = windows
        .into_values()
        .map(|(start, sources)| {
            let mut by_dataset: BTreeMap<String, TopKState> = BTreeMap::new();
            let mut bound_sums: BTreeMap<String, u64> = BTreeMap::new();
            let mut upstreams = Vec::new();
            for (upstream, datasets) in sources {
                let mut contributed = false;
                for (name, parts) in datasets {
                    let Ok(assembled) = merge_chunks(&parts) else {
                        conflicts += 1;
                        continue;
                    };
                    *bound_sums.entry(name.clone()).or_default() += assembled.error_bound;
                    let merged = match by_dataset.remove(&name) {
                        None => assembled,
                        Some(current) => {
                            merge_topk(&current, &assembled).expect("identical layouts merge")
                        }
                    };
                    by_dataset.insert(name, merged);
                    contributed = true;
                }
                if contributed {
                    upstreams.push(upstream);
                }
            }
            RefWindow {
                start,
                upstreams,
                datasets: by_dataset.into_values().collect(),
                bound_sums,
            }
        })
        .collect();
    (out, conflicts)
}
