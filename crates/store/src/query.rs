//! Query planning and sketch-state folding over the store.
//!
//! Queries answer from two index tiers before touching any record body:
//! the manifest's per-segment time ranges, then the footer's dataset
//! list and key bloom. Only segments that survive both prunes are
//! decoded. All folding goes through the same `sketchwire` merge
//! operators the compactor uses, so a query over mixed granularities
//! (10-min level-0 tail + hourly/daily/monthly rollups) is exact with a
//! stated bound: per-window feature counters are exact sums, and each
//! window's Space-Saving `error_bound` is the sum of whatever inputs
//! were merged into it, at any compaction level.

use crate::store::Store;
use crate::StoreError;
use sketchwire::{merge_chunks, merge_topk_into, StateError, TopKState, WindowState};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Query-planner accounting: what was pruned where. `dnsobs query`
/// prints this so "answered in 3 ms" is auditable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Live segments in the manifest.
    pub segments_total: usize,
    /// Skipped on the manifest time range alone.
    pub pruned_time: usize,
    /// Skipped because the footer lacks the dataset.
    pub pruned_dataset: usize,
    /// Skipped because the footer bloom excludes the key.
    pub pruned_bloom: usize,
    /// Segments whose record body was decoded.
    pub segments_scanned: usize,
    /// Records decoded across scanned segments.
    pub records_decoded: usize,
}

/// One window of one dataset, chunk-reassembled and upstream-merged.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowGroup {
    /// Window start, seconds.
    pub start: f64,
    /// Window length, seconds.
    pub length: f64,
    /// Compaction level of the segment this window came from.
    pub level: u8,
    /// The merged sketch state.
    pub state: TopKState,
}

/// One point in an object's history.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryPoint {
    /// Window start, seconds.
    pub start: f64,
    /// Window length, seconds.
    pub length: f64,
    /// Compaction level the point was answered from.
    pub level: u8,
    /// Space-Saving count (an upper bound on the true count).
    pub count: u64,
    /// Maximum overestimation of `count`.
    pub error: u64,
    /// Exact per-window hits from the feature counters.
    pub hits: u64,
    /// The window's stated Space-Saving error bound.
    pub error_bound: u64,
}

/// Reassemble chunked records and fold everything into one state per
/// dataset. This is the canonical fold: the compactor applies it per
/// bucket, queries per window, and the chaos differential applies it to
/// the *entire* store versus the original appended states — compaction
/// must not change its result.
///
/// Duplicate (window, upstream, dataset, chunk) records are a chunk
/// conflict, so an accidentally double-appended window is a typed error,
/// never a silent double count.
pub fn fold_states(states: &[WindowState]) -> Result<BTreeMap<String, TopKState>, StateError> {
    // (dataset, window_us, upstream) → chunks.
    let mut groups: BTreeMap<(String, u64, u64), Vec<&WindowState>> = BTreeMap::new();
    for ws in states {
        groups
            .entry((
                ws.topk.dataset.clone(),
                crate::segment::window_us(ws.start),
                ws.upstream,
            ))
            .or_default()
            .push(ws);
    }
    let mut folded: BTreeMap<String, TopKState> = BTreeMap::new();
    for ((dataset, _, _), group) in groups {
        let parts: Vec<&TopKState> = group.iter().map(|ws| &ws.topk).collect();
        let assembled = merge_chunks(&parts)?;
        match folded.entry(dataset) {
            Entry::Vacant(slot) => {
                slot.insert(assembled);
            }
            Entry::Occupied(mut acc) => merge_topk_into(acc.get_mut(), assembled)?,
        }
    }
    Ok(folded)
}

/// All windows of `dataset` intersecting `[t0_us, t1_us)`, each
/// chunk-reassembled and merged across upstreams. `key` (canonical key
/// bytes) additionally prunes segments through the footer blooms.
pub fn windows_in(
    store: &Store,
    dataset: &str,
    t0_us: u64,
    t1_us: u64,
    key: Option<&[u8]>,
) -> Result<(Vec<WindowGroup>, QueryStats), StoreError> {
    let mut stats = QueryStats {
        segments_total: store.segments().len(),
        ..QueryStats::default()
    };
    // window_us → (length, level, states)
    let mut windows: BTreeMap<u64, (f64, u8, Vec<WindowState>)> = BTreeMap::new();
    for meta in store.segments() {
        if meta.end_us <= t0_us || meta.start_us >= t1_us {
            stats.pruned_time += 1;
            continue;
        }
        let footer = store.read_footer(meta)?;
        if !footer.datasets.iter().any(|d| d == dataset) {
            stats.pruned_dataset += 1;
            continue;
        }
        if let Some(key) = key {
            if !footer.bloom.maybe_contains(key) {
                stats.pruned_bloom += 1;
                continue;
            }
        }
        let (_, states) = store.read_segment(meta)?;
        stats.segments_scanned += 1;
        stats.records_decoded += states.len();
        for ws in states {
            if ws.topk.dataset != dataset {
                continue;
            }
            let w_us = crate::segment::window_us(ws.start);
            let end_us = crate::segment::window_us(ws.start + ws.length);
            if end_us <= t0_us || w_us >= t1_us {
                continue;
            }
            windows
                .entry(w_us)
                .or_insert_with(|| (ws.length, meta.level, Vec::new()))
                .2
                .push(ws);
        }
    }
    let mut out = Vec::with_capacity(windows.len());
    for (w_us, (length, level, states)) in windows {
        let mut folded = fold_states(&states).map_err(|source| StoreError::Merge {
            context: format!("window {w_us} of {dataset}"),
            source,
        })?;
        let Some(state) = folded.remove(dataset) else {
            continue;
        };
        out.push(WindowGroup {
            start: w_us as f64 / 1e6,
            length,
            level,
            state,
        });
    }
    Ok((out, stats))
}

/// History of one object: its per-window presence over `[t0_us, t1_us)`,
/// plus the summed error bound over every window the object appears in.
pub fn history(
    store: &Store,
    dataset: &str,
    key: &str,
    t0_us: u64,
    t1_us: u64,
) -> Result<(Vec<HistoryPoint>, u64, QueryStats), StoreError> {
    let (groups, stats) = windows_in(store, dataset, t0_us, t1_us, Some(key.as_bytes()))?;
    let mut points = Vec::new();
    let mut total_bound = 0u64;
    for g in groups {
        let Some(e) = g.state.entries.iter().find(|e| e.key == key) else {
            continue;
        };
        total_bound = total_bound.saturating_add(g.state.error_bound);
        points.push(HistoryPoint {
            start: g.start,
            length: g.length,
            level: g.level,
            count: e.count,
            error: e.error,
            hits: e.features.adds.first().copied().unwrap_or(0),
            error_bound: g.state.error_bound,
        });
    }
    Ok((points, total_bound, stats))
}

/// The window of `dataset` covering instant `at_us`, if any.
pub fn topk_at(
    store: &Store,
    dataset: &str,
    at_us: u64,
) -> Result<(Option<WindowGroup>, QueryStats), StoreError> {
    let (groups, stats) = windows_in(store, dataset, at_us, at_us.saturating_add(1), None)?;
    // Multiple levels never cover the same instant (compaction unlinks
    // its inputs), but prefer the finest if a torn store disagrees.
    let best = groups.into_iter().min_by_key(|g| g.level);
    Ok((best, stats))
}
