//! Store-crash fault axis: kill the compactor at a seeded filesystem
//! operation and check the recovery differential.
//!
//! The historical store's crash-safety argument is an ordering argument:
//! every compaction writes the rolled segment to a tmp file, renames it
//! into place, swaps the manifest (the commit point), and only then
//! unlinks its inputs. A crash at *any* op therefore leaves the store in
//! either the pre-compaction or the post-compaction view — and both fold
//! to the same sketch state. This module turns that argument into a
//! machine-checked differential, in the same spirit as [`crate::oracle`]:
//!
//! 1. run the workload against a durable [`store::CrashFs`] once to learn
//!    the total op count ([`learn_ops`]);
//! 2. for each seed, expand a [`store::CrashPlan`] over that op range —
//!    covering "after segment write", "before manifest swap", and
//!    "mid-footer" torn writes — crash the compactor there, re-open the
//!    store, and compare the recovered fold against the fold of the raw
//!    appended states ([`run_seed`]).
//!
//! Any divergence is typed ([`StoreDivergence`]), never a panic, and the
//! recovery sweep must *ledger* what it deletes: tmp files and orphans
//! show up in the [`store::RecoveryReport`], silent drops show up as a
//! fold divergence.

use sketchwire::{FeatureState, TopKEntry, TopKState, TopValuesState, WindowState};
use std::collections::BTreeMap;
use std::path::Path;
use store::{
    compact, compact_with, fold_states, CompactionPolicy, CrashFs, CrashPlan, Store, StoreError,
};

/// Window length of the synthetic workload, seconds.
pub const WINDOW_SECS: f64 = 600.0;

/// What one seeded crash-and-recover run did. Every count in here is a
/// test obligation: `fired` proves the fault actually triggered,
/// `swept_tmp`/`swept_orphans` prove deletions were ledgered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreCrashOutcome {
    /// The expanded crash point.
    pub plan: CrashPlan,
    /// Whether the planned crash fired (it must — the plan is drawn from
    /// the learned op range).
    pub fired: bool,
    /// Tmp files the recovery sweep removed (ledgered, at most the one
    /// in-flight write).
    pub swept_tmp: usize,
    /// Unreferenced segments the sweep removed (ledgered; a crash while
    /// unlinking a rolled bucket's inputs can leave several).
    pub swept_orphans: usize,
    /// Segments rolled by the post-recovery resume compaction.
    pub resumed_inputs: usize,
}

/// A conservation violation found by the store-crash differential.
#[derive(Debug)]
pub enum StoreDivergence {
    /// The store failed outside the planned crash point.
    Store(StoreError),
    /// The faulted compaction finished without crashing — the plan was
    /// drawn from the learned op range, so the axis injected nothing.
    NeverFired,
    /// The watermark frontier moved across crash + recovery.
    WatermarkMoved {
        /// Watermark before the crash, µs.
        before: Option<u64>,
        /// Watermark after recovery, µs.
        after: Option<u64>,
    },
    /// The recovered store's fold differs from the fold of the raw
    /// appended states — data was lost or invented.
    FoldDiverged {
        /// When the divergence was observed.
        when: &'static str,
        /// Dataset that diverged (or "<datasets>" for a key-set mismatch).
        dataset: String,
    },
}

impl std::fmt::Display for StoreDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreDivergence::Store(e) => write!(f, "store error: {e}"),
            StoreDivergence::NeverFired => write!(f, "planned crash never fired"),
            StoreDivergence::WatermarkMoved { before, after } => {
                write!(f, "frontier moved across recovery: {before:?} -> {after:?}")
            }
            StoreDivergence::FoldDiverged { when, dataset } => {
                write!(f, "fold diverged {when} for dataset {dataset}")
            }
        }
    }
}

impl From<StoreError> for StoreDivergence {
    fn from(e: StoreError) -> StoreDivergence {
        StoreDivergence::Store(e)
    }
}

fn feature_state(seed: u64, hits: u64) -> FeatureState {
    FeatureState {
        adds: vec![hits, seed % 3],
        maxes: vec![seed % 5],
        hlls: vec![],
        source_cap: 8,
        sources: vec![(seed % 100) as u16],
        tops: vec![TopValuesState {
            capacity: 4,
            observed: hits,
            slots: vec![(60 * (1 + seed % 4), hits)],
        }],
        hists: vec![],
    }
}

/// Deterministic workload: `windows` consecutive 10-minute windows of
/// cumulative Space-Saving exports over `keys` keys in `datasets`,
/// batched one append per window — the same shape `dnsobs collect
/// --store` persists. Counts are cumulative across windows (like live
/// tracker exports); the exact per-window delta rides in
/// `features.adds[0]`.
pub fn workload(windows: usize, keys: usize, datasets: &[&str]) -> Vec<Vec<WindowState>> {
    let mut counts = vec![0u64; keys];
    (0..windows)
        .map(|w| {
            let mut window_hits = 0;
            for (k, c) in counts.iter_mut().enumerate() {
                let delta = 5 + ((k + w) % 7) as u64;
                *c += delta;
                window_hits += delta;
            }
            let observed: u64 = counts.iter().sum();
            datasets
                .iter()
                .map(|dataset| WindowState {
                    upstream: 1,
                    start: w as f64 * WINDOW_SECS,
                    length: WINDOW_SECS,
                    topk: TopKState {
                        dataset: dataset.to_string(),
                        capacity: 16,
                        observed,
                        min_count: 0,
                        error_bound: observed / 16,
                        evictions: 0,
                        kept: window_hits,
                        dropped: 0,
                        filtered: 0,
                        chunk: 0,
                        chunks: 1,
                        entries: (0..keys)
                            .map(|k| TopKEntry {
                                key: format!("k{k:02}"),
                                count: counts[k],
                                error: 0,
                                inserted_at: 0.0,
                                features: feature_state(
                                    ((k as u64) << 8) | (w as u64 & 0xff),
                                    5 + ((k + w) % 7) as u64,
                                ),
                            })
                            .collect(),
                        gate: None,
                    },
                })
                .collect()
        })
        .collect()
}

/// Fold everything durable in `s` into one state per dataset — the
/// canonical fold compaction must preserve.
pub fn store_fold(s: &Store) -> Result<BTreeMap<String, TopKState>, StoreError> {
    let mut all = Vec::new();
    for meta in s.segments().to_vec() {
        let (_, states) = s.read_segment(&meta)?;
        all.extend(states);
    }
    fold_states(all).map_err(|e| StoreError::Merge {
        context: "chaos store fold".to_string(),
        source: e,
    })
}

fn fresh_store(dir: &Path, batches: &[Vec<WindowState>]) -> Result<Store, StoreError> {
    let _ = std::fs::remove_dir_all(dir);
    let (mut s, _) = Store::open(dir)?;
    for batch in batches {
        s.append(batch)?;
    }
    Ok(s)
}

/// Run the workload once against a durable filesystem and return the
/// total filesystem op count of a full compaction — the op range crash
/// plans are drawn from.
pub fn learn_ops(
    batches: &[Vec<WindowState>],
    policy: &CompactionPolicy,
    scratch: &Path,
) -> Result<u64, StoreError> {
    let mut s = fresh_store(scratch, batches)?;
    let mut fs = CrashFs::durable();
    compact_with(&mut s, policy, &mut fs)?;
    Ok(fs.ops())
}

/// One seeded crash-and-recover differential:
///
/// append the workload, crash the compactor at the seed's op, re-open
/// the store (process death discards the in-memory handle), and check
/// that the watermark frontier is preserved and the recovered fold —
/// and the fold after a clean resume compaction — equal the fold of the
/// raw appended states.
pub fn run_seed(
    seed: u64,
    batches: &[Vec<WindowState>],
    policy: &CompactionPolicy,
    max_ops: u64,
    scratch: &Path,
) -> Result<StoreCrashOutcome, StoreDivergence> {
    let flat: Vec<WindowState> = batches.iter().flatten().cloned().collect();
    let reference = fold_states(flat).map_err(|e| StoreError::Merge {
        context: "chaos reference fold".to_string(),
        source: e,
    })?;

    let mut s = fresh_store(scratch, batches)?;
    let frontier_before = s.frontier_us();
    let plan = CrashPlan::from_seed(seed, max_ops);
    let mut fs = CrashFs::with_plan(plan);
    match compact_with(&mut s, policy, &mut fs) {
        Ok(_) => return Err(StoreDivergence::NeverFired),
        Err(StoreError::Crashed) => {}
        Err(e) => return Err(e.into()),
    }
    if !fs.fired() {
        return Err(StoreDivergence::NeverFired);
    }
    // The process died: the poisoned in-memory handle is gone. Everything
    // from here on works off what the filesystem retained.
    drop(s);

    let (mut recovered, report) = Store::open(scratch)?;
    if recovered.frontier_us() != frontier_before {
        return Err(StoreDivergence::WatermarkMoved {
            before: frontier_before,
            after: recovered.frontier_us(),
        });
    }
    check_fold("after recovery", &store_fold(&recovered)?, &reference)?;

    // The restarted compactor must be able to pick up where the dead one
    // left off — and still preserve the fold.
    let resumed = compact(&mut recovered, policy)?;
    check_fold(
        "after resumed compaction",
        &store_fold(&recovered)?,
        &reference,
    )?;

    Ok(StoreCrashOutcome {
        plan,
        fired: true,
        swept_tmp: report.removed_tmp.len(),
        swept_orphans: report.removed_orphans.len(),
        resumed_inputs: resumed.inputs(),
    })
}

fn check_fold(
    when: &'static str,
    got: &BTreeMap<String, TopKState>,
    want: &BTreeMap<String, TopKState>,
) -> Result<(), StoreDivergence> {
    if got.keys().ne(want.keys()) {
        return Err(StoreDivergence::FoldDiverged {
            when,
            dataset: "<datasets>".to_string(),
        });
    }
    for (dataset, state) in want {
        if got.get(dataset) != Some(state) {
            return Err(StoreDivergence::FoldDiverged {
                when,
                dataset: dataset.clone(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic() {
        let a = workload(5, 3, &["esld"]);
        let b = workload(5, 3, &["esld"]);
        assert_eq!(a.len(), 5);
        assert_eq!(a, b);
        // Cumulative counts never decrease window to window.
        for w in 1..a.len() {
            for k in 0..3 {
                assert!(a[w][0].topk.entries[k].count > a[w - 1][0].topk.entries[k].count);
            }
        }
    }

    #[test]
    fn plans_cover_distinct_ops() {
        let max_ops = 40;
        let ops: std::collections::BTreeSet<u64> = (0..64)
            .map(|seed| CrashPlan::from_seed(seed, max_ops).crash_at_op)
            .collect();
        // 64 seeds over 40 ops must hit a broad spread of crash points,
        // or the axis is not actually sweeping the op space.
        assert!(ops.len() > 20, "only {} distinct crash ops", ops.len());
    }
}
