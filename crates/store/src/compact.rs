//! Merge-based compaction up the hour/day/month hierarchy.
//!
//! The compactor never re-scans raw transactions: a coarser window is
//! the `sketchwire` merge of its finer inputs' serialized sketch state
//! (`assemble_chunks` to reassemble, `merge_topk`/`merge_features` to
//! fold, all by move through [`fold_states`]), so per-window feature counters sum exactly and the stated
//! Space-Saving error bound of every rolled window is the *sum* of its
//! inputs' bounds — conservative at every level, never understated.
//!
//! One [`compact`] call runs the target levels in ascending order
//! (hour, then day, then month), so fresh hourly output feeds the daily
//! pass in the same call. A bucket is rolled only when it is *ripe*:
//! its end lies strictly behind the store frontier. Strictness is what
//! guarantees the newest level-0 window — the crash-recovery resume
//! point — is never folded into a coarser segment.
//!
//! Every filesystem mutation goes through a [`CrashFs`], the injection
//! surface of the kill-mid-compaction chaos axis: a seeded [`CrashPlan`]
//! kills the compactor at an exact syscall (optionally mid-write, so a
//! torn segment or manifest temp file lands on disk). The write-temp →
//! rename → manifest-swap → unlink-inputs order makes every crash point
//! recoverable: the store reopens as either the pre- or post-compaction
//! view, both of which fold to the same global state.

use crate::query::fold_states;
use crate::store::Store;
use crate::StoreError;
use sketchwire::WindowState;
use std::collections::BTreeMap;
use std::path::Path;
use telemetry::trace::TraceKind;

/// Compaction hierarchy: `spans_us[i]` is the bucket span of target
/// level `i + 1`. Level 0 is whatever the collector appended.
#[derive(Debug, Clone)]
pub struct CompactionPolicy {
    /// Bucket spans (µs) for levels 1.., ascending.
    pub spans_us: Vec<u64>,
}

impl Default for CompactionPolicy {
    /// The paper's hierarchy: hour, day, 30-day month.
    fn default() -> CompactionPolicy {
        CompactionPolicy {
            spans_us: vec![3_600_000_000, 86_400_000_000, 30 * 86_400_000_000],
        }
    }
}

/// One rolled bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RolledBucket {
    /// Target level the bucket was rolled to.
    pub level: u8,
    /// Bucket start, µs.
    pub start_us: u64,
    /// Input segments merged away.
    pub inputs: usize,
}

/// What one [`compact`] call did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Buckets rolled, in execution order.
    pub rolled: Vec<RolledBucket>,
}

impl CompactionReport {
    /// Total input segments merged away.
    pub fn inputs(&self) -> usize {
        self.rolled.iter().map(|r| r.inputs).sum()
    }
}

/// A seeded crash point: kill the process (well, the operation) at
/// filesystem op number `crash_at_op`, writing only `partial_millis`/1000
/// of the bytes when that op is a write — so the fault set covers
/// "after segment write", "before manifest swap", and "mid-footer".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Zero-based filesystem op index to crash at.
    pub crash_at_op: u64,
    /// Thousandths of the crashing write actually flushed (0..=1000).
    pub partial_millis: u32,
}

impl CrashPlan {
    /// Expand a schedule seed into a crash point within `max_ops`
    /// filesystem operations (learned from an unfaulted reference run).
    /// The mixing constant keeps this axis' schedules decorrelated from
    /// the other chaos axes even when a sweep reuses seed values.
    pub fn from_seed(seed: u64, max_ops: u64) -> CrashPlan {
        let mut x = seed ^ 0x51_0b5e_c09a_47d5;
        let mut next = || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        CrashPlan {
            crash_at_op: next() % max_ops.max(1),
            partial_millis: (next() % 1001) as u32,
        }
    }
}

/// The compactor's filesystem: counts every mutation and, under a
/// [`CrashPlan`], dies at the planned op. The no-fault path performs
/// exactly the same syscalls, so op indices learned durably transfer to
/// faulted runs.
#[derive(Debug)]
pub struct CrashFs {
    ops: u64,
    plan: Option<CrashPlan>,
    fired: bool,
}

impl CrashFs {
    /// A fault-free filesystem.
    pub fn durable() -> CrashFs {
        CrashFs {
            ops: 0,
            plan: None,
            fired: false,
        }
    }

    /// A filesystem that crashes per `plan`.
    pub fn with_plan(plan: CrashPlan) -> CrashFs {
        CrashFs {
            ops: 0,
            plan: Some(plan),
            fired: false,
        }
    }

    /// Filesystem mutations performed (or attempted) so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// True once the planned crash fired.
    pub fn fired(&self) -> bool {
        self.fired
    }

    /// Should the op that just claimed index `op` crash?
    fn crashes_now(&mut self) -> bool {
        let op = self.ops;
        self.ops += 1;
        if self.fired {
            return true; // a dead process performs no further io
        }
        if self.plan.is_some_and(|p| p.crash_at_op == op) {
            self.fired = true;
            return true;
        }
        false
    }

    /// Write a file in full — or, when the crash lands here, a torn
    /// prefix of it.
    pub fn write(&mut self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        if self.crashes_now() {
            if self.plan.is_some_and(|p| p.crash_at_op + 1 == self.ops) {
                let keep = bytes.len() * self.plan.expect("checked").partial_millis as usize / 1000;
                // A torn write is still a write: flush the prefix.
                let _ = std::fs::write(path, &bytes[..keep]);
            }
            return Err(StoreError::Crashed);
        }
        std::fs::write(path, bytes).map_err(|e| StoreError::io(path, e))
    }

    /// Atomically rename `from` to `to`.
    pub fn rename(&mut self, from: &Path, to: &Path) -> Result<(), StoreError> {
        if self.crashes_now() {
            return Err(StoreError::Crashed);
        }
        std::fs::rename(from, to).map_err(|e| StoreError::io(to, e))
    }

    /// Unlink `path`.
    pub fn remove(&mut self, path: &Path) -> Result<(), StoreError> {
        if self.crashes_now() {
            return Err(StoreError::Crashed);
        }
        std::fs::remove_file(path).map_err(|e| StoreError::io(path, e))
    }
}

/// Roll every ripe bucket up the hierarchy (durable filesystem).
pub fn compact(
    store: &mut Store,
    policy: &CompactionPolicy,
) -> Result<CompactionReport, StoreError> {
    compact_with(store, policy, &mut CrashFs::durable())
}

/// [`compact`] with every filesystem mutation routed through `fs`.
pub fn compact_with(
    store: &mut Store,
    policy: &CompactionPolicy,
    fs: &mut CrashFs,
) -> Result<CompactionReport, StoreError> {
    let mut report = CompactionReport::default();
    for (i, &span) in policy.spans_us.iter().enumerate() {
        let target = (i + 1) as u8;
        if span == 0 {
            return Err(StoreError::Manifest {
                what: "compaction policy has a zero-length span".into(),
            });
        }
        let Some(frontier) = store.frontier_us() else {
            break; // empty store
        };
        // Buckets whose whole input set fits and whose end lies strictly
        // behind the frontier (never the newest window's bucket).
        let mut buckets: BTreeMap<u64, Vec<crate::manifest::SegmentMeta>> = BTreeMap::new();
        for seg in store.segments() {
            if seg.level >= target {
                continue;
            }
            let bucket = seg.start_us / span;
            let bucket_end = (bucket + 1).saturating_mul(span);
            if seg.end_us <= bucket_end && bucket_end < frontier {
                buckets.entry(bucket).or_default().push(seg.clone());
            }
        }
        for (bucket, inputs) in buckets {
            roll_bucket(store, fs, target, span, bucket, &inputs)?;
            report.rolled.push(RolledBucket {
                level: target,
                start_us: bucket * span,
                inputs: inputs.len(),
            });
        }
    }
    Ok(report)
}

/// Merge `inputs` into one level-`target` segment covering the bucket.
fn roll_bucket(
    store: &mut Store,
    fs: &mut CrashFs,
    target: u8,
    span: u64,
    bucket: u64,
    inputs: &[crate::manifest::SegmentMeta],
) -> Result<(), StoreError> {
    let start_us = bucket * span;
    let mut states = Vec::new();
    for meta in inputs {
        let (_, mut s) = store.read_segment(meta)?;
        states.append(&mut s);
    }
    let upstream = states.iter().map(|ws| ws.upstream).min().unwrap_or(0);
    let folded = fold_states(states).map_err(|source| StoreError::Merge {
        context: format!("bucket {start_us} -> level {target}"),
        source,
    })?;
    let merged: Vec<WindowState> = folded
        .into_values()
        .map(|topk| WindowState {
            upstream,
            start: start_us as f64 / 1e6,
            length: span as f64 / 1e6,
            topk,
        })
        .collect();
    if merged.is_empty() {
        return Ok(()); // inputs held no records; nothing to roll
    }

    // 1. New segment becomes durable (but unreferenced).
    let meta = store.write_segment(target, &merged, fs)?;
    // 2. Manifest swap: the commit point.
    let mut next = crate::manifest::Manifest {
        generation: store.generation() + 1,
        segments: Vec::with_capacity(store.segments().len()),
    };
    let drop: std::collections::BTreeSet<&str> = inputs.iter().map(|m| m.name.as_str()).collect();
    for seg in store.segments() {
        if !drop.contains(seg.name.as_str()) {
            next.segments.push(seg.clone());
        }
    }
    next.segments.push(meta.clone());
    store.swap_manifest(next, fs)?;
    if let Some(m) = &store.metrics {
        m.compactions.inc(1);
        m.compaction_inputs.inc(inputs.len() as u64);
    }
    store.trace_event(TraceKind::Close, start_us, inputs.len() as u64);
    // 3. Inputs are no longer referenced; unlink them. A crash here
    //    leaves orphans for recovery to sweep — never data loss.
    for meta in inputs {
        let path = store.dir().join(&meta.name);
        fs.remove(&path)?;
    }
    Ok(())
}
