//! Store-crash fault axis: kill the compactor at every seeded point and
//! check the recovery differential (`chaos::storecrash`).
//!
//! The sweep covers ≥ 50 seeds over the learned filesystem-op range of a
//! multi-level compaction — so the kill points land after segment
//! writes, before manifest swaps, and inside torn footer writes — and
//! for each one asserts:
//!
//! * the planned crash actually fired (an axis that injects nothing
//!   proves nothing);
//! * the re-opened store's fold equals the fold of the raw appended
//!   windows, before *and* after the restarted compactor resumes;
//! * the watermark frontier is preserved across the crash;
//! * everything the recovery sweep deletes is ledgered in the
//!   `RecoveryReport` — bounded by the one in-flight tmp file and one
//!   rolled bucket's worth of input orphans.

use chaos::storecrash::{learn_ops, run_seed, store_fold, workload};
use std::path::PathBuf;
use store::{CompactionPolicy, CrashPlan, Store};

const SEEDS: u64 = 64;

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dnsobs-chaos-store-{tag}-{}", std::process::id()))
}

/// Hour + day rollups over 26h of windows: the compactor rolls two hour
/// buckets *and* a day bucket, so op indices span every phase at every
/// level.
fn policy() -> CompactionPolicy {
    CompactionPolicy {
        spans_us: vec![3_600_000_000, 86_400_000_000],
    }
}

#[test]
fn crash_sweep_recovers_every_seed() {
    // 26 hours of 10-minute windows over two datasets.
    let batches = workload(156, 5, &["aafqdn", "esld"]);
    let policy = policy();
    let learn_dir = scratch("learn");
    let max_ops = learn_ops(&batches, &policy, &learn_dir).expect("reference run");
    assert!(
        max_ops > SEEDS / 2,
        "op range {max_ops} too small for a meaningful sweep"
    );

    let dir = scratch("sweep");
    let mut fired = 0u64;
    let mut swept_tmp = 0usize;
    let mut swept_orphans = 0usize;
    for seed in 0..SEEDS {
        let outcome = run_seed(seed, &batches, &policy, max_ops, &dir)
            .unwrap_or_else(|d| panic!("seed {seed}: {d}"));
        assert!(outcome.fired, "seed {seed}: crash never fired");
        fired += 1;
        // Ledger bounds: at most the one in-flight tmp write, and at
        // most one rolled bucket's inputs caught mid-unlink (6 ten-min
        // segments per hour bucket at most in this workload's shape,
        // plus the hour inputs of a day bucket).
        assert!(
            outcome.swept_tmp <= 1,
            "seed {seed}: swept {} tmp files",
            outcome.swept_tmp
        );
        assert!(
            outcome.swept_orphans <= 24,
            "seed {seed}: swept {} orphans",
            outcome.swept_orphans
        );
        swept_tmp += outcome.swept_tmp;
        swept_orphans += outcome.swept_orphans;
    }
    assert_eq!(fired, SEEDS);
    // Across the sweep the crash points must actually produce both kinds
    // of debris at least once, or the sweep is not exercising recovery.
    assert!(swept_tmp > 0, "no seed ever left a torn tmp file");
    assert!(swept_orphans > 0, "no seed ever left an orphan segment");

    let _ = std::fs::remove_dir_all(&learn_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_plans_are_deterministic() {
    for seed in 0..SEEDS {
        assert_eq!(
            CrashPlan::from_seed(seed, 1000),
            CrashPlan::from_seed(seed, 1000)
        );
    }
}

/// A crash so early that nothing was compacted must leave the store
/// exactly as appended: same segments, same generation after recovery
/// sweep, clean resume.
#[test]
fn crash_at_first_op_is_a_clean_no_op() {
    let batches = workload(12, 3, &["esld"]);
    let policy = CompactionPolicy {
        spans_us: vec![3_600_000_000],
    };
    let dir = scratch("first-op");
    let _ = std::fs::remove_dir_all(&dir);
    {
        let (mut s, _) = Store::open(&dir).expect("open");
        for b in &batches {
            s.append(b).expect("append");
        }
        let mut fs = store::CrashFs::with_plan(CrashPlan {
            crash_at_op: 0,
            partial_millis: 0,
        });
        let err = store::compact_with(&mut s, &policy, &mut fs).expect_err("must crash");
        assert!(matches!(err, store::StoreError::Crashed));
    }
    let (mut s, report) = Store::open(&dir).expect("reopen");
    // Op 0 is the tmp write of the first rolled bucket, flushed at 0‰ —
    // the sweep may remove that empty tmp file, nothing else.
    assert!(report.removed_orphans.is_empty());
    assert_eq!(s.segments().len(), 12, "no inputs may be lost");
    let reference = store::fold_states(batches.iter().flatten().cloned().collect()).expect("fold");
    assert_eq!(store_fold(&s).expect("fold"), reference);
    store::compact(&mut s, &policy).expect("clean resume");
    assert_eq!(store_fold(&s).expect("fold"), reference);
    let _ = std::fs::remove_dir_all(&dir);
}
