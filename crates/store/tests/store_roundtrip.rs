//! Store lifecycle integration tests: append/reopen durability, the
//! compaction hierarchy's fold-equality contract, window conservation,
//! and a deterministic crash sweep over every filesystem op of a
//! compaction run.

mod common;

use common::{all_states, temp_store, MiniSynth, WINDOW_SECS};
use sketchwire::WindowState;
use store::{
    compact, compact_with, fold_states, CompactionPolicy, CrashFs, CrashPlan, Store, StoreError,
};

const HOUR_US: u64 = 3_600_000_000;
const DAY_US: u64 = 86_400_000_000;

#[test]
fn open_append_reopen_roundtrip() {
    let dir = temp_store("roundtrip");
    let (mut store, report) = Store::open(&dir).expect("open fresh");
    assert!(report.is_clean());
    assert_eq!(store.frontier_us(), None);
    assert!(store.last_window().expect("empty last").is_none());

    let mut synth = MiniSynth::new(&["esld", "srvip"], 4);
    let mut appended: Vec<Vec<WindowState>> = Vec::new();
    for _ in 0..3 {
        let states = synth.next_window();
        store.append(&states).expect("append");
        appended.push(states);
    }
    assert_eq!(store.segments().len(), 3);
    let frontier = store.frontier_us();
    assert_eq!(frontier, Some(3 * 600 * 1_000_000));

    // Reopen: same manifest, same frontier, and the last window comes
    // back verbatim (the resume path feeds it to TopKTracker::restore).
    let (back, report) = Store::open(&dir).expect("reopen");
    assert!(report.is_clean());
    assert_eq!(back.segments(), store.segments());
    assert_eq!(back.frontier_us(), frontier);
    let (start, mut last) = back.last_window().expect("readable").expect("non-empty");
    assert_eq!(start, 2.0 * WINDOW_SECS);
    let mut want = appended[2].clone();
    last.sort_by(|a, b| a.topk.dataset.cmp(&b.topk.dataset));
    want.sort_by(|a, b| a.topk.dataset.cmp(&b.topk.dataset));
    assert_eq!(last, want);
}

/// A reader's open changes nothing on disk: a temp file and an orphan
/// segment — a live writer's append in flight — survive it, and the
/// writer's own open still sweeps both. A missing store is an error for
/// a reader, not a new empty one.
#[test]
fn reader_open_never_sweeps() {
    let dir = temp_store("reader");
    assert!(Store::load(&dir).is_err(), "no store yet");
    assert!(!dir.exists(), "a reader created the store");

    let (mut writer, _) = Store::open(&dir).expect("open");
    writer
        .append(&MiniSynth::new(&["esld"], 2).next_window())
        .expect("append");
    let tmp = "L0-0000000600000000-g000002.seg.tmp";
    let orphan = "L0-0000000600000000-g000002.seg";
    std::fs::write(dir.join(tmp), b"half a segment").expect("write tmp");
    std::fs::write(dir.join(orphan), b"a segment not yet committed").expect("write orphan");

    let reader = Store::load(&dir).expect("load");
    assert_eq!(reader.segments(), writer.segments());
    assert!(dir.join(tmp).exists() && dir.join(orphan).exists());

    let (_, report) = Store::open(&dir).expect("reopen");
    assert_eq!(report.removed_tmp, vec![tmp.to_string()]);
    assert_eq!(report.removed_orphans, vec![orphan.to_string()]);
    assert!(!dir.join(tmp).exists() && !dir.join(orphan).exists());

    // A referenced segment that is gone fails the reader's open too.
    std::fs::remove_file(dir.join(&writer.segments()[0].name)).expect("unlink");
    assert!(matches!(
        Store::load(&dir),
        Err(StoreError::MissingSegment { .. })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Readers opening and querying in a loop beside a live appender never
/// break an append, and every open they make answers.
#[test]
fn readers_beside_a_live_writer() {
    let dir = temp_store("live-writer");
    let (mut writer, _) = Store::open(&dir).expect("open");
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut opens = 0;
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                let store = Store::load(&dir).expect("a reader's open");
                store::query::windows_in(&store, "esld", 0, u64::MAX, None).expect("query");
                opens += 1;
            }
            opens
        });
        let mut synth = MiniSynth::new(&["esld"], 2);
        for _ in 0..300 {
            writer
                .append(&synth.next_window())
                .expect("append beside a reader");
        }
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        assert!(reader.join().expect("reader") > 0);
    });
    let (_, report) = Store::open(&dir).expect("reopen");
    assert!(report.is_clean(), "{report:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn generation_advances_and_empty_append_rejected() {
    let dir = temp_store("gen");
    let (mut store, _) = Store::open(&dir).expect("open");
    let g0 = store.generation();
    let states = MiniSynth::new(&["esld"], 2).next_window();
    store.append(&states).expect("append");
    assert!(store.generation() > g0);
    assert!(store.append(&[]).is_err(), "empty append is a typed error");
}

#[test]
fn compaction_preserves_fold_and_conserves_windows() {
    let dir = temp_store("compact");
    let (mut store, _) = Store::open(&dir).expect("open");
    let mut synth = MiniSynth::new(&["esld"], 5);
    let mut raw: Vec<WindowState> = Vec::new();
    // 30 windows of 10 min = 5 h: four ripe hour buckets, one guarded.
    for _ in 0..30 {
        let states = synth.next_window();
        store.append(&states).expect("append");
        raw.extend(states);
    }
    let frontier_before = store.frontier_us();
    let policy = CompactionPolicy::default();
    let report = compact(&mut store, &policy).expect("compact");
    assert!(!report.rolled.is_empty(), "hour buckets must roll");
    assert!(report.inputs() > report.rolled.len());

    // The newest window is protected: still level 0 and returned
    // verbatim by last_window().
    let newest = store
        .segments()
        .iter()
        .max_by_key(|m| m.end_us)
        .expect("non-empty store");
    assert_eq!(newest.level, 0, "frontier window must never compact");
    assert_eq!(store.frontier_us(), frontier_before);

    // Window conservation: every original 10-min window start is inside
    // exactly one live segment's range, and total records shrink while
    // the fold stays byte-equal.
    let after = all_states(&store);
    let folded_after = fold_states(after.clone()).expect("fold store");
    let folded_raw = fold_states(raw.clone()).expect("fold raw");
    assert_eq!(
        folded_after, folded_raw,
        "compaction must not change the fold"
    );
    assert!(after.len() < raw.len(), "rollups must consolidate records");

    // Compaction is idempotent once everything ripe has rolled.
    let again = compact(&mut store, &policy).expect("recompact");
    assert!(again.rolled.is_empty(), "second pass has nothing to do");
}

#[test]
fn hierarchical_rollup_is_byte_identical_to_oneshot() {
    // Path A: 10-min → hour → day. Path B: 10-min → day directly.
    // The merged day-level records must be byte-identical — the
    // compaction hierarchy is just an association order of the same
    // merge algebra.
    let days = 2;
    let windows = days * 144;
    let dir_a = temp_store("assoc-a");
    let dir_b = temp_store("assoc-b");
    let (mut a, _) = Store::open(&dir_a).expect("open a");
    let (mut b, _) = Store::open(&dir_b).expect("open b");
    let mut synth = MiniSynth::new(&["esld", "qtype"], 3);
    for _ in 0..windows {
        let states = synth.next_window();
        a.append(&states).expect("append a");
        b.append(&states).expect("append b");
    }
    compact(&mut a, &CompactionPolicy::default()).expect("compact a");
    compact(
        &mut b,
        &CompactionPolicy {
            spans_us: vec![DAY_US],
        },
    )
    .expect("compact b");

    let day_states = |store: &Store, span: u64| -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for meta in store.segments() {
            if meta.end_us - meta.start_us == span {
                let (_, states) = store.read_segment(meta).expect("readable");
                for ws in states {
                    let mut buf = Vec::new();
                    sketchwire::write_record(&ws, &mut buf);
                    out.push(buf);
                }
            }
        }
        out.sort();
        out
    };
    let a_days = day_states(&a, DAY_US);
    let b_days = day_states(&b, DAY_US);
    assert_eq!(
        a_days.len(),
        (days - 1) * 2,
        "one guarded day, two datasets"
    );
    assert_eq!(a_days, b_days, "rollup association order leaked into bytes");
    // And both agree with the pure in-memory fold.
    assert_eq!(
        fold_states(all_states(&a)).expect("fold a"),
        fold_states(all_states(&b)).expect("fold b"),
    );
}

#[test]
fn crash_at_every_op_recovers_without_losing_windows() {
    // Reference: an uninterrupted run. Count its filesystem ops, then
    // re-run the same compaction crashing at each op in turn; recovery
    // must always restore a store whose fold equals the reference and
    // whose frontier survives.
    let build = |tag: &str| -> (Store, Vec<WindowState>) {
        let dir = temp_store(tag);
        let (mut store, _) = Store::open(&dir).expect("open");
        let mut synth = MiniSynth::new(&["esld"], 4);
        let mut raw = Vec::new();
        for _ in 0..13 {
            let states = synth.next_window();
            store.append(&states).expect("append");
            raw.extend(states);
        }
        (store, raw)
    };
    let policy = CompactionPolicy {
        spans_us: vec![HOUR_US],
    };
    let (mut reference, raw) = build("crash-ref");
    let mut durable = CrashFs::durable();
    compact_with(&mut reference, &policy, &mut durable).expect("reference compaction");
    let total_ops = durable.ops();
    assert!(total_ops >= 6, "two ripe hour buckets → several ops");
    let reference_fold = fold_states(raw).expect("reference fold");
    let frontier = reference.frontier_us();

    for op in 0..total_ops {
        let (mut victim, _) = build(&format!("crash-{op}"));
        let mut fs = CrashFs::with_plan(CrashPlan {
            crash_at_op: op,
            partial_millis: 500,
        });
        let err = compact_with(&mut victim, &policy, &mut fs)
            .expect_err("every op index inside the run must crash");
        assert!(matches!(err, StoreError::Crashed));
        assert!(fs.fired());

        let dir = victim.dir().to_path_buf();
        drop(victim);
        let (recovered, report) = Store::open(&dir).expect("recovery always opens");
        // Leftovers are ledgered, never silently deleted: at most one
        // in-flight tmp plus one bucket's worth of replaced inputs
        // (crash mid-unlink leaves the rest as orphans).
        assert!(report.removed_tmp.len() <= 1, "crash op {op}: {report:?}");
        assert!(
            report.removed_orphans.len() <= 6,
            "crash op {op}: {report:?}"
        );
        assert_eq!(
            recovered.frontier_us(),
            frontier,
            "crash op {op} moved the frontier"
        );
        let fold = fold_states(all_states(&recovered)).expect("recovered fold");
        assert_eq!(
            fold, reference_fold,
            "crash op {op} lost or double-counted a window"
        );
        // And the recovered store finishes the job cleanly.
        let (mut recovered, _) = Store::open(&dir).expect("reopen");
        compact(&mut recovered, &policy).expect("resume compaction");
        let fold = fold_states(all_states(&recovered)).expect("resumed fold");
        assert_eq!(fold, reference_fold);
    }
}

#[test]
fn query_history_topk_and_stats() {
    let dir = temp_store("query");
    let (mut store, _) = Store::open(&dir).expect("open");
    let mut synth = MiniSynth::new(&["esld", "srvip"], 4);
    let mut raw = Vec::new();
    for _ in 0..18 {
        let states = synth.next_window();
        store.append(&states).expect("append");
        raw.extend(states);
    }
    compact(&mut store, &CompactionPolicy::default()).expect("compact");

    // history over the full range: every window contains the key.
    let t1 = store.frontier_us().expect("frontier");
    let (points, total_bound, stats) =
        store::query::history(&store, "esld", "k01", 0, t1).expect("history");
    // 18 ten-minute windows compact into 2 hourly rollups + 6 level-0
    // windows — history reflects the stored granularity.
    assert_eq!(points.len(), 8, "2 hourly points + 6 ten-minute points");
    assert_eq!(points.iter().filter(|p| p.level >= 1).count(), 2);
    assert_eq!(stats.segments_total, store.segments().len());
    assert!(stats.segments_scanned <= stats.segments_total);
    for pair in points.windows(2) {
        assert!(pair[1].start > pair[0].start);
    }
    // Per-window hits are exact deltas, so they are conserved across
    // compaction: the sum over all points equals the raw per-window sum.
    let raw_hits: u64 = (0..18).map(|w| 5 + ((1 + w) % 7) as u64).sum();
    assert_eq!(points.iter().map(|p| p.hits).sum::<u64>(), raw_hits);
    assert_eq!(
        total_bound,
        points.iter().map(|p| p.error_bound).sum::<u64>()
    );

    // Dataset pruning: a dataset the store never saw scans nothing.
    let (points, _, stats) =
        store::query::history(&store, "qname", "k01", 0, t1).expect("absent dataset");
    assert!(points.is_empty());
    assert_eq!(stats.segments_scanned, 0);
    assert_eq!(
        stats.pruned_dataset + stats.pruned_time,
        stats.segments_total
    );

    // Bloom pruning: an absent key is pruned without decoding anything
    // (FP rate of the per-segment blooms is ~1% — 0 scans expected here).
    let (points, _, stats) =
        store::query::history(&store, "esld", "definitely-absent-key", 0, t1).expect("absent key");
    assert!(points.is_empty());
    assert!(
        stats.pruned_bloom + stats.pruned_time + stats.pruned_dataset >= stats.segments_total - 1,
        "bloom should prune nearly everything: {stats:?}"
    );

    // topk_at: a mid-range instant answers from the hourly rollup.
    let (group, _) = store::query::topk_at(&store, "esld", 45 * 60 * 1_000_000).expect("topk");
    let group = group.expect("instant covered");
    assert!(group.level >= 1, "instant inside a rolled hour");
    assert_eq!(group.state.entries.len(), 4);

    // The whole-store fold still matches the raw fold after queries.
    assert_eq!(
        fold_states(all_states(&store)).expect("fold"),
        fold_states(raw).expect("raw fold"),
    );
}

#[test]
fn expire_drops_whole_segments_behind_the_horizon() {
    let dir = temp_store("expire");
    let (mut store, _) = Store::open(&dir).expect("open");
    let mut synth = MiniSynth::new(&["esld"], 4);
    for _ in 0..8 {
        let states = synth.next_window();
        store.append(&states).expect("append");
    }
    let frontier = store.frontier_us().expect("nonempty");
    let gen_before = store.generation();

    // A horizon before everything is a no-op — and must not burn a
    // manifest generation.
    let report = store.expire_before(0).expect("noop expiry");
    assert!(report.expired.is_empty());
    assert_eq!(store.generation(), gen_before);

    // Retain the last three windows (end_us >= horizon is live, strict
    // `<` expires): segments wholly before the horizon go; the frontier
    // (and the resume window) survive.
    let horizon = frontier - 2 * (WINDOW_SECS as u64) * 1_000_000;
    let report = store.expire_before(horizon).expect("expiry");
    assert_eq!(report.horizon_us, horizon);
    assert_eq!(report.expired.len(), 5, "five single-window segments");
    assert!(report.windows() == 5 && report.records() > 0);
    assert!(store.segments().iter().all(|s| s.end_us >= horizon));
    assert_eq!(store.frontier_us(), Some(frontier));

    // Expired files are really gone from disk, and a reopen is clean:
    // nothing to sweep, nothing missing.
    for meta in &report.expired {
        assert!(!dir.join(&meta.name).exists(), "{} survived", meta.name);
    }
    drop(store);
    let (reopened, recovery) = Store::open(&dir).expect("reopen");
    assert!(recovery.is_clean());
    assert_eq!(reopened.segments().len(), 3);
    assert_eq!(reopened.frontier_us(), Some(frontier));
}

#[test]
fn expire_crash_at_every_op_never_loses_live_windows() {
    // Build a reference store, expire it cleanly, then re-run the same
    // expiry crashing at every filesystem op. After recovery the live
    // fold must equal the reference's: the manifest swap is the commit
    // point, and a crash mid-unlink only leaves ledgered orphans.
    let build = |tag: &str| {
        let dir = temp_store(tag);
        let (mut store, _) = Store::open(&dir).expect("open");
        let mut synth = MiniSynth::new(&["esld", "srvip"], 3);
        for _ in 0..6 {
            let states = synth.next_window();
            store.append(&states).expect("append");
        }
        store
    };
    let mut reference = build("expire-crash-ref");
    let frontier = reference.frontier_us().expect("nonempty");
    let horizon = frontier - 2 * (WINDOW_SECS as u64) * 1_000_000;
    let mut durable = CrashFs::durable();
    reference
        .expire_before_with(horizon, &mut durable)
        .expect("reference expiry");
    let total_ops = durable.ops();
    assert!(total_ops >= 3, "manifest swap plus unlinks");
    let reference_fold = fold_states(all_states(&reference)).expect("reference fold");

    for op in 0..total_ops {
        let mut victim = build(&format!("expire-crash-{op}"));
        let mut fs = CrashFs::with_plan(CrashPlan {
            crash_at_op: op,
            partial_millis: 500,
        });
        let err = victim
            .expire_before_with(horizon, &mut fs)
            .expect_err("every op index inside the run must crash");
        assert!(matches!(err, StoreError::Crashed));
        let dir = victim.dir().to_path_buf();
        drop(victim);
        let (recovered, report) = Store::open(&dir).expect("recovery always opens");
        assert_eq!(recovered.frontier_us(), Some(frontier));
        if op < 2 {
            // Crashed before the manifest commit: nothing expired yet.
            // A partial MANIFEST.tmp may be swept (ledgered), but no
            // segment is orphaned and every window is still live.
            assert!(
                report.removed_orphans.is_empty(),
                "crash op {op}: {report:?}"
            );
            assert_eq!(recovered.segments().len(), 6, "crash op {op}");
        }
        // Re-running the expiry converges to the reference state.
        let (mut recovered, _) = Store::open(&dir).expect("reopen");
        recovered.expire_before(horizon).expect("resume expiry");
        let fold = fold_states(all_states(&recovered)).expect("recovered fold");
        assert_eq!(fold, reference_fold, "crash op {op} diverged");
    }
}
