//! The query path decodes only the records it answers from, and answers
//! exactly what a full decode would.
//!
//! A two-dataset store holding level-0, hourly and daily segments — with
//! a second upstream and chunked records — is queried over a sweep of
//! ranges and keys. `windows_in`, `history` and `topk_at` must equal a
//! reference that decodes every segment whole (`decode_segment`), keeps
//! the dataset's records inside the range and folds them per window with
//! `fold_states`. A corrupt record of the *other* dataset, whose body the
//! query skips, must still fail the query with a typed error.

mod common;

use common::{temp_store, MiniSynth};
use sketchwire::WindowState;
use std::collections::BTreeMap;
use store::query::{history, topk_at, windows_in, HistoryPoint, WindowGroup};
use store::segment::{decode_segment, window_us};
use store::{compact, fold_states, CompactionPolicy, Store, StoreError};

const DATASETS: [&str; 2] = ["esld", "srvip"];
/// `common::WINDOW_SECS` in µs.
const WINDOW_US: u64 = 600_000_000;
/// Two days and two hours of ten-minute windows: both days roll to daily
/// segments, the first of the two hours to an hourly one, and the last
/// hour, holding the frontier, stays raw.
const WINDOWS: usize = 2 * 144 + 12;

/// One hour of windows per level-0 segment. Upstream 1 reports both
/// datasets, its `srvip` records split in chunks of four keys; upstream
/// 2 reports `esld` alone over a wider key set.
fn build(tag: &str) -> (Store, std::path::PathBuf) {
    let dir = temp_store(tag);
    let (mut s, _) = Store::open(&dir).expect("open");
    let mut one = MiniSynth::new(&DATASETS, 6);
    let mut two = MiniSynth::new(&["esld"], 9);
    for _ in 0..WINDOWS / 6 {
        let mut batch = Vec::new();
        for _ in 0..6 {
            for ws in one.next_window() {
                if ws.topk.dataset == "srvip" {
                    let WindowState {
                        upstream,
                        start,
                        length,
                        topk,
                    } = ws;
                    batch.extend(topk.into_chunks(4).into_iter().map(|topk| WindowState {
                        upstream,
                        start,
                        length,
                        topk,
                    }));
                } else {
                    batch.push(ws);
                }
            }
            batch.extend(two.next_window().into_iter().map(|mut ws| {
                ws.upstream = 2;
                ws
            }));
        }
        s.append(&batch).expect("append");
    }
    compact(&mut s, &CompactionPolicy::default()).expect("compact");
    (s, dir)
}

/// `windows_in` by hand: decode every live segment whole, keep
/// `dataset`'s records intersecting `[t0, t1)`, fold each window.
fn reference(s: &Store, dataset: &str, t0: u64, t1: u64) -> Vec<WindowGroup> {
    let mut windows: BTreeMap<u64, (f64, u8, Vec<WindowState>)> = BTreeMap::new();
    for meta in s.segments() {
        let bytes = std::fs::read(s.dir().join(&meta.name)).expect("read segment");
        let (_, states) = decode_segment(&bytes, &meta.name).expect("decode segment");
        for ws in states {
            let (w0, w1) = (window_us(ws.start), window_us(ws.start + ws.length));
            if ws.topk.dataset == dataset && w1 > t0 && w0 < t1 {
                windows
                    .entry(w0)
                    .or_insert_with(|| (ws.length, meta.level, Vec::new()))
                    .2
                    .push(ws);
            }
        }
    }
    windows
        .into_iter()
        .map(|(w0, (length, level, states))| WindowGroup {
            start: w0 as f64 / 1e6,
            length,
            level,
            state: fold_states(states)
                .expect("fold")
                .remove(dataset)
                .expect("the dataset's window"),
        })
        .collect()
}

/// The history of `key` from the reference windows.
fn reference_history(groups: &[WindowGroup], key: &str) -> (Vec<HistoryPoint>, u64) {
    let mut points = Vec::new();
    let mut bound = 0u64;
    for g in groups {
        let Some(e) = g.state.entries.iter().find(|e| e.key == key) else {
            continue;
        };
        bound += g.state.error_bound;
        points.push(HistoryPoint {
            start: g.start,
            length: g.length,
            level: g.level,
            count: e.count,
            error: e.error,
            hits: e.features.adds[0],
            error_bound: g.state.error_bound,
        });
    }
    (points, bound)
}

#[test]
fn queries_equal_a_full_decode_over_a_sweep() {
    let (s, dir) = build("equiv");
    let levels: Vec<u8> = s.segments().iter().map(|m| m.level).collect();
    for level in 0..=2 {
        assert!(
            levels.contains(&level),
            "no level-{level} segment: {levels:?}"
        );
    }
    let end = WINDOWS as u64 * WINDOW_US;
    // Ranges on and off window edges, inside one level and across all.
    let mut ranges = vec![(0, end), (0, u64::MAX), (end, u64::MAX)];
    for t0 in (0..end).step_by(37 * WINDOW_US as usize / 3) {
        for width in [1, WINDOW_US, 7 * WINDOW_US + 11, 150 * WINDOW_US] {
            ranges.push((t0, t0.saturating_add(width)));
        }
    }
    let mut decoded = 0;
    for &(t0, t1) in &ranges {
        for dataset in DATASETS {
            let want = reference(&s, dataset, t0, t1);
            let (got, stats) = windows_in(&s, dataset, t0, t1, None).expect("windows_in");
            assert_eq!(got, want, "{dataset} over [{t0}, {t1})");
            decoded += stats.records_decoded;
            for key in ["k00", "k05", "k08", "absent"] {
                let (points, bound, _) = history(&s, dataset, key, t0, t1).expect("history");
                assert_eq!(
                    (points, bound),
                    reference_history(&want, key),
                    "history of {key} in {dataset} over [{t0}, {t1})"
                );
            }
        }
    }
    assert!(decoded > 0, "the sweep decoded nothing");
    for at in (0..end + WINDOW_US).step_by(WINDOW_US as usize * 5 + 7) {
        for dataset in DATASETS {
            let want = reference(&s, dataset, at, at + 1)
                .into_iter()
                .min_by_key(|g| g.level);
            let (got, _) = topk_at(&s, dataset, at).expect("topk_at");
            assert_eq!(got, want, "top-k of {dataset} at {at}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Only the queried dataset's records in range have their bodies
/// decoded; the rest of a scanned segment is skipped by record head.
#[test]
fn other_datasets_records_are_not_decoded() {
    let (s, dir) = build("decoded");
    let end = WINDOWS as u64 * WINDOW_US;
    let (groups, stats) = windows_in(&s, "srvip", end - 6 * WINDOW_US, end, None).expect("q");
    // The last hour: six windows of two `srvip` chunks each, out of the
    // level-0 segment that also holds both upstreams' `esld`.
    assert_eq!(groups.len(), 6);
    assert_eq!(stats.segments_scanned, 1, "{stats:?}");
    assert_eq!(stats.records_decoded, 6 * 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flipped byte in a record the query skips — the other dataset's —
/// still fails the query with a typed error naming the segment: the
/// skipped record's CRC is checked.
#[test]
fn corrupt_skipped_record_fails_the_query() {
    let dir = temp_store("skipped-crc");
    let (mut s, _) = Store::open(&dir).expect("open");
    let mut synth = MiniSynth::new(&DATASETS, 3);
    let states = synth.take(2);
    let meta = s.append(&states).expect("append");
    let path = dir.join(&meta.name);
    let image = std::fs::read(&path).expect("read");
    // Records follow the 8-byte header; each adds 13 framing bytes.
    let mut at = 8;
    let mut victim = None;
    for ws in &states {
        let len = ws.item_bytes().len() + 13;
        if ws.topk.dataset == "srvip" {
            victim = Some(at..at + len);
            break;
        }
        at += len;
    }
    let victim = victim.expect("an srvip record");
    let (t0, t1) = (0, 2 * WINDOW_US);
    assert!(windows_in(&s, "esld", t0, t1, None).is_ok());
    for i in victim {
        let mut bad = image.clone();
        bad[i] ^= 0x20;
        std::fs::write(&path, &bad).expect("write");
        let err = windows_in(&s, "esld", t0, t1, None).expect_err("a corrupt record");
        assert!(
            matches!(err, StoreError::Segment { .. } | StoreError::Corrupt { .. }),
            "flip at {i}: {err}"
        );
        assert_eq!(err.bad_segment(), Some(meta.name.as_str()), "flip at {i}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
