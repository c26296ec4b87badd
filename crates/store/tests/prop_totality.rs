//! Totality property tests (dnswire style): no sequence of on-disk
//! corruptions — truncated files, flipped bytes, stale or mangled
//! manifests — may ever panic, loop, or silently yield a different
//! answer. Everything maps to a typed [`store::StoreError`], and errors
//! that implicate a file name carry it, which is what `dnsobs query`
//! prints so the operator knows which segment to quarantine.

mod common;

use common::{temp_store, MiniSynth};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use store::{Store, StoreError};

/// One master store built once: 6 windows appended as 3 segments.
/// Corruption cases copy these bytes into fresh directories.
struct Master {
    manifest: Vec<u8>,
    /// (name, bytes) of each live segment.
    segments: Vec<(String, Vec<u8>)>,
}

fn master() -> &'static Master {
    static MASTER: OnceLock<Master> = OnceLock::new();
    MASTER.get_or_init(|| {
        let dir = temp_store("prop-master");
        let (mut store, _) = Store::open(&dir).expect("open master");
        let mut synth = MiniSynth::new(&["esld", "srvip"], 4);
        for _ in 0..3 {
            let batch = synth.take(2);
            store.append(&batch).expect("append master");
        }
        let manifest = std::fs::read(dir.join("MANIFEST")).expect("manifest bytes");
        let segments = store
            .segments()
            .iter()
            .map(|m| {
                let bytes = std::fs::read(dir.join(&m.name)).expect("segment bytes");
                (m.name.clone(), bytes)
            })
            .collect();
        Master { manifest, segments }
    })
}

/// Materialize the master store with segment `victim` replaced by
/// `bytes` (or dropped entirely when `bytes` is `None`).
fn materialize(tag: &str, victim: usize, bytes: Option<&[u8]>) -> PathBuf {
    let m = master();
    let dir = temp_store(tag);
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("MANIFEST"), &m.manifest).expect("write manifest");
    for (i, (name, original)) in m.segments.iter().enumerate() {
        if i == victim {
            if let Some(b) = bytes {
                std::fs::write(dir.join(name), b).expect("write victim")
            }
        } else {
            std::fs::write(dir.join(name), original).expect("write segment");
        }
    }
    dir
}

/// Run the full query surface over a store; any error must name the
/// victim segment. Returns whether anything errored.
fn query_all(dir: &Path, expect_bad: &str) -> bool {
    let (store, report) = Store::open(dir).expect("open never fails on body corruption");
    assert!(report.is_clean());
    let t1 = store.frontier_us().unwrap_or(u64::MAX);
    let mut failed = false;
    let outcomes: [Result<(), StoreError>; 3] = [
        store::query::history(&store, "esld", "k01", 0, t1).map(|_| ()),
        store::query::topk_at(&store, "srvip", 15 * 60 * 1_000_000).map(|_| ()),
        store::query::windows_in(&store, "esld", 0, t1, None).map(|_| ()),
    ];
    for outcome in outcomes {
        if let Err(e) = outcome {
            failed = true;
            // A flipped version byte is an unsupported version, which
            // names its segment without flagging it for quarantine.
            let named = match &e {
                StoreError::UnsupportedVersion { segment, .. } => Some(segment.as_str()),
                e => e.bad_segment(),
            };
            assert_eq!(
                named,
                Some(expect_bad),
                "error must implicate the corrupt segment: {e}"
            );
        }
    }
    failed
}

proptest! {
    /// Any single flipped byte in any segment is a typed error naming
    /// that segment — the CRC frames, header checks, and footer trailer
    /// leave no unprotected byte.
    #[test]
    fn flipped_segment_byte_is_typed_and_named(
        victim in 0usize..3,
        pos_seed in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let (name, original) = &master().segments[victim];
        let pos = (pos_seed % original.len() as u64) as usize;
        let mut bytes = original.clone();
        bytes[pos] ^= mask;
        let dir = materialize(&format!("prop-flip-{victim}-{pos}-{mask}"), victim, Some(&bytes));
        let failed = query_all(&dir, name);
        prop_assert!(failed, "flip at {pos} mask {mask:#x} went undetected");
    }

    /// Any truncation of a segment (including to zero bytes) is a typed
    /// error naming that segment.
    #[test]
    fn truncated_segment_is_typed_and_named(
        victim in 0usize..3,
        cut_seed in any::<u64>(),
    ) {
        let (name, original) = &master().segments[victim];
        let cut = (cut_seed % original.len() as u64) as usize;
        let dir = materialize(&format!("prop-trunc-{victim}-{cut}"), victim, Some(&original[..cut]));
        let failed = query_all(&dir, name);
        prop_assert!(failed, "truncation to {cut} bytes went undetected");
    }

    /// A stale manifest — one that references a segment no longer on
    /// disk — refuses to open with a typed error naming the segment.
    #[test]
    fn stale_manifest_refuses_to_open(victim in 0usize..3) {
        let (name, _) = &master().segments[victim];
        let dir = materialize(&format!("prop-stale-{victim}"), victim, None);
        match Store::open(&dir) {
            Err(e) => prop_assert_eq!(e.bad_segment(), Some(name.as_str())),
            Ok(_) => prop_assert!(false, "stale manifest must not open"),
        }
    }

    /// Any single flipped byte in the manifest fails decode (CRC line,
    /// structural checks) — the store never opens on a mangled commit
    /// record.
    #[test]
    fn flipped_manifest_byte_refuses_to_open(
        pos_seed in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let m = master();
        let pos = (pos_seed % m.manifest.len() as u64) as usize;
        let mut bytes = m.manifest.clone();
        bytes[pos] ^= mask;
        // Skip the rare flip that keeps the text identical semantics
        // impossible: any flip changes bytes, and the CRC covers all of
        // them, so decode must fail.
        let dir = temp_store(&format!("prop-manifest-{pos}-{mask}"));
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("MANIFEST"), &bytes).expect("write manifest");
        for (name, original) in &m.segments {
            std::fs::write(dir.join(name), original).expect("write segment");
        }
        match Store::open(&dir) {
            Err(StoreError::Manifest { .. }) | Err(StoreError::MissingSegment { .. }) => {}
            Err(e) => prop_assert!(false, "unexpected error class: {}", e),
            Ok(_) => prop_assert!(false, "flip at {} mask {:#x} opened anyway", pos, mask),
        }
    }
}
