//! The seal path against its reference form.
//!
//! The broker publishes a whole canonical dataset without copying it,
//! frames the seal path's item bytes as the snapshot, and encodes both
//! deltas straight from borrowed entries; the subscriber applies deltas
//! by move. The reference is the chain these replaced:
//!
//! * every frame a client receives — snapshots, both deltas, resyncs —
//!   is byte-identical to `merge_chunks → canonicalize → strip_features →
//!   diff_states → encode_frame_vec` over the same windows, whichever
//!   shape the records arrive in (whole, unsorted, gated, chunked, with
//!   or without item bytes);
//! * `apply_delta_owned` equals `apply_delta`, errors included, and hands
//!   a rejected delta's basis back untouched;
//! * a subscriber whose caller keeps every event still converges;
//! * the in-place codec writes the bytes the copying one wrote.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use pubsub::{
    apply_delta, apply_delta_owned, canonicalize, diff_states, strip_features, window_id_us,
    Action, BrokerConfig, BrokerCore, Frame, FrameReader, HeldWindow, SealedRecord, SubEvent,
    SubscriberCore, Topic,
};
use sketchwire::{FeatureState, GateState, TopKEntry, TopKState, WindowState};

const DATASETS: [&str; 2] = ["esld", "qtype"];

prop_compose! {
    fn arb_features()(
        adds in prop::collection::vec(0u64..1_000, 2..=2),
        maxes in prop::collection::vec(0u64..255, 1..=1),
        raw_sources in prop::collection::vec(any::<u16>(), 0..4),
    ) -> FeatureState {
        let mut sources = raw_sources;
        sources.sort_unstable();
        sources.dedup();
        FeatureState {
            adds,
            maxes,
            hlls: Vec::new(),
            source_cap: 8,
            sources,
            tops: Vec::new(),
            hists: Vec::new(),
        }
    }
}

// Over a small key pool, so consecutive windows share some keys
// (unchanged or changed) and differ on others (added or removed).
prop_compose! {
    fn arb_topk()(
        raw in prop::collection::vec((0usize..8, 1u64..50, arb_features()), 0..=6),
        extra_observed in 0u64..100,
        min_c in 0u64..5,
        kept in 0u64..1_000,
    ) -> TopKState {
        let mut entries: Vec<TopKEntry> = Vec::new();
        for (idx, count, features) in raw {
            let key = format!("k{idx}");
            if entries.iter().any(|e| e.key == key) {
                continue;
            }
            entries.push(TopKEntry {
                key,
                count,
                error: min_c.min(count),
                inserted_at: (idx % 3) as f64,
                features,
            });
        }
        let observed = entries.iter().map(|e| e.count).max().unwrap_or(0) + extra_observed;
        TopKState {
            dataset: String::new(),
            capacity: 16,
            observed,
            min_count: min_c,
            error_bound: min_c + 3,
            evictions: 0,
            kept,
            dropped: 0,
            filtered: 0,
            chunk: 0,
            chunks: 1,
            entries,
            gate: None,
        }
    }
}

/// One window: per dataset a state and the shape it arrives in, whether
/// the seal path passes item bytes along, and whether each of the two
/// clients drains its egress afterwards.
type Window = (Vec<(TopKState, u8)>, bool, bool, bool);

fn arb_window() -> impl Strategy<Value = Window> {
    (
        prop::collection::vec((arb_topk(), 0u8..5), 2..=2),
        0u8..2,
        0u8..3,
        0u8..3,
    )
        .prop_map(|(datasets, items, d1, d2)| (datasets, items == 1, d1 > 0, d2 > 0))
}

/// The records of one window, in the shape each dataset asks for:
/// 0 aggregated (upstream 0, whole, key-ascending), 1 whole from an
/// upstream collector, 2 unsorted, 3 gated, 4 chunked out of order.
fn records(index: u64, datasets: &[(TopKState, u8)]) -> Vec<WindowState> {
    let mut out = Vec::new();
    for (name, (state, shape)) in DATASETS.iter().zip(datasets) {
        let mut topk = state.clone();
        topk.dataset = name.to_string();
        topk.entries.sort_by(|a, b| a.key.cmp(&b.key));
        let record = |upstream, topk| WindowState {
            upstream,
            start: index as f64 * 60.0,
            length: 60.0,
            topk,
        };
        match shape {
            0 => out.push(record(0, topk)),
            1 => out.push(record(3, topk)),
            2 => {
                topk.entries.reverse();
                out.push(record(0, topk));
            }
            3 => {
                topk.gate = Some(GateState {
                    num_bits: 64,
                    num_hashes: 2,
                    inserted: 1,
                    words: vec![5],
                });
                out.push(record(3, topk));
            }
            _ => {
                let mut chunks = topk.into_chunks(2);
                chunks.reverse();
                out.extend(chunks.into_iter().map(|c| record(3, c)));
            }
        }
    }
    out
}

/// Frame kind a client receives: `(dataset, window id, is delta,
/// feature-stripped)`.
type FrameId = (String, u64, bool, bool);

/// The broker's encoding as it was: reassemble, canonicalize, strip,
/// diff, and encode every frame through `encode_frame_vec`.
#[derive(Default)]
struct Reference {
    published: BTreeMap<String, (u64, TopKState, TopKState)>,
    frames: BTreeMap<FrameId, Vec<u8>>,
}

impl Reference {
    fn seal(&mut self, window: &[WindowState]) {
        let mut by_ds: BTreeMap<&str, Vec<&WindowState>> = BTreeMap::new();
        for ws in window {
            by_ds.entry(&ws.topk.dataset).or_default().push(ws);
        }
        for (ds, parts) in by_ds {
            let (start, length) = (parts[0].start, parts[0].length);
            let window_us = window_id_us(start);
            let topks: Vec<TopKState> = parts.iter().map(|ws| ws.topk.clone()).collect();
            let full = canonicalize(sketchwire::merge_chunks(&topks).expect("valid chunks"));
            let topk_only = strip_features(&full);
            for (stripped, state) in [(false, &full), (true, &topk_only)] {
                let snap = Frame::Snapshot(Box::new(WindowState {
                    upstream: 0,
                    start,
                    length,
                    topk: state.clone(),
                }));
                let id = (ds.to_string(), window_us, false, stripped);
                self.frames.insert(id, pubsub::encode_frame_vec(&snap));
            }
            if let Some((prev_us, prev_full, prev_topk)) = self.published.get(ds) {
                if *prev_us < window_us {
                    for (stripped, prev, next) in
                        [(false, prev_full, &full), (true, prev_topk, &topk_only)]
                    {
                        let d = diff_states(*prev_us, prev, window_us, start, length, next);
                        let id = (ds.to_string(), window_us, true, stripped);
                        let bytes = pubsub::encode_frame_vec(&Frame::Delta(Box::new(d)));
                        self.frames.insert(id, bytes);
                    }
                }
            }
            self.published
                .insert(ds.to_string(), (window_us, full, topk_only));
        }
    }
}

fn frame_id(bytes: &[u8], stripped: bool) -> FrameId {
    let mut rd = FrameReader::new();
    rd.push(bytes);
    match rd.next_frame().expect("decodes").expect("one frame") {
        Frame::Snapshot(ws) => (ws.topk.dataset, window_id_us(ws.start), false, stripped),
        Frame::Delta(d) => (d.dataset, d.window_us, true, stripped),
        other => panic!("unexpected window frame {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn broker_frames_equal_the_reference_chain(
        windows in prop::collection::vec(arb_window(), 1..8),
    ) {
        // Small egress windows and skipped drains degrade clients, so
        // resync snapshots are exercised as well as snapshots and deltas.
        let cfg = BrokerConfig {
            egress_frames: 3,
            snapshot_every: 2,
            evict_after: 1_000,
        };
        let mut broker = BrokerCore::new(cfg);
        let mut actions = Vec::new();
        let clients = [(1u64, Topic::Features, false), (2, Topic::Topk, true)];
        for (id, topic, _) in &clients {
            broker.on_client_connect(*id, std::slice::from_ref(topic), &mut actions);
        }
        let mut reference = Reference::default();
        let mut queued = [0u64; 2];
        for (i, (datasets, with_items, drain1, drain2)) in windows.into_iter().enumerate() {
            let window = records(i as u64 + 1, &datasets);
            reference.seal(&window);
            actions.clear();
            if with_items {
                let records = window
                    .iter()
                    .map(|ws| SealedRecord {
                        state: Arc::new(ws.clone()),
                        item: Some(ws.item_bytes()),
                    })
                    .collect();
                broker.on_sealed_records(records, &mut actions).expect("seals");
            } else {
                broker.on_sealed(window, &mut actions).expect("seals");
            }
            for action in &actions {
                let Action::Send { client, frame } = action else {
                    panic!("no client is evicted: {action:?}");
                };
                let slot = (*client - 1) as usize;
                let id = frame_id(frame, clients[slot].2);
                prop_assert!(
                    reference.frames.get(&id) == Some(&**frame),
                    "frame {:?} for client {} differs from the reference",
                    id,
                    client
                );
                queued[slot] += 1;
            }
            for (slot, drain) in [drain1, drain2].into_iter().enumerate() {
                if drain {
                    broker.on_drained(slot as u64 + 1, std::mem::take(&mut queued[slot]));
                }
            }
        }
    }

    #[test]
    fn apply_by_move_matches_apply_delta(
        prev in arb_topk(),
        next in arb_topk(),
        mutation in 0u8..6,
    ) {
        let named = |mut t: TopKState| {
            t.dataset = "esld".to_string();
            canonicalize(t)
        };
        let (prev, next) = (named(prev), named(next));
        let mut d = diff_states(60_000_000, &prev, 120_000_000, 120.0, 60.0, &next);
        let mut basis = prev;
        match mutation {
            // A removed key the basis lacks, at either end of the list.
            1 => d.removed.push("z-unheld".to_string()),
            2 => d.removed.insert(0, "a-unheld".to_string()),
            3 => d.dataset = "qtype".to_string(),
            // A basis out of key order (a snapshot from a foreign broker).
            4 => basis.entries.reverse(),
            // A changed key that is also removed.
            5 => {
                let held = |k: &String| basis.entries.iter().any(|e| e.key == *k);
                if let Some(k) = d.changed.iter().map(|e| e.key.clone()).find(held) {
                    d.removed.push(k);
                    d.removed.sort();
                }
            }
            _ => {}
        }
        // A rejection hands the basis back with the error.
        let want = apply_delta(&basis, &d).map_err(|e| (basis.clone(), e));
        prop_assert_eq!(apply_delta_owned(basis, d), want);
    }

    #[test]
    fn subscriber_keeping_every_event_converges(
        states in prop::collection::vec(arb_topk(), 1..8),
    ) {
        // The caller holds every event, so each delta's basis is shared
        // and applies through the copying fallback; every kept event must
        // still show its own window.
        let mut broker = BrokerCore::new(BrokerConfig::default());
        let mut sub = SubscriberCore::new();
        let mut actions = Vec::new();
        broker.on_client_connect(1, &[Topic::Features], &mut actions);
        let mut kept: Vec<(Arc<HeldWindow>, TopKState)> = Vec::new();
        for (i, state) in states.into_iter().enumerate() {
            let want: Vec<TopKState> = DATASETS
                .iter()
                .map(|name| {
                    let mut whole = state.clone();
                    whole.dataset = name.to_string();
                    canonicalize(whole)
                })
                .collect();
            let window = records(i as u64 + 1, &[(state.clone(), 0), (state, 4)]);
            actions.clear();
            broker.on_sealed(window, &mut actions).expect("seals");
            let mut rd = FrameReader::new();
            for action in &actions {
                if let Action::Send { frame, .. } = action {
                    rd.push(frame);
                }
            }
            while let Some(frame) = rd.next_frame().expect("decodes") {
                if let Some(SubEvent::Window(h)) = sub.on_frame(frame).expect("applies") {
                    let expect = want
                        .iter()
                        .find(|w| w.dataset == h.state.dataset)
                        .expect("a sealed dataset")
                        .clone();
                    kept.push((h, expect));
                }
            }
            broker.on_drained(1, actions.len() as u64);
        }
        for (h, expect) in &kept {
            prop_assert_eq!(&h.state, expect);
        }
        let last = kept.iter().rev().take(2).collect::<Vec<_>>();
        for (h, expect) in last {
            prop_assert_eq!(&sub.held(&h.state.dataset).expect("held").state, expect);
        }
    }
}

/// Every frame type through `encode_frame_vec`, concatenated. The length
/// and CRC were taken from the codec before it encoded in place.
#[test]
fn frame_bytes_are_unchanged() {
    let entry = |key: &str, count: u64| TopKEntry {
        key: key.to_string(),
        count,
        error: 1,
        inserted_at: 0.5,
        features: FeatureState {
            adds: vec![count, 2],
            maxes: vec![7],
            hlls: Vec::new(),
            source_cap: 4,
            sources: vec![1, 2],
            tops: Vec::new(),
            hists: Vec::new(),
        },
    };
    let state = |entries| TopKState {
        dataset: "esld".to_string(),
        capacity: 8,
        observed: 40,
        min_count: 1,
        error_bound: 5,
        evictions: 0,
        kept: 40,
        dropped: 0,
        filtered: 0,
        chunk: 0,
        chunks: 1,
        entries,
        gate: None,
    };
    let prev = state(vec![entry("a", 9), entry("b", 4)]);
    let next = state(vec![entry("b", 6), entry("c", 3)]);
    let frames = [
        Frame::Hello {
            protocol: pubsub::PROTOCOL_VERSION,
            item_version: 1,
        },
        Frame::Subscribe {
            topics: vec![Topic::Features, Topic::Dataset("esld".to_string())],
        },
        Frame::Snapshot(Box::new(WindowState {
            upstream: 0,
            start: 60.0,
            length: 60.0,
            topk: prev.clone(),
        })),
        Frame::Delta(Box::new(diff_states(
            60_000_000,
            &prev,
            120_000_000,
            120.0,
            60.0,
            &next,
        ))),
        Frame::Meta {
            start_us: 60_000_000,
            bytes: b"queries\t3\n".to_vec(),
        },
        Frame::Evict {
            reason: pubsub::EvictReason::TooSlow,
            undelivered: 3,
        },
        Frame::Bye,
    ];
    let bytes: Vec<u8> = frames.iter().flat_map(pubsub::encode_frame_vec).collect();
    assert_eq!(
        (bytes.len(), feed::crc32::crc32(&bytes)),
        (273, 0x6c67_33fc)
    );
}
