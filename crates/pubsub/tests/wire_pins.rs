//! DOP1 bytes, pinned: one frame of each type, digested as (length,
//! CRC-32) of the whole stream frame, length prefix included. The values
//! were taken from the encoder before DOF1 and DOP1 shared one envelope
//! writer; a change here changes the wire format.

use feed::crc32::crc32;
use feed::FeedItem;
use pubsub::{encode_frame_vec, EvictReason, Frame, Topic, WindowDelta, PROTOCOL_VERSION};
use sketchwire::{FeatureState, TopKEntry, TopKState, WindowState};

fn entry(key: &str, count: u64) -> TopKEntry {
    TopKEntry {
        key: key.to_string(),
        count,
        error: 1,
        inserted_at: 0.5,
        features: FeatureState {
            adds: vec![count, 2],
            maxes: vec![3],
            hlls: vec![],
            source_cap: 4,
            sources: vec![1, 2],
            tops: vec![],
            hists: vec![],
        },
    }
}

fn frames() -> Vec<Frame> {
    let topk = TopKState {
        dataset: "esld".to_string(),
        capacity: 8,
        observed: 30,
        min_count: 0,
        error_bound: 1,
        evictions: 2,
        kept: 30,
        dropped: 1,
        filtered: 0,
        chunk: 0,
        chunks: 1,
        entries: vec![entry("a.example", 20), entry("b.example", 10)],
        gate: None,
    };
    let delta = WindowDelta {
        dataset: "esld".to_string(),
        prev_window_us: 600_000_000,
        window_us: 1_200_000_000,
        start: 1200.0,
        length: 600.0,
        capacity: 8,
        observed: 31,
        min_count: 0,
        error_bound: 1,
        evictions: 2,
        kept: 31,
        dropped: 0,
        filtered: 0,
        changed: vec![entry("c.example", 11)],
        removed: vec!["b.example".to_string()],
    };
    vec![
        Frame::Hello {
            protocol: PROTOCOL_VERSION,
            item_version: WindowState::ITEM_VERSION,
        },
        Frame::Subscribe {
            topics: vec![Topic::Features, Topic::Meta, Topic::Dataset("esld".into())],
        },
        Frame::Snapshot(Box::new(WindowState {
            upstream: 0,
            start: 600.0,
            length: 600.0,
            topk,
        })),
        Frame::Delta(Box::new(delta)),
        Frame::Meta {
            start_us: 600_000_000,
            bytes: b"start\tend\n600\t1200\n".to_vec(),
        },
        Frame::Evict {
            reason: EvictReason::TooSlow,
            undelivered: 17,
        },
        Frame::Bye,
    ]
}

#[test]
fn dop1_bytes_are_pinned() {
    let digests: Vec<(usize, u32)> = frames()
        .iter()
        .map(|f| {
            let bytes = encode_frame_vec(f);
            (bytes.len(), crc32(&bytes))
        })
        .collect();
    assert_eq!(
        digests,
        [
            (15, 0xec82_c919),  // Hello
            (18, 0x7a97_71e3),  // Subscribe
            (111, 0x7524_2275), // Snapshot
            (94, 0x3d84_f257),  // Delta
            (34, 0xdf20_34fd),  // Meta
            (11, 0xdd6a_b897),  // Evict
            (9, 0x51a2_ad1c),   // Bye
        ],
        "DOP1 bytes changed"
    );
}
