//! The seal path encodes each record once, and the store's segment body
//! and `--state-out` frame those item bytes. Both framings must equal
//! encoding the states directly, and must keep the bytes the formats have
//! always had: the lengths and CRCs below were taken from the
//! state-encoding writers before the item-framing path existed.

use feed::crc32::crc32;
use sketchwire::{
    write_record, write_record_bytes, FeatureState, GateState, HistogramState, HllState, TopKEntry,
    TopKState, TopValuesState, WindowState,
};
use store::segment::{encode_segment, encode_segment_items};
use store::Store;

const SEGMENT: (usize, u32) = (1_164, 0xc4ca_34b4);
const STATE_OUT: (usize, u32) = (1_076, 0x91bd_3b48);

fn features(seed: u64) -> FeatureState {
    FeatureState {
        adds: vec![seed, seed * 3 + 1],
        maxes: vec![seed % 7],
        hlls: vec![HllState {
            p: 4,
            registers: (0..16).map(|r| ((seed + r) % 9) as u8).collect(),
        }],
        source_cap: 4,
        sources: vec![1, 3 + seed as u16],
        tops: vec![TopValuesState {
            capacity: 3,
            observed: 9,
            slots: vec![(seed, 4), (seed + 1, 2)],
        }],
        hists: vec![HistogramState {
            min: 1.0,
            base: 2.0,
            counts: vec![seed, 1, 0],
            observed_min: 1.5,
            observed_max: 3.0,
        }],
    }
}

/// Two windows of two datasets; one record is gated, one dataset split
/// into chunks, and one record comes from an upstream collector.
fn states() -> Vec<WindowState> {
    let topk = |dataset: &str, keys: &[&str], gate: Option<GateState>| TopKState {
        dataset: dataset.to_string(),
        capacity: 8,
        observed: 40,
        min_count: 1,
        error_bound: 5,
        evictions: 2,
        kept: 30,
        dropped: 6,
        filtered: 4,
        chunk: 0,
        chunks: 1,
        entries: keys
            .iter()
            .enumerate()
            .map(|(i, k)| TopKEntry {
                key: k.to_string(),
                count: 10 - i as u64,
                error: 1,
                inserted_at: i as f64 * 0.25,
                features: features(i as u64 + 1),
            })
            .collect(),
        gate,
    };
    let record = |upstream, start: f64, topk| WindowState {
        upstream,
        start,
        length: 60.0,
        topk,
    };
    let gate = GateState {
        num_bits: 100,
        num_hashes: 3,
        inserted: 7,
        words: vec![0x0123_4567_89ab_cdef, 0xf],
    };
    let mut out = vec![
        record(0, 0.0, topk("esld", &["a.example", "b.example"], None)),
        record(0, 0.0, topk("qtype", &["A", "AAAA", "MX"], Some(gate))),
    ];
    let chunks = topk("esld", &["c.example", "a.example", "d.example"], None).into_chunks(2);
    out.extend(chunks.into_iter().map(|c| record(2, 60.0, c)));
    out.push(record(2, 60.0, topk("qtype", &["TXT"], None)));
    out
}

fn digest(bytes: &[u8]) -> (usize, u32) {
    (bytes.len(), crc32(bytes))
}

#[test]
fn framing_item_bytes_keeps_segment_and_state_out_bytes() {
    let states = states();
    let items: Vec<Vec<u8>> = states.iter().map(WindowState::item_bytes).collect();

    let (direct, footer) = encode_segment(0, &states);
    let (framed, framed_footer) = encode_segment_items(0, &states, &items);
    assert!(direct == framed, "segment images differ");
    assert_eq!(footer, framed_footer);
    assert_eq!(digest(&direct), SEGMENT, "segment bytes changed");

    let (mut direct, mut framed) = (Vec::new(), Vec::new());
    states.iter().for_each(|ws| write_record(ws, &mut direct));
    items
        .iter()
        .for_each(|item| write_record_bytes(item, &mut framed));
    assert!(direct == framed, "state-out streams differ");
    assert_eq!(digest(&direct), STATE_OUT, "state-out bytes changed");
}

#[test]
fn append_encoded_writes_the_file_append_writes() {
    let root = std::env::temp_dir().join(format!("dnsobs-encode-once-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let states = states();
    let items: Vec<Vec<u8>> = states.iter().map(WindowState::item_bytes).collect();
    let (mut a, _) = Store::open(&root.join("a")).expect("open");
    let (mut b, _) = Store::open(&root.join("b")).expect("open");
    let meta_a = a.append(&states).expect("append");
    let meta_b = b.append_encoded(&states, &items).expect("append_encoded");
    assert_eq!(meta_a, meta_b);
    for name in [meta_a.name.as_str(), "MANIFEST"] {
        let read = |s: &Store| std::fs::read(s.dir().join(name)).expect("readable");
        assert!(read(&a) == read(&b), "{name} differs");
    }
    let empty: [WindowState; 0] = [];
    assert!(b.append_encoded(&empty, &[] as &[Vec<u8>]).is_err());
    let _ = std::fs::remove_dir_all(&root);
}
