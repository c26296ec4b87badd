//! One mutation corpus for every framed format: DNS/TCP, DOF1 (the
//! sensor feed), DOP1 (pub/sub), SKW1 (window-state records) and DOSG
//! (store segment images).
//!
//! [`mutations`] turns a valid stream into every truncation, every
//! single-byte flip (three masks), a few appended tails, and every splice
//! of one frame's head onto another frame's tail. Each format's decoder
//! drains every mutant, and the checks are:
//!
//! * no mutant panics, and every drain ends in `Ok(None)` or a typed
//!   error;
//! * a truncated stream yields exactly the whole frames before the cut,
//!   and a stream with bytes appended yields every frame it held;
//! * a CRC-framed format never yields a frame it was not sent, and every
//!   flip or splice inside CRC-covered bytes is an error;
//! * DOF1 and DOP1 consume a bad frame whose length is intact, and the
//!   frame after it still decodes;
//! * a DOSG image fails the same way whether its records are all decoded
//!   or all skipped by their heads.

use std::fmt::Debug;
use std::sync::Arc;

use dnswire::{tcp, Message, Name, RecordType};
use feed::FeedItem;
use pubsub::{EvictReason, Topic, WindowDelta};
use sketchwire::{FeatureState, TopKEntry, TopKState, Uplink, WindowState};

/// One call of a decoder on the (mutated) bytes.
#[derive(Debug, Clone, PartialEq)]
enum Step {
    /// A decoded frame, in its `Debug` form.
    Frame(String),
    /// A typed error, in its `Display` form.
    Error(String),
    /// `Ok(None)`: the decoder wants more bytes.
    Pending,
}

/// Calls per drain. The valid streams here hold at most 8 frames, so a
/// drain still going after this many calls is repeating a fatal error.
const MAX_STEPS: usize = 24;

/// Call `next` until it asks for more bytes or [`MAX_STEPS`] calls.
fn drain<F: Debug, E: std::fmt::Display>(
    mut next: impl FnMut() -> Result<Option<F>, E>,
) -> Vec<Step> {
    let mut steps = Vec::new();
    while steps.len() < MAX_STEPS {
        match next() {
            Ok(Some(frame)) => steps.push(Step::Frame(format!("{frame:?}"))),
            Ok(None) => {
                steps.push(Step::Pending);
                break;
            }
            Err(e) => steps.push(Step::Error(e.to_string())),
        }
    }
    steps
}

fn frames_of(steps: &[Step]) -> Vec<&str> {
    steps
        .iter()
        .filter_map(|s| match s {
            Step::Frame(f) => Some(f.as_str()),
            _ => None,
        })
        .collect()
}

fn has_error(steps: &[Step]) -> bool {
    steps.iter().any(|s| matches!(s, Step::Error(_)))
}

/// How a mutant was made from the valid stream.
#[derive(Debug, Clone)]
enum Kind {
    /// The stream cut after `cut` bytes.
    Truncate { cut: usize },
    /// Byte `offset` of frame `frame` flipped.
    Flip { frame: usize, offset: usize },
    /// Bytes appended after the last frame.
    Append,
    /// Frame `frame` replaced by its first `at` bytes followed by the
    /// partner frame's bytes from `at` on.
    Splice {
        frame: usize,
        at: usize,
        partner: Vec<u8>,
    },
}

struct Mutant {
    kind: Kind,
    bytes: Vec<u8>,
}

/// Every mutant of the stream `frames` (concatenated): each truncation,
/// each byte flipped by each of three masks, four appended tails (none a
/// whole frame), and each splice of a frame's head onto the tail of
/// another frame of the stream or of a `donor`.
fn mutations(frames: &[Vec<u8>], donors: &[Vec<u8>]) -> Vec<Mutant> {
    let stream = frames.concat();
    let replace = |frame: usize, with: &[u8]| {
        let mut bytes = frames[..frame].concat();
        bytes.extend_from_slice(with);
        bytes.extend(frames[frame + 1..].concat());
        bytes
    };
    let mut out = Vec::new();
    for cut in 0..stream.len() {
        out.push(Mutant {
            kind: Kind::Truncate { cut },
            bytes: stream[..cut].to_vec(),
        });
    }
    for (frame, bytes) in frames.iter().enumerate() {
        for offset in 0..bytes.len() {
            for mask in [0x01, 0x80, 0xff] {
                let mut flipped = bytes.clone();
                flipped[offset] ^= mask;
                out.push(Mutant {
                    kind: Kind::Flip { frame, offset },
                    bytes: replace(frame, &flipped),
                });
            }
        }
    }
    let first = &frames[0];
    for tail in [
        vec![0x00],
        vec![0xff; 5],
        first[..first.len() / 2].to_vec(),
        first[..first.len() - 1].to_vec(),
    ] {
        let mut bytes = stream.clone();
        bytes.extend_from_slice(&tail);
        out.push(Mutant {
            kind: Kind::Append,
            bytes,
        });
    }
    for (frame, head) in frames.iter().enumerate() {
        let partners = frames
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != frame)
            .map(|(_, p)| p)
            .chain(donors);
        for partner in partners {
            for at in 1..head.len().min(partner.len()) {
                let mut spliced = head[..at].to_vec();
                spliced.extend_from_slice(&partner[at..]);
                out.push(Mutant {
                    kind: Kind::Splice {
                        frame,
                        at,
                        partner: partner.clone(),
                    },
                    bytes: replace(frame, &spliced),
                });
            }
        }
    }
    out
}

/// A streamed format under test.
struct Format {
    name: &'static str,
    /// The valid stream, one frame per element.
    frames: Vec<Vec<u8>>,
    /// Each frame as its decoder prints it.
    decoded: Vec<String>,
    /// Leading bytes of a frame that set its length: damage there may
    /// reframe the rest of the stream.
    header: usize,
    /// First byte of a frame its CRC covers; `None` for a format without
    /// one.
    crc_from: Option<usize>,
    /// Whether a bad frame with an intact length is consumed and the
    /// frame after it decodes.
    resyncs: bool,
    /// Push the bytes into a fresh reader and drain it.
    drain: fn(&[u8]) -> Vec<Step>,
}

fn check(f: &Format) {
    let want: Vec<&str> = f.decoded.iter().map(String::as_str).collect();
    let clean = (f.drain)(&f.frames.concat());
    assert_eq!(frames_of(&clean), want, "{}: the valid stream", f.name);
    assert_eq!(clean.last(), Some(&Step::Pending), "{}", f.name);
    let ends: Vec<usize> = f
        .frames
        .iter()
        .scan(0, |end, fr| {
            *end += fr.len();
            Some(*end)
        })
        .collect();
    let without = |i: usize| -> Vec<&str> {
        let mut w = want.clone();
        w.remove(i);
        w
    };
    for m in mutations(&f.frames, &[]) {
        let steps = (f.drain)(&m.bytes);
        let got = frames_of(&steps);
        let ctx = || format!("{} {:?} {:02x?}: {steps:?}", f.name, m.kind, m.bytes);
        assert!(
            matches!(steps.last(), Some(Step::Pending | Step::Error(_))),
            "{}: the drain did not end",
            ctx()
        );
        if f.crc_from.is_some() {
            assert!(
                got.iter().all(|g| want.contains(g)),
                "{}: decoded a frame it was not sent",
                ctx()
            );
        }
        match &m.kind {
            Kind::Truncate { cut } => {
                let whole = ends.iter().filter(|&&e| e <= *cut).count();
                assert_eq!(got, want[..whole], "{}", ctx());
                assert_eq!(got.len() + 1, steps.len(), "{}: error mid-stream", ctx());
            }
            Kind::Append => {
                assert_eq!(got, want, "{}", ctx());
                assert!(
                    !has_error(&steps[..got.len()]),
                    "{}: error mid-stream",
                    ctx()
                );
            }
            Kind::Flip { frame, offset } => {
                if f.crc_from.is_some_and(|c| *offset >= c) {
                    assert!(has_error(&steps), "{}: CRC-covered flip accepted", ctx());
                    assert!(got.starts_with(&want[..*frame]), "{}", ctx());
                    assert!(!got.contains(&want[*frame]), "{}", ctx());
                }
                if f.resyncs && *offset >= f.header {
                    assert_eq!(got, without(*frame), "{}: no resync", ctx());
                }
            }
            Kind::Splice { frame, at, partner } => {
                let head = &f.frames[*frame];
                let same_len = head.len() == partner.len();
                // Neither the frame it replaced nor its partner.
                let new = head[*at..] != partner[*at..] && head[..*at] != partner[..*at];
                if f.crc_from.is_some() && *at >= f.header && same_len && new {
                    assert!(has_error(&steps), "{}: CRC-covered splice accepted", ctx());
                    if f.resyncs {
                        assert_eq!(got, without(*frame), "{}: no resync", ctx());
                    }
                }
            }
        }
    }
}

fn entry(key: &str, count: u64) -> TopKEntry {
    TopKEntry {
        key: key.to_string(),
        count,
        error: 1,
        inserted_at: 0.25,
        features: FeatureState {
            adds: vec![count, 1],
            maxes: vec![2],
            hlls: vec![],
            source_cap: 4,
            sources: vec![1],
            tops: vec![],
            hists: vec![],
        },
    }
}

fn window(upstream: u64, start: f64, dataset: &str, entries: &[(&str, u64)]) -> WindowState {
    WindowState {
        upstream,
        start,
        length: 60.0,
        topk: TopKState {
            dataset: dataset.to_string(),
            capacity: 8,
            observed: 40,
            min_count: 0,
            error_bound: 1,
            evictions: 0,
            kept: 40,
            dropped: 0,
            filtered: 0,
            chunk: 0,
            chunks: 1,
            entries: entries.iter().map(|&(k, c)| entry(k, c)).collect(),
            gate: None,
        },
    }
}

fn debug_all<T: Debug>(frames: &[T]) -> Vec<String> {
    frames.iter().map(|f| format!("{f:?}")).collect()
}

#[test]
fn dns_tcp_streams() {
    let msgs: Vec<Message> = [1u16, 2, 3, 40]
        .iter()
        .map(|&id| {
            let name = Name::from_ascii(&format!("host{id}.example.com")).unwrap();
            Message::query(id, name, RecordType::A)
        })
        .collect();
    check(&Format {
        name: "DNS/TCP",
        frames: msgs.iter().map(|m| tcp::encode_frame(m).unwrap()).collect(),
        decoded: debug_all(&msgs),
        header: 2,
        crc_from: None,
        resyncs: false,
        drain: |bytes| {
            let mut r = tcp::FrameDecoder::new();
            r.push(bytes);
            drain(|| r.next_frame())
        },
    });
}

#[test]
fn dof1_streams() {
    let closed = |through| Uplink::Closed {
        upstream: 3,
        through,
    };
    let ws = window(3, 0.0, "esld", &[("a.example", 5), ("b.example", 2)]);
    let frames: Vec<feed::Frame<Uplink>> = vec![
        feed::Frame::Hello {
            sensor: 3,
            next_seq: 0,
            item_version: Uplink::ITEM_VERSION,
        },
        feed::Frame::Batch {
            sensor: 3,
            seq: 0,
            items: vec![Uplink::State(Arc::new(ws)), closed(60.0)],
        },
        feed::Frame::Batch {
            sensor: 3,
            seq: 1,
            items: vec![closed(120.0)],
        },
        feed::Frame::Batch {
            sensor: 3,
            seq: 2,
            items: vec![closed(180.0)],
        },
        feed::Frame::Bye {
            sensor: 3,
            next_seq: 3,
            dropped_frames: 0,
            dropped_items: 0,
        },
    ];
    let encoded = frames
        .iter()
        .map(|f| {
            let mut out = Vec::new();
            feed::frame::encode_frame(f, &mut out);
            out
        })
        .collect();
    check(&Format {
        name: "DOF1",
        frames: encoded,
        decoded: debug_all(&frames),
        header: 4,
        crc_from: Some(4),
        resyncs: true,
        drain: |bytes| {
            let mut r = feed::FrameReader::<Uplink>::new();
            r.push(bytes);
            drain(|| r.next_frame())
        },
    });
}

#[test]
fn dop1_streams() {
    let delta = WindowDelta {
        dataset: "esld".to_string(),
        prev_window_us: 0,
        window_us: 60_000_000,
        start: 60.0,
        length: 60.0,
        capacity: 8,
        observed: 41,
        min_count: 0,
        error_bound: 1,
        evictions: 0,
        kept: 41,
        dropped: 0,
        filtered: 0,
        changed: vec![entry("c.example", 4)],
        removed: vec!["b.example".to_string()],
    };
    let ws = window(0, 0.0, "esld", &[("a.example", 5), ("b.example", 2)]);
    let frames = vec![
        pubsub::Frame::Hello {
            protocol: pubsub::PROTOCOL_VERSION,
            item_version: WindowState::ITEM_VERSION,
        },
        pubsub::Frame::Subscribe {
            topics: vec![Topic::Topk, Topic::Dataset("esld".to_string())],
        },
        pubsub::Frame::Snapshot(Box::new(ws)),
        pubsub::Frame::Delta(Box::new(delta)),
        pubsub::Frame::Meta {
            start_us: 60_000_000,
            bytes: b"start\tend\n".to_vec(),
        },
        pubsub::Frame::Evict {
            reason: EvictReason::TooSlow,
            undelivered: 17,
        },
        pubsub::Frame::Evict {
            reason: EvictReason::Shutdown,
            undelivered: 3,
        },
        pubsub::Frame::Bye,
    ];
    check(&Format {
        name: "DOP1",
        frames: frames.iter().map(pubsub::encode_frame_vec).collect(),
        decoded: debug_all(&frames),
        header: 4,
        crc_from: Some(4),
        resyncs: true,
        drain: |bytes| {
            let mut r = pubsub::FrameReader::new();
            r.push(bytes);
            drain(|| r.next_frame())
        },
    });
}

/// Drain an SKW1 stream as `read_all` reads a file: bytes left over when
/// the reader wants more are a truncated record.
fn drain_skw1(bytes: &[u8]) -> Vec<Step> {
    let mut r = sketchwire::RecordReader::new();
    r.push(bytes);
    let mut steps = drain(|| r.next_frame());
    if steps.last() == Some(&Step::Pending) && r.buffered() > 0 {
        *steps.last_mut().unwrap() = Step::Error("partial trailing record".to_string());
    }
    steps
}

#[test]
fn skw1_streams() {
    let states = vec![
        window(1, 0.0, "esld", &[("a.example", 5)]),
        window(1, 0.0, "esld", &[("b.example", 6)]),
        window(2, 60.0, "qtype", &[("A", 9), ("AAAA", 3)]),
    ];
    let frames: Vec<Vec<u8>> = states
        .iter()
        .map(|ws| {
            let mut out = Vec::new();
            sketchwire::write_record(ws, &mut out);
            out
        })
        .collect();
    let f = Format {
        name: "SKW1",
        frames,
        decoded: debug_all(&states),
        header: 9,
        crc_from: Some(4),
        resyncs: false,
        drain: drain_skw1,
    };
    check(&f);
    // `read_all` is the strict form of the same reader: it fails exactly
    // when the drain meets an error, and otherwise returns what it drained.
    for m in mutations(&f.frames, &[]) {
        let steps = drain_skw1(&m.bytes);
        match sketchwire::read_all(&m.bytes) {
            Ok(states) => {
                assert!(!has_error(&steps), "{:?}: {steps:?}", m.kind);
                assert_eq!(debug_all(&states), frames_of(&steps), "{:?}", m.kind);
            }
            Err(_) => assert!(has_error(&steps), "{:?}: {steps:?}", m.kind),
        }
    }
}

/// Two segment images of different levels, and the states of each.
fn dosg_images() -> [(Vec<u8>, Vec<WindowState>); 2] {
    use store::segment::encode_segment;
    let a = vec![
        window(1, 0.0, "esld", &[("a.example", 5), ("b.example", 2)]),
        window(1, 0.0, "qtype", &[("A", 9)]),
    ];
    let b = vec![window(2, 60.0, "esld", &[("c.example", 7)])];
    [(encode_segment(0, &a).0, a), (encode_segment(1, &b).0, b)]
}

/// The segment a store error names: a bad one, or one of a version this
/// build does not read (named, but not flagged for quarantine).
fn segment_named(e: &store::StoreError) -> Option<&str> {
    match e {
        store::StoreError::UnsupportedVersion { segment, .. } => Some(segment),
        e => e.bad_segment(),
    }
}

#[test]
fn dosg_segment_images() {
    use store::segment::decode_segment;
    let [(img_a, a), (img_b, b)] = dosg_images();
    for (img, states, donor) in [(&img_a, &a, &img_b), (&img_b, &b, &img_a)] {
        let (_, back) = decode_segment(img, "t.seg").expect("valid image");
        assert_eq!(&back, states);
        for m in mutations(std::slice::from_ref(img), std::slice::from_ref(donor)) {
            match decode_segment(&m.bytes, "t.seg") {
                // A splice can rebuild an image whole (a common prefix);
                // anything else that decodes was never written.
                Ok(_) => assert!(
                    m.bytes == img_a || m.bytes == img_b,
                    "{:?}: a mutated image decoded",
                    m.kind
                ),
                Err(e) => assert_eq!(segment_named(&e), Some("t.seg"), "{:?}: {e}", m.kind),
            }
        }
    }
}

/// The record walk a query runs, keeping no record: every record is still
/// CRC-checked and counted against the footer, so every flip and every
/// truncation fails it, just as it fails the whole decode.
#[test]
fn dosg_walk_keeping_nothing() {
    use store::segment::{decode_records, read_footer};
    let walk = |bytes: &[u8]| {
        let (footer, body) = read_footer(bytes, "t.seg")?;
        decode_records(&bytes[body], &footer, "t.seg", |_| false)
    };
    let [(img_a, _), (img_b, _)] = dosg_images();
    for (img, donor) in [(&img_a, &img_b), (&img_b, &img_a)] {
        assert_eq!(walk(img).expect("valid image"), vec![]);
        for m in mutations(std::slice::from_ref(img), std::slice::from_ref(donor)) {
            match walk(&m.bytes) {
                Ok(kept) => {
                    assert!(
                        matches!(m.kind, Kind::Append | Kind::Splice { .. })
                            && (m.bytes == img_a || m.bytes == img_b),
                        "{:?}: a mutated image walked cleanly",
                        m.kind
                    );
                    assert!(kept.is_empty(), "{:?}: kept a record", m.kind);
                }
                Err(e) => assert_eq!(segment_named(&e), Some("t.seg"), "{:?}: {e}", m.kind),
            }
        }
    }
}
