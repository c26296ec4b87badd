//! The subscription wire format: versioned, CRC-framed `DOP1` frames.
//!
//! Same discipline as the sensor→collector feed codec: every frame is a
//! `u32`-length-prefixed payload of `type byte + body + crc32`, decoded
//! through the shared [`dnswire::framing`] reassembler so partial reads,
//! oversized prefixes and CRC damage all surface as typed errors with the
//! stream left aligned on the next frame. Snapshots reuse the federation
//! tier's [`WindowState`] item encoding verbatim; deltas carry the
//! [`WindowDelta`] body.
//!
//! Handshake: the client speaks first — `Hello` (magic + versions) then
//! `Subscribe` (topic list); the broker answers with its own `Hello` and
//! starts pushing. `Evict` and `Bye` are terminal notices from the broker.

use std::fmt;

use dnswire::framing::{self, LengthPrefix, U32Prefix};
use feed::codec::write_varint;
use feed::crc32::crc32;
use feed::{ByteReader, FeedError, FeedItem};
use sketchwire::WindowState;

use crate::delta::WindowDelta;

/// Wire magic carried in `Hello`: **D**NS **O**bservatory **P**ub/sub v1.
pub const MAGIC: [u8; 4] = *b"DOP1";

/// Codec version carried in `Hello`; bumped on layout changes.
pub const PROTOCOL_VERSION: u8 = 1;

/// Hard ceiling on one frame. Snapshots carry a whole per-dataset window
/// (the broker reassembles collector chunks before publishing), so the
/// cap is generous; anything larger is corruption, not data.
pub const MAX_FRAME: usize = 64 << 20;

const TYPE_HELLO: u8 = 1;
const TYPE_SUBSCRIBE: u8 = 2;
pub(crate) const TYPE_SNAPSHOT: u8 = 3;
pub(crate) const TYPE_DELTA: u8 = 4;
const TYPE_META: u8 = 5;
const TYPE_EVICT: u8 = 6;
const TYPE_BYE: u8 = 7;

/// Most topics one `Subscribe` may carry.
const MAX_TOPICS: usize = 64;
/// Longest accepted dataset name in a topic filter.
const MAX_DATASET_BYTES: usize = 256;
/// Largest accepted meta (TSV) body.
const MAX_META_BYTES: usize = 1 << 20;

/// One subscription filter. A client's topic list is a union: it receives
/// every frame any of its topics selects. An empty list subscribes to
/// everything at full fidelity (`features` + `meta`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Topic {
    /// Window frames with features stripped — ranks and bounds only.
    Topk,
    /// Window frames with full per-key feature state (implies `Topk`'s
    /// information; when both are named, `features` wins).
    Features,
    /// Pipeline meta TSV lines (gap/health summaries).
    Meta,
    /// Restrict window frames to one dataset; repeatable. No dataset
    /// topics means all datasets.
    Dataset(String),
}

impl Topic {
    /// Parse a CLI topic spec: `topk`, `features`, `meta`, or
    /// `dataset=NAME`.
    pub fn parse(s: &str) -> Option<Topic> {
        match s {
            "topk" => Some(Topic::Topk),
            "features" => Some(Topic::Features),
            "meta" => Some(Topic::Meta),
            _ => s
                .strip_prefix("dataset=")
                .filter(|n| !n.is_empty() && n.len() <= MAX_DATASET_BYTES)
                .map(|n| Topic::Dataset(n.to_string())),
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Topic::Topk => out.push(1),
            Topic::Features => out.push(2),
            Topic::Meta => out.push(3),
            Topic::Dataset(name) => {
                out.push(4);
                write_varint(name.len() as u64, out);
                out.extend_from_slice(name.as_bytes());
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Topic, FeedError> {
        match r.u8("topic kind")? {
            1 => Ok(Topic::Topk),
            2 => Ok(Topic::Features),
            3 => Ok(Topic::Meta),
            4 => {
                let len = r.count(1, "topic dataset")?;
                if len == 0 || len > MAX_DATASET_BYTES {
                    return Err(FeedError::Invalid("topic dataset length"));
                }
                let bytes = r.bytes(len, "topic dataset")?;
                match std::str::from_utf8(bytes) {
                    Ok(s) => Ok(Topic::Dataset(s.to_string())),
                    Err(_) => Err(FeedError::Invalid("topic dataset utf8")),
                }
            }
            _ => Err(FeedError::Invalid("topic kind")),
        }
    }
}

impl fmt::Display for Topic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Topic::Topk => write!(f, "topk"),
            Topic::Features => write!(f, "features"),
            Topic::Meta => write!(f, "meta"),
            Topic::Dataset(name) => write!(f, "dataset={name}"),
        }
    }
}

/// Why the broker terminated a subscription (carried in `Evict` frames
/// and the broker's departure ledger).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictReason {
    /// The client's egress stayed full through repeated snapshot-recovery
    /// attempts — it cannot keep up, and holding state for it would bound
    /// the seal path.
    TooSlow,
    /// The connection dropped (write/read error or EOF).
    Gone,
    /// The client violated the protocol (bad handshake or frame).
    Protocol,
    /// The broker is shutting down; the departure is not the client's
    /// fault.
    Shutdown,
}

impl EvictReason {
    fn code(self) -> u8 {
        match self {
            EvictReason::TooSlow => 1,
            EvictReason::Gone => 2,
            EvictReason::Protocol => 3,
            EvictReason::Shutdown => 4,
        }
    }

    fn from_code(code: u8) -> Result<EvictReason, FeedError> {
        match code {
            1 => Ok(EvictReason::TooSlow),
            2 => Ok(EvictReason::Gone),
            3 => Ok(EvictReason::Protocol),
            4 => Ok(EvictReason::Shutdown),
            _ => Err(FeedError::Invalid("evict reason")),
        }
    }

    /// Stable lowercase name used in ledgers and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            EvictReason::TooSlow => "too-slow",
            EvictReason::Gone => "gone",
            EvictReason::Protocol => "protocol",
            EvictReason::Shutdown => "shutdown",
        }
    }
}

impl fmt::Display for EvictReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One pub/sub frame, either direction.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Version handshake; first frame in each direction. Decode enforces
    /// magic and version equality, so a parsed `Hello` is a compatible
    /// one.
    Hello {
        /// Codec version (always [`PROTOCOL_VERSION`] after decode).
        protocol: u8,
        /// [`WindowState`] item version the peer speaks.
        item_version: u8,
    },
    /// Client's topic filter; second client frame.
    Subscribe {
        /// Union of subscription filters; empty = everything.
        topics: Vec<Topic>,
    },
    /// One dataset's whole published window (`upstream` is always 0: the
    /// broker publishes the merged view, not any one collector's).
    Snapshot(Box<WindowState>),
    /// One dataset's window-to-window difference.
    Delta(Box<WindowDelta>),
    /// Pipeline meta TSV bytes for one window.
    Meta {
        /// Window start, microseconds of virtual time.
        start_us: u64,
        /// Raw meta TSV bytes.
        bytes: Vec<u8>,
    },
    /// Terminal broker notice: the subscription was ended.
    Evict {
        /// Why.
        reason: EvictReason,
        /// Frames the broker had accepted for this client but not yet
        /// delivered at eviction time.
        undelivered: u64,
    },
    /// Clean end of stream (either direction).
    Bye,
}

/// Encode one frame, length-prefixed and CRC-trailed, appending to `out`.
pub fn encode_frame(frame: &Frame, out: &mut Vec<u8>) {
    match frame {
        Frame::Hello {
            protocol,
            item_version,
        } => frame_into(out, TYPE_HELLO, |out| {
            out.extend_from_slice(&MAGIC);
            out.push(*protocol);
            out.push(*item_version);
        }),
        Frame::Subscribe { topics } => frame_into(out, TYPE_SUBSCRIBE, |out| {
            write_varint(topics.len() as u64, out);
            for t in topics {
                t.encode(out);
            }
        }),
        Frame::Snapshot(state) => frame_into(out, TYPE_SNAPSHOT, |out| state.encode(out)),
        Frame::Delta(delta) => frame_into(out, TYPE_DELTA, |out| delta.encode(out)),
        Frame::Meta { start_us, bytes } => frame_into(out, TYPE_META, |out| {
            write_varint(*start_us, out);
            write_varint(bytes.len() as u64, out);
            out.extend_from_slice(bytes);
        }),
        Frame::Evict {
            reason,
            undelivered,
        } => frame_into(out, TYPE_EVICT, |out| {
            out.push(reason.code());
            write_varint(*undelivered, out);
        }),
        Frame::Bye => frame_into(out, TYPE_BYE, |_| {}),
    }
}

/// Append one frame of type `ty` whose body `body` writes straight into
/// `out`; the length prefix and the CRC are patched in around it.
pub(crate) fn frame_into(out: &mut Vec<u8>, ty: u8, body: impl FnOnce(&mut Vec<u8>)) {
    let at = framing::begin_frame::<U32Prefix>(out);
    out.push(ty);
    body(out);
    let crc = crc32(&out[at + U32Prefix::WIDTH..]);
    out.extend_from_slice(&crc.to_le_bytes());
    framing::end_frame::<U32Prefix>(out, at);
}

/// Convenience: encode one frame into a fresh buffer.
pub fn encode_frame_vec(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame(frame, &mut out);
    out
}

/// Decode one reassembled payload (length prefix already stripped).
pub fn decode_payload(payload: &[u8]) -> Result<Frame, FeedError> {
    if payload.len() < 5 {
        return Err(FeedError::Truncated("pubsub frame"));
    }
    let (body, crc_bytes) = payload.split_at(payload.len() - 4);
    let expected = u32::from_le_bytes(crc_bytes.try_into().expect("4 crc bytes"));
    let computed = crc32(body);
    if expected != computed {
        return Err(FeedError::Crc { expected, computed });
    }
    let mut r = ByteReader::new(body);
    let frame = match r.u8("frame type")? {
        TYPE_HELLO => {
            let magic: [u8; 4] = r
                .bytes(4, "hello magic")?
                .try_into()
                .expect("4 magic bytes");
            if magic != MAGIC {
                return Err(FeedError::BadMagic(magic));
            }
            let protocol = r.u8("hello protocol")?;
            if protocol != PROTOCOL_VERSION {
                return Err(FeedError::BadProtocolVersion {
                    got: protocol,
                    want: PROTOCOL_VERSION,
                });
            }
            let item_version = r.u8("hello item version")?;
            if item_version != WindowState::ITEM_VERSION {
                return Err(FeedError::BadItemVersion {
                    got: item_version,
                    want: WindowState::ITEM_VERSION,
                });
            }
            Frame::Hello {
                protocol,
                item_version,
            }
        }
        TYPE_SUBSCRIBE => {
            let n = r.count(1, "subscribe topics")?;
            if n > MAX_TOPICS {
                return Err(FeedError::Invalid("too many topics"));
            }
            let mut topics = Vec::with_capacity(n);
            for _ in 0..n {
                topics.push(Topic::decode(&mut r)?);
            }
            Frame::Subscribe { topics }
        }
        TYPE_SNAPSHOT => Frame::Snapshot(Box::new(WindowState::decode(&mut r)?)),
        TYPE_DELTA => Frame::Delta(Box::new(WindowDelta::decode(&mut r)?)),
        TYPE_META => {
            let start_us = r.varint()?;
            let len = r.count(1, "meta bytes")?;
            if len > MAX_META_BYTES {
                return Err(FeedError::Invalid("meta body too large"));
            }
            Frame::Meta {
                start_us,
                bytes: r.bytes(len, "meta bytes")?.to_vec(),
            }
        }
        TYPE_EVICT => Frame::Evict {
            reason: EvictReason::from_code(r.u8("evict reason")?)?,
            undelivered: r.varint()?,
        },
        TYPE_BYE => Frame::Bye,
        other => return Err(FeedError::BadFrameType(other)),
    };
    if !r.is_empty() {
        return Err(FeedError::TrailingBytes(r.remaining()));
    }
    Ok(frame)
}

/// Incremental frame decoder over arbitrary byte chunks.
///
/// Push bytes as they arrive; pull frames as they complete. A frame that
/// fails CRC or body validation is consumed (the error is returned once
/// and the stream stays aligned on the next length prefix); an oversized
/// or malformed length prefix is fatal.
#[derive(Debug)]
pub struct FrameReader {
    inner: Option<dnswire::framing::Reassembler<dnswire::framing::U32Prefix>>,
    decoded: u64,
}

impl Default for FrameReader {
    fn default() -> FrameReader {
        FrameReader::new()
    }
}

impl FrameReader {
    /// New reader enforcing [`MAX_FRAME`].
    pub fn new() -> FrameReader {
        FrameReader {
            inner: Some(dnswire::framing::Reassembler::new(MAX_FRAME)),
            decoded: 0,
        }
    }

    /// Feed received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        if let Some(inner) = &mut self.inner {
            inner.push(bytes);
        }
    }

    /// Frames successfully decoded so far.
    pub fn decoded(&self) -> u64 {
        self.decoded
    }

    /// Pull the next complete frame, `Ok(None)` when more bytes are
    /// needed.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FeedError> {
        let inner = match &mut self.inner {
            Some(inner) => inner,
            None => return Err(FeedError::Invalid("frame reader poisoned")),
        };
        match inner.next_frame() {
            Ok(Some(payload)) => {
                let frame = decode_payload(&payload)?;
                self.decoded += 1;
                Ok(Some(frame))
            }
            Ok(None) => Ok(None),
            Err(e) => {
                // A bad length prefix means the stream can never realign.
                self.inner = None;
                Err(FeedError::Framing(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketchwire::TopKState;

    fn tiny_window() -> WindowState {
        WindowState {
            upstream: 0,
            start: 600.0,
            length: 600.0,
            topk: TopKState {
                dataset: "esld".to_string(),
                capacity: 8,
                observed: 3,
                min_count: 0,
                error_bound: 0,
                evictions: 0,
                kept: 3,
                dropped: 0,
                filtered: 0,
                chunk: 0,
                chunks: 1,
                entries: Vec::new(),
                gate: None,
            },
        }
    }

    fn roundtrip(frame: Frame) {
        let bytes = encode_frame_vec(&frame);
        let mut rd = FrameReader::new();
        rd.push(&bytes);
        assert_eq!(rd.next_frame().unwrap(), Some(frame));
        assert!(rd.next_frame().unwrap().is_none());
    }

    #[test]
    fn frames_roundtrip() {
        roundtrip(Frame::Hello {
            protocol: PROTOCOL_VERSION,
            item_version: WindowState::ITEM_VERSION,
        });
        roundtrip(Frame::Subscribe {
            topics: vec![
                Topic::Features,
                Topic::Meta,
                Topic::Dataset("esld".to_string()),
            ],
        });
        roundtrip(Frame::Snapshot(Box::new(tiny_window())));
        roundtrip(Frame::Meta {
            start_us: 600_000_000,
            bytes: b"start\tend\n".to_vec(),
        });
        roundtrip(Frame::Evict {
            reason: EvictReason::TooSlow,
            undelivered: 17,
        });
        roundtrip(Frame::Bye);
    }

    #[test]
    fn split_delivery_reassembles() {
        let bytes = encode_frame_vec(&Frame::Bye);
        let mut rd = FrameReader::new();
        for b in &bytes {
            rd.push(std::slice::from_ref(b));
        }
        assert_eq!(rd.next_frame().unwrap(), Some(Frame::Bye));
    }

    #[test]
    fn crc_damage_is_typed_and_stream_realigns() {
        let mut bytes = encode_frame_vec(&Frame::Snapshot(Box::new(tiny_window())));
        let n = bytes.len();
        bytes[n - 1] ^= 0xff; // inside the CRC trailer
        encode_frame(&Frame::Bye, &mut bytes);
        let mut rd = FrameReader::new();
        rd.push(&bytes);
        assert!(matches!(rd.next_frame(), Err(FeedError::Crc { .. })));
        assert_eq!(rd.next_frame().unwrap(), Some(Frame::Bye), "realigned");
    }

    #[test]
    fn hello_version_mismatch_is_typed() {
        let mut payload = vec![1u8]; // TYPE_HELLO
        payload.extend_from_slice(&MAGIC);
        payload.push(99);
        payload.push(1);
        let crc = crc32(&payload);
        payload.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            decode_payload(&payload),
            Err(FeedError::BadProtocolVersion { got: 99, .. })
        ));
    }

    #[test]
    fn unknown_type_and_trailing_bytes_are_typed() {
        let mut payload = vec![42u8];
        let crc = crc32(&payload);
        payload.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            decode_payload(&payload),
            Err(FeedError::BadFrameType(42))
        ));

        let mut payload = vec![TYPE_BYE, 0xaa];
        let crc = crc32(&payload);
        payload.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            decode_payload(&payload),
            Err(FeedError::TrailingBytes(1))
        ));
    }

    #[test]
    fn topic_parse_covers_cli_forms() {
        assert_eq!(Topic::parse("topk"), Some(Topic::Topk));
        assert_eq!(Topic::parse("features"), Some(Topic::Features));
        assert_eq!(Topic::parse("meta"), Some(Topic::Meta));
        assert_eq!(
            Topic::parse("dataset=srvip"),
            Some(Topic::Dataset("srvip".to_string()))
        );
        assert_eq!(Topic::parse("dataset="), None);
        assert_eq!(Topic::parse("nope"), None);
    }
}
