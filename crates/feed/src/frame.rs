//! Frame layer: HELLO / BATCH / BYE payloads in the DOF1 envelope.
//!
//! The envelope, shared with the pub/sub feed (`DOP1`), is a 32-bit
//! big-endian length prefix, a type octet, the body, and a CRC-32 of type
//! and body: [`frame_into`] writes it and [`open_payload`] checks it. The
//! layer is sans-io: [`encode_frame`] appends bytes to a buffer and
//! [`FrameReader`] consumes arbitrary stream chunks, so the whole
//! protocol round-trips in memory (and in CI) without a socket.

use crate::codec::{ByteReader, FeedItem};
use crate::crc32::crc32;
use crate::error::FeedError;
use crate::varint;
use dnswire::framing::{self, FrameCodec, LengthPrefix, U32Prefix};

/// Protocol magic carried in HELLO frames.
pub const MAGIC: [u8; 4] = *b"DOF1";

/// Frame-layer protocol revision.
pub const PROTOCOL_VERSION: u8 = 1;

/// Largest acceptable frame payload. A batch of 4096 worst-case DNS
/// summaries stays well below this; anything larger is a corrupted or
/// hostile length prefix.
pub const MAX_FRAME: usize = 4 << 20;

const TYPE_HELLO: u8 = 1;
const TYPE_BATCH: u8 = 2;
const TYPE_BYE: u8 = 3;

/// One decoded feed frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame<T> {
    /// Stream opener: version negotiation plus the sender's identity and
    /// the sequence number its next batch will carry (re-sent on every
    /// reconnect).
    Hello {
        /// Sensor identity (stable across reconnects).
        sensor: u64,
        /// Sequence number of the next BATCH on this connection.
        next_seq: u64,
        /// Item-codec revision the sensor encodes with.
        item_version: u8,
    },
    /// A batch of items with this sensor's monotone frame sequence number.
    Batch {
        /// Sensor identity.
        sensor: u64,
        /// Frame sequence number (consumed even by dropped frames, so
        /// gaps are observable).
        seq: u64,
        /// The decoded items, in sensor emission order.
        items: Vec<T>,
    },
    /// Orderly end of stream with the sensor's own loss accounting.
    Bye {
        /// Sensor identity.
        sensor: u64,
        /// Sequence number the next batch would have carried.
        next_seq: u64,
        /// Frames the sensor dropped at its full send buffer.
        dropped_frames: u64,
        /// Items inside those dropped frames.
        dropped_items: u64,
    },
}

impl<T> Frame<T> {
    /// The sensor identity every frame variant carries.
    pub fn sensor(&self) -> u64 {
        match *self {
            Frame::Hello { sensor, .. }
            | Frame::Batch { sensor, .. }
            | Frame::Bye { sensor, .. } => sensor,
        }
    }
}

/// Append one envelope frame of type `ty` whose body `body` writes
/// straight into `out`: the length prefix and the CRC are patched in
/// around it.
pub fn frame_into(out: &mut Vec<u8>, ty: u8, body: impl FnOnce(&mut Vec<u8>)) {
    let at = framing::begin_frame::<U32Prefix>(out);
    out.push(ty);
    body(out);
    let crc = crc32(&out[at + U32Prefix::WIDTH..]);
    out.extend_from_slice(&crc.to_le_bytes());
    framing::end_frame::<U32Prefix>(out, at);
}

/// Open one envelope payload (the bytes after the length prefix): check
/// that it holds a type octet and a CRC trailer and that the CRC matches,
/// then return the type and a reader over the body.
pub fn open_payload(payload: &[u8]) -> Result<(u8, ByteReader<'_>), FeedError> {
    if payload.len() < 5 {
        return Err(FeedError::Truncated("frame header"));
    }
    let (covered, trailer) = payload.split_at(payload.len() - 4);
    let expected = u32::from_le_bytes(trailer.try_into().expect("4 crc bytes"));
    let computed = crc32(covered);
    if expected != computed {
        return Err(FeedError::Crc { expected, computed });
    }
    Ok((covered[0], ByteReader::new(&covered[1..])))
}

/// Append `frame` to `out` as one length-prefixed stream frame.
pub fn encode_frame<T: FeedItem>(frame: &Frame<T>, out: &mut Vec<u8>) {
    let at = out.len();
    match frame {
        Frame::Hello {
            sensor,
            next_seq,
            item_version,
        } => frame_into(out, TYPE_HELLO, |out| {
            out.extend_from_slice(&MAGIC);
            out.push(PROTOCOL_VERSION);
            out.push(*item_version);
            varint::write_u64(*sensor, out);
            varint::write_u64(*next_seq, out);
        }),
        Frame::Batch { sensor, seq, items } => frame_into(out, TYPE_BATCH, |out| {
            varint::write_u64(*sensor, out);
            varint::write_u64(*seq, out);
            varint::write_u64(items.len() as u64, out);
            for item in items {
                item.encode(out);
            }
        }),
        Frame::Bye {
            sensor,
            next_seq,
            dropped_frames,
            dropped_items,
        } => frame_into(out, TYPE_BYE, |out| {
            varint::write_u64(*sensor, out);
            varint::write_u64(*next_seq, out);
            varint::write_u64(*dropped_frames, out);
            varint::write_u64(*dropped_items, out);
        }),
    }
    debug_assert!(
        out.len() - at - U32Prefix::WIDTH <= MAX_FRAME,
        "frame exceeds MAX_FRAME"
    );
}

/// Append a BATCH frame whose `count` items are already encoded
/// back-to-back in `items` — the sensor's byte-aware batching path,
/// which sizes batches as it encodes. Wire-identical to
/// [`encode_frame`] with [`Frame::Batch`].
pub(crate) fn encode_batch_preencoded(
    sensor: u64,
    seq: u64,
    count: u64,
    items: &[u8],
    out: &mut Vec<u8>,
) {
    let at = out.len();
    frame_into(out, TYPE_BATCH, |out| {
        varint::write_u64(sensor, out);
        varint::write_u64(seq, out);
        varint::write_u64(count, out);
        out.extend_from_slice(items);
    });
    debug_assert!(
        out.len() - at - U32Prefix::WIDTH <= MAX_FRAME,
        "frame exceeds MAX_FRAME"
    );
}

/// Decode one frame payload (the bytes after the length prefix, CRC
/// trailer included).
pub fn decode_payload<T: FeedItem>(payload: &[u8]) -> Result<Frame<T>, FeedError> {
    let (ty, mut r) = open_payload(payload)?;
    let frame = match ty {
        TYPE_HELLO => {
            let magic = r.bytes(4, "hello magic")?;
            if magic != MAGIC {
                return Err(FeedError::BadMagic(magic.try_into().expect("4 bytes")));
            }
            let protocol = r.u8("protocol version")?;
            if protocol != PROTOCOL_VERSION {
                return Err(FeedError::BadProtocolVersion {
                    got: protocol,
                    want: PROTOCOL_VERSION,
                });
            }
            let item_version = r.u8("item version")?;
            if item_version != T::ITEM_VERSION {
                return Err(FeedError::BadItemVersion {
                    got: item_version,
                    want: T::ITEM_VERSION,
                });
            }
            Frame::Hello {
                item_version,
                sensor: r.varint()?,
                next_seq: r.varint()?,
            }
        }
        TYPE_BATCH => {
            let sensor = r.varint()?;
            let seq = r.varint()?;
            let count = r.count(1, "batch items")?;
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                items.push(T::decode(&mut r)?);
            }
            Frame::Batch { sensor, seq, items }
        }
        TYPE_BYE => Frame::Bye {
            sensor: r.varint()?,
            next_seq: r.varint()?,
            dropped_frames: r.varint()?,
            dropped_items: r.varint()?,
        },
        other => return Err(FeedError::BadFrameType(other)),
    };
    if !r.is_empty() {
        return Err(FeedError::TrailingBytes(r.remaining()));
    }
    Ok(frame)
}

/// The DOF1 stream format of `T` items, for [`framing::FrameReader`].
pub struct FeedCodec<T>(std::marker::PhantomData<fn() -> T>);

impl<T: FeedItem> FrameCodec for FeedCodec<T> {
    type Frame = Frame<T>;
    type Error = FeedError;
    const HEADER: usize = U32Prefix::WIDTH;

    fn frame_len(header: &[u8]) -> Result<usize, FeedError> {
        Ok(framing::prefixed_len::<U32Prefix>(header, MAX_FRAME)?)
    }

    fn decode(frame: &[u8]) -> Result<Frame<T>, FeedError> {
        decode_payload(&frame[U32Prefix::WIDTH..])
    }
}

/// Incremental DOF1 decoder: push arbitrary chunks, pop decoded
/// [`Frame`]s. A payload that fails its CRC or its decode is consumed and
/// reported; an oversized length prefix is a [`FeedError::Framing`] that
/// repeats, and the connection should be dropped.
pub type FrameReader<T> = framing::FrameReader<FeedCodec<T>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testitem::TestItem;

    fn batch(seq: u64, vals: &[u64]) -> Frame<TestItem> {
        Frame::Batch {
            sensor: 9,
            seq,
            items: vals.iter().map(|&v| TestItem::new(v)).collect(),
        }
    }

    #[test]
    fn roundtrip_all_frame_types() {
        let frames = vec![
            Frame::Hello {
                sensor: 9,
                next_seq: 0,
                item_version: TestItem::ITEM_VERSION,
            },
            batch(0, &[1, 2, 3]),
            batch(1, &[]),
            Frame::Bye {
                sensor: 9,
                next_seq: 2,
                dropped_frames: 1,
                dropped_items: 4,
            },
        ];
        let mut stream = Vec::new();
        for f in &frames {
            encode_frame(f, &mut stream);
        }
        // Byte-at-a-time segmentation: the hard case of TCP reassembly.
        let mut reader = FrameReader::<TestItem>::new();
        let mut got = Vec::new();
        for &b in &stream {
            reader.push(&[b]);
            while let Some(f) = reader.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        assert_eq!(reader.buffered(), 0);
    }

    /// One HELLO, one BATCH and one BYE frame, each digested as (length,
    /// CRC-32) of the whole stream frame, length prefix included. The
    /// values were taken from the encoder before DOF1 and DOP1 shared one
    /// envelope writer: a change here changes the wire format.
    #[test]
    fn dof1_bytes_are_pinned() {
        let frames = [
            Frame::Hello {
                sensor: 9,
                next_seq: 42,
                item_version: TestItem::ITEM_VERSION,
            },
            batch(42, &[1, 2, 300]),
            Frame::Bye {
                sensor: 9,
                next_seq: 43,
                dropped_frames: 1,
                dropped_items: 4,
            },
        ];
        let digests: Vec<(usize, u32)> = frames
            .iter()
            .map(|f| {
                let mut out = Vec::new();
                encode_frame(f, &mut out);
                (out.len(), crate::crc32::crc32(&out))
            })
            .collect();
        assert_eq!(
            digests,
            [(17, 0x5025_1878), (60, 0xc1ac_007e), (13, 0x342c_a6fa),],
            "DOF1 bytes changed"
        );
    }

    #[test]
    fn preencoded_batch_is_wire_identical() {
        let items = vec![TestItem::new(1), TestItem::new(2), TestItem::new(3)];
        let mut encoded = Vec::new();
        for item in &items {
            item.encode(&mut encoded);
        }
        let mut direct = Vec::new();
        encode_batch_preencoded(9, 42, items.len() as u64, &encoded, &mut direct);
        let mut reference = Vec::new();
        encode_frame(
            &Frame::Batch {
                sensor: 9,
                seq: 42,
                items,
            },
            &mut reference,
        );
        assert_eq!(direct, reference);
    }

    #[test]
    fn corrupt_payload_byte_fails_crc_and_keeps_alignment() {
        let mut stream = Vec::new();
        encode_frame(&batch(0, &[7]), &mut stream);
        let first_len = stream.len();
        encode_frame(&batch(1, &[8]), &mut stream);
        // Flip one byte inside the first frame's payload (past the 4-byte
        // length prefix).
        stream[5] ^= 0xff;
        let mut reader = FrameReader::<TestItem>::new();
        reader.push(&stream);
        assert!(matches!(reader.next_frame(), Err(FeedError::Crc { .. })));
        // The second frame still decodes: alignment survived.
        assert_eq!(reader.next_frame().unwrap(), Some(batch(1, &[8])));
        let _ = first_len;
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut stream = Vec::new();
        encode_frame::<TestItem>(
            &Frame::Hello {
                sensor: 1,
                next_seq: 0,
                item_version: TestItem::ITEM_VERSION + 1,
            },
            &mut stream,
        );
        let mut reader = FrameReader::<TestItem>::new();
        reader.push(&stream);
        assert!(matches!(
            reader.next_frame(),
            Err(FeedError::BadItemVersion { .. })
        ));
    }

    #[test]
    fn oversized_length_prefix_is_fatal() {
        let mut reader = FrameReader::<TestItem>::new();
        reader.push(&(MAX_FRAME as u32 + 1).to_be_bytes());
        assert!(matches!(reader.next_frame(), Err(FeedError::Framing(_))));
    }
}
