//! Versioned, CRC-framed, length-prefixed record streams.
//!
//! This is the at-rest form of [`WindowState`] — what `dnsobs collect
//! --state-out` writes and `dnsobs aggregate --input` reads, and the
//! record body of the historical store's segments. Layout per record:
//!
//! ```text
//! magic "SKW1" (4) | version u8 | payload_len u32 LE | payload | crc32 u32 LE
//! ```
//!
//! The CRC covers the version, the length and the payload, so a flipped
//! length or version is caught just like flipped payload bytes. Decoding never
//! panics: every failure is a typed [`FeedError`]. Records are read
//! through the one framed-stream reader ([`RecordReader`]) or, from a
//! complete image, by [`read_all`] over the same codec. A reader that
//! wants only some records decodes in two steps: [`open_record`] checks
//! the CRC and the version ([`take_record`] splits and opens a record of
//! any version), then [`decode_payload`] parses the [`RecordHead`] and,
//! only if the head is wanted, the body.

use feed::framing::{self, FrameCodec, FrameReader};
use feed::{crc32::crc32, ByteReader, FeedError, FeedItem};

use crate::state::{RecordHead, WindowState};

/// Record stream magic.
pub const RECORD_MAGIC: [u8; 4] = *b"SKW1";
/// Record format version.
pub const RECORD_VERSION: u8 = 1;
/// Hard cap on one record's payload. File records are not bound by the
/// feed transport's frame cap, but an absurd length is still corruption.
pub const MAX_RECORD: usize = 64 << 20;

/// Magic, version and payload length: the bytes before the payload.
const HEADER: usize = 9;

/// Append one record to `out`, encoding the state straight into it.
pub fn write_record(ws: &WindowState, out: &mut Vec<u8>) {
    let at = begin_record(out);
    ws.encode(out);
    end_record(out, at);
}

/// Append one record whose payload is an item encoding made earlier
/// ([`WindowState::item_bytes`]): the same bytes [`write_record`] writes
/// for that state.
pub fn write_record_bytes(item: &[u8], out: &mut Vec<u8>) {
    let at = begin_record(out);
    out.extend_from_slice(item);
    end_record(out, at);
}

/// Write the magic, the version and a length placeholder; returns where
/// the CRC-covered part starts.
fn begin_record(out: &mut Vec<u8>) -> usize {
    out.extend_from_slice(&RECORD_MAGIC);
    let at = out.len();
    out.push(RECORD_VERSION);
    out.extend_from_slice(&[0; 4]);
    at
}

/// Patch the payload length written after `at`, then append the CRC over
/// version + length + payload.
fn end_record(out: &mut Vec<u8>, at: usize) {
    let len = (out.len() - at - 5) as u32;
    out[at + 1..at + 5].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&out[at..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// The SKW1 record format, for [`FrameReader`] and [`framing::take_frame`].
///
/// A bad magic, an unknown version or a length over [`MAX_RECORD`] is a
/// header error (fatal for the stream); a record that fails its CRC or
/// its decode is consumed.
#[derive(Debug)]
pub struct RecordCodec;

impl FrameCodec for RecordCodec {
    type Frame = WindowState;
    type Error = FeedError;
    const HEADER: usize = HEADER;

    fn frame_len(header: &[u8]) -> Result<usize, FeedError> {
        record_len(header, true)
    }

    fn decode(frame: &[u8]) -> Result<WindowState, FeedError> {
        let ws = decode_payload(open_record(frame)?, |_| true)?;
        Ok(ws.expect("a record kept by its head decodes its body"))
    }
}

/// SKW1 records of any version, split by magic and length alone: the
/// walk of [`take_record`], which checks a record's CRC before its
/// version.
struct AnyVersion;

impl FrameCodec for AnyVersion {
    type Frame = WindowState;
    type Error = FeedError;
    const HEADER: usize = HEADER;

    fn frame_len(header: &[u8]) -> Result<usize, FeedError> {
        record_len(header, false)
    }

    fn decode(frame: &[u8]) -> Result<WindowState, FeedError> {
        RecordCodec::decode(frame)
    }
}

/// A record's whole length from its header: the magic, then (with
/// `check_version`) the version, then the length are checked.
fn record_len(header: &[u8], check_version: bool) -> Result<usize, FeedError> {
    let magic: [u8; 4] = header[..4].try_into().expect("4 bytes");
    if magic != RECORD_MAGIC {
        return Err(FeedError::BadMagic(magic));
    }
    if check_version {
        version(header[4])?;
    }
    let len = u32::from_le_bytes(header[5..9].try_into().expect("4 bytes")) as usize;
    if len > MAX_RECORD {
        return Err(FeedError::Invalid("record payload too large"));
    }
    Ok(HEADER + len + 4)
}

fn version(got: u8) -> Result<(), FeedError> {
    match got {
        RECORD_VERSION => Ok(()),
        got => Err(FeedError::BadItemVersion {
            got,
            want: RECORD_VERSION,
        }),
    }
}

/// Check the CRC of one whole record frame (as [`RecordCodec::frame_len`]
/// measured it), then its version, and return its payload.
pub fn open_record(frame: &[u8]) -> Result<&[u8], FeedError> {
    let (covered, trailer) = frame[4..].split_at(frame.len() - 8);
    let expected = u32::from_le_bytes(trailer.try_into().expect("4 crc bytes"));
    let computed = crc32(covered);
    if expected != computed {
        return Err(FeedError::Crc { expected, computed });
    }
    version(covered[0])?;
    Ok(&covered[5..])
}

/// Take the record at the head of `bytes`, whatever its version, and
/// return its payload; `Ok(None)` when `bytes` holds no whole record.
/// The CRC is checked before the version, so an intact record of another
/// version is a [`FeedError::BadItemVersion`] and a damaged one, its
/// version byte included, a [`FeedError::Crc`].
pub fn take_record<'a>(bytes: &mut &'a [u8]) -> Result<Option<&'a [u8]>, FeedError> {
    match framing::split_frame::<AnyVersion>(bytes)? {
        Some(frame) => open_record(frame).map(Some),
        None => Ok(None),
    }
}

/// Decode a payload that [`open_record`] returned: its [`RecordHead`]
/// always, the body only when `keep` accepts the head. `None` is a
/// record skipped by its head, whose body is CRC-checked but not parsed.
pub fn decode_payload(
    payload: &[u8],
    keep: impl FnOnce(&RecordHead<'_>) -> bool,
) -> Result<Option<WindowState>, FeedError> {
    let mut r = ByteReader::new(payload);
    let head = RecordHead::decode(&mut r)?;
    if !keep(&head) {
        return Ok(None);
    }
    let ws = WindowState::decode_body(head, &mut r)?;
    if !r.is_empty() {
        return Err(FeedError::TrailingBytes(r.remaining()));
    }
    Ok(Some(ws))
}

/// Incremental decoder for a record stream: push bytes in, pull whole
/// records out with `next_frame`.
pub type RecordReader = FrameReader<RecordCodec>;

/// Decode a complete record stream strictly: every byte must belong to a
/// valid record (a truncated tail is a [`FeedError::Truncated`]), and the
/// first error ends the read.
pub fn read_all(mut bytes: &[u8]) -> Result<Vec<WindowState>, FeedError> {
    let mut out = Vec::new();
    while let Some(ws) = framing::take_frame::<RecordCodec>(&mut bytes)? {
        out.push(ws);
    }
    if !bytes.is_empty() {
        return Err(FeedError::Truncated("partial trailing record"));
    }
    Ok(out)
}
