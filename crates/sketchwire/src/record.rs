//! Versioned, CRC-framed, length-prefixed record streams.
//!
//! This is the at-rest form of [`WindowState`] — what `dnsobs collect
//! --state-out` writes and `dnsobs aggregate --input` reads, and the
//! serialization substrate the historical store will reuse for
//! compaction. Layout per record:
//!
//! ```text
//! magic "SKW1" (4) | version u8 | payload_len u32 LE | payload | crc32 u32 LE
//! ```
//!
//! The CRC covers the version byte and the payload, so a flipped length
//! or version is caught just like flipped payload bytes. Decoding never
//! panics: every failure is a typed [`FeedError`].

use feed::{crc32::crc32, ByteReader, FeedError, FeedItem};

use crate::state::WindowState;

/// Record stream magic.
pub const RECORD_MAGIC: [u8; 4] = *b"SKW1";
/// Record format version.
pub const RECORD_VERSION: u8 = 1;
/// Hard cap on one record's payload. File records are not bound by the
/// feed transport's frame cap, but an absurd length is still corruption.
pub const MAX_RECORD: usize = 64 << 20;

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

/// Incremental decoder for a record stream: push bytes in, pull whole
/// records out. Mirrors the feed's `FrameReader` discipline.
#[derive(Debug, Default)]
pub struct RecordReader {
    buf: Vec<u8>,
    decoded: u64,
}

impl RecordReader {
    /// New empty reader.
    pub fn new() -> RecordReader {
        RecordReader::default()
    }

    /// Append raw stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a decoded record.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Records decoded so far.
    pub fn decoded(&self) -> u64 {
        self.decoded
    }

    /// Decode the next whole record, `Ok(None)` if more bytes are needed.
    /// Errors are fatal for the stream (framing is lost after a bad
    /// header or CRC).
    pub fn next_record(&mut self) -> Result<Option<WindowState>, FeedError> {
        // magic + version + len
        if self.buf.len() < 9 {
            return Ok(None);
        }
        if self.buf[..4] != RECORD_MAGIC {
            let mut magic = [0u8; 4];
            magic.copy_from_slice(&self.buf[..4]);
            return Err(FeedError::BadMagic(magic));
        }
        let version = self.buf[4];
        if version != RECORD_VERSION {
            return Err(FeedError::BadItemVersion {
                got: version,
                want: RECORD_VERSION,
            });
        }
        let len = u32::from_le_bytes([self.buf[5], self.buf[6], self.buf[7], self.buf[8]]) as usize;
        if len > MAX_RECORD {
            return Err(FeedError::Invalid("record payload too large"));
        }
        let total = 9 + len + 4;
        if self.buf.len() < total {
            return Ok(None);
        }
        let expected = u32::from_le_bytes([
            self.buf[9 + len],
            self.buf[10 + len],
            self.buf[11 + len],
            self.buf[12 + len],
        ]);
        let computed = crc32(&self.buf[4..9 + len]);
        if expected != computed {
            return Err(FeedError::Crc { expected, computed });
        }
        let mut r = ByteReader::new(&self.buf[9..9 + len]);
        let ws = WindowState::decode(&mut r)?;
        if !r.is_empty() {
            return Err(FeedError::TrailingBytes(r.remaining()));
        }
        self.buf.drain(..total);
        self.decoded += 1;
        Ok(Some(ws))
    }
}

/// Decode a complete record stream strictly: every byte must belong to a
/// valid record (a truncated tail is a [`FeedError::Truncated`]).
pub fn read_all(bytes: &[u8]) -> Result<Vec<WindowState>, FeedError> {
    let mut reader = RecordReader::new();
    reader.push(bytes);
    let mut out = Vec::new();
    while let Some(ws) = reader.next_record()? {
        out.push(ws);
    }
    if reader.buffered() > 0 {
        return Err(FeedError::Truncated("partial trailing record"));
    }
    Ok(out)
}
