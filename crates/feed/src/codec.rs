//! Item-level codec plumbing: the [`FeedItem`] trait the transport is
//! generic over, and a bounds-checked [`ByteReader`] for decoding.
//!
//! The transport moves opaque items; what an item *is* (the Observatory's
//! `TxSummary`) is defined by the crate that owns the type. Encoders
//! append to a `Vec<u8>`; decoders pull from a `ByteReader` and must
//! return a clean [`FeedError`] on any malformed input — never panic,
//! never read out of bounds.

use crate::error::FeedError;
use crate::varint;

/// A value that can ride the feed.
pub trait FeedItem: Sized + Send + 'static {
    /// Item-codec revision; carried in HELLO so an incompatible sensor is
    /// rejected up front instead of feeding garbage through the CRC.
    const ITEM_VERSION: u8;

    /// Append the item's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decode one item. Implementations must consume exactly the bytes
    /// they wrote and validate every field.
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, FeedError>;

    /// How the collector interleaves concurrent sensor streams of this
    /// item (see [`MergeOrder`]).
    const MERGE: MergeOrder = MergeOrder::Time;

    /// Stream time of the item, seconds — the key the collector merges
    /// concurrent sensor streams by, and the order each stream must
    /// keep.
    fn order_time(&self) -> f64;
}

/// How the collector releases concurrent sensor streams of one item type.
/// Either way each stream stays FIFO and never goes back in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeOrder {
    /// One feed in `(time, sensor)` order: an item leaves only once every
    /// open stream has a head to compare it against. For folds whose
    /// result depends on the order of their input (`collect`'s).
    Time,
    /// Each stream's items leave as they arrive, never held back by a
    /// peer. For consumers that do not depend on how streams interleave
    /// (the aggregator, which folds upstreams in id order).
    Arrival,
}

/// A cursor over a frame payload with bounds-checked primitive reads.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Take the next `n` bytes as a slice.
    pub fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], FeedError> {
        if self.remaining() < n {
            return Err(FeedError::Truncated(what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Next octet.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, FeedError> {
        Ok(self.bytes(1, what)?[0])
    }

    /// Next two octets, little-endian.
    pub fn u16(&mut self, what: &'static str) -> Result<u16, FeedError> {
        let b = self.bytes(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Next four octets, little-endian.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, FeedError> {
        let b = self.bytes(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Next eight octets, little-endian.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, FeedError> {
        let b = self.bytes(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Next eight octets as an `f64` (IEEE bits, little-endian).
    pub fn f64(&mut self, what: &'static str) -> Result<f64, FeedError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// An unsigned LEB128 varint (≤10 octets).
    pub fn varint(&mut self) -> Result<u64, FeedError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8("varint")?;
            let bits = (byte & 0x7f) as u64;
            // The tenth octet may only carry the top bit of a u64.
            if shift == 63 && bits > 1 {
                return Err(FeedError::VarintOverflow);
            }
            v |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(FeedError::VarintOverflow)
    }

    /// A varint that must fit a `usize` count bounded by the bytes left
    /// in the frame (each counted element costs ≥ `min_elem_bytes`), so a
    /// corrupted count cannot trigger a huge allocation.
    pub fn count(&mut self, min_elem_bytes: usize, what: &'static str) -> Result<usize, FeedError> {
        let n = self.varint()?;
        let bound = self.remaining() / min_elem_bytes.max(1);
        if n > bound as u64 {
            return Err(FeedError::Truncated(what));
        }
        Ok(n as usize)
    }
}

/// Append a `u64` varint (re-exported next to the reader for symmetry).
pub fn write_varint(v: u64, out: &mut Vec<u8>) {
    varint::write_u64(v, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_reads() {
        let buf = [1u8, 2, 3];
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8("a").unwrap(), 1);
        assert_eq!(r.u16("b").unwrap(), u16::from_le_bytes([2, 3]));
        assert!(r.is_empty());
        assert_eq!(r.u8("end"), Err(FeedError::Truncated("end")));
    }

    #[test]
    fn varint_overflow_detected() {
        // Eleven continuation octets can never be a valid u64.
        let buf = [0xffu8; 11];
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.varint(), Err(FeedError::VarintOverflow));
    }

    #[test]
    fn count_bounded_by_remaining() {
        let mut buf = Vec::new();
        write_varint(1_000_000, &mut buf);
        buf.extend_from_slice(&[0u8; 4]);
        let mut r = ByteReader::new(&buf);
        assert!(matches!(r.count(4, "elems"), Err(FeedError::Truncated(_))));
    }
}
