//! Length-prefixed stream framing, parameterized by prefix width.
//!
//! Two protocols in this workspace delimit messages on a byte stream with
//! a big-endian length prefix: DNS-over-TCP (RFC 1035 §4.2.2, 16-bit) and
//! the Observatory's sensor feed (32-bit, see the `feed` crate). The
//! incremental-reassembly logic — buffer arbitrary segmentation, pop
//! complete frames, stay aligned after bad content — is identical, so it
//! lives here once; [`crate::tcp`] and the feed build their own message
//! semantics on top.

use crate::{Result, WireError};

/// A length-prefix encoding: how many octets, and how to read/write them.
///
/// Implementations are zero-sized tags; the prefix is always unsigned
/// big-endian, as every length-prefixed network protocol uses.
pub trait LengthPrefix {
    /// Width of the prefix on the wire, in octets.
    const WIDTH: usize;
    /// Largest payload length the prefix can express.
    const MAX_LEN: usize;

    /// Decode a prefix from `buf` (caller guarantees `buf.len() >= WIDTH`).
    fn get(buf: &[u8]) -> usize;
    /// Append the encoded prefix for `len` (caller guarantees
    /// `len <= MAX_LEN`).
    fn put(len: usize, out: &mut Vec<u8>);
}

/// 16-bit big-endian length prefix (DNS-over-TCP).
#[derive(Debug, Clone, Copy, Default)]
pub struct U16Prefix;

impl LengthPrefix for U16Prefix {
    const WIDTH: usize = 2;
    const MAX_LEN: usize = u16::MAX as usize;

    fn get(buf: &[u8]) -> usize {
        u16::from_be_bytes([buf[0], buf[1]]) as usize
    }

    fn put(len: usize, out: &mut Vec<u8>) {
        out.extend_from_slice(&(len as u16).to_be_bytes());
    }
}

/// 32-bit big-endian length prefix (sensor feed frames).
#[derive(Debug, Clone, Copy, Default)]
pub struct U32Prefix;

impl LengthPrefix for U32Prefix {
    const WIDTH: usize = 4;
    const MAX_LEN: usize = u32::MAX as usize;

    fn get(buf: &[u8]) -> usize {
        u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize
    }

    fn put(len: usize, out: &mut Vec<u8>) {
        out.extend_from_slice(&(len as u32).to_be_bytes());
    }
}

/// Append `payload` to `out` with its length prefix.
///
/// Panics in debug builds if the payload exceeds the prefix's range or
/// the caller-chosen maximum is violated upstream; production callers
/// size their frames (DNS messages ≤64 KiB, feed batches bounded by the
/// batch size).
pub fn encode_frame_into<P: LengthPrefix>(payload: &[u8], out: &mut Vec<u8>) {
    debug_assert!(payload.len() <= P::MAX_LEN, "payload exceeds prefix range");
    P::put(payload.len(), out);
    out.extend_from_slice(payload);
}

/// Open a frame whose payload is then written straight into `out`:
/// reserves the length prefix and returns its offset for [`end_frame`].
pub fn begin_frame<P: LengthPrefix>(out: &mut Vec<u8>) -> usize {
    let at = out.len();
    out.resize(at + P::WIDTH, 0);
    at
}

/// Close a frame opened at `at` by [`begin_frame`]: everything written
/// after the reserved prefix is the payload, and its length is patched in.
pub fn end_frame<P: LengthPrefix>(out: &mut [u8], at: usize) {
    let len = out.len() - at - P::WIDTH;
    debug_assert!(len <= P::MAX_LEN, "payload exceeds prefix range");
    let mut prefix = Vec::with_capacity(P::WIDTH);
    P::put(len, &mut prefix);
    out[at..at + P::WIDTH].copy_from_slice(&prefix);
}

/// Incremental reassembler for a length-prefixed byte stream.
///
/// Feed arbitrary chunks with [`Reassembler::push`]; complete frame
/// payloads come out of [`Reassembler::next_frame`]. The reassembler is
/// content-agnostic: zero-length frames are yielded as empty payloads and
/// it is the caller's protocol layer that decides whether those (or
/// unparseable payloads) are errors — the length prefix keeps the stream
/// aligned regardless.
#[derive(Debug)]
pub struct Reassembler<P: LengthPrefix> {
    buf: Vec<u8>,
    /// Frames yielded over the reassembler's lifetime.
    frames: u64,
    /// Largest acceptable payload; a declared length above this is an
    /// error (protects a 32-bit decoder from adversarial multi-gigabyte
    /// allocations).
    max_frame: usize,
    _prefix: std::marker::PhantomData<P>,
}

impl<P: LengthPrefix> Reassembler<P> {
    /// Fresh reassembler accepting payloads up to `max_frame` octets
    /// (clamped to the prefix's own range).
    pub fn new(max_frame: usize) -> Reassembler<P> {
        Reassembler {
            buf: Vec::new(),
            frames: 0,
            max_frame: max_frame.min(P::MAX_LEN),
            _prefix: std::marker::PhantomData,
        }
    }

    /// Append stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (incomplete frame).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Frames yielded over the reassembler's lifetime.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Try to pop the next complete frame payload.
    ///
    /// Returns `Ok(None)` when more bytes are needed. A declared length
    /// above the configured maximum yields [`WireError::FrameTooLarge`]
    /// without consuming anything — the stream cannot be realigned after
    /// an oversized (or corrupted) prefix, so the connection should be
    /// dropped.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>> {
        if self.buf.len() < P::WIDTH {
            return Ok(None);
        }
        let len = P::get(&self.buf);
        if len > self.max_frame {
            return Err(WireError::FrameTooLarge {
                len,
                max: self.max_frame,
            });
        }
        if self.buf.len() < P::WIDTH + len {
            return Ok(None);
        }
        let mut frame: Vec<u8> = self.buf.drain(..P::WIDTH + len).collect();
        frame.drain(..P::WIDTH);
        self.frames += 1;
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framed<P: LengthPrefix>(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in payloads {
            encode_frame_into::<P>(p, &mut out);
        }
        out
    }

    #[test]
    fn u32_roundtrip_any_segmentation() {
        let payloads: Vec<Vec<u8>> = (0..6).map(|i| vec![i as u8; i * 37]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        let stream = framed::<U32Prefix>(&refs);
        for chunk in [1usize, 3, 7, stream.len()] {
            let mut re = Reassembler::<U32Prefix>::new(1 << 20);
            let mut got = Vec::new();
            for piece in stream.chunks(chunk) {
                re.push(piece);
                while let Some(f) = re.next_frame().unwrap() {
                    got.push(f);
                }
            }
            assert_eq!(got, payloads, "chunk size {chunk}");
            assert_eq!(re.buffered(), 0);
            assert_eq!(re.frames(), payloads.len() as u64);
        }
    }

    #[test]
    fn u16_matches_tcp_layout() {
        let mut out = Vec::new();
        encode_frame_into::<U16Prefix>(b"abc", &mut out);
        assert_eq!(out, [0, 3, b'a', b'b', b'c']);
    }

    #[test]
    fn in_place_frames_match_encode_frame_into() {
        let mut out = b"head".to_vec();
        let at = begin_frame::<U32Prefix>(&mut out);
        out.extend_from_slice(&[7; 300]);
        end_frame::<U32Prefix>(&mut out, at);
        let mut want = b"head".to_vec();
        encode_frame_into::<U32Prefix>(&[7; 300], &mut want);
        assert_eq!(out, want);
    }

    #[test]
    fn zero_length_frames_are_yielded_empty() {
        let stream = framed::<U32Prefix>(&[b"", b"x"]);
        let mut re = Reassembler::<U32Prefix>::new(16);
        re.push(&stream);
        assert_eq!(re.next_frame().unwrap(), Some(Vec::new()));
        assert_eq!(re.next_frame().unwrap(), Some(b"x".to_vec()));
        assert_eq!(re.next_frame().unwrap(), None);
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut re = Reassembler::<U32Prefix>::new(8);
        re.push(&9u32.to_be_bytes());
        assert!(matches!(
            re.next_frame(),
            Err(WireError::FrameTooLarge { len: 9, max: 8 })
        ));
        // The error is sticky until the caller drops the stream: nothing
        // was consumed.
        assert!(re.next_frame().is_err());
    }
}
