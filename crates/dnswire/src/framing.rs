//! Framed byte streams: one incremental reader for every framed format.
//!
//! Each stream this workspace reads starts every frame with a header that
//! states the frame's length: DNS-over-TCP (RFC 1035 §4.2.2, a 16-bit
//! big-endian length, see [`crate::tcp`]), and in the crates built on
//! this one the sensor feed (`DOF1`) and the pub/sub feed (`DOP1`), both a
//! 32-bit big-endian length, and the window-state records (`SKW1`: magic,
//! version, then a 32-bit little-endian length). A [`FrameCodec`] says
//! how long a frame is and how to decode one whole frame; [`FrameReader`]
//! does the rest once: it buffers arbitrary segmentation, decodes each
//! complete frame in place, and stays aligned after a bad frame.
//! [`take_frame`] runs the same codec over a complete, borrowed image.

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
    /// Write the prefix for `len` into `out[..WIDTH]` (caller guarantees
    /// `len <= MAX_LEN`).
    fn put(len: usize, out: &mut [u8]);
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

    fn put(len: usize, out: &mut [u8]) {
        out[..2].copy_from_slice(&(len as u16).to_be_bytes());
    }
}

/// 32-bit big-endian length prefix (sensor and pub/sub feed frames).
#[derive(Debug, Clone, Copy, Default)]
pub struct U32Prefix;

impl LengthPrefix for U32Prefix {
    const WIDTH: usize = 4;
    const MAX_LEN: usize = u32::MAX as usize;

    fn get(buf: &[u8]) -> usize {
        u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize
    }

    fn put(len: usize, out: &mut [u8]) {
        out[..4].copy_from_slice(&(len as u32).to_be_bytes());
    }
}

/// Append `payload` to `out` with its length prefix.
///
/// Panics in debug builds if the payload exceeds the prefix's range;
/// production callers size their frames (DNS messages ≤64 KiB).
pub fn encode_frame_into<P: LengthPrefix>(payload: &[u8], out: &mut Vec<u8>) {
    let at = begin_frame::<P>(out);
    out.extend_from_slice(payload);
    end_frame::<P>(out, at);
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
    P::put(len, &mut out[at..]);
}

/// The whole length of a frame behind a `P` length prefix, prefix
/// included; a prefix that states more than `max` payload octets is
/// [`WireError::FrameTooLarge`] (it protects a 32-bit decoder from
/// adversarial multi-gigabyte allocations).
pub fn prefixed_len<P: LengthPrefix>(header: &[u8], max: usize) -> Result<usize> {
    let len = P::get(header);
    if len > max {
        return Err(WireError::FrameTooLarge { len, max });
    }
    Ok(P::WIDTH + len)
}

/// One framed format: how long a frame is, and what it decodes to.
///
/// Implementations are zero-sized tags, like [`LengthPrefix`].
pub trait FrameCodec {
    /// What one frame decodes to.
    type Frame;
    /// Why a header or a frame is bad.
    type Error;
    /// Leading octets of a frame that [`FrameCodec::frame_len`] reads.
    const HEADER: usize;

    /// The whole frame's length, header included (never less than
    /// `HEADER`), from its first `HEADER` octets. An error here is fatal:
    /// the stream cannot be realigned, so nothing is consumed and readers
    /// return the error again on every later call.
    fn frame_len(header: &[u8]) -> std::result::Result<usize, Self::Error>;

    /// Decode one whole frame, header included. An error consumes the
    /// frame: its length keeps the stream aligned on the next one.
    fn decode(frame: &[u8]) -> std::result::Result<Self::Frame, Self::Error>;
}

/// Decode the frame at the head of `bytes` and advance `bytes` past it.
///
/// `Ok(None)` when `bytes` holds no whole frame. A header error consumes
/// nothing; a decode error consumes its frame.
pub fn take_frame<C: FrameCodec>(
    bytes: &mut &[u8],
) -> std::result::Result<Option<C::Frame>, C::Error> {
    match split_frame::<C>(bytes)? {
        Some(frame) => C::decode(frame).map(Some),
        None => Ok(None),
    }
}

/// [`take_frame`] without the decode: the whole undecoded frame at the
/// head of `bytes`, header included, for a reader that decodes it in
/// steps of its own.
pub fn split_frame<'a, C: FrameCodec>(
    bytes: &mut &'a [u8],
) -> std::result::Result<Option<&'a [u8]>, C::Error> {
    if bytes.len() < C::HEADER {
        return Ok(None);
    }
    let len = C::frame_len(&bytes[..C::HEADER])?;
    debug_assert!(len >= C::HEADER, "a frame holds its own header");
    if bytes.len() < len {
        return Ok(None);
    }
    let (frame, rest) = bytes.split_at(len);
    *bytes = rest;
    Ok(Some(frame))
}

/// Incremental reader for a framed byte stream.
///
/// Push arbitrary chunks with [`FrameReader::push`]; decoded frames come
/// out of [`FrameReader::next_frame`], each decoded in place from the
/// buffer. Consumed bytes are dropped at the next push, so the buffer is
/// compacted at most once per push. Errors follow [`take_frame`].
pub struct FrameReader<C> {
    buf: Vec<u8>,
    /// Octets at the head of `buf` already consumed.
    start: usize,
    _codec: std::marker::PhantomData<fn() -> C>,
}

impl<C> Default for FrameReader<C> {
    fn default() -> Self {
        FrameReader {
            buf: Vec::new(),
            start: 0,
            _codec: std::marker::PhantomData,
        }
    }
}

impl<C> FrameReader<C> {
    /// Fresh reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.start);
        self.start = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered towards frames not yet returned.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }
}

impl<C: FrameCodec> FrameReader<C> {
    /// Decode the next complete frame; `Ok(None)` means more bytes are
    /// needed.
    pub fn next_frame(&mut self) -> std::result::Result<Option<C::Frame>, C::Error> {
        let mut rest = &self.buf[self.start..];
        let before = rest.len();
        let frame = take_frame::<C>(&mut rest);
        self.start += before - rest.len();
        frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Raw payloads behind a 32-bit prefix of at most 256 octets; a
    /// payload starting with `!` is a decode error.
    struct Raw;

    impl FrameCodec for Raw {
        type Frame = Vec<u8>;
        type Error = WireError;
        const HEADER: usize = 4;

        fn frame_len(header: &[u8]) -> Result<usize> {
            prefixed_len::<U32Prefix>(header, 256)
        }

        fn decode(frame: &[u8]) -> Result<Vec<u8>> {
            match &frame[4..] {
                [b'!', ..] => Err(WireError::Truncated { what: "marked bad" }),
                payload => Ok(payload.to_vec()),
            }
        }
    }

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
            let mut re = FrameReader::<Raw>::new();
            let mut got = Vec::new();
            for piece in stream.chunks(chunk) {
                re.push(piece);
                while let Some(f) = re.next_frame().unwrap() {
                    got.push(f);
                }
            }
            assert_eq!(got, payloads, "chunk size {chunk}");
            assert_eq!(re.buffered(), 0);
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
        want.extend_from_slice(&300u32.to_be_bytes());
        want.extend_from_slice(&[7; 300]);
        assert_eq!(out, want);
    }

    #[test]
    fn zero_length_frames_are_yielded_empty() {
        let stream = framed::<U32Prefix>(&[b"", b"x"]);
        let mut re = FrameReader::<Raw>::new();
        re.push(&stream);
        assert_eq!(re.next_frame().unwrap(), Some(Vec::new()));
        assert_eq!(re.next_frame().unwrap(), Some(b"x".to_vec()));
        assert_eq!(re.next_frame().unwrap(), None);
    }

    #[test]
    fn bad_frame_is_consumed_and_the_next_decodes() {
        let stream = framed::<U32Prefix>(&[b"!", b"x"]);
        let mut re = FrameReader::<Raw>::new();
        re.push(&stream);
        assert!(re.next_frame().is_err());
        assert_eq!(re.next_frame().unwrap(), Some(b"x".to_vec()));
        assert_eq!(re.next_frame().unwrap(), None);
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut re = FrameReader::<Raw>::new();
        re.push(&257u32.to_be_bytes());
        assert!(matches!(
            re.next_frame(),
            Err(WireError::FrameTooLarge { len: 257, max: 256 })
        ));
        // Nothing was consumed: the error repeats until the caller drops
        // the stream, whatever follows.
        re.push(&framed::<U32Prefix>(&[b"x"]));
        assert!(re.next_frame().is_err());
        assert_eq!(re.buffered(), 4 + 5);
    }

    #[test]
    fn take_frame_walks_a_borrowed_image() {
        let stream = framed::<U32Prefix>(&[b"ab", b"!", b"c"]);
        let mut rest = &stream[..stream.len() - 1];
        assert_eq!(take_frame::<Raw>(&mut rest).unwrap(), Some(b"ab".to_vec()));
        assert!(take_frame::<Raw>(&mut rest).is_err());
        assert_eq!(take_frame::<Raw>(&mut rest).unwrap(), None);
        assert_eq!(rest, &stream[11..stream.len() - 1], "a partial frame stays");
    }
}
