//! DNS-over-TCP framing (RFC 1035 §4.2.2).
//!
//! The paper defers TCP/53 to future work (<3 % of DNS traffic); this
//! module implements that future work at the wire level so the platform
//! can ingest TCP streams: each message is preceded by a two-octet
//! big-endian length. [`encode_frame`] wraps one message;
//! [`FrameDecoder`] incrementally splits a byte stream back into
//! messages, tolerating arbitrary segmentation (the hard part of TCP
//! reassembly).

use crate::framing::{
    encode_frame_into, prefixed_len, FrameCodec, FrameReader, LengthPrefix, U16Prefix,
};
use crate::{Message, Result, WireError};

/// Maximum frame payload: the length prefix is 16 bits.
pub const MAX_FRAME: usize = u16::MAX as usize;

/// Serialize a message with its TCP length prefix.
pub fn encode_frame(msg: &Message) -> Result<Vec<u8>> {
    let body = msg.to_bytes()?;
    debug_assert!(body.len() <= MAX_FRAME, "to_bytes enforces the limit");
    let mut out = Vec::with_capacity(2 + body.len());
    encode_frame_into::<U16Prefix>(&body, &mut out);
    Ok(out)
}

/// The DNS-over-TCP stream format: a message behind a 16-bit length.
/// A frame must hold a parseable message, and an empty frame is an error.
#[derive(Debug)]
pub struct TcpCodec;

impl FrameCodec for TcpCodec {
    type Frame = Message;
    type Error = WireError;
    const HEADER: usize = U16Prefix::WIDTH;

    fn frame_len(header: &[u8]) -> Result<usize> {
        prefixed_len::<U16Prefix>(header, MAX_FRAME)
    }

    fn decode(frame: &[u8]) -> Result<Message> {
        match &frame[U16Prefix::WIDTH..] {
            [] => Err(WireError::Truncated {
                what: "empty TCP frame",
            }),
            body => Message::parse(body),
        }
    }
}

/// Incremental decoder for a TCP byte stream carrying DNS frames.
/// Buffered bytes are bounded by one frame (≤64 KiB + 2); a malformed
/// frame is reported and consumed, so the stream stays synchronized.
pub type FrameDecoder = FrameReader<TcpCodec>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Name, RecordType};

    fn sample(id: u16) -> Message {
        Message::query(
            id,
            Name::from_ascii(&format!("host{id}.example.com")).unwrap(),
            RecordType::A,
        )
    }

    /// Every well-formed message buffered in `dec`, skipping bad frames.
    fn drain_messages(dec: &mut FrameDecoder) -> Vec<Message> {
        let mut out = Vec::new();
        loop {
            match dec.next_frame() {
                Ok(Some(msg)) => out.push(msg),
                Ok(None) => return out,
                Err(_) => continue, // frame consumed, stream still aligned
            }
        }
    }

    #[test]
    fn frame_roundtrip() {
        let msg = sample(7);
        let frame = encode_frame(&msg).unwrap();
        assert_eq!(
            u16::from_be_bytes([frame[0], frame[1]]) as usize,
            frame.len() - 2
        );
        let mut dec = FrameDecoder::new();
        dec.push(&frame);
        assert_eq!(dec.next_frame().unwrap(), Some(msg));
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn byte_at_a_time_segmentation() {
        let msgs: Vec<Message> = (0..5).map(sample).collect();
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&encode_frame(m).unwrap());
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for &b in &stream {
            dec.push(&[b]);
            while let Some(m) = dec.next_frame().unwrap() {
                got.push(m);
            }
        }
        assert_eq!(got, msgs);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn multiple_messages_in_one_chunk() {
        let msgs: Vec<Message> = (10..14).map(sample).collect();
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&encode_frame(m).unwrap());
        }
        let mut dec = FrameDecoder::new();
        dec.push(&stream);
        assert_eq!(drain_messages(&mut dec), msgs);
    }

    #[test]
    fn malformed_frame_keeps_stream_aligned() {
        let good = sample(1);
        let mut stream = Vec::new();
        // A garbage frame with a valid length prefix...
        stream.extend_from_slice(&5u16.to_be_bytes());
        stream.extend_from_slice(&[0xff; 5]);
        // ...followed by a good one.
        stream.extend_from_slice(&encode_frame(&good).unwrap());
        let mut dec = FrameDecoder::new();
        dec.push(&stream);
        assert!(dec.next_frame().is_err());
        assert_eq!(dec.next_frame().unwrap(), Some(good));
    }

    #[test]
    fn zero_length_frame_rejected_and_skipped() {
        let good = sample(2);
        let mut dec = FrameDecoder::new();
        dec.push(&0u16.to_be_bytes());
        dec.push(&encode_frame(&good).unwrap());
        assert!(dec.next_frame().is_err());
        assert_eq!(dec.next_frame().unwrap(), Some(good));
    }

    #[test]
    fn drain_skips_bad_frames() {
        let msgs: Vec<Message> = (20..23).map(sample).collect();
        let mut stream = Vec::new();
        stream.extend_from_slice(&encode_frame(&msgs[0]).unwrap());
        stream.extend_from_slice(&3u16.to_be_bytes());
        stream.extend_from_slice(&[0xaa; 3]);
        stream.extend_from_slice(&encode_frame(&msgs[1]).unwrap());
        stream.extend_from_slice(&encode_frame(&msgs[2]).unwrap());
        let mut dec = FrameDecoder::new();
        dec.push(&stream);
        assert_eq!(drain_messages(&mut dec), msgs);
    }

    #[test]
    fn partial_header_waits() {
        let mut dec = FrameDecoder::new();
        dec.push(&[0x00]);
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(dec.buffered(), 1);
    }
}
