//! Error type for wire-format encoding and decoding.

use std::fmt;

/// Errors produced while parsing or building DNS messages and IP headers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before a complete field could be read.
    Truncated {
        /// What was being parsed when the input ran out.
        what: &'static str,
    },
    /// A label exceeded 63 octets.
    LabelTooLong(usize),
    /// A complete name exceeded 255 octets.
    NameTooLong(usize),
    /// A compression pointer pointed at or after its own position, or a
    /// pointer chain was longer than the permitted maximum.
    BadPointer {
        /// Offset of the offending pointer.
        at: usize,
        /// Offset the pointer referred to.
        target: usize,
    },
    /// A label length octet used the reserved 0b10/0b01 prefix.
    BadLabelType(u8),
    /// RDLENGTH disagreed with the RDATA actually present.
    BadRdataLength {
        /// The record type whose RDATA was malformed.
        rtype: u16,
        /// RDLENGTH from the wire.
        declared: usize,
        /// Bytes actually consumed.
        consumed: usize,
    },
    /// A text string (e.g. in TXT) exceeded 255 octets when building.
    StringTooLong(usize),
    /// A name was given in presentation format that is not valid ASCII.
    NotAscii,
    /// An empty label (`..`) appeared in a presentation-format name.
    EmptyLabel,
    /// An IP header field was invalid (bad version, bad IHL, short packet).
    BadIpHeader(&'static str),
    /// UDP header invalid or inconsistent with payload.
    BadUdpHeader(&'static str),
    /// The message would exceed 65 535 octets when serialized.
    MessageTooLong(usize),
    /// A length-prefixed frame declared a payload above the format's
    /// maximum (see [`crate::framing::prefixed_len`]).
    FrameTooLarge {
        /// Declared payload length.
        len: usize,
        /// The decoder's maximum.
        max: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { what } => write!(f, "input truncated while reading {what}"),
            WireError::LabelTooLong(n) => write!(f, "label of {n} octets exceeds 63"),
            WireError::NameTooLong(n) => write!(f, "name of {n} octets exceeds 255"),
            WireError::BadPointer { at, target } => {
                write!(f, "invalid compression pointer at {at} -> {target}")
            }
            WireError::BadLabelType(b) => write!(f, "reserved label type octet {b:#04x}"),
            WireError::BadRdataLength {
                rtype,
                declared,
                consumed,
            } => write!(
                f,
                "rdata length mismatch for type {rtype}: declared {declared}, consumed {consumed}"
            ),
            WireError::StringTooLong(n) => write!(f, "character-string of {n} octets exceeds 255"),
            WireError::NotAscii => write!(f, "name is not ASCII"),
            WireError::EmptyLabel => write!(f, "empty label in name"),
            WireError::BadIpHeader(why) => write!(f, "bad IP header: {why}"),
            WireError::BadUdpHeader(why) => write!(f, "bad UDP header: {why}"),
            WireError::MessageTooLong(n) => write!(f, "message of {n} octets exceeds 65535"),
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} octets exceeds the {max}-octet limit")
            }
        }
    }
}

impl std::error::Error for WireError {}
