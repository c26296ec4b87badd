//! `feed` — the sensor→collector transport of the Observatory.
//!
//! The paper's platform does not run inside the resolvers: hundreds of
//! sensor-equipped recursive resolvers summarize their cache-miss traffic
//! and *relay it over the network* to a central collector (the Farsight
//! SIE feed, paper §2.1). This crate reproduces that A→B boundary of
//! Figure 1 as a real transport:
//!
//! * a versioned, length-prefixed binary **frame codec** — compact
//!   varint/fixed encoding, per-frame batches, CRC-32 integrity, and
//!   per-sensor monotone sequence numbers — usable over any
//!   [`std::io::Read`]/[`std::io::Write`], so every path is testable
//!   in-memory ([`frame`], [`codec`]);
//! * a [`Sensor`] client with a bounded send buffer (drop accounting when
//!   full, like a real tap that must never stall the resolver) and
//!   reconnect with exponential backoff plus jitter ([`sensor`],
//!   [`backoff`]);
//! * a [`Collector`] TCP server (std::net + threads + crossbeam channels,
//!   matching the core pipeline's threading style) that accepts many
//!   sensor connections, detects sequence gaps and CRC failures per
//!   sensor, and merges the concurrent streams back into one
//!   time-ordered feed ([`collector`], [`merge`]).
//!
//! The crate is deliberately generic over the item type via [`FeedItem`]:
//! the Observatory's `TxSummary` codec lives in `dns-observatory` (which
//! depends on this crate), keeping the transport reusable and the
//! dependency graph acyclic.
//!
//! # Wire format
//!
//! Every frame is a 32-bit big-endian length prefix (reusing
//! [`dnswire::framing`]) followed by a payload that always ends in a
//! CRC-32 of everything before it:
//!
//! ```text
//! | u32 len | type u8 | body ... | crc32 u32 LE |
//!
//! HELLO body:  magic "DOF1" | protocol u8 | item version u8
//!              | sensor varint | next_seq varint
//! BATCH body:  sensor varint | seq varint | count varint | count × item
//! BYE body:    sensor varint | next_seq varint
//!              | dropped_frames varint | dropped_items varint
//! ```
//!
//! Sequence numbers count *frames* per sensor and are consumed even when
//! a frame is dropped at the sensor's full send buffer, so the collector
//! can report the exact loss as a sequence gap.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod codec;
pub mod collector;
pub mod crc32;
pub mod error;
pub mod frame;
pub mod machine;
pub mod merge;
pub mod metrics;
pub mod sensor;
#[cfg(test)]
pub(crate) mod testitem;
pub mod varint;

pub use backoff::{Backoff, BackoffConfig};
pub use codec::{ByteReader, FeedItem};
pub use collector::{
    Collector, CollectorConfig, CollectorCore, CollectorReport, FrameOutcome, MergedFeed,
    SensorLedger, SensorStats,
};
pub use error::FeedError;
pub use frame::{Frame, FrameReader, MAGIC, MAX_FRAME, PROTOCOL_VERSION};
pub use machine::{SealEvent, SensorMachine, SensorOp, Wrote};
pub use merge::TimeMerger;
pub use metrics::{CollectorMetrics, CollectorTotals, SensorMetrics};
pub use sensor::{SealedFrame, Sensor, SensorConfig, SensorEncoder, SensorReport};
