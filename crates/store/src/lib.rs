//! Append-only columnar historical window store (the paper's DNSDB-style
//! lookback, rebuilt on sketch state instead of raw transactions).
//!
//! The Observatory seals one 10-minute window at a time; the paper then
//! aggregates those windows up an hour/day/month hierarchy and answers
//! "history of object X" queries over months. This crate is that tier:
//!
//! * [`segment`] — CRC-framed, versioned segment files holding serialized
//!   [`sketchwire::WindowState`] records, closed by a footer index (time
//!   range, datasets, key bloom) readable from the file tail without
//!   touching the record body.
//! * [`manifest`] — the store's single mutable file: a checksummed text
//!   manifest listing live segments, replaced only by write-temp +
//!   rename, so every crash leaves either the old or the new store view.
//! * [`store`] — open/append/scan plus crash recovery: the writer's
//!   [`Store::open`] sweeps orphan segments and temp files into a
//!   [`RecoveryReport`] (ledgered, never silent), a reader's
//!   [`Store::load`] touches nothing, and the newest durable window
//!   defines the resume frontier.
//! * [`compact`] — rolls fine segments up the hour/day/month hierarchy by
//!   *merging serialized sketch state* with `sketchwire`'s associative
//!   merge operators — raw transactions are never re-scanned, and the
//!   merged error bound is the sum of the inputs' bounds at every level.
//!   All filesystem mutations route through a fault-injectable
//!   [`compact::CrashFs`] so the chaos suite can kill the compactor at
//!   any seeded syscall.
//! * [`query`] — window reassembly and fold helpers behind `dnsobs
//!   query`: segment selection pruned by time, dataset and bloom, records
//!   skipped by their heads so only the answered bodies are decoded,
//!   per-window chunk reassembly, and the whole-store reference fold the
//!   chaos differential compares against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bloom;
pub mod compact;
pub mod manifest;
pub mod query;
pub mod segment;
pub mod store;

pub use bloom::KeyBloom;
pub use compact::{compact, compact_with, CompactionPolicy, CompactionReport, CrashFs, CrashPlan};
pub use manifest::{Manifest, SegmentMeta};
pub use query::{fold_states, HistoryPoint, QueryStats, WindowGroup};
pub use segment::{SegmentFooter, SEGMENT_MAGIC, SEGMENT_VERSION};
pub use store::{ExpiryReport, RecoveryReport, Store};

use std::fmt;

/// Every way the store can fail. Decoding is total: corrupt bytes map to
/// a typed error naming the segment, never a panic or a wrong answer.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem operation failed.
    Io {
        /// Path the operation touched.
        path: String,
        /// Underlying error.
        source: std::io::Error,
    },
    /// A segment file failed structural validation or record decoding.
    Segment {
        /// File name of the bad segment.
        segment: String,
        /// What was wrong.
        source: feed::FeedError,
    },
    /// A segment file is structurally corrupt (bad magic, truncated
    /// footer, footer CRC mismatch, impossible lengths).
    Corrupt {
        /// File name of the bad segment.
        segment: String,
        /// What was wrong.
        what: &'static str,
    },
    /// A segment file, or an intact record in it, carries a format version
    /// this build does not read: the file may be sound, so it is not
    /// flagged for quarantine.
    UnsupportedVersion {
        /// File name of the segment.
        segment: String,
        /// Version byte found in the segment's or the record's header.
        got: u8,
        /// Version this build reads.
        want: u8,
    },
    /// The manifest failed to parse or checksum.
    Manifest {
        /// What was wrong.
        what: String,
    },
    /// The manifest references a segment file that does not exist — the
    /// store lost data and must not silently serve partial answers.
    MissingSegment {
        /// File name of the missing segment.
        segment: String,
    },
    /// Sketch-state merge failed during compaction or query reassembly.
    Merge {
        /// Segment (or context) the states came from.
        context: String,
        /// Underlying merge error.
        source: sketchwire::StateError,
    },
    /// An injected fault killed the operation mid-flight (chaos only).
    Crashed,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => write!(f, "io error at {path}: {source}"),
            StoreError::Segment { segment, source } => {
                write!(f, "bad segment {segment}: {source}")
            }
            StoreError::Corrupt { segment, what } => {
                write!(f, "bad segment {segment}: {what}")
            }
            StoreError::UnsupportedVersion { segment, got, want } => write!(
                f,
                "segment {segment} holds format version {got}; this build reads version {want}"
            ),
            StoreError::Manifest { what } => write!(f, "bad manifest: {what}"),
            StoreError::MissingSegment { segment } => {
                write!(f, "manifest references missing segment {segment}")
            }
            StoreError::Merge { context, source } => {
                write!(f, "merge failed ({context}): {source}")
            }
            StoreError::Crashed => write!(f, "injected crash"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Segment { source, .. } => Some(source),
            StoreError::Merge { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl StoreError {
    /// The segment file name this error points at, if any — what `dnsobs
    /// query` prints so the operator knows which file to quarantine. A
    /// segment of an unsupported version is not bad, so it is not named.
    pub fn bad_segment(&self) -> Option<&str> {
        match self {
            StoreError::Segment { segment, .. }
            | StoreError::Corrupt { segment, .. }
            | StoreError::MissingSegment { segment } => Some(segment),
            _ => None,
        }
    }

    /// Shorthand for an io error at `path`.
    pub fn io(path: &std::path::Path, source: std::io::Error) -> StoreError {
        StoreError::Io {
            path: path.display().to_string(),
            source,
        }
    }
}
