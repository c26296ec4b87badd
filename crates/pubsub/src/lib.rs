//! Live subscription serving tier: delta-encoded window pub/sub.
//!
//! The observatory's existing outputs are batch-shaped — TSV window dumps
//! and the columnar store. This crate adds the live path: a broker sits
//! behind the pipeline/aggregator *seal* path, keeps the current sealed
//! state per dataset, and pushes it to many concurrent subscribers as a
//! **snapshot then deltas** stream. A late joiner gets one snapshot per
//! dataset and is immediately consistent; steady-state traffic is the
//! per-window diff (changed entries + removed keys), which for a stable
//! Top-k is a small fraction of the full state.
//!
//! The layering mirrors the rest of the workspace:
//!
//! * [`codec`] — the versioned, CRC-framed wire format (`DOP1`), the same
//!   discipline as the sensor→collector feed codec;
//! * [`delta`] — canonical window states and the delta law
//!   `apply(prev, diff(prev, next)) == next` the proptests pin;
//! * [`broker`] — the sans-io [`BrokerCore`]: sealed windows in, per-client
//!   send/evict actions out, with bounded egress accounting so one slow
//!   subscriber can never stall the seal path;
//! * [`subscriber`] — the sans-io [`SubscriberCore`] that folds frames back
//!   into per-dataset window states;
//! * [`server`] / [`client`] — thin threaded std::net front ends over the
//!   two cores (`dnsobs … --serve ADDR` and `dnsobs subscribe`).
//!
//! Both cores are event-in/decision-out with injected time, so the chaos
//! harness drives broker and subscribers in the same deterministic loop it
//! uses for the feed and pipeline tiers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broker;
pub mod client;
pub mod codec;
pub mod delta;
pub mod server;
pub mod subscriber;

pub use broker::{
    Action, BrokerConfig, BrokerCore, BrokerReport, ClientTotals, EvictionRecord, SealedRecord,
};
pub use client::SubscribeClient;
pub use codec::{
    encode_frame, encode_frame_vec, EvictReason, Frame, FrameReader, Topic, MAGIC, MAX_FRAME,
    PROTOCOL_VERSION,
};
pub use delta::{
    apply_delta, apply_delta_owned, canonicalize, diff_states, strip_features, window_id_us,
    WindowDelta,
};
pub use server::{Server, ServerHandle};
pub use subscriber::{HeldWindow, SubError, SubEvent, SubscriberCore};
