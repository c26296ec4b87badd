//! `chaos` — deterministic fault-injection kernel for the feed/pipeline
//! path.
//!
//! The Observatory's ingest path (paper Figure 1: sensors → collector →
//! stream jobs) must not lose data *silently*: the feed protocol promises
//! that every item is either delivered or explicitly accounted for
//! (sensor drop tallies, collector sequence gaps, late-item counts).
//! This crate turns that promise into a machine-checked property.
//!
//! Five pieces, all sans-io and fully deterministic:
//!
//! * **Virtual time** ([`clock`]) — a microsecond clock plus an event
//!   queue; reconnect/backoff schedules that take wall-clock seconds in
//!   the TCP tests replay in microseconds, with zero `sleep()` calls.
//! * **Scripted faults** ([`fault`], [`harness`]) — the sensor state
//!   machines ([`feed::SensorMachine`]) and the collector core
//!   ([`feed::CollectorCore`]) talk through a virtual link that executes
//!   a seed-derived [`fault::SensorPlan`]: byte corruption, arbitrary
//!   segmentation, duplication, stalls, connection resets, and refused
//!   connects.
//! * **Differential oracle** ([`oracle`]) — replays the ground truth
//!   (every push, seal, write) against the collector's final report and
//!   rejects any divergence that is not covered by an explicit loss
//!   ledger entry. A failing seed is shrunk by the built-in
//!   delta-debugger ([`minimize`]) into a one-screen repro.
//! * **Store-crash axis** ([`storecrash`]) — seeded kill points for the
//!   historical store's compactor (after segment write, before manifest
//!   swap, mid-footer torn writes); a recovery differential checks the
//!   re-opened store folds identically to the raw appended windows and
//!   that every swept file is ledgered, never silently dropped.
//! * **Subscriber axis** ([`subscriber`]) — seeded fleets of live
//!   pub/sub subscribers (healthy, slow, stalled, disconnecting,
//!   reconnecting) against the serving broker; checks per-client frame
//!   conservation, typed departure ledgering, and exact snapshot+delta
//!   state convergence on virtual time.
//!
//! Run the full seed × profile matrix with `cargo test -p chaos`, or the
//! release-mode smoke sweep with `scripts/chaos-smoke.sh`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod fault;
pub mod harness;
pub mod item;
pub mod minimize;
pub mod oracle;
pub mod storecrash;
pub mod subscriber;

pub use clock::{EventQueue, VirtualClock};
pub use fault::{plan_for, plans_for, FaultOp, FaultProfile, Rng, SensorPlan};
pub use harness::{
    run, run_in, run_planned, run_planned_in, run_seed, run_seed_in, AcceptedFrame, ChaosConfig,
    ChaosOutcome, SensorInput, SensorRun, LINK_LATENCY_US,
};
pub use item::{probe_stream, ChaosItem};
pub use minimize::{describe_plans, minimize_plans};
pub use oracle::{check, predicted_delivery, Divergence, OracleSummary};
pub use storecrash::{StoreCrashOutcome, StoreDivergence};
pub use subscriber::{ClientProfile, SubscriberDivergence, SubscriberOutcome};
