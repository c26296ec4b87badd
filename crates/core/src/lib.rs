//! `dns-observatory` — a stream-analytics platform for passive DNS, a
//! from-scratch reproduction of *DNS Observatory: The Big Picture of the
//! DNS* (Foremski, Gasser, Moura — IMC 2019).
//!
//! # Pipeline (paper Figure 1)
//!
//! ```text
//! A) resolvers submit cache-miss traffic        →  simnet / raw packets
//! B) summarize query-response transactions      →  [`summarize`]
//! C) track Top-k objects per key definition     →  [`topk`], [`keys`]
//! D) collect statistics in 60-second windows    →  [`features`]
//! E) write time series                          →  [`timeseries`], [`tsv`]
//! F) aggregate in time (10 min/hour/day…)       →  [`aggregate`]
//! ```
//!
//! The analysis layer ([`analysis`]) reproduces every table and figure of
//! the paper's evaluation — traffic CDFs, AS aggregation, QTYPE tables,
//! delay/hop studies, QNAME-minimization detection, representativeness,
//! TTL-change detection, and the Happy-Eyeballs/negative-caching study.
//!
//! # Quick start
//!
//! ```
//! use dns_observatory::{Observatory, ObservatoryConfig, Dataset};
//! use simnet::{SimConfig, Simulation};
//!
//! let mut sim = Simulation::from_config(SimConfig::small());
//! let mut obs = Observatory::new(ObservatoryConfig {
//!     datasets: vec![(Dataset::SrvIp, 1_000)],
//!     ..ObservatoryConfig::default()
//! });
//! sim.run(2.0, &mut |tx| obs.ingest(tx));
//! let store = obs.finish();
//! assert!(store.windows().len() >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod analysis;
pub mod features;
pub mod federate;
pub mod feedwire;
pub mod keys;
pub mod lineage;
pub mod metrics;
pub mod pipeline;
pub mod status;
pub mod summarize;
pub mod synth;
pub mod timeseries;
pub mod topk;
pub mod tsv;

pub use features::{FeatureConfig, FeatureRow, FeatureSet, FoldDigest};
pub use federate::{render_state, write_global, StateExporter};
pub use keys::{Dataset, Key, KeyBuf};
pub use metrics::MetaReporter;
pub use pipeline::{Observatory, ObservatoryConfig, ThreadedPipeline, WindowClock};
pub use summarize::{Outcome, TxSummary};
pub use timeseries::{TimeSeriesStore, WindowDump};
pub use topk::TopKTracker;
