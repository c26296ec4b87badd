//! The four workloads: their frozen sizes and their generated inputs.
//!
//! The seed reaches only the generators in this file (`SimConfig.seed`,
//! `SynthConfig.seed`, the query mix); the system under test receives
//! the generated packets, windows and queries and nothing else.

use dns_observatory::synth::SynthConfig;
use dns_observatory::Dataset;
use simnet::{SimConfig, Simulation};

pub const WORKLOADS: [&str; 4] = [
    "steady_ingest",
    "window_churn",
    "paced_live",
    "history_store",
];

/// How the generator decides when to send the next transaction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Closed loop on the collector's ingest counter: at most
    /// `max_backlog` transactions sent and not yet ingested.
    ClosedOnIngest { max_backlog: u64 },
    /// Closed loop on the subscriber: at most `max_windows` windows sent
    /// and not yet applied by the subscriber.
    ClosedOnWindows { max_windows: u64 },
    /// Open loop: the trace's own timestamps, `compress` times faster.
    Open { compress: f64 },
}

/// A stream workload: a looped packet trace driven through a process
/// tree. Sizes are frozen here and quoted in the README.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    pub name: &'static str,
    /// `true`: 2 sensors → 2 collectors → aggregator → subscriber.
    /// `false`: 2 sensors → one `collect --out`.
    pub federated: bool,
    pub big_world: bool,
    /// Simulated seconds run and discarded before the trace starts, so
    /// resolver caches are warm.
    pub cache_warm_secs: f64,
    /// Simulated seconds of the trace; replayed in laps, each lap's
    /// timestamps advanced by this span.
    pub lap_secs: f64,
    pub window_secs: f64,
    pub topk: usize,
    pub pacing: Pacing,
    /// `Some`: the measured phase is this many laps per second asked
    /// for, fixed work, because the run's result is one TSV tree whose
    /// cost follows the number of windows in it. `None`: the measured
    /// phase ends by the clock, at a window boundary.
    pub laps_per_second: Option<f64>,
    /// Laps the traced replay (and its process-tree twin) runs.
    pub replay_laps: u32,
}

pub fn stream_spec(name: &str, quick: bool) -> Option<StreamSpec> {
    let mut spec = match name {
        "steady_ingest" => StreamSpec {
            name: "steady_ingest",
            federated: false,
            big_world: true,
            cache_warm_secs: 10.0,
            lap_secs: 6.0,
            window_secs: 30.0,
            topk: 10_000,
            pacing: Pacing::ClosedOnIngest {
                max_backlog: 65_536,
            },
            laps_per_second: Some(1.2),
            replay_laps: 6,
        },
        "window_churn" => StreamSpec {
            name: "window_churn",
            federated: true,
            big_world: false,
            cache_warm_secs: 5.0,
            lap_secs: 20.0,
            window_secs: 1.0,
            topk: 1_000,
            pacing: Pacing::ClosedOnWindows { max_windows: 8 },
            laps_per_second: None,
            replay_laps: 1,
        },
        "paced_live" => StreamSpec {
            name: "paced_live",
            federated: true,
            big_world: false,
            cache_warm_secs: 5.0,
            lap_secs: 20.0,
            window_secs: 2.0,
            topk: 200,
            pacing: Pacing::Open { compress: 5.0 },
            laps_per_second: None,
            replay_laps: 4,
        },
        _ => return None,
    };
    if quick {
        // A tenth of the input: enough to drive every code path and
        // oracle, too little to compare with a full run.
        spec.cache_warm_secs = 1.0;
        spec.lap_secs = if spec.federated { 4.0 } else { 2.0 };
        spec.window_secs = spec.window_secs.min(4.0);
        spec.topk = if spec.federated { 200 } else { spec.topk };
        spec.replay_laps = 2;
    }
    Some(spec)
}

impl StreamSpec {
    /// Stream time between the starts of two laps. The single-collector
    /// pipeline opens its first window at the first transaction and
    /// advances in whole window lengths, so a later lap's first
    /// transaction would land exactly a whole number of windows after
    /// it; on that boundary `dnsobs` today re-opens the window it just
    /// closed (`floor((t - start) / w)` rounds to 0 while `t >= start +
    /// w` holds) and the window's files are overwritten. One microsecond
    /// per lap keeps the benchmark off that boundary.
    pub fn lap_advance(&self) -> f64 {
        if self.federated {
            self.lap_secs
        } else {
            self.lap_secs + 1e-6
        }
    }

    /// The five datasets `dnsobs` tracks, capped as its `--topk` does.
    pub fn datasets(&self) -> Vec<(Dataset, usize)> {
        vec![
            (Dataset::SrvIp, self.topk),
            (Dataset::Esld, self.topk),
            (Dataset::Qname, self.topk),
            (Dataset::Qtype, 64.min(self.topk)),
            (Dataset::Rcode, 16.min(self.topk)),
        ]
    }
}

/// One captured transaction as a sensor sees it: raw packets plus the
/// capture metadata, and which of the two sensors taps its resolver.
#[derive(Debug, Clone)]
pub struct Capture {
    /// Seconds since the start of the lap.
    pub time: f64,
    pub contributor: u16,
    pub delay_ms: f64,
    pub query: Vec<u8>,
    pub response: Option<Vec<u8>>,
    pub sensor: usize,
}

/// Number of sensors every stream workload drives.
pub const SENSORS: usize = 2;

/// Generate one lap of captures for `spec` from `seed`.
pub fn generate_trace(spec: &StreamSpec, seed: u64) -> Vec<Capture> {
    let base = if spec.big_world {
        SimConfig::default()
    } else {
        SimConfig::small()
    };
    let mut sim = Simulation::from_config(SimConfig { seed, ..base });
    sim.run(spec.cache_warm_secs, &mut |_| {});
    let t0 = sim.now();
    let mut out = Vec::new();
    sim.run(spec.lap_secs, &mut |tx| {
        let (query, response) = tx.to_packets();
        out.push(Capture {
            // Strictly inside the lap, so a lap boundary is always a
            // window boundary too.
            time: (tx.time - t0).clamp(0.0, spec.lap_secs * (1.0 - 1e-9)),
            contributor: tx.contributor,
            delay_ms: tx.delay_ms,
            query,
            response,
            sensor: tx.sensor_index(SENSORS),
        });
    });
    // The simulator emits in time order; the merge downstream relies on
    // it, so make the guarantee local.
    out.sort_by(|a, b| a.time.total_cmp(&b.time));
    out
}

/// The synthetic history `history_store` appends and queries.
#[derive(Debug, Clone)]
pub struct HistorySpec {
    pub days: usize,
    pub windows_per_day: usize,
    pub keys: usize,
    /// Slower answers count as failed. The store's acceptance budget is
    /// 100 ms and the p99 here is under 40 ms; the limit is wider than
    /// that so that one scheduler stall of a shared host (seen: one query
    /// in 2 000 over 100 ms in two runs of ten) does not fail a run.
    pub budget_ms: f64,
}

pub fn history_spec(quick: bool) -> HistorySpec {
    HistorySpec {
        days: if quick { 1 } else { 6 },
        windows_per_day: 144,
        keys: 128,
        budget_ms: 250.0,
    }
}

impl HistorySpec {
    pub fn synth(&self, seed: u64) -> SynthConfig {
        SynthConfig {
            seed,
            start: 0.0,
            window_secs: 600.0,
            windows: self.days * self.windows_per_day,
            keys: self.keys,
            datasets: vec!["aafqdn".to_string(), "esld".to_string()],
            capacity: self.keys as u64 * 4,
            // Day-aligned, so the events sit on the boundaries of every
            // compaction level the history reaches (hour, day).
            renumber_every: self.windows_per_day,
        }
    }

    pub fn span_us(&self) -> u64 {
        (self.days * self.windows_per_day) as u64 * 600_000_000
    }
}

/// One historical query of the seeded mix.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    History {
        key: usize,
        from_us: u64,
        to_us: u64,
    },
    Renumber {
        from_us: u64,
        to_us: u64,
    },
    TopK {
        at_us: u64,
    },
}

/// SplitMix64, the repository's standard seedable mixer.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Order of query kinds within every ten queries: 6 history, 3 top-k,
/// 1 renumbering scan. The order is fixed and only the parameters are
/// drawn from the seed, so that every seed asks for the same amount of
/// each kind of work; with the cheap top-k at 30 % the median query is
/// a history query, well inside its band.
const MIX_PATTERN: [u8; 10] = *b"HTHHTHRHTH";

/// The query mix: history of one random key over two days at a random
/// offset, top-k at a random instant, renumbering scan over one day at
/// a random offset.
pub fn query_mix(spec: &HistorySpec, seed: u64, n: usize) -> Vec<Query> {
    let mut rng = SplitMix(seed ^ 0x51ab_17e5);
    let span = spec.span_us();
    let day = 86_400_000_000u64.min(span);
    (0..n)
        .map(|i| match MIX_PATTERN[i % MIX_PATTERN.len()] {
            b'H' => {
                let from_us = rng.below(span - (2 * day).min(span) + 1);
                Query::History {
                    key: rng.below(spec.keys as u64) as usize,
                    from_us,
                    to_us: (from_us + 2 * day).min(span + 1),
                }
            }
            b'R' => {
                let from_us = rng.below(span - day + 1);
                Query::Renumber {
                    from_us,
                    to_us: (from_us + day).min(span + 1),
                }
            }
            _ => Query::TopK {
                at_us: rng.below(span),
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_mix_is_a_function_of_the_seed() {
        let spec = history_spec(true);
        assert_eq!(query_mix(&spec, 7, 50), query_mix(&spec, 7, 50));
        assert_ne!(query_mix(&spec, 7, 50), query_mix(&spec, 8, 50));
    }
}
