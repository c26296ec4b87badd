//! Release-mode chaos sweep over the federated aggregation tier.
//!
//! Each run ships three virtual collectors' uplink streams — window-state
//! records and "closed through" watermarks, the watermarks also lost,
//! duplicated and reordered — through the seeded faulty transport, feeds
//! the survivors to the real `AggregatorCore` sealing live, and checks
//! the sealed global view against an independent reference fold of the
//! predicted survivor set (`chaos::run_aggregate`):
//!
//! * each upstream's delivery equals the oracle's prediction;
//! * sealed windows equal the reference merge (contributors, datasets,
//!   merged state) of every survivor record not ledgered late;
//! * every sealed dataset states its error bound as the sum of the
//!   contributing upstreams' bounds, and no entry's error exceeds it;
//! * chunk loss is accounted as merge conflicts, never silently merged;
//! * a lossless schedule seals every window live.
//!
//! ```text
//! cargo run --release -p chaos --example agg_chaos_sweep -- [seeds] [profile ...]
//! ```
//!
//! Exit code 0 when every run passes; 1 with the failing seed/profile on
//! the first divergence. Driven by `scripts/agg-chaos-smoke.sh`.

use chaos::{perturb_watermarks, run_aggregate, uplink_stream, FaultProfile};
use dns_observatory::{Dataset, ObservatoryConfig, StateExporter};
use simnet::{SimConfig, Simulation};
use sketchwire::{Uplink, WindowState};

const UPSTREAMS: usize = 3;
const WINDOW: f64 = 0.5;
const DURATION: f64 = 1.8;
const CHUNK_ENTRIES: usize = 8;

fn cfg() -> ObservatoryConfig {
    ObservatoryConfig {
        datasets: vec![(Dataset::SrvIp, 120), (Dataset::Qtype, 64)],
        window_secs: WINDOW,
        bloom_gate: false,
        ..ObservatoryConfig::default()
    }
}

/// Each upstream's uplink stream: the records of each window its fold
/// closes, then the watermark through the window it has open.
fn upstream_uplinks(seed: u64) -> Vec<Vec<Uplink>> {
    let mut exporters: Vec<StateExporter> = (0..UPSTREAMS)
        .map(|u| StateExporter::new(cfg(), u as u64, CHUNK_ENTRIES))
        .collect();
    let mut batches: Vec<Vec<(Vec<WindowState>, f64)>> = vec![Vec::new(); UPSTREAMS];
    let mut sim = Simulation::from_config(SimConfig {
        seed,
        ..SimConfig::tiny()
    });
    sim.run(DURATION, &mut |tx| {
        let u = tx.sensor_index(UPSTREAMS);
        let mut out = Vec::new();
        exporters[u].ingest(tx, &mut out);
        if let Some(open) = exporters[u].open_window() {
            batches[u].push((out, open));
        }
    });
    for (e, batches) in exporters.into_iter().zip(&mut batches) {
        let mut out = Vec::new();
        e.finish(&mut out);
        if let Some(last) = out.last() {
            let end = last.start + last.length;
            batches.push((out, end));
        }
    }
    (batches.into_iter().enumerate())
        .map(|(u, b)| perturb_watermarks(seed + u as u64, uplink_stream(u as u64, b)))
        .collect()
}

fn main() {
    let mut args = std::env::args().skip(1);
    let seeds: u64 = args
        .next()
        .map(|s| s.parse().expect("seeds-per-profile must be a number"))
        .unwrap_or(20);
    let profiles: Vec<FaultProfile> = {
        let named: Vec<FaultProfile> = args
            .map(|name| {
                FaultProfile::by_name(&name).unwrap_or_else(|| {
                    panic!("unknown profile {name:?} (lossless|light|heavy|flaky)")
                })
            })
            .collect();
        if named.is_empty() {
            FaultProfile::all().to_vec()
        } else {
            named
        }
    };

    let mut runs = 0u64;
    for profile in &profiles {
        let mut total = chaos::AggregateRun::default();
        for seed in 0..seeds {
            match run_aggregate(seed, profile, &upstream_uplinks(seed)) {
                Ok(run) => {
                    runs += 1;
                    total.records += run.records;
                    total.delivered += run.delivered;
                    total.watermarks += run.watermarks;
                    total.conflicts += run.conflicts;
                    total.late += run.late;
                    total.sealed += run.sealed;
                    total.sealed_live += run.sealed_live;
                }
                Err(why) => {
                    eprintln!("agg-chaos-sweep FAIL: profile={} seed={seed}", profile.name);
                    eprintln!("  {why}");
                    eprintln!(
                        "replay: cargo run --release -p chaos --example agg_chaos_sweep -- {} {}",
                        seed + 1,
                        profile.name
                    );
                    std::process::exit(1);
                }
            }
        }
        println!(
            "agg-chaos-sweep profile={:<9} seeds={seeds} delivered={}/{} watermarks={} \
             chunk_conflicts={} late={} sealed_live={}/{}",
            profile.name,
            total.delivered,
            total.records,
            total.watermarks,
            total.conflicts,
            total.late,
            total.sealed_live,
            total.sealed
        );
    }
    println!("agg-chaos-sweep PASS: {runs} runs, aggregator equals reference merge on every one");
}
