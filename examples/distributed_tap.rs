//! Distributed tap: the paper's Figure 1 A→B boundary on your loopback.
//!
//! Three sensor threads each simulate the same global traffic, keep the
//! slice their vantage point would see, and stream summaries over real
//! TCP to one collector, which merges the streams back into time order
//! and feeds the Observatory fold. The demo then runs the identical
//! traffic through a single in-process Observatory and asserts the two
//! paths produce the same windows — the transport is invisible to the
//! science.
//!
//! Run with: `cargo run --release --example distributed_tap`

use dns_observatory::{Dataset, Observatory, ObservatoryConfig, TxSummary};
use feed::{Collector, CollectorConfig, Sensor, SensorConfig};
use psl::Psl;
use simnet::{SimConfig, Simulation};
use std::thread;

const SENSORS: usize = 3;
const SEED: u64 = 42;
const DURATION: f64 = 5.0;

fn config() -> ObservatoryConfig {
    ObservatoryConfig {
        datasets: vec![
            (Dataset::SrvIp, 5_000),
            (Dataset::Esld, 5_000),
            (Dataset::Qtype, 64),
        ],
        window_secs: 1.0,
        ..ObservatoryConfig::default()
    }
}

fn main() {
    // --- Distributed run: N sensors over TCP into one collector. -------
    let mut collector =
        Collector::<TxSummary>::bind("127.0.0.1:0", CollectorConfig::new(SENSORS as u64))
            .expect("bind collector");
    let addr = collector.local_addr().to_string();
    println!("collector listening on {addr}, waiting for {SENSORS} sensors");

    let handles: Vec<_> = (0..SENSORS)
        .map(|index| {
            let addr = addr.clone();
            thread::spawn(move || {
                let psl = Psl::embedded();
                let client = Sensor::connect(addr, SensorConfig::new(index as u64));
                let mut sim = Simulation::from_config(SimConfig {
                    seed: SEED,
                    ..SimConfig::small()
                });
                let mut kept = 0u64;
                sim.run(DURATION, &mut |tx| {
                    if tx.sensor_index(SENSORS) == index {
                        client.send(TxSummary::from_transaction(tx, &psl));
                        kept += 1;
                    }
                });
                (kept, client.finish())
            })
        })
        .collect();

    let output = collector.take_output();
    let mut obs = Observatory::new(config());
    output.iter().for_each(|s| obs.ingest_summary(s));
    let distributed = obs.finish();
    let sensor_reports: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let report = collector.finish();

    println!("\nper-sensor accounting:");
    for (kept, r) in &sensor_reports {
        let stats = &report.sensors[&r.sensor];
        println!(
            "  sensor {}: tapped {kept} tx -> {} frames/{} items sent, \
             {} dropped, {} gap(s)/{} missing frames at the collector",
            r.sensor,
            r.sent_frames,
            r.sent_items,
            r.dropped_items,
            stats.gaps.len(),
            stats.gap_frames,
        );
    }
    println!(
        "collector merged {} items ({} total gap frames)",
        report.items_merged,
        report.total_gap_frames()
    );

    // --- Reference run: same traffic, one process, no network. ---------
    let mut sim = Simulation::from_config(SimConfig {
        seed: SEED,
        ..SimConfig::small()
    });
    let mut obs = Observatory::new(config());
    sim.run(DURATION, &mut |tx| obs.ingest(tx));
    let reference = obs.finish();

    // --- The whole point: the feed boundary changes nothing. -----------
    let mut windows = 0;
    for &(ds, _) in &config().datasets {
        let a = reference.dataset(ds);
        let b = distributed.dataset(ds);
        assert_eq!(a.len(), b.len(), "{} window count differs", ds.name());
        for (wa, wb) in a.iter().zip(b) {
            assert_eq!(
                format!("{wa:?}"),
                format!("{wb:?}"),
                "{} window @ t={} differs",
                ds.name(),
                wa.start
            );
            windows += 1;
        }
    }
    println!("\nverified: {windows} windows identical to the in-process run");
}
