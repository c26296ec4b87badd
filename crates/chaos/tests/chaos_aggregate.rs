//! Differential oracle for the federated aggregation tier.
//!
//! Three virtual forwarding collectors export per-window sketch state and
//! a "closed through" watermark after each closed window
//! (`sketchwire::Uplink`), with watermarks lost, duplicated and reordered
//! on top of the wire faults, and ship it through the seeded faulty
//! transport. Whatever survives feeds the real `AggregatorCore`, polled
//! after every item; `chaos::run_aggregate` judges the result against an
//! independent fold of the predicted survivor records (see
//! `chaos::aggregate`).

use chaos::{perturb_watermarks, run_aggregate, uplink_inputs, uplink_stream, FaultProfile};
use dns_observatory::{Dataset, ObservatoryConfig, StateExporter};
use simnet::{SimConfig, Simulation};
use sketchwire::{AggregatorConfig, AggregatorCore, Uplink, WindowState};

const UPSTREAMS: usize = 3;
const WINDOW: f64 = 0.5;
const DURATION: f64 = 1.8;
/// Small enough that real trackers split into several chunks, so lossy
/// schedules can drop *part* of a window's state.
const CHUNK_ENTRIES: usize = 8;

fn cfg() -> ObservatoryConfig {
    ObservatoryConfig {
        datasets: vec![(Dataset::SrvIp, 120), (Dataset::Qtype, 64)],
        window_secs: WINDOW,
        bloom_gate: false,
        ..ObservatoryConfig::default()
    }
}

/// Each upstream's uplink stream for a seeded world, sliced by sensor
/// vantage like a real federated deployment: records of each window its
/// fold closes, then the watermark through the window it has open.
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

/// Seeded schedules over three virtual upstreams, all four fault
/// profiles: the live aggregator's output equals the reference merge of
/// the survivors it did not ledger late, with the stated global error
/// bound equal to the sum of the contributing per-upstream bounds (and
/// covering every entry).
#[test]
fn aggregator_equals_predicted_survivor_merge() {
    let (mut saw_loss, mut saw_chunk_conflict) = (false, false);
    for profile in FaultProfile::all() {
        for seed in [5u64, 17] {
            let streams = upstream_uplinks(seed);
            let run = run_aggregate(seed, &profile, &streams).unwrap_or_else(|why| {
                panic!(
                    "aggregate chaos run diverged (seed={seed}, profile={}): {why}",
                    profile.name
                )
            });
            assert!(
                run.records >= (UPSTREAMS * 2 * 2) as u64,
                "world too small: {run:?}"
            );
            assert!(run.watermarks > 0, "no watermark crossed: {run:?}");
            if profile.name == "lossless" {
                assert_eq!(run.sealed_live, run.sealed, "every window sealed live");
            } else {
                saw_loss |= run.delivered < run.records;
                saw_chunk_conflict |= run.conflicts > 0;
            }
        }
    }
    assert!(saw_loss, "no lossy schedule lost a record — recalibrate");
    assert!(
        saw_chunk_conflict,
        "no schedule dropped part of a chunked window — recalibrate"
    );
}

/// Under a lossless schedule the transport is fully transparent: the
/// aggregator sealing live over the chaos delivery equals the aggregator
/// over the pristine records fed directly, upstream by upstream, with no
/// watermark at all.
#[test]
fn lossless_transport_is_transparent_to_aggregation() {
    for seed in [3u64, 11] {
        let streams = upstream_uplinks(seed);
        let aggregate = |items: Vec<Uplink>, live: bool| {
            let mut core = AggregatorCore::new(&AggregatorConfig::new(UPSTREAMS));
            let mut sealed = Vec::new();
            for item in items {
                core.on_uplink(item).expect("record accepted");
                if live {
                    core.poll(&mut sealed);
                }
            }
            core.finish(&mut sealed);
            sealed
        };
        let outcome = chaos::run(uplink_inputs(seed, &FaultProfile::lossless(), &streams));
        chaos::check(&outcome).expect("lossless delivery");
        let via_chaos = aggregate(outcome.delivered, true);
        let records = (streams.into_iter().flatten())
            .filter(|item| matches!(item, Uplink::State(_)))
            .collect();
        let direct = aggregate(records, false);
        assert_eq!(via_chaos, direct, "seed {seed}: transport left a mark");
    }
}
