//! Federated aggregation throughput: how fast the global tier absorbs
//! serialized collector state, measured at two layers on one fixed
//! pre-generated workload of per-upstream `WindowState` streams:
//!
//! * **codec** — `write_record`/`read_all` of the framed, CRC-checked
//!   sketchwire stream purely in memory, isolating serialization cost;
//! * **merge** — `AggregatorCore` ingesting every upstream's records and
//!   sealing global windows (chunk reassembly + Space-Saving merge +
//!   feature-vector merge), the hot loop of `dnsobs aggregate`.
//!
//! Prints the table. An ungated measuring tool: the repository's
//! benchmark is `obsbench/run.sh`.

use dns_observatory::{Dataset, ObservatoryConfig, StateExporter};
use simnet::{SimConfig, Simulation};
use sketchwire::{read_all, write_record, AggregatorConfig, AggregatorCore, WindowState};
use std::time::Instant;

const UPSTREAMS: usize = 4;
const CHUNK_ENTRIES: usize = 64;

fn cfg() -> ObservatoryConfig {
    ObservatoryConfig {
        datasets: vec![
            (Dataset::SrvIp, 500),
            (Dataset::Esld, 500),
            (Dataset::Qtype, 64),
        ],
        window_secs: 1.0,
        bloom_gate: false,
        ..ObservatoryConfig::default()
    }
}

/// Per-upstream window-state streams from a seeded simulation, sliced by
/// sensor vantage like a federated deployment.
fn generate(sim_secs: f64) -> Vec<Vec<WindowState>> {
    let mut exporters: Vec<StateExporter> = (0..UPSTREAMS)
        .map(|u| StateExporter::new(cfg(), u as u64, CHUNK_ENTRIES))
        .collect();
    let mut outs: Vec<Vec<WindowState>> = vec![Vec::new(); UPSTREAMS];
    let mut sim = Simulation::from_config(SimConfig::small());
    sim.run(sim_secs, &mut |tx| {
        let u = tx.sensor_index(UPSTREAMS);
        exporters[u].ingest(tx, &mut outs[u]);
    });
    for (e, out) in exporters.into_iter().zip(&mut outs) {
        e.finish(out);
    }
    outs
}

/// Encode every record into one framed stream; returns (records/s, MB/s,
/// the stream for the decode measurement).
fn measure_encode(records: &[WindowState], reps: usize) -> (f64, f64, Vec<u8>) {
    let mut best = 0.0f64;
    let mut stream = Vec::new();
    for _ in 0..reps {
        stream = Vec::new();
        let t0 = Instant::now();
        for ws in records {
            write_record(ws, &mut stream);
        }
        let secs = t0.elapsed().as_secs_f64();
        best = best.max(records.len() as f64 / secs);
    }
    let mbps = best * stream.len() as f64 / records.len() as f64 / 1e6;
    (best, mbps, stream)
}

fn measure_decode(records_len: usize, stream: &[u8], reps: usize) -> (f64, f64) {
    let mut best = 0.0f64;
    for _ in 0..reps {
        let t0 = Instant::now();
        let decoded = read_all(stream).expect("clean stream");
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(
            decoded.len(),
            records_len,
            "decode must recover every record"
        );
        best = best.max(records_len as f64 / secs);
    }
    let mbps = best * stream.len() as f64 / records_len as f64 / 1e6;
    (best, mbps)
}

/// The aggregator hot loop: ingest every upstream's records interleaved
/// window-by-window (the arrival order a time-merging feed produces) and
/// seal global windows as frontiers advance. Returns (records/s,
/// windows sealed).
fn measure_merge(streams: &[Vec<WindowState>], reps: usize) -> (f64, usize) {
    // Interleave by window start so sealing happens during the run, not
    // as one burst at finish().
    let mut arrival: Vec<&WindowState> = streams.iter().flatten().collect();
    arrival.sort_by(|a, b| {
        a.start
            .total_cmp(&b.start)
            .then(a.upstream.cmp(&b.upstream))
    });
    let records = arrival.len();
    let mut best = 0.0f64;
    let mut windows = 0usize;
    for _ in 0..reps {
        let mut core = AggregatorCore::new(&AggregatorConfig::new(UPSTREAMS));
        let mut sealed = Vec::new();
        let t0 = Instant::now();
        for ws in &arrival {
            core.on_state((*ws).clone()).expect("record accepted");
            core.poll(&mut sealed);
        }
        core.finish(&mut sealed);
        let secs = t0.elapsed().as_secs_f64();
        assert!(!sealed.is_empty(), "merge bench sealed no windows");
        windows = sealed.len();
        best = best.max(records as f64 / secs);
    }
    (best, windows)
}

fn main() {
    eprintln!("generating workload...");
    let streams = generate(12.0);
    let flat: Vec<WindowState> = streams.iter().flatten().cloned().collect();
    eprintln!(
        "generated {} state records across {UPSTREAMS} upstreams",
        flat.len()
    );

    let reps = 3;
    let (enc_rps, enc_mbps, stream) = measure_encode(&flat, reps);
    let wire_bytes_per_record = stream.len() as f64 / flat.len() as f64;
    println!(
        "codec encode:   {enc_rps:>10.0} records/s  {enc_mbps:>7.1} MB/s  ({wire_bytes_per_record:.0} B/record)"
    );
    let (dec_rps, dec_mbps) = measure_decode(flat.len(), &stream, reps);
    println!("codec decode:   {dec_rps:>10.0} records/s  {dec_mbps:>7.1} MB/s");
    let (merge_rps, windows) = measure_merge(&streams, reps);
    println!("global merge:   {merge_rps:>10.0} records/s  ({windows} windows sealed)");
}
