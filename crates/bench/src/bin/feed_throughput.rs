//! Feed transport throughput: how fast the sensor→collector boundary
//! moves `TxSummary` items, measured at two layers on one fixed
//! pre-generated workload:
//!
//! * **codec** — encode/decode of BATCH frames purely in memory, in
//!   items/s and MB/s, isolating the varint/CRC cost from any I/O;
//! * **loopback** — a real `Sensor` streaming to a real `Collector` over
//!   localhost TCP, end to end through the bounded queue, writer thread,
//!   reader thread, and time merger.
//!
//! Prints the table. An ungated measuring tool: the repository's
//! benchmark is `obsbench/run.sh`.

use dns_observatory::TxSummary;
use feed::frame::{encode_frame, FrameReader};
use feed::{Collector, CollectorConfig, Frame, Sensor, SensorConfig};
use psl::Psl;
use simnet::{SimConfig, Simulation};
use std::time::Instant;

const BATCH_ITEMS: usize = 256;

fn generate(sim_secs: f64) -> Vec<TxSummary> {
    let psl = Psl::embedded();
    let mut sim = Simulation::from_config(SimConfig::small());
    sim.collect(sim_secs)
        .iter()
        .map(|tx| TxSummary::from_transaction(tx, &psl))
        .collect()
}

/// Encode the whole workload as BATCH frames; returns (items/s, MB/s,
/// stream bytes, the encoded stream for the decode measurement).
fn measure_encode(summaries: &[TxSummary], reps: usize) -> (f64, f64, Vec<u8>) {
    let mut best_items = 0.0f64;
    let mut stream = Vec::new();
    for _ in 0..reps {
        stream = Vec::new();
        let t0 = Instant::now();
        for (seq, chunk) in summaries.chunks(BATCH_ITEMS).enumerate() {
            let frame = Frame::Batch {
                sensor: 0,
                seq: seq as u64,
                items: chunk.to_vec(),
            };
            encode_frame(&frame, &mut stream);
        }
        let secs = t0.elapsed().as_secs_f64();
        best_items = best_items.max(summaries.len() as f64 / secs);
    }
    let mbps = best_items * stream.len() as f64 / summaries.len() as f64 / 1e6;
    (best_items, mbps, stream)
}

/// Decode the encoded stream back through the incremental reader.
fn measure_decode(summaries_len: usize, stream: &[u8], reps: usize) -> (f64, f64) {
    let mut best_items = 0.0f64;
    for _ in 0..reps {
        let mut reader = FrameReader::<TxSummary>::new();
        let t0 = Instant::now();
        let mut items = 0usize;
        // Feed in TCP-read-sized chunks so the reassembly path is real.
        for chunk in stream.chunks(64 * 1024) {
            reader.push(chunk);
            while let Some(frame) = reader.next_frame().expect("clean stream") {
                if let Frame::Batch { items: batch, .. } = frame {
                    items += batch.len();
                }
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(items, summaries_len, "decode must recover every item");
        best_items = best_items.max(items as f64 / secs);
    }
    let mbps = best_items * stream.len() as f64 / summaries_len as f64 / 1e6;
    (best_items, mbps)
}

/// End-to-end loopback: one sensor, one collector, localhost TCP.
/// Lossless by construction (large send buffer) so the rate is honest.
fn measure_loopback(summaries: &[TxSummary], reps: usize) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..reps {
        let mut collector =
            Collector::<TxSummary>::bind("127.0.0.1:0", CollectorConfig::new(1)).expect("bind");
        let addr = collector.local_addr().to_string();
        let output = collector.take_output();
        let drain = std::thread::spawn(move || output.iter().count());

        let mut config = SensorConfig::new(0);
        config.batch_items = BATCH_ITEMS;
        config.buffer_frames = 4096;
        let t0 = Instant::now();
        let client = Sensor::connect(&addr, config);
        for s in summaries {
            client.send(s.clone());
        }
        let sent = client.finish();
        let merged = drain.join().unwrap();
        let secs = t0.elapsed().as_secs_f64();
        let report = collector.finish();
        assert_eq!(sent.dropped_frames, 0, "loopback bench must be lossless");
        assert_eq!(merged, summaries.len(), "collector must see every item");
        assert_eq!(report.total_gap_frames(), 0);
        best = best.max(summaries.len() as f64 / secs);
    }
    best
}

fn main() {
    eprintln!("generating workload...");
    let summaries = generate(12.0);
    eprintln!("generated {} summaries", summaries.len());

    let reps = 3;
    let (enc_items, enc_mbps, stream) = measure_encode(&summaries, reps);
    let wire_bytes_per_item = stream.len() as f64 / summaries.len() as f64;
    println!(
        "codec encode:   {enc_items:>10.0} items/s  {enc_mbps:>7.1} MB/s  ({wire_bytes_per_item:.1} B/item)"
    );
    let (dec_items, dec_mbps) = measure_decode(summaries.len(), &stream, reps);
    println!("codec decode:   {dec_items:>10.0} items/s  {dec_mbps:>7.1} MB/s");
    let loopback = measure_loopback(&summaries, reps);
    println!("loopback TCP:   {loopback:>10.0} items/s");
}
