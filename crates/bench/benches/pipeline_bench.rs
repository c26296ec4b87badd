//! End-to-end pipeline benchmarks: transactions/second through
//! summarization and the Observatory fold — the numbers that decide
//! whether the platform keeps up with the paper's 200 k
//! transactions/second feed.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dns_observatory::{Dataset, Observatory, ObservatoryConfig, TxSummary};
use psl::Psl;
use simnet::{SimConfig, Simulation, Transaction};

fn sample_transactions(secs: f64) -> Vec<Transaction> {
    let mut sim = Simulation::from_config(SimConfig::small());
    sim.collect(secs)
}

fn obs_config() -> ObservatoryConfig {
    ObservatoryConfig {
        datasets: vec![
            (Dataset::SrvIp, 5_000),
            (Dataset::Qname, 5_000),
            (Dataset::Qtype, 64),
        ],
        window_secs: 1.0,
        ..ObservatoryConfig::default()
    }
}

fn bench_summarize(c: &mut Criterion) {
    let txs = sample_transactions(2.0);
    let psl = Psl::embedded();
    let mut group = c.benchmark_group("summarize");
    group.throughput(Throughput::Elements(txs.len() as u64));
    group.bench_function("structured", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for tx in &txs {
                n += TxSummary::from_transaction(tx, &psl).qdots as usize;
            }
            black_box(n)
        })
    });
    // The raw-packet path includes IP/UDP/DNS parse.
    let packets: Vec<_> = txs
        .iter()
        .map(|tx| {
            let (q, r) = tx.to_packets();
            (q, r, tx.time, tx.contributor, tx.delay_ms)
        })
        .collect();
    group.bench_function("from_raw_packets", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for (q, r, time, contrib, delay) in &packets {
                if let Some(s) =
                    TxSummary::from_packets(q, r.as_deref(), *time, *contrib, *delay, &psl)
                {
                    n += s.qdots as usize;
                }
            }
            black_box(n)
        })
    });
    group.finish();
}

fn bench_ingest(c: &mut Criterion) {
    let txs = sample_transactions(2.0);
    let mut group = c.benchmark_group("observatory");
    group.sample_size(10);
    group.throughput(Throughput::Elements(txs.len() as u64));
    group.bench_function("ingest_single_thread", |b| {
        b.iter(|| {
            let mut obs = Observatory::new(obs_config());
            for tx in &txs {
                obs.ingest(tx);
            }
            black_box(obs.finish().windows().len())
        })
    });
    group.finish();
}

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    group.bench_function("generate_1s_small_world", |b| {
        b.iter(|| {
            let mut sim = Simulation::from_config(SimConfig::small());
            let mut n = 0u64;
            sim.run(1.0, &mut |_| n += 1);
            black_box(n)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_summarize, bench_ingest, bench_simulator);
criterion_main!(benches);
