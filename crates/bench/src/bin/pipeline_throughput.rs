//! Pipeline throughput sweep: single-threaded Observatory vs the sharded
//! ThreadedPipeline across a workers × shards grid, on one fixed
//! pre-generated transaction stream.
//!
//! Prints the table. `--scaling` adds machine-parseable `scaling_*`
//! facts (single-thread fold, best parallel config, speedup,
//! monotonicity verdict). `--trace-overhead` measures one config with
//! and without a flight recorder attached and prints `trace_*` facts
//! (the tracing tax). An ungated measuring tool: the repository's
//! benchmark is `obsbench/run.sh`.
//!
//! Steady-state tracker allocations are measured when built with
//! `--features count-allocs` (a counting global allocator); without the
//! feature they are not measured.

use dns_observatory::{
    Dataset, Observatory, ObservatoryConfig, ThreadedPipeline, TopKTracker, TxSummary,
};
use simnet::{SimConfig, Simulation, Transaction};
use std::time::Instant;

#[cfg(feature = "count-allocs")]
mod counting_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub static ALLOCS: AtomicU64 = AtomicU64::new(0);

    pub struct CountingAlloc;

    // SAFETY: defers entirely to the System allocator; the counter is a
    // relaxed atomic with no allocation of its own.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;
}

/// The tracked datasets: the full paper set with capacities small enough
/// to exercise eviction on the high-cardinality keys.
fn bench_cfg() -> ObservatoryConfig {
    ObservatoryConfig {
        datasets: vec![
            (Dataset::SrvIp, 10_000),
            (Dataset::Etld, 2_000),
            (Dataset::Esld, 10_000),
            (Dataset::Qname, 10_000),
            (Dataset::Qtype, 64),
            (Dataset::Rcode, 16),
            (Dataset::AaFqdn, 5_000),
            (Dataset::SrcSrv, 10_000),
        ],
        window_secs: 1.0,
        ..ObservatoryConfig::default()
    }
}

/// The fixed grid point the tracing tax is measured on.
const TRACED_WORKERS: usize = 2;
const TRACED_SHARDS: usize = 2;

fn generate(sim_secs: f64) -> Vec<Transaction> {
    let mut sim = Simulation::from_config(SimConfig::small());
    sim.collect(sim_secs)
}

/// Best-of-`reps` transactions per second for one pipeline configuration.
fn measure_threaded(txs: &[Transaction], workers: usize, shards: usize, reps: usize) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..reps {
        let pipeline = ThreadedPipeline::with_shards(bench_cfg(), workers, shards);
        let t0 = Instant::now();
        let store = pipeline.run(txs.iter().cloned());
        let secs = t0.elapsed().as_secs_f64();
        assert!(!store.windows().is_empty());
        best = best.max(txs.len() as f64 / secs);
    }
    best
}

/// Same measurement with provenance tracing on: a flight recorder is
/// attached, so every stage records span events. The ratio against the
/// untraced run is the tracing tax.
fn measure_traced(txs: &[Transaction], workers: usize, shards: usize, reps: usize) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..reps {
        let recorder = telemetry::FlightRecorder::new();
        let pipeline = ThreadedPipeline::with_shards(bench_cfg(), workers, shards)
            .with_flight_recorder(recorder.clone());
        let t0 = Instant::now();
        let store = pipeline.run(txs.iter().cloned());
        let secs = t0.elapsed().as_secs_f64();
        assert!(!store.windows().is_empty());
        assert!(
            recorder.ring("pipeline/seal").recorded() > 0,
            "tracing was supposed to be on"
        );
        best = best.max(txs.len() as f64 / secs);
    }
    best
}

fn measure_single(txs: &[Transaction], reps: usize) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..reps {
        let mut obs = Observatory::new(bench_cfg());
        let t0 = Instant::now();
        for tx in txs {
            obs.ingest(tx);
        }
        let secs = t0.elapsed().as_secs_f64();
        assert!(obs.ingested() == txs.len() as u64);
        best = best.max(txs.len() as f64 / secs);
    }
    best
}

/// What the counting allocator saw on two warmed trackers.
struct AllocFacts {
    /// Allocations per `observe` on a SrvIp tracker that holds every key
    /// (borrowed-bytes lookups only), and their total.
    unsaturated: (f64, u64),
    /// Allocations per `observe` on a gated Qname tracker far smaller
    /// than the trace's distinct names (admissions, evictions and
    /// recycled feature state all the way), and evictions per `observe`.
    saturated: (f64, f64),
    /// Allocations of a window dump that resets every monitored object
    /// and has no row to render.
    dump: u64,
}

#[cfg(feature = "count-allocs")]
fn measure_allocs(txs: &[Transaction]) -> Option<AllocFacts> {
    use std::sync::atomic::Ordering;
    let allocs = || counting_alloc::ALLOCS.load(Ordering::Relaxed);
    let psl = psl::Psl::embedded();
    let summaries: Vec<TxSummary> = txs
        .iter()
        .map(|tx| TxSummary::from_transaction(tx, &psl))
        .collect();
    let n = summaries.len() as f64;
    let cfg = dns_observatory::FeatureConfig::default();

    // The first pass inserts every key (allocating); the measured second
    // pass should allocate nothing.
    let mut tracker = TopKTracker::new(Dataset::SrvIp, 20_000, cfg, true);
    for s in &summaries {
        tracker.observe(s);
    }
    let before = allocs();
    for s in &summaries {
        tracker.observe(s);
    }
    let unsaturated = allocs() - before;

    // The first pass fills the cache and churns it; the window dump in
    // between resets every object; the measured second pass meets a full
    // cache, so every new name goes through the gate and an eviction.
    let mut tracker = TopKTracker::new(Dataset::Qname, SATURATED_K, cfg, true);
    for s in &summaries {
        tracker.observe(s);
    }
    let window_start = summaries.last().map_or(0.0, |s| s.time);
    assert!(!tracker.dump(window_start).is_empty());
    let before = allocs();
    let rows = tracker.dump(window_start);
    let dump = allocs() - before;
    assert!(rows.is_empty(), "nothing was folded since the last dump");
    let (before, evictions) = (allocs(), tracker.evictions());
    for s in &summaries {
        tracker.observe(s);
    }
    let saturated = allocs() - before;
    let evictions = tracker.evictions() - evictions;
    Some(AllocFacts {
        unsaturated: (unsaturated as f64 / n, unsaturated),
        saturated: (saturated as f64 / n, evictions as f64 / n),
        dump,
    })
}

/// Capacity of the saturated tracker: a twentieth of the small world's
/// domains, each of which has several names.
#[cfg(feature = "count-allocs")]
const SATURATED_K: usize = 100;

#[cfg(not(feature = "count-allocs"))]
fn measure_allocs(_txs: &[Transaction]) -> Option<AllocFacts> {
    // Keep the unused-import lints quiet in the featureless build.
    let _ = (
        TopKTracker::new as fn(_, _, _, _) -> _,
        TxSummary::from_transaction as fn(_, _) -> _,
    );
    None
}

/// Each grid point's predecessor for the monotone-scaling check: adding
/// cores along this chain must never reduce throughput (with 10 %
/// measurement tolerance). `(1,1)` has no predecessor.
fn predecessor(workers: usize, shards: usize) -> Option<(usize, usize)> {
    match (workers, shards) {
        (2, 1) => Some((1, 1)),
        (4, 1) => Some((2, 1)),
        (2, 2) => Some((2, 1)),
        (4, 2) => Some((2, 2)),
        (4, 4) => Some((4, 2)),
        _ => None,
    }
}

/// The scaling-shape facts: best parallel config, speedup, monotonicity.
fn print_scaling_facts(cores: usize, single: f64, results: &[(usize, usize, f64)]) {
    println!("scaling_cores={cores}");
    println!("scaling_single_tx_per_sec={single:.1}");
    for &(w, s, tps) in results {
        println!("scaling_point workers={w} shards={s} tx_per_sec={tps:.1}");
    }
    let (bw, bs, best) = results
        .iter()
        .filter(|&&(w, _, _)| w > 1)
        .max_by(|a, b| a.2.total_cmp(&b.2))
        .copied()
        .expect("grid has workers>1 points");
    println!("scaling_best_parallel workers={bw} shards={bs} tx_per_sec={best:.1}");
    println!("scaling_speedup={:.3}", best / single);
    let mut violations = Vec::new();
    for &(w, s, tps) in results {
        if let Some((pw, ps)) = predecessor(w, s) {
            let pred = results
                .iter()
                .find(|&&(rw, rs, _)| (rw, rs) == (pw, ps))
                .map(|&(_, _, t)| t)
                .expect("predecessor is in the grid");
            if tps < 0.9 * pred {
                violations.push(format!("({w},{s})={tps:.0}<0.9*({pw},{ps})={pred:.0}"));
            }
        }
    }
    if violations.is_empty() {
        println!("scaling_monotone=ok");
    } else {
        println!("scaling_monotone=violation {}", violations.join(" "));
    }
}

fn main() {
    let scaling = std::env::args().any(|a| a == "--scaling");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    if std::env::args().any(|a| a == "--trace-overhead") {
        // Interleaved best-of-3 per mode on one config: the
        // tracing tax is the ratio of the two bests, which cancels the
        // shared machine noise better than back-to-back blocks.
        let txs = generate(4.0);
        let mut off = 0.0f64;
        let mut on = 0.0f64;
        for _ in 0..3 {
            off = off.max(measure_threaded(&txs, TRACED_WORKERS, TRACED_SHARDS, 1));
            on = on.max(measure_traced(&txs, TRACED_WORKERS, TRACED_SHARDS, 1));
        }
        println!("trace_off_tx_per_sec={off:.1}");
        println!("trace_on_tx_per_sec={on:.1}");
        println!("trace_overhead_ratio={:.4}", on / off);
        return;
    }

    eprintln!("generating workload...");
    let txs = generate(12.0);
    eprintln!("generated {} transactions; cores={cores}", txs.len());

    let reps = 2;
    let single = measure_single(&txs, reps);
    println!("single-threaded Observatory: {single:>10.0} tx/s");

    let grid = [(1, 1), (2, 1), (4, 1), (2, 2), (4, 2), (4, 4)];
    let mut results = Vec::new();
    for &(workers, shards) in &grid {
        let tps = measure_threaded(&txs, workers, shards, reps);
        println!(
            "workers={workers} shards={shards}: {tps:>10.0} tx/s  ({:.2}x single)",
            tps / single
        );
        results.push((workers, shards, tps));
    }

    match measure_allocs(&txs) {
        Some(facts) => {
            let (per_tx, total) = facts.unsaturated;
            println!("steady-state srvip tracker: {per_tx:.4} allocs/tx ({total} total)");
            // The measured steady state is 0.0001 allocs/tx; hold the line
            // (with 50 % headroom for counter jitter) so recycling
            // regressions fail the bench run itself.
            assert!(
                per_tx <= 1.5e-4,
                "steady-state allocs_per_tx {per_tx} exceeds the 0.0001 baseline"
            );
            let (per_tx, evictions_per_tx) = facts.saturated;
            println!(
                "saturated gated qname tracker: {per_tx:.4} allocs/tx at {evictions_per_tx:.3} \
                 evictions/tx; {} allocs in a dump without rows",
                facts.dump
            );
            assert!(
                evictions_per_tx >= 0.05,
                "the saturated case must evict to mean anything ({evictions_per_tx}/tx)"
            );
            // Only a name longer than the inline key spills to the heap;
            // feature state is recycled, never rebuilt.
            assert!(
                per_tx <= 0.05,
                "saturated allocs_per_tx {per_tx}: churn is back on the allocator"
            );
            assert_eq!(facts.dump, 0, "a dump resets feature state in place");
        }
        None => println!("steady-state allocs: not measured (build with --features count-allocs)"),
    }

    if scaling {
        print_scaling_facts(cores, single, &results);
    }
}
