//! Fold throughput: the single-threaded Observatory (summarize and fold)
//! on one fixed pre-generated transaction stream. The throughput figure
//! is an ungated measuring tool: the repository's benchmark is
//! `obsbench/run.sh`.
//!
//! Built with `--features count-allocs` (a counting global allocator) it
//! also measures steady-state tracker allocations and the allocations
//! and heap bytes of one key's feature state, and asserts the allocation
//! gate; without the feature they are not measured.

use dns_observatory::{
    Dataset, FeatureSet, Observatory, ObservatoryConfig, TopKTracker, TxSummary,
};
use simnet::{SimConfig, Simulation, Transaction};
use std::time::Instant;

#[cfg(feature = "count-allocs")]
mod counting_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub static ALLOCS: AtomicU64 = AtomicU64::new(0);
    /// Bytes asked for, a growing `realloc` counting its growth.
    pub static BYTES: AtomicU64 = AtomicU64::new(0);

    pub struct CountingAlloc;

    // SAFETY: defers entirely to the System allocator; the counter is a
    // relaxed atomic with no allocation of its own.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            let grown = new_size.saturating_sub(layout.size());
            BYTES.fetch_add(grown as u64, Ordering::Relaxed);
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

fn generate(sim_secs: f64) -> Vec<Transaction> {
    let mut sim = Simulation::from_config(SimConfig::small());
    sim.collect(sim_secs)
}

/// Best-of-`reps` transactions per second through one `Observatory`.
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
    /// Allocations of one `FeatureSet::new` with the default config.
    key_allocs: u64,
    /// Heap bytes asked for per `FeatureSet::new`, over `KEYS` of them.
    key_heap_bytes: f64,
}

/// Feature sets built to measure the heap bytes of one.
#[cfg(feature = "count-allocs")]
const KEYS: usize = 1_000;

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

    // Per-key feature state: the first set built on this thread has
    // shared its layout already, so each later one asks for its blocks
    // only.
    let bytes = || counting_alloc::BYTES.load(Ordering::Relaxed);
    let mut keys = Vec::with_capacity(KEYS);
    keys.push(FeatureSet::new(cfg));
    let before = allocs();
    keys.push(FeatureSet::new(cfg));
    let key_allocs = allocs() - before;
    let before = bytes();
    keys.extend((2..KEYS).map(|_| FeatureSet::new(cfg)));
    let key_heap_bytes = (bytes() - before) as f64 / (KEYS - 2) as f64;
    Some(AllocFacts {
        unsaturated: (unsaturated as f64 / n, unsaturated),
        saturated: (saturated as f64 / n, evictions as f64 / n),
        dump,
        key_allocs,
        key_heap_bytes,
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
        FeatureSet::new as fn(_) -> _,
    );
    None
}

fn main() {
    eprintln!("generating workload...");
    let txs = generate(12.0);
    eprintln!("generated {} transactions", txs.len());

    let single = measure_single(&txs, 2);
    println!("single-threaded Observatory: {single:>10.0} tx/s");

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
            let inline = std::mem::size_of::<FeatureSet>();
            println!(
                "per-key feature state: {} allocs, {:.0} heap B + {inline} inline B",
                facts.key_allocs, facts.key_heap_bytes
            );
            // Two blocks and nothing else for an empty set: the
            // contributor list allocates on its first id.
            assert!(
                facts.key_allocs <= 3,
                "FeatureSet::new made {} allocations",
                facts.key_allocs
            );
        }
        None => println!("steady-state allocs: not measured (build with --features count-allocs)"),
    }
}
