//! Full-stack differential: chaos drives *real* pipeline traffic — not
//! probe items — through the faulty virtual transport, the surviving
//! stream feeds the actual analysis pipeline, and the comparison is the
//! product itself: the TSV bytes `dnsobs` would write to disk.
//!
//! - Under a **lossless** schedule (stalls and segmentation only) the
//!   chaos run must be byte-identical to a golden single-process run:
//!   reordering, chopping, and delay are invisible to the data product.
//! - Under **lossy** schedules the bytes legitimately differ, but they
//!   must equal the TSV of the oracle's predicted survivor stream — the
//!   fault schedule plus the ground truth fully determine the output,
//!   with every divergence from golden accounted by the drop ledger.

use chaos::{check, plans_for, run as chaos_run, FaultProfile, SensorInput, SensorPlan};
use dns_observatory::{tsv, Dataset, Observatory, ObservatoryConfig, TxSummary};
use feed::SensorConfig;
use psl::Psl;
use simnet::{SimConfig, Simulation};

const SENSORS: usize = 3;
const DURATION: f64 = 1.2;

fn obs_config() -> ObservatoryConfig {
    ObservatoryConfig {
        datasets: vec![
            (Dataset::SrvIp, 500),
            (Dataset::Esld, 500),
            (Dataset::Qtype, 64),
        ],
        window_secs: 0.5,
        ..ObservatoryConfig::default()
    }
}

/// Simulate the deployment's traffic once: the full stream in emission
/// order plus each sensor's vantage slice.
fn world(seed: u64) -> (Vec<TxSummary>, Vec<Vec<TxSummary>>) {
    let psl = Psl::embedded();
    let mut sim = Simulation::from_config(SimConfig {
        seed,
        ..SimConfig::tiny()
    });
    let mut all = Vec::new();
    let mut slices = vec![Vec::new(); SENSORS];
    sim.run(DURATION, &mut |tx| {
        let summary = TxSummary::from_transaction(tx, &psl);
        slices[tx.sensor_index(SENSORS)].push(summary.clone());
        all.push(summary);
    });
    (all, slices)
}

fn datasets() -> Vec<Dataset> {
    obs_config().datasets.iter().map(|&(ds, _)| ds).collect()
}

/// The Observatory folding `summaries`, rendered to TSV.
fn fold_tsv(summaries: impl IntoIterator<Item = TxSummary>) -> Vec<(String, Vec<u8>)> {
    let mut obs = Observatory::new(obs_config());
    summaries.into_iter().for_each(|s| obs.ingest_summary(s));
    tsv::render_store(&obs.finish(), &datasets())
}

/// Golden reference: the Observatory ingesting the raw stream in one
/// process, rendered to TSV.
fn golden(all: &[TxSummary]) -> Vec<(String, Vec<u8>)> {
    fold_tsv(all.iter().cloned())
}

/// Run the deployment through the chaos transport under `plans`, audit
/// with the oracle, and render what the pipeline makes of the survivors.
fn chaos_tsv(
    seed: u64,
    slices: &[Vec<TxSummary>],
    plans: Vec<SensorPlan>,
) -> (Vec<(String, Vec<u8>)>, chaos::ChaosOutcome<TxSummary>) {
    let inputs = slices
        .iter()
        .enumerate()
        .map(|(s, items)| {
            let mut config = SensorConfig::new(s as u64);
            config.batch_items = 16;
            config.buffer_frames = 32;
            config.backoff.seed = seed.wrapping_mul(31).wrapping_add(s as u64);
            config.backoff.base_ms = 2;
            config.backoff.max_ms = 40;
            SensorInput {
                config,
                items: items.clone(),
                plan: plans[s].clone(),
            }
        })
        .collect();
    let outcome = chaos_run(inputs);
    check(&outcome).unwrap_or_else(|d| {
        panic!("pipeline chaos run diverged (seed={seed}): {d}");
    });
    (fold_tsv(outcome.delivered.iter().cloned()), outcome)
}

fn assert_same_tsv(a: &[(String, Vec<u8>)], b: &[(String, Vec<u8>)], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: window count differs");
    for ((name_a, bytes_a), (name_b, bytes_b)) in a.iter().zip(b) {
        assert_eq!(name_a, name_b, "{what}: window sequence differs");
        assert_eq!(
            bytes_a, bytes_b,
            "{what}: TSV for {name_a} is not byte-identical"
        );
    }
}

/// Stalls, reordering across sensors, chopped writes: none of it may
/// leave a fingerprint in the data product.
#[test]
fn lossless_chaos_is_byte_identical_to_golden() {
    for seed in [3u64, 11] {
        let (all, slices) = world(seed);
        assert!(all.len() > 200, "tiny world too small: {} txs", all.len());
        let reference = golden(&all);
        let plans = plans_for(seed, SENSORS as u64, &FaultProfile::lossless());
        let (chaotic, outcome) = chaos_tsv(seed, &slices, plans);
        assert_eq!(
            outcome.delivered.len(),
            all.len(),
            "seed {seed}: lossless run lost items"
        );
        assert_same_tsv(&reference, &chaotic, &format!("seed {seed} lossless"));
    }
}

/// Under genuinely lossy schedules the output differs from golden, but
/// it must equal the TSV of the oracle's predicted survivor stream: the
/// ground truth plus the fault schedule fully determine the product.
#[test]
fn lossy_chaos_matches_predicted_survivors() {
    let mut saw_loss = false;
    for profile in [
        FaultProfile::light(),
        FaultProfile::heavy(),
        FaultProfile::flaky(),
    ] {
        for seed in [7u64, 21] {
            let (all, slices) = world(seed);
            let plans = plans_for(seed, SENSORS as u64, &profile);
            let (chaotic, outcome) = chaos_tsv(seed, &slices, plans);
            let predicted = chaos::predicted_delivery(&outcome);
            let replayed = fold_tsv(predicted);
            assert_same_tsv(
                &replayed,
                &chaotic,
                &format!("seed {seed} profile {}", profile.name),
            );
            if outcome.delivered.len() < all.len() {
                saw_loss = true;
            }
        }
    }
    assert!(
        saw_loss,
        "no lossy schedule actually lost an item — profiles miscalibrated"
    );
}
