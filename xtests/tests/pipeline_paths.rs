//! Pipeline-path equivalence and robustness: raw packets vs structured
//! ingest, windows taken as they close vs at the end, TSV round-trips of
//! real dumps, and fault injection on the wire.

use dns_observatory::{tsv, Dataset, Observatory, ObservatoryConfig, TimeSeriesStore};
use simnet::{SimConfig, Simulation};

fn obs_cfg() -> ObservatoryConfig {
    ObservatoryConfig {
        datasets: vec![
            (Dataset::SrvIp, 2_000),
            (Dataset::Esld, 2_000),
            (Dataset::Qtype, 64),
        ],
        window_secs: 2.0,
        ..ObservatoryConfig::default()
    }
}

fn stores_equal(a: &TimeSeriesStore, b: &TimeSeriesStore) {
    assert_eq!(a.windows().len(), b.windows().len());
    for (wa, wb) in a.windows().iter().zip(b.windows()) {
        assert_eq!(wa.dataset, wb.dataset);
        assert_eq!(wa.start, wb.start);
        assert_eq!(
            wa.rows.len(),
            wb.rows.len(),
            "{} @ {}",
            wa.dataset,
            wa.start
        );
        for ((ka, ra), (kb, rb)) in wa.rows.iter().zip(&wb.rows) {
            assert_eq!(ka, kb);
            assert_eq!(ra.hits, rb.hits, "key {ka}");
            assert_eq!(ra.nxd, rb.nxd);
            assert_eq!(ra.ok_nil, rb.ok_nil);
        }
    }
}

#[test]
fn packet_and_structured_paths_agree_at_scale() {
    let mut sim = Simulation::from_config(SimConfig::small());
    let mut structured = Observatory::new(obs_cfg());
    let mut packets = Observatory::new(obs_cfg());
    sim.run(6.0, &mut |tx| {
        structured.ingest(tx);
        let (q, r) = tx.to_packets();
        packets.ingest_packets(&q, r.as_deref(), tx.time, tx.contributor, tx.delay_ms);
    });
    assert!(structured.ingested() > 5_000);
    assert_eq!(structured.ingested(), packets.ingested());
    stores_equal(&structured.finish(), &packets.finish());
}

/// `simulate` and `collect --out` take each window as it closes; what
/// they write must be what a fold that keeps every window until the end
/// returns.
#[test]
fn streamed_windows_equal_the_finished_store_at_scale() {
    let mut sim = Simulation::from_config(SimConfig::small());
    let txs = sim.collect(6.0);
    let mut whole = Observatory::new(obs_cfg());
    let mut streamed = Observatory::new(obs_cfg());
    let mut taken = TimeSeriesStore::new();
    for tx in &txs {
        whole.ingest(tx);
        streamed.ingest(tx);
        streamed
            .take_windows()
            .into_iter()
            .for_each(|w| taken.push(w));
        assert!(streamed.take_windows().is_empty(), "taken whole");
    }
    streamed
        .finish()
        .take_windows()
        .into_iter()
        .for_each(|w| taken.push(w));
    let whole = whole.finish();
    assert!(whole.dataset(Dataset::Qtype).len() >= 3);
    stores_equal(&whole, &taken);
}

#[test]
fn corrupted_packets_are_dropped_not_fatal() {
    let mut sim = Simulation::from_config(SimConfig::small());
    let mut obs = Observatory::new(obs_cfg());
    let mut corrupted = 0u64;
    let mut i = 0u64;
    sim.run(2.0, &mut |tx| {
        let (mut q, r) = tx.to_packets();
        i += 1;
        if i.is_multiple_of(7) {
            // Flip a byte somewhere in the packet: must never panic, and
            // unparseable results are silently dropped.
            let pos = (i as usize * 13) % q.len();
            q[pos] ^= 0xff;
            corrupted += 1;
        }
        obs.ingest_packets(&q, r.as_deref(), tx.time, tx.contributor, tx.delay_ms);
    });
    assert!(corrupted > 100);
    assert!(obs.ingested() > 0);
    let store = obs.finish();
    assert!(!store.windows().is_empty());
}

#[test]
fn tsv_roundtrip_of_real_windows() {
    let mut sim = Simulation::from_config(SimConfig::small());
    let mut obs = Observatory::new(obs_cfg());
    // Windows start at multiples of 2 s, so the first one reports no
    // object: every object entered the cache after it opened.
    sim.run(8.0, &mut |tx| obs.ingest(tx));
    let store = obs.finish();
    let mut checked = 0;
    for window in store.windows() {
        if window.rows.is_empty() {
            continue;
        }
        let mut buf = Vec::new();
        tsv::write_window(&mut buf, window).unwrap();
        let parsed = tsv::read_window(&buf[..]).unwrap();
        assert_eq!(parsed.dataset, window.dataset);
        assert_eq!(parsed.rows.len(), window.rows.len());
        assert_eq!(parsed.kept, window.kept);
        for ((ka, ra), (kb, rb)) in window.rows.iter().zip(&parsed.rows) {
            assert_eq!(ka, kb);
            assert_eq!(ra.hits, rb.hits);
            assert_eq!(ra.ttl_top.len(), rb.ttl_top.len());
        }
        checked += 1;
    }
    assert!(checked > 5, "checked only {checked} windows");
}

#[test]
fn rollup_preserves_rates() {
    let mut sim = Simulation::from_config(SimConfig::small());
    let mut obs = Observatory::new(ObservatoryConfig {
        datasets: vec![(Dataset::Qtype, 64)],
        window_secs: 1.0,
        ..ObservatoryConfig::default()
    });
    sim.run(8.5, &mut |tx| obs.ingest(tx));
    let windows: Vec<_> = obs.finish().take_windows();
    let coarse = dns_observatory::aggregate::rollup(&windows[..8]);
    assert_eq!(coarse.length, 8.0);
    // The rolled-up A rate must equal the mean of the inputs.
    let a_rate = coarse.get("A").map(|r| r.hits).unwrap_or(0);
    let mean_a: u64 = windows[..8]
        .iter()
        .map(|w| w.get("A").map(|r| r.hits).unwrap_or(0))
        .sum::<u64>()
        / 8;
    let diff = (a_rate as i64 - mean_a as i64).abs();
    assert!(diff <= 2, "rollup A rate {a_rate} vs mean {mean_a}");
}

#[test]
fn determinism_across_runs() {
    let run = || {
        let mut sim = Simulation::from_config(SimConfig::small());
        let mut obs = Observatory::new(obs_cfg());
        sim.run(3.0, &mut |tx| obs.ingest(tx));
        obs.finish()
    };
    stores_equal(&run(), &run());
}
