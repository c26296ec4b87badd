//! The TSV files' bytes, pinned. Every other TSV oracle compares two
//! routes through the same writer, so a changed column format would pass
//! them all; this one hashes what the writer produces for a fixed run —
//! the window files, the `10win-` rollups and the cumulative rows.

use dns_observatory::aggregate::rollup;
use dns_observatory::{tsv, Dataset, Observatory, ObservatoryConfig, TimeSeriesStore, WindowDump};
use simnet::{SimConfig, Simulation};

const DATASETS: [(Dataset, usize); 4] = [
    (Dataset::SrvIp, 10_000),
    (Dataset::Esld, 2_000),
    (Dataset::Qtype, 64),
    (Dataset::Rcode, 32),
];

/// A seeded 20-second run with 1-second windows over four datasets.
fn run() -> TimeSeriesStore {
    let mut sim = Simulation::from_config(SimConfig {
        seed: 11,
        ..SimConfig::small()
    });
    let mut obs = Observatory::new(ObservatoryConfig {
        datasets: DATASETS.to_vec(),
        window_secs: 1.0,
        ..ObservatoryConfig::default()
    });
    sim.run(20.0, &mut |tx| obs.ingest(tx));
    obs.finish()
}

fn bytes_of(dump: &WindowDump) -> Vec<u8> {
    let mut bytes = Vec::new();
    tsv::write_window(&mut bytes, dump).expect("writing to a Vec cannot fail");
    bytes
}

fn digest(bytes: &[u8]) -> u64 {
    sketches::hash::xxh64(bytes, 0)
}

#[test]
fn tsv_bytes_are_pinned() {
    let store = run();
    let datasets = DATASETS.map(|(ds, _)| ds);
    let windows: Vec<u8> = tsv::render_store(&store, &datasets)
        .into_iter()
        .flat_map(|(name, bytes)| name.into_bytes().into_iter().chain(bytes))
        .collect();
    let (mut rollups, mut cumulative) = (Vec::new(), Vec::new());
    for ds in datasets {
        let owned: Vec<WindowDump> = store.dataset(ds).into_iter().cloned().collect();
        assert_eq!(owned.len(), 20, "{} windows", ds.name());
        for ten in owned.chunks_exact(10) {
            rollups.extend(bytes_of(&rollup(ten)));
        }
        cumulative.extend(bytes_of(&WindowDump {
            dataset: ds.name().to_string(),
            start: 0.0,
            length: 20.0,
            rows: store.cumulative(ds),
            kept: 0,
            dropped: 0,
            filtered: 0,
        }));
    }
    let got = [digest(&windows), digest(&rollups), digest(&cumulative)];
    assert_eq!(
        got,
        [
            1_909_903_077_314_120_718,
            17_293_466_243_504_965_690,
            13_585_885_725_500_667_330
        ],
        "TSV bytes moved (windows, rollups, cumulative)"
    );
}
