//! Distributed-feed integration: the acceptance bar for the sensor→
//! collector transport is *loopback equivalence* — K sensor processes
//! streaming over real TCP must reproduce, byte for byte, the TSV output
//! of the same traffic ingested in a single process — plus exact fault
//! accounting when a sensor dies and comes back.
//!
//! The crash/restart and backoff tests run the same protocol code
//! sans-io on a virtual clock (no wall-clock sleeps): event order is
//! stated explicitly instead of approximated with `thread::sleep`, so
//! they are race-free and finish in microseconds of real time.

use chaos::VirtualClock;
use dns_observatory::{tsv, Dataset, Observatory, ObservatoryConfig, TimeSeriesStore, TxSummary};
use feed::{
    Backoff, BackoffConfig, Collector, CollectorConfig, CollectorCore, FrameReader, Sensor,
    SensorConfig, SensorMachine, SensorOp,
};
use psl::Psl;
use simnet::{SimConfig, Simulation};
use std::thread;

const SENSORS: usize = 3;
const DURATION: f64 = 3.0;

fn obs_config(window: f64) -> ObservatoryConfig {
    ObservatoryConfig {
        datasets: vec![
            (Dataset::SrvIp, 2_000),
            (Dataset::Esld, 2_000),
            (Dataset::Qtype, 64),
        ],
        window_secs: window,
        ..ObservatoryConfig::default()
    }
}

/// Single-process reference: the Observatory ingesting the raw stream.
fn single_process(seed: u64) -> TimeSeriesStore {
    let mut sim = Simulation::from_config(SimConfig {
        seed,
        ..SimConfig::small()
    });
    let mut obs = Observatory::new(obs_config(1.0));
    sim.run(DURATION, &mut |tx| obs.ingest(tx));
    obs.finish()
}

/// Distributed run: K sensor threads each simulate the deployment's
/// traffic, keep their own vantage slice, and stream summaries over TCP
/// to a collector whose merged feed one Observatory folds.
fn distributed(
    seed: u64,
) -> (
    TimeSeriesStore,
    feed::CollectorReport,
    Vec<feed::SensorReport>,
) {
    let mut collector =
        Collector::<TxSummary>::bind("127.0.0.1:0", CollectorConfig::new(SENSORS as u64))
            .expect("bind collector");
    let addr = collector.local_addr().to_string();

    let handles: Vec<_> = (0..SENSORS)
        .map(|index| {
            let addr = addr.clone();
            thread::spawn(move || {
                let psl = Psl::embedded();
                let client = Sensor::connect(addr, SensorConfig::new(index as u64));
                let mut sim = Simulation::from_config(SimConfig {
                    seed,
                    ..SimConfig::small()
                });
                sim.run(DURATION, &mut |tx| {
                    if tx.sensor_index(SENSORS) == index {
                        client.send(TxSummary::from_transaction(tx, &psl));
                    }
                });
                client.finish()
            })
        })
        .collect();

    let output = collector.take_output();
    let mut obs = Observatory::new(obs_config(1.0));
    output.iter().for_each(|s| obs.ingest_summary(s));
    let store = obs.finish();
    let sensor_reports: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let report = collector.finish();
    (store, report, sensor_reports)
}

/// Render every window of every dataset exactly as `dnsobs` writes it.
fn tsv_bytes(store: &TimeSeriesStore) -> Vec<(String, Vec<u8>)> {
    let datasets: Vec<_> = obs_config(1.0).datasets.iter().map(|&(ds, _)| ds).collect();
    tsv::render_store(store, &datasets)
}

#[test]
fn loopback_equivalence_across_seeds() {
    for seed in [3u64, 11] {
        let reference = tsv_bytes(&single_process(seed));
        let (store, report, sensor_reports) = distributed(seed);
        let distributed = tsv_bytes(&store);

        // A clean localhost run loses nothing, so equivalence must be exact.
        assert_eq!(report.total_gap_frames(), 0, "seed {seed}: lossy feed");
        let sent: u64 = sensor_reports.iter().map(|r| r.sent_items).sum();
        assert_eq!(report.items_merged, sent, "seed {seed}: items vanished");
        for r in &sensor_reports {
            assert_eq!(
                r.dropped_frames, 0,
                "seed {seed}: sensor {} dropped",
                r.sensor
            );
        }

        assert_eq!(
            reference.len(),
            distributed.len(),
            "seed {seed}: window count differs"
        );
        for ((name_a, bytes_a), (name_b, bytes_b)) in reference.iter().zip(&distributed) {
            assert_eq!(name_a, name_b, "seed {seed}: window sequence differs");
            assert_eq!(
                bytes_a, bytes_b,
                "seed {seed}: TSV for {name_a} is not byte-identical"
            );
        }
    }
}

/// Drive `machine` on a virtual clock until it has nothing left to do,
/// delivering every written frame straight into `core` as connection
/// `conn`. Returns the virtual time when the machine went quiet.
fn pump(
    machine: &mut SensorMachine<TxSummary>,
    clock: &mut VirtualClock,
    conn: u64,
    core: &mut CollectorCore<TxSummary>,
    out: &mut Vec<TxSummary>,
) -> u64 {
    let mut reader = FrameReader::<TxSummary>::new();
    loop {
        match machine.poll(clock.now()) {
            SensorOp::Connect => machine.on_connected(clock.now()),
            SensorOp::WaitUntil(t) => clock.advance_to(t),
            SensorOp::Write(bytes) => {
                reader.push(&bytes);
                loop {
                    match reader.next_frame() {
                        Ok(Some(frame)) => {
                            core.on_frame(conn, frame, out);
                        }
                        Ok(None) => break,
                        Err(e) => core.on_bad_frame(conn, &e),
                    }
                }
                machine.on_write_ok();
            }
            SensorOp::Idle | SensorOp::Done => return clock.now(),
        }
    }
}

#[test]
fn crashed_sensor_restart_reports_exact_gap() {
    // Same scenario as the old TCP version, sans-io on a virtual clock:
    // the former 300 ms "let the collector drain the dead connection"
    // sleep is now simply the order of events — incarnation 1 is pumped
    // to completion before incarnation 2's HELLO exists.
    let psl = Psl::embedded();
    let mut sim = Simulation::from_config(SimConfig {
        seed: 5,
        ..SimConfig::small()
    });
    let summaries: Vec<TxSummary> = sim
        .collect(0.3)
        .iter()
        .map(|tx| TxSummary::from_transaction(tx, &psl))
        .collect();
    assert!(summaries.len() > 64, "world too small");
    let half = summaries.len() / 2;

    let mut clock = VirtualClock::new();
    let mut core = CollectorCore::<TxSummary>::new(&CollectorConfig::new(1));
    let mut out = Vec::new();

    // Incarnation 1: stream the first half, then die without a BYE.
    let mut cfg = SensorConfig::new(0);
    cfg.batch_items = 16;
    let mut machine = SensorMachine::<TxSummary>::new(cfg);
    for s in &summaries[..half] {
        machine.push(s.clone());
    }
    machine.flush();
    pump(&mut machine, &mut clock, 0, &mut core, &mut out);
    let crashed = machine.abort();
    assert_eq!(crashed.dropped_frames, 0, "drained before the crash");
    assert!(crashed.sent_frames > 1);
    core.on_disconnect(0, &mut out);

    // Incarnation 2: the crash lost GAP sealed-but-unsent frames, so the
    // restarted sensor resumes its sequence numbers past them.
    const GAP: u64 = 4;
    let mut cfg = SensorConfig::new(0);
    cfg.batch_items = 16;
    cfg.first_seq = crashed.next_seq + GAP;
    let mut machine = SensorMachine::<TxSummary>::new(cfg);
    for s in &summaries[half..] {
        machine.push(s.clone());
    }
    machine.finish();
    pump(&mut machine, &mut clock, 1, &mut core, &mut out);
    let resumed = machine.report();
    assert_eq!(resumed.dropped_frames, 0);

    let report = core.finish(&mut out);
    let merged = out.len() as u64;
    let stats = &report.sensors[&0];

    // The collector saw both incarnations and reports exactly the frames
    // the crash swallowed — as one gap, at the right position.
    assert_eq!(stats.connects, 2);
    assert_eq!(stats.byes, 1);
    assert_eq!(
        stats.gaps,
        vec![(crashed.next_seq, crashed.next_seq + GAP - 1)],
        "gap must span exactly the lost sequence range"
    );
    assert_eq!(stats.gap_frames, GAP);
    assert_eq!(stats.duplicate_frames, 0);
    assert_eq!(stats.crc_errors, 0);

    // Conservation: every summary handed to a sensor is either merged or
    // accounted as dropped; nothing is double-counted or invented. The
    // sensor's `sent_frames` includes incarnation 2's BYE, which the
    // collector tallies separately from data frames.
    assert_eq!(
        stats.frames + stats.byes,
        crashed.sent_frames + resumed.sent_frames
    );
    assert_eq!(stats.items, crashed.sent_items + resumed.sent_items);
    assert_eq!(report.items_merged, stats.items);
    assert_eq!(merged, report.items_merged);
    assert_eq!(
        stats.items + crashed.dropped_items + resumed.dropped_items,
        summaries.len() as u64
    );
}

#[test]
fn sensor_reconnects_within_backoff_schedule() {
    // The collector is down for the first 120 virtual milliseconds; the
    // sensor must keep retrying on exactly its seeded backoff schedule
    // and connect on the first attempt after the listener exists. The
    // old TCP version could only bound the reconnect latency loosely
    // (sleeps, scheduler slack); virtual time pins the whole schedule.
    let backoff = BackoffConfig {
        base_ms: 10,
        max_ms: 80,
        seed: 0,
    };
    let mut cfg = SensorConfig::new(0);
    cfg.backoff = backoff;
    let mut machine = SensorMachine::<TxSummary>::new(cfg);

    let psl = Psl::embedded();
    let mut sim = Simulation::from_config(SimConfig::small());
    let tx = &sim.collect(0.05)[0];
    machine.push(TxSummary::from_transaction(tx, &psl));
    machine.flush();

    // Phase 1: listener down. Every connect attempt fails; the machine
    // must ask to wait, never busy-loop at one instant.
    const DOWN_US: u64 = 120_000;
    let mut clock = VirtualClock::new();
    let mut failures = 0u64;
    let mut observed_delays = Vec::new();
    while clock.now() < DOWN_US {
        match machine.poll(clock.now()) {
            SensorOp::Connect => {
                let before = clock.now();
                machine.on_connect_failed(before);
                failures += 1;
                match machine.poll(before) {
                    SensorOp::WaitUntil(t) => {
                        assert!(t > before, "backoff must move time forward");
                        observed_delays.push(t - before);
                        clock.advance_to(t);
                    }
                    other => panic!("expected a backoff wait, got {other:?}"),
                }
            }
            other => panic!("expected a connect attempt, got {other:?}"),
        }
    }
    assert!(
        failures >= 3,
        "schedule retried only {failures} times in {DOWN_US}µs"
    );
    // The observed waits are exactly the seeded schedule, delay for
    // delay — not merely bounded by it.
    let mut reference = Backoff::new(backoff);
    for (attempt, &delay) in observed_delays.iter().enumerate() {
        let expected = reference.next_delay().as_micros() as u64;
        assert_eq!(delay, expected, "attempt {attempt} diverged from schedule");
    }

    // Phase 2: listener up. The pending attempt (scheduled while the
    // listener was still down) succeeds, so the connect latency after
    // startup is bounded by one capped backoff delay of virtual time.
    let up_at = clock.now();
    let mut core = CollectorCore::<TxSummary>::new(&CollectorConfig::new(1));
    let mut out = Vec::new();
    machine.finish();
    pump(&mut machine, &mut clock, 0, &mut core, &mut out);
    let report = machine.report();
    let stats = core.finish(&mut out);

    assert_eq!(report.connects, 1, "one successful connection, late");
    assert_eq!(report.dropped_frames, 0);
    assert_eq!(stats.sensors[&0].items, 1);
    assert_eq!(out.len(), 1, "the queued item survives the outage");
    let cap = Backoff::max_delay_for_attempt(&backoff, 32).as_micros() as u64;
    assert!(
        up_at - DOWN_US <= cap,
        "first post-outage attempt at {up_at}µs, cap {cap}µs past {DOWN_US}µs"
    );
}
