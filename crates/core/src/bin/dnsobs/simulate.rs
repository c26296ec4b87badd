//! `simulate` (the whole platform in one process) and `sensor` (the
//! summarizing half of a distributed run).

use crate::flags::{self, Parsed};
use crate::session::Session;
use crate::sinks::{meta_reporter, sent_ledger, TsvDir};
use crate::{misuse, Done};
use dns_observatory::{Observatory, TxSummary};
use feed::{Sensor, SensorConfig};
use psl::Psl;
use simnet::{SimConfig, Simulation};

fn simulation(p: &Parsed) -> (Simulation, u64) {
    let seed = p.opt(&flags::SEED).unwrap_or(SimConfig::default().seed);
    let cfg = SimConfig {
        seed,
        ..SimConfig::small()
    };
    (Simulation::from_config(cfg), seed)
}

pub fn simulate(p: &Parsed) -> Done {
    let duration: f64 = p.req(&flags::DURATION);
    let cfg = crate::observatory_config(p);
    let window = cfg.window_secs;
    let mut out = TsvDir::create(p.opt(&flags::OUT))?;
    let _session = Session::start(p)?;
    let (mut sim, seed) = simulation(p);
    eprintln!(
        "simulating {duration}s of DNS traffic (seed {seed}), windows of {window}s -> {}",
        out.display()
    );
    let mut obs = Observatory::new(cfg);
    // The meta self-report rides on stream time: one window of platform
    // counters per data window, written next to the data files.
    let mut meta = meta_reporter(window);
    let mut written = Ok(());
    sim.run(duration, &mut |tx| {
        let at = (tx.time.max(0.0) * 1e6) as u64;
        obs.ingest(tx);
        // Windows leave as they close, like `collect --out`'s.
        for dump in obs.take_windows() {
            written = written.and_then(|()| out.write_window(dump));
        }
        if let Some(bytes) = meta.tick(at) {
            out.write_meta(&bytes);
        }
    });
    if let Some(bytes) = meta.finish((duration * 1e6) as u64) {
        out.write_meta(&bytes);
    }
    eprintln!("ingested {} transactions", obs.ingested());
    for dump in obs.finish().take_windows() {
        written = written.and_then(|()| out.write_window(dump));
    }
    out.report();
    written
}

/// The sensor half of a distributed run: simulate the full deployment's
/// traffic, keep the slice this sensor's vantage point would see, and
/// stream its summaries to the collector.
pub fn sensor(p: &Parsed) -> Done {
    let addr: String = p.req(&flags::CONNECT);
    let duration: f64 = p.req(&flags::DURATION);
    let sensors: usize = p.req(&flags::SENSORS);
    let index: usize = p.req(&flags::INDEX);
    if index >= sensors {
        let (i, n) = (flags::INDEX.name, flags::SENSORS.name);
        return Err(misuse(format_args!(
            "sensor: {i} {index} out of range for {n} {sensors}"
        )));
    }
    let (mut sim, seed) = simulation(p);
    eprintln!("sensor {index}/{sensors}: {duration}s of traffic (seed {seed}) -> {addr}");
    let psl = Psl::embedded();
    let client = Sensor::connect(addr, SensorConfig::new(index as u64));
    let mut kept = 0u64;
    sim.run(duration, &mut |tx| {
        if tx.sensor_index(sensors) == index {
            client.send(TxSummary::from_transaction(tx, &psl));
            kept += 1;
        }
    });
    let sent = sent_ledger(&client.finish());
    eprintln!("sensor {index}: summarized {kept} transactions, {sent}");
    Ok(())
}
