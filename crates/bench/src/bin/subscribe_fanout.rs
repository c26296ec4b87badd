//! Live-serving fan-out throughput: what the subscription tier costs,
//! measured at two layers on one fixed pre-generated workload of sealed
//! global windows:
//!
//! * **fanout** — the sans-io `BrokerCore` sealing windows into 1 / 64 /
//!   256 instantly-draining clients, purely in memory: frames pushed per
//!   second through the delta encoder and per-client egress accounting;
//! * **serve tax** — the aggregator's merge loop (the seal path of
//!   `dnsobs aggregate`) run serve-disabled, then again publishing every
//!   sealed window to a real TCP `Server` with 256 connected
//!   subscribers. The serving tier's design claim is that the seal path
//!   never blocks on subscribers, so the ratio must stay near 1.0.
//!
//! Prints the table. An ungated measuring tool: the repository's
//! benchmark is `obsbench/run.sh`.

use dns_observatory::{Dataset, ObservatoryConfig, StateExporter};
use pubsub::{
    encode_frame_vec, Action, BrokerConfig, BrokerCore, Frame, ServeConfig, Server, ServerHandle,
    Topic, PROTOCOL_VERSION,
};
use simnet::{SimConfig, Simulation};
use sketchwire::{AggregatorConfig, AggregatorCore, GlobalWindow, WindowState};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};
use telemetry::{Registry, TraceRing};

const UPSTREAMS: usize = 4;
const CHUNK_ENTRIES: usize = 64;
const SERVE_CLIENTS: usize = 256;

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

/// Arrival order a time-merging feed produces: every upstream's records
/// interleaved window-by-window.
fn arrival_order(streams: &[Vec<WindowState>]) -> Vec<&WindowState> {
    let mut arrival: Vec<&WindowState> = streams.iter().flatten().collect();
    arrival.sort_by(|a, b| {
        a.start
            .total_cmp(&b.start)
            .then(a.upstream.cmp(&b.upstream))
    });
    arrival
}

/// The batch `dnsobs` hands the serving tier for one sealed window.
fn to_batch(gw: &GlobalWindow) -> Vec<WindowState> {
    gw.datasets
        .iter()
        .map(|topk| WindowState {
            upstream: 0,
            start: gw.start,
            length: gw.length,
            topk: topk.clone(),
        })
        .collect()
}

/// Sealed global windows from one full aggregation pass, as the
/// per-window batches the broker ingests.
fn sealed_batches(streams: &[Vec<WindowState>]) -> Vec<Vec<WindowState>> {
    let mut core = AggregatorCore::new(&AggregatorConfig::new(UPSTREAMS));
    let mut sealed = Vec::new();
    for ws in arrival_order(streams) {
        core.on_state(ws.clone()).expect("record accepted");
        core.poll(&mut sealed);
    }
    core.finish(&mut sealed);
    assert!(!sealed.is_empty(), "workload sealed no windows");
    sealed.iter().map(to_batch).collect()
}

/// The in-memory broker hot loop: seal every window into `clients`
/// instantly-draining subscribers. Returns (frames/s, frames per pass).
fn measure_fanout(batches: &[Vec<WindowState>], clients: usize, reps: usize) -> (f64, u64) {
    let mut best = 0.0f64;
    let mut frames = 0u64;
    for _ in 0..reps {
        let mut core = BrokerCore::new(BrokerConfig::default());
        let mut actions: Vec<Action> = Vec::new();
        for id in 0..clients {
            core.on_client_connect(id as u64 + 1, &[], &mut actions);
        }
        actions.clear();
        let mut sent = 0u64;
        let t0 = Instant::now();
        for batch in batches {
            core.on_sealed(batch.clone(), &mut actions).expect("seal");
            sent += actions
                .iter()
                .filter(|a| matches!(a, Action::Send { .. }))
                .count() as u64;
            actions.clear();
            for id in 0..clients {
                let depth = core.client_depth(id as u64 + 1).unwrap_or(0);
                core.on_drained(id as u64 + 1, depth as u64);
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        best = best.max(sent as f64 / secs);
        frames = sent;
    }
    (best, frames)
}

/// A raw-drain subscriber: completes the handshake (top-k topic), then
/// sinks bytes until the server closes. Frame processing happens on the
/// consumer's own machine in a real deployment, so the server-side tax
/// is what this bench isolates.
fn spawn_drain_client(addr: SocketAddr) -> thread::JoinHandle<u64> {
    thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect drain client");
        stream
            .write_all(&encode_frame_vec(&Frame::Hello {
                protocol: PROTOCOL_VERSION,
                item_version: <WindowState as feed::FeedItem>::ITEM_VERSION,
            }))
            .expect("hello");
        stream
            .write_all(&encode_frame_vec(&Frame::Subscribe {
                topics: vec![Topic::Topk],
            }))
            .expect("subscribe");
        let mut buf = [0u8; 65536];
        let mut total = 0u64;
        loop {
            match stream.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => total += n as u64,
            }
        }
        total
    })
}

/// One cell of the clients × update-rate grid.
struct PacedCell {
    clients: usize,
    rate_hz: u64,
    records_per_sec: f64,
    p99_push_us: u64,
    evicted: u64,
    min_drained_bytes: u64,
}

/// The seal path under production pacing: windows seal at `rate_hz`
/// (production is one per 600 s; the bench compresses time), and each
/// sealed window is published to the serving tier exactly as
/// `dnsobs aggregate --serve` does. Throughput is the record rate the
/// seal path sustains end to end; push latency is the time spent inside
/// `publish_windows` (the only serving cost the seal path ever pays —
/// the broker runs behind its own ring). `clients == 0` runs the same
/// paced loop with serving disabled, the comparison baseline.
fn measure_paced(arrival: &[&WindowState], clients: usize, rate_hz: u64) -> PacedCell {
    let registry = Registry::new();
    let mut server = None;
    let mut handle = None;
    let mut drains = Vec::new();
    if clients > 0 {
        let mut s = Server::bind(
            "127.0.0.1:0",
            ServeConfig::default(),
            &registry,
            TraceRing::disabled(),
        )
        .expect("bind serving tier");
        handle = s.take_handle();
        let addr = s.local_addr();
        drains = (0..clients).map(|_| spawn_drain_client(addr)).collect();
        // Barrier: every handshake done before the first seal, so each
        // window fans out to the full fleet.
        let connected = registry.gauge("pubsub_clients");
        let deadline = Instant::now() + Duration::from_secs(30);
        while connected.value() < clients as f64 {
            assert!(Instant::now() < deadline, "clients failed to connect");
            thread::sleep(Duration::from_millis(5));
        }
        server = Some(s);
    }

    let period = Duration::from_secs_f64(1.0 / rate_hz as f64);
    let mut push_us: Vec<u64> = Vec::new();
    let mut core = AggregatorCore::new(&AggregatorConfig::new(UPSTREAMS));
    let mut sealed = Vec::new();
    let mut next = Instant::now() + period;
    let t0 = Instant::now();
    let publish = |gw: &GlobalWindow, handle: &mut Option<ServerHandle>, push_us: &mut Vec<u64>| {
        if let Some(h) = handle.as_mut() {
            let p0 = Instant::now();
            assert!(h.publish_windows(to_batch(gw)), "ingest ring full");
            push_us.push(p0.elapsed().as_micros() as u64);
        }
    };
    for ws in arrival {
        core.on_state((*ws).clone()).expect("record accepted");
        core.poll(&mut sealed);
        for gw in sealed.drain(..) {
            publish(&gw, &mut handle, &mut push_us);
            // Hold the production cadence: the next window may not seal
            // before its period elapses.
            let now = Instant::now();
            if now < next {
                thread::sleep(next - now);
            }
            next += period;
        }
    }
    core.finish(&mut sealed);
    for gw in sealed.drain(..) {
        publish(&gw, &mut handle, &mut push_us);
    }
    let elapsed = t0.elapsed().as_secs_f64();

    let mut evicted = 0;
    let mut min_drained = 0;
    if let Some(s) = server {
        drop(handle.take());
        let report = s.finish();
        assert_eq!(report.clients_seen, clients as u64);
        evicted = report
            .departures
            .iter()
            .filter(|r| r.reason != pubsub::EvictReason::Shutdown)
            .count() as u64;
        min_drained = drains
            .into_iter()
            .map(|c| c.join().expect("drain client"))
            .min()
            .unwrap_or(0);
    }
    push_us.sort_unstable();
    let p99 = if push_us.is_empty() {
        0
    } else {
        push_us[((push_us.len() as f64 * 0.99).ceil() as usize - 1).min(push_us.len() - 1)]
    };
    PacedCell {
        clients,
        rate_hz,
        records_per_sec: arrival.len() as f64 / elapsed,
        p99_push_us: p99,
        evicted,
        min_drained_bytes: min_drained,
    }
}

fn main() {
    eprintln!("generating workload...");
    let streams = generate(12.0);
    let arrival = arrival_order(&streams);
    let batches = sealed_batches(&streams);
    eprintln!(
        "generated {} state records -> {} sealed windows",
        arrival.len(),
        batches.len()
    );

    let reps = 3;
    let grid = [1usize, 64, 256];
    for &clients in &grid {
        let (fps, frames) = measure_fanout(&batches, clients, reps);
        println!("fanout {clients:>4} clients: {fps:>12.0} frames/s  ({frames} frames/pass)");
    }

    // Clients × update-rate grid under production pacing (windows seal
    // on a clock; the bench compresses the 600 s cadence to Hz scale).
    let rates = [1u64, 4];
    let mut cells: Vec<PacedCell> = Vec::new();
    let mut baselines: Vec<PacedCell> = Vec::new();
    for &rate in &rates {
        eprintln!("pacing at {rate} windows/s, serve disabled...");
        baselines.push(measure_paced(&arrival, 0, rate));
        for &clients in &grid {
            eprintln!("pacing at {rate} windows/s, {clients} TCP subscribers...");
            cells.push(measure_paced(&arrival, clients, rate));
        }
    }
    for b in &baselines {
        println!(
            "paced {:>2} hz, serve disabled: {:>8.0} records/s",
            b.rate_hz, b.records_per_sec
        );
    }
    for c in &cells {
        println!(
            "paced {:>2} hz, {:>4} clients:   {:>8.0} records/s  p99 push {:>6} us  evicted {}  min drained {} B",
            c.rate_hz, c.clients, c.records_per_sec, c.p99_push_us, c.evicted, c.min_drained_bytes
        );
    }

    // The acceptance figure: 256 clients at the fastest paced rate vs
    // the serve-disabled baseline at the same rate.
    let top_rate = *rates.last().expect("rates nonempty");
    let base = baselines
        .iter()
        .find(|b| b.rate_hz == top_rate)
        .expect("baseline cell");
    let full = cells
        .iter()
        .find(|c| c.rate_hz == top_rate && c.clients == SERVE_CLIENTS)
        .expect("256-client cell");
    let ratio = full.records_per_sec / base.records_per_sec;
    println!(
        "serve tax at {} clients / {top_rate} hz: {:.1}% of serve-disabled (evicted {})",
        SERVE_CLIENTS,
        100.0 * ratio,
        full.evicted
    );
}
