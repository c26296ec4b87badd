//! Three-process federated aggregation over loopback TCP.
//!
//! Topology under test (the federated tier of README/DESIGN):
//!
//! ```text
//! sensor 0 ──▶ collect --forward ──┐
//!                                  ├──▶ aggregate ──▶ global TSVs
//! sensor 1 ──▶ collect --forward ──┘
//! ```
//!
//! The forwarding collectors also write their window-state streams to
//! disk (`--state-out`), which gives the test an exact in-process
//! reference: aggregating those same records directly through
//! `AggregatorCore` must produce byte-identical global TSV files to what
//! the `dnsobs aggregate` process wrote from the TCP streams.

use dns_observatory::{Dataset, ObservatoryConfig, StateExporter, TxSummary};
use feed::{Sensor, SensorConfig};
use simnet::{SimConfig, Simulation};
use sketchwire::{AggregatorConfig, AggregatorCore, GlobalWindow, Uplink};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn dnsobs() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dnsobs"))
}

/// A loopback address that was free a moment ago. Sensors and forwarding
/// collectors reconnect with backoff, so spawn order doesn't matter.
fn free_addr() -> String {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    format!("127.0.0.1:{}", l.local_addr().unwrap().port())
}

/// Kills the child on drop so a failing test doesn't leak processes.
struct Proc {
    name: &'static str,
    child: Child,
}

impl Proc {
    fn spawn(name: &'static str, args: &[&str]) -> Proc {
        let child = dnsobs()
            .args(args)
            .stderr(std::process::Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
        Proc { name, child }
    }

    /// Wait up to 60 s; panic (and kill) on timeout or nonzero exit.
    fn join(mut self) {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait().expect("try_wait") {
                Some(status) => {
                    let mut err = String::new();
                    if let Some(mut pipe) = self.child.stderr.take() {
                        use std::io::Read;
                        let _ = pipe.read_to_string(&mut err);
                    }
                    assert!(status.success(), "{} failed: {err}", self.name);
                    return;
                }
                None if Instant::now() > deadline => {
                    let _ = self.child.kill();
                    panic!("{} timed out", self.name);
                }
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
    }
}

fn read_dir_sorted(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    files.sort();
    files
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dnsobs-fed-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// In-process reference over the very state records that crossed the
/// wire (`--state-out` files): the global TSVs `AggregatorCore` seals
/// from them, rendered into `dir/reference`. Merge order across
/// upstreams differs from TCP arrival order; the aggregator folds
/// upstreams in id order, so that is moot.
fn reference(dir: &Path, state_files: &[&Path]) -> Vec<(String, Vec<u8>)> {
    let refdir = dir.join("reference");
    std::fs::create_dir_all(&refdir).unwrap();
    let mut core = AggregatorCore::new(&AggregatorConfig::new(state_files.len()));
    let mut records = 0usize;
    for path in state_files {
        let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for ws in sketchwire::read_all(&bytes).expect("valid state stream") {
            core.on_state(ws).expect("reference accepts state");
            records += 1;
        }
    }
    assert!(records > 0, "collectors exported no state");
    let mut sealed: Vec<GlobalWindow> = Vec::new();
    core.finish(&mut sealed);
    assert!(!sealed.is_empty(), "reference sealed no windows");
    for gw in &sealed {
        dns_observatory::write_global(&refdir, gw).expect("render reference");
    }
    read_dir_sorted(&refdir)
}

/// `aggregate --listen ADDR --upstreams 2 --out DIR`.
fn spawn_aggregate(addr: &str, out: &Path) -> Proc {
    Proc::spawn(
        "aggregate",
        &[
            "aggregate",
            "--listen",
            addr,
            "--upstreams",
            "2",
            "--out",
            out.to_str().unwrap(),
        ],
    )
}

/// A forwarding collector: `collect --window 1` at `topk`, upstream
/// `upstream` of the aggregator at `agg`, its records also in `state`.
fn spawn_forwarder(
    name: &'static str,
    listen: &str,
    agg: &str,
    upstream: &str,
    topk: &str,
    state: &Path,
) -> Proc {
    Proc::spawn(
        name,
        &[
            "collect",
            "--listen",
            listen,
            "--sensors",
            "1",
            "--window",
            "1",
            "--topk",
            topk,
            "--forward",
            agg,
            "--upstream",
            upstream,
            "--state-out",
            state.to_str().unwrap(),
        ],
    )
}

/// Two forwarding collectors stream sketch state to one aggregator over
/// TCP; the global TSVs must be byte-identical to aggregating the same
/// state records in-process.
#[test]
fn three_process_topology_matches_in_process_reference() {
    let dir = temp_dir("topo");
    let global = dir.join("global");
    std::fs::create_dir_all(&global).unwrap();
    let (agg_addr, c0_addr, c1_addr) = (free_addr(), free_addr(), free_addr());
    let state0 = dir.join("state0.bin");
    let state1 = dir.join("state1.bin");

    let agg = spawn_aggregate(&agg_addr, &global);
    // Full default-scale caps: fine since io threads run on bounded
    // stacks and the sensor encoder seals batches by bytes (chunked
    // 10k-cap state records no longer overflow MAX_FRAME or the address
    // space).
    let c0 = spawn_forwarder("collect-0", &c0_addr, &agg_addr, "0", "10000", &state0);
    let c1 = spawn_forwarder("collect-1", &c1_addr, &agg_addr, "1", "10000", &state1);
    let sensor = |name, connect: &str, index| {
        Proc::spawn(
            name,
            &[
                "sensor",
                "--connect",
                connect,
                "--duration",
                "3",
                "--seed",
                "7",
                "--sensors",
                "2",
                "--index",
                index,
            ],
        )
    };
    let s0 = sensor("sensor-0", &c0_addr, "0");
    let s1 = sensor("sensor-1", &c1_addr, "1");

    s0.join();
    s1.join();
    c0.join();
    c1.join();
    agg.join();

    let got = read_dir_sorted(&global);
    let want = reference(&dir, &[&state0, &state1]);
    assert!(!want.is_empty());
    assert_eq!(
        got.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        want.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        "global file set"
    );
    for ((name, a), (_, b)) in got.iter().zip(&want) {
        assert_eq!(a, b, "{name} differs between TCP run and reference");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// A window reaches the aggregator's output when every upstream has
/// closed it, not when the next window's traffic arrives: each sensor
/// sends window 0 and one transaction of window 1, then keeps its feed
/// open. Window 0's global TSVs appear while every feed is still open
/// (window 1's do not), byte-identical to the in-process fold of the
/// records that crossed the wire.
#[test]
fn a_window_is_sealed_when_every_upstream_closes_it() {
    const DATASETS: [&str; 5] = ["srvip", "esld", "qname", "qtype", "rcode"];
    let dir = temp_dir("seal-on-close");
    let global = dir.join("global");
    std::fs::create_dir_all(&global).unwrap();
    let (agg_addr, c0_addr, c1_addr) = (free_addr(), free_addr(), free_addr());
    let (state0, state1) = (dir.join("state0.bin"), dir.join("state1.bin"));
    let agg = spawn_aggregate(&agg_addr, &global);
    let c0 = spawn_forwarder("collect-0", &c0_addr, &agg_addr, "0", "300", &state0);
    let c1 = spawn_forwarder("collect-1", &c1_addr, &agg_addr, "1", "300", &state1);

    // Every other summary of window 0 to each collector, then one of
    // window 1 each: that closes window 0 and nothing else.
    let psl = psl::Psl::embedded();
    let mut sim = Simulation::from_config(SimConfig::small());
    let summaries: Vec<TxSummary> = (sim.collect(3.0).iter())
        .map(|tx| TxSummary::from_transaction(tx, &psl))
        .collect();
    let first = summaries[0].time.floor();
    let (window0, later): (Vec<_>, Vec<_>) =
        summaries.into_iter().partition(|s| s.time < first + 1.0);
    assert!(later.len() >= 2 && later[1].time < first + 2.0);
    let sensors: Vec<Sensor<TxSummary>> = [&c0_addr, &c1_addr]
        .iter()
        .enumerate()
        .map(|(i, addr)| {
            let sensor = Sensor::connect(addr.as_str(), SensorConfig::new(0));
            (window0.iter().skip(i).step_by(2)).for_each(|s| sensor.send(s));
            sensor.send(&later[i]);
            sensor.flush();
            sensor
        })
        .collect();

    let name = |ds: &str, start: f64| format!("{ds}-{:05}.tsv", start as u64);
    let deadline = Instant::now() + Duration::from_secs(30);
    while !DATASETS
        .iter()
        .all(|ds| global.join(name(ds, first)).exists())
    {
        assert!(
            Instant::now() < deadline,
            "window 0 was not sealed while the feeds were open"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // Give a wrongly sealed window 1 a moment to show up.
    std::thread::sleep(Duration::from_millis(200));
    assert!(
        !global.join(name("srvip", first + 1.0)).exists(),
        "window 1 is still open"
    );

    for sensor in sensors {
        sensor.finish();
    }
    c0.join();
    c1.join();
    agg.join();
    let got = read_dir_sorted(&global);
    let want = reference(&dir, &[&state0, &state1]);
    for ds in DATASETS {
        let file = name(ds, first);
        let pick = |files: &[(String, Vec<u8>)]| {
            (files.iter())
                .find(|(n, _)| *n == file)
                .map(|(_, bytes)| bytes.clone())
        };
        assert!(pick(&want).is_some(), "reference lacks {file}");
        assert_eq!(
            pick(&got),
            pick(&want),
            "{file} differs from the in-process fold"
        );
    }
    assert_eq!(got, want, "every global window");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `dnsobs status` renders the aggregator's health section from its live
/// `--metrics` endpoint mid-run.
///
/// The test pins a deterministic mid-run point by driving the aggregator
/// with two in-process uplink streams: upstream 0 sends everything and
/// finishes; upstream 1 sends only its first record and then stalls —
/// the aggregator has processed records but cannot exit.
#[test]
fn status_renders_aggregator_health_mid_run() {
    let dir = temp_dir("status");
    let global = dir.join("global");
    std::fs::create_dir_all(&global).unwrap();
    let (agg_addr, metrics) = (free_addr(), free_addr());

    let agg = Proc::spawn(
        "aggregate",
        &[
            "aggregate",
            "--listen",
            &agg_addr,
            "--upstreams",
            "2",
            "--metrics",
            &metrics,
            "--out",
            global.to_str().unwrap(),
        ],
    );

    // Per-upstream window-state streams from a seeded sim, split the
    // same way the sensor CLI slices traffic.
    let cfg = || ObservatoryConfig {
        datasets: vec![(Dataset::SrvIp, 200), (Dataset::Qtype, 64)],
        window_secs: 1.0,
        bloom_gate: false,
        ..ObservatoryConfig::default()
    };
    let mut e0 = StateExporter::new(cfg(), 0, 0);
    let mut e1 = StateExporter::new(cfg(), 1, 0);
    let (mut st0, mut st1) = (Vec::new(), Vec::new());
    let mut sim = Simulation::from_config(SimConfig::small());
    sim.run(3.0, &mut |tx| {
        if tx.sensor_index(2) == 0 {
            e0.ingest(tx, &mut st0);
        } else {
            e1.ingest(tx, &mut st1);
        }
    });
    e0.finish(&mut st0);
    e1.finish(&mut st1);
    assert!(st1.len() >= 2, "need a tail to withhold, got {}", st1.len());

    let s0 = Sensor::<Uplink>::connect(&agg_addr, SensorConfig::new(0));
    let s1 = Sensor::<Uplink>::connect(&agg_addr, SensorConfig::new(1));
    let record = |ws| Uplink::State(Arc::new(ws));
    for ws in st0.drain(..) {
        s0.send(record(ws));
    }
    s0.finish();
    s1.send(record(st1.remove(0)));
    s1.flush();
    s1.wait_drained();

    let deadline = Instant::now() + Duration::from_secs(30);
    let mut last;
    loop {
        let out = dnsobs()
            .args(["status", "--metrics", &metrics])
            .output()
            .expect("spawn status");
        last = String::from_utf8_lossy(&out.stdout).into_owned();
        if out.status.success() && last.contains("aggregator") && last.contains("upstream 0") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "status never showed aggregator health; last output:\n{last}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    assert!(last.contains("records / rejected / late"), "{last}");

    // Upstream 1 delivers its tail; the aggregator must then exit
    // cleanly with its final global windows.
    for ws in st1.drain(..) {
        s1.send(record(ws));
    }
    s1.finish();
    agg.join();
    assert!(
        !read_dir_sorted(&global).is_empty(),
        "aggregator wrote no global windows"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
