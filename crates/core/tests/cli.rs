//! Integration tests for the `dnsobs` command-line tool.

use std::process::Command;

fn dnsobs() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dnsobs"))
}

#[test]
fn usage_on_no_args() {
    let out = dnsobs().output().expect("spawn dnsobs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn simulate_then_show_roundtrip() {
    let dir = std::env::temp_dir().join(format!("dnsobs-cli-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let out = dnsobs()
        .args([
            "simulate",
            "--duration",
            "6",
            "--window",
            "2",
            "--seed",
            "99",
            "--out",
            dir.to_str().unwrap(),
        ])
        .output()
        .expect("spawn simulate");
    assert!(
        out.status.success(),
        "simulate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Files were written for every dataset, plus the rollup ladder is
    // attempted (may be absent for short runs).
    let files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(files.iter().any(|f| f.starts_with("srvip-")), "{files:?}");
    assert!(files.iter().any(|f| f.starts_with("qtype-")));
    assert!(files.iter().all(|f| f.ends_with(".tsv")));

    // `show` parses what `simulate` wrote.
    let sample = dir.join(files.iter().find(|f| f.starts_with("qtype-")).unwrap());
    let out = dnsobs()
        .args(["show", sample.to_str().unwrap()])
        .output()
        .expect("spawn show");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("dataset qtype"));
    assert!(text.contains('A'));

    // `top --n 3` limits output rows.
    let out = dnsobs()
        .args(["top", sample.to_str().unwrap(), "--n", "3"])
        .output()
        .expect("spawn top");
    assert!(out.status.success());
    let lines = String::from_utf8_lossy(&out.stdout).lines().count();
    assert!(lines <= 2 + 3, "top -n 3 printed {lines} lines");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn determinism_across_cli_runs() {
    let base = std::env::temp_dir().join(format!("dnsobs-cli-det-{}", std::process::id()));
    let run = |suffix: &str| {
        let dir = base.join(suffix);
        let _ = std::fs::remove_dir_all(&dir);
        let out = dnsobs()
            .args([
                "simulate",
                "--duration",
                "4",
                "--window",
                "2",
                "--seed",
                "7",
                "--out",
                dir.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(out.status.success());
        dir
    };
    let a = run("a");
    let b = run("b");
    let read_sorted = |dir: &std::path::Path| {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
            .into_iter()
            .map(|n| std::fs::read_to_string(dir.join(n)).unwrap())
            .collect::<Vec<_>>()
    };
    assert_eq!(read_sorted(&a), read_sorted(&b), "same seed, same bytes");
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn show_rejects_garbage() {
    let path = std::env::temp_dir().join(format!("dnsobs-garbage-{}.tsv", std::process::id()));
    std::fs::write(&path, "this is not a window dump\n").unwrap();
    let out = dnsobs()
        .args(["show", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let _ = std::fs::remove_file(&path);
}

// ---- cases driven by the CLI's own flag table --------------------------

#[allow(dead_code)]
#[path = "../src/bin/dnsobs/flags.rs"]
mod flags;

use flags::{Kind, TABLE};
use std::io::{BufRead, BufReader, Read};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Stdio};
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

fn stderr_of(args: &[&str]) -> (Option<i32>, String) {
    let out = dnsobs().args(args).output().expect("spawn dnsobs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn every_row_rejects_unknown_and_malformed_flags_by_name() {
    for cmd in TABLE {
        let mut args = cmd.path.to_vec();
        args.extend(["--no-such-flag", "1"]);
        let (code, err) = stderr_of(&args);
        assert_eq!(code, Some(2), "{args:?}: {err}");
        assert!(err.contains("--no-such-flag"), "{args:?}: {err}");
        assert_eq!(err.lines().count(), 1, "one line, not the usage: {err}");

        for flag in cmd.flags() {
            let mut args = cmd.path.to_vec();
            args.push(flag.name);
            let (code, err) = stderr_of(&args);
            assert_eq!(code, Some(2), "{args:?} (no value): {err}");
            assert!(err.contains(flag.name), "{args:?}: {err}");
            if matches!(flag.kind, Kind::Text | Kind::Texts) {
                continue;
            }
            for bad in ["abc", "-1", ""] {
                let mut args = cmd.path.to_vec();
                args.extend([flag.name, bad]);
                let (code, err) = stderr_of(&args);
                assert_eq!(code, Some(2), "{args:?}: {err}");
                assert!(err.contains(flag.name), "{args:?}: {err}");
            }
        }
    }
}

#[test]
fn usage_is_rendered_from_the_table() {
    let (code, top) = stderr_of(&[]);
    assert_eq!(code, Some(2));
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
        .expect("README.md");
    for cmd in TABLE {
        let line = cmd.usage_line();
        for flag in cmd.flags() {
            assert_eq!(
                line.contains(flag.name),
                !flag.hidden,
                "{} in `{line}`",
                flag.name
            );
            if let Some(default) = flag.default {
                assert!(flag.kind.check(default).is_ok(), "default of {}", flag.name);
            }
        }
        assert!(top.contains(&line), "top-level usage lacks `{line}`");
        assert!(readme.contains(&line), "README.md lacks `{line}`");
        // A family's bare name prints the family's rows (exit 2).
        if cmd.path.len() > 1 {
            let (code, family) = stderr_of(&cmd.path[..1]);
            assert_eq!(code, Some(2));
            assert!(
                family.contains(&line),
                "`{}` usage lacks `{line}`",
                cmd.path[0]
            );
        }
    }
}

fn free_addr() -> String {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    format!("127.0.0.1:{}", l.local_addr().unwrap().port())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dnsobs-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A child that is killed on drop; `join` waits (60 s) for a clean exit
/// and returns its stderr, less the lines `wait_for` has read.
struct Proc {
    child: Child,
    /// Stderr line by line, from a thread that drains the pipe; set up by
    /// the first `wait_for`.
    lines: Option<Receiver<String>>,
}

impl Proc {
    fn spawn(cwd: &Path, args: &[&str]) -> Proc {
        let mut command = dnsobs();
        command.args(args).current_dir(cwd).stderr(Stdio::piped());
        let child = command.spawn().expect("spawn dnsobs");
        Proc { child, lines: None }
    }

    /// Read stderr until a line starts with `prefix` (60 s at most) and
    /// return that line. Stderr keeps draining afterwards, so the child
    /// never blocks on a full pipe and `join` still returns the rest.
    fn wait_for(&mut self, prefix: &str) -> String {
        let lines = self.lines.get_or_insert_with(|| {
            let stderr = self.child.stderr.take().expect("piped stderr");
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                    let _ = tx.send(line);
                }
            });
            rx
        });
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut seen = String::new();
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match lines.recv_timeout(left) {
                Ok(line) if line.starts_with(prefix) => return line,
                Ok(line) => seen += &(line + "\n"),
                Err(e) => panic!("dnsobs never printed `{prefix}…` ({e}); stderr:\n{seen}"),
            }
        }
    }

    /// Spawn `collect` on a port it picks itself and return, with the
    /// address it printed, once it listens. A sensor that connects
    /// earlier backs off while it keeps sealing frames, and a full send
    /// buffer drops them. A port picked in advance can be taken by
    /// another test's outgoing connection before `collect` binds it.
    fn collect(cwd: &Path, args: &[&str]) -> (Proc, String) {
        let args = [&["collect", "--listen", "127.0.0.1:0"], args].concat();
        let mut collect = Proc::spawn(cwd, &args);
        let line = collect.wait_for("collecting from ");
        let addr = line
            .split(" on ")
            .nth(1)
            .and_then(|on| on.split(',').next());
        let addr = addr.expect("`collecting from … on ADDR, …`").to_string();
        (collect, addr)
    }

    fn join(mut self) -> String {
        let deadline = Instant::now() + Duration::from_secs(60);
        while self.child.try_wait().expect("try_wait").is_none() {
            assert!(Instant::now() < deadline, "dnsobs timed out");
            std::thread::sleep(Duration::from_millis(20));
        }
        let mut err = String::new();
        if let Some(lines) = &self.lines {
            err = lines.iter().map(|line| line + "\n").collect();
        } else if let Some(mut pipe) = self.child.stderr.take() {
            pipe.read_to_string(&mut err).expect("read stderr");
        }
        let status = self.child.wait().expect("reaped");
        assert!(status.success(), "dnsobs failed ({status}): {err}");
        err
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
    }
}

fn sensor(cwd: &Path, connect: &str) -> Proc {
    let args = [
        "sensor",
        "--connect",
        connect,
        "--duration",
        "3",
        "--seed",
        "5",
    ];
    Proc::spawn(cwd, &args)
}

/// `collect --out D --store S` is on the state path and still renders:
/// one TSV per stored window and dataset, conserving every transaction,
/// and the meta self-reports next to them.
#[test]
fn collect_renders_every_stored_window() {
    let dir = temp_dir("out-store");
    let (out, store_dir) = (dir.join("out"), dir.join("store"));
    let addr = free_addr();
    let collect = Proc::spawn(
        &dir,
        &[
            "collect",
            "--listen",
            &addr,
            "--window",
            "1",
            "--topk",
            "300",
            "--out",
            out.to_str().unwrap(),
            "--store",
            store_dir.to_str().unwrap(),
        ],
    );
    let sent = sensor(&dir, &addr).join();
    collect.join();
    let summarized: u64 = sent
        .split("summarized ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no transaction count in: {sent}"));
    assert!(summarized > 0);

    let (store, _) = store::Store::open(&store_dir).expect("open store");
    let mut starts = std::collections::BTreeSet::new();
    for meta in store.segments().to_vec() {
        let (_, states) = store.read_segment(&meta).expect("readable segment");
        starts.extend(states.iter().map(|ws| ws.start as u64));
    }
    assert!(starts.len() >= 3, "stored windows: {starts:?}");
    let mut accounted = 0;
    for start in &starts {
        let path = out.join(format!("rcode-{start:05}.tsv"));
        let file = std::fs::File::open(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let dump = dns_observatory::tsv::read_window(std::io::BufReader::new(file)).unwrap();
        accounted += dump.kept + dump.dropped + dump.filtered;
    }
    assert_eq!(accounted, summarized, "rcode windows vs the sensor's count");
    let names: Vec<String> = std::fs::read_dir(&out)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    let meta = names.iter().filter(|n| n.starts_with("meta-")).count();
    assert!(meta > 0, "no meta self-report in {names:?}");
    assert_eq!(
        names.len() - meta,
        starts.len() * 5,
        "a file per window and dataset"
    );
    assert!(
        !dir.join("dnsobs-data").exists(),
        "--out given: no default directory"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Send `summaries`, waiting for the wire after each half send buffer.
/// A sensor that seals frames faster than its writer drains them drops
/// frames by design, and the tests that send this way compare every
/// window byte for byte.
fn send_paced(
    client: &feed::Sensor<dns_observatory::TxSummary>,
    summaries: &[dns_observatory::TxSummary],
) {
    let config = feed::SensorConfig::new(0);
    for chunk in summaries.chunks(config.buffer_frames / 2 * config.batch_items) {
        chunk.iter().for_each(|s| client.send(s));
        client.wait_drained();
    }
}

/// The data TSVs of a window directory by name: no `meta-*` self-report,
/// no `*-10win-*` rollup.
fn data_tsvs(dir: &Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|path| {
            let name = path.file_name().unwrap().to_string_lossy();
            name.ends_with(".tsv") && !name.starts_with("meta-") && !name.contains("-10win-")
        })
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect()
}

/// One window clock: the same feed, whose first summary is not on a
/// whole second, renders the same data TSVs byte for byte on each route
/// one collector has — rows (`collect --out`), states rendered locally
/// (`collect --out --store`) and states merged upstream (`collect
/// --forward` → `aggregate --out`). Every window starts at a multiple of
/// `--window`, and the admission gate is on.
#[test]
fn one_collector_cuts_the_same_windows_on_every_route() {
    use dns_observatory::TxSummary;

    let dir = temp_dir("three-way");
    let psl = psl::Psl::embedded();
    let mut sim = simnet::Simulation::from_config(simnet::SimConfig::small());
    let summaries: Vec<TxSummary> = (sim.collect(6.0).iter())
        .map(|tx| {
            let mut s = TxSummary::from_transaction(tx, &psl);
            s.time += 0.37;
            s
        })
        .collect();
    assert!(
        summaries[0].time.fract() > 0.3,
        "the feed starts mid-window"
    );
    let route = |sinks: &[&str]| {
        let mut args = vec!["--window", "1", "--topk", "300"];
        args.extend(sinks);
        let (collect, addr) = Proc::collect(&dir, &args);
        let client = feed::Sensor::connect(addr, feed::SensorConfig::new(0));
        send_paced(&client, &summaries);
        let report = client.finish();
        assert_eq!(report.dropped_frames, 0, "{sinks:?}: the sensor dropped");
        collect.join();
    };
    let rows = dir.join("rows");
    route(&["--out", rows.to_str().unwrap()]);
    let (stored, store) = (dir.join("stored"), dir.join("store"));
    let sinks = [
        "--out",
        stored.to_str().unwrap(),
        "--store",
        store.to_str().unwrap(),
    ];
    route(&sinks);
    let (global, agg_addr) = (dir.join("global"), free_addr());
    let agg_args = [
        "aggregate",
        "--listen",
        &agg_addr,
        "--out",
        global.to_str().unwrap(),
    ];
    let aggregate = Proc::spawn(&dir, &agg_args);
    route(&["--forward", &agg_addr]);
    aggregate.join();

    let want = data_tsvs(&rows);
    assert!(want.len() >= 6 * 5, "{} data files", want.len());
    let first = String::from_utf8(want["rcode-00000.tsv"].clone()).unwrap();
    assert!(
        first.contains("\tstart=0\t"),
        "window 0 starts at 0:\n{first}"
    );
    for (route, got) in [("--out --store", &stored), ("--forward", &global)] {
        let got = data_tsvs(got);
        assert_eq!(
            got.keys().collect::<Vec<_>>(),
            want.keys().collect::<Vec<_>>(),
            "{route}: the same windows"
        );
        for (name, bytes) in &want {
            assert!(
                got[name] == *bytes,
                "{route}: {name} differs from collect --out"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A forwarding collector renders nothing and creates no directory.
#[test]
fn forwarding_collect_leaves_no_output_directory() {
    let dir = temp_dir("forward");
    let global = dir.join("global");
    let (agg_addr, addr) = (free_addr(), free_addr());
    let aggregate = Proc::spawn(
        &dir,
        &[
            "aggregate",
            "--listen",
            &agg_addr,
            "--out",
            global.to_str().unwrap(),
        ],
    );
    let collect = Proc::spawn(
        &dir,
        &[
            "collect",
            "--listen",
            &addr,
            "--window",
            "1",
            "--topk",
            "300",
            "--forward",
            &agg_addr,
        ],
    );
    sensor(&dir, &addr).join();
    collect.join();
    aggregate.join();
    assert!(std::fs::read_dir(&global).unwrap().count() > 0);
    let left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(left, ["global"], "only the aggregator's --out exists");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `collect --out` writes a window when it closes, not when the feed
/// ends: a sensor sends a dozen windows and falls silent, and the first
/// window's files and the first `10win-` rollup are there while the feed
/// is still open. After BYE the tree is, byte for byte, the reference
/// fold of the same summaries and the rollup of its first ten windows.
#[test]
fn collect_writes_each_window_as_it_closes() {
    use dns_observatory::aggregate::rollup;
    use dns_observatory::{tsv, Dataset, Observatory, ObservatoryConfig, TxSummary, WindowDump};

    let dir = temp_dir("streaming");
    let out = dir.join("out");
    let (collect, addr) = Proc::collect(
        &dir,
        &[
            "--window",
            "1",
            "--topk",
            "300",
            "--out",
            out.to_str().unwrap(),
        ],
    );

    let psl = psl::Psl::embedded();
    let mut sim = simnet::Simulation::from_config(simnet::SimConfig::small());
    let summaries: Vec<TxSummary> = sim
        .collect(12.0)
        .iter()
        .map(|tx| TxSummary::from_transaction(tx, &psl))
        .collect();
    let client = feed::Sensor::connect(addr, feed::SensorConfig::new(0));
    send_paced(&client, &summaries);

    let datasets = [
        (Dataset::SrvIp, 300),
        (Dataset::Esld, 300),
        (Dataset::Qname, 300),
        (Dataset::Qtype, 64),
        (Dataset::Rcode, 16),
    ];
    let first_start = summaries[0].time as u64;
    let written = |ds: Dataset| {
        ["", "10win-"].iter().all(|level| {
            out.join(format!("{}-{level}{first_start:05}.tsv", ds.name()))
                .exists()
        })
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    while !datasets.iter().all(|&(ds, _)| written(ds)) {
        assert!(
            Instant::now() < deadline,
            "the first window and its rollup were not written while the feed was open"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(client.finish().dropped_frames, 0, "the sensor dropped");
    collect.join();

    let mut reference = Observatory::new(ObservatoryConfig {
        datasets: datasets.to_vec(),
        window_secs: 1.0,
        ..ObservatoryConfig::default()
    });
    for s in summaries {
        reference.ingest_summary(s);
    }
    let kinds: Vec<Dataset> = datasets.iter().map(|&(ds, _)| ds).collect();
    let store = reference.finish();
    let mut want = tsv::render_store(&store, &kinds);
    assert!(want.len() >= 11 * datasets.len(), "past ten windows");
    for &ds in &kinds {
        let first_ten: Vec<WindowDump> =
            store.dataset(ds)[..10].iter().map(|&w| w.clone()).collect();
        let rolled = rollup(&first_ten);
        let mut bytes = Vec::new();
        tsv::write_window(&mut bytes, &rolled).unwrap();
        want.push((
            format!("{}-10win-{:05}", ds.name(), rolled.start as u64),
            bytes,
        ));
    }
    for (name, bytes) in &want {
        let got = std::fs::read(out.join(format!("{name}.tsv"))).expect(name);
        assert!(got == *bytes, "{name}.tsv differs from the reference fold");
    }
    let data_files = std::fs::read_dir(&out)
        .unwrap()
        .filter(|e| {
            let name = e.as_ref().unwrap().file_name();
            !name.to_string_lossy().starts_with("meta-")
        })
        .count();
    assert_eq!(data_files, want.len(), "and nothing else");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `collect --out D --trace-out T` leaves a flight-recorder dump in which
/// `dnsobs trace` finds every data window sealed and none left open.
#[test]
fn traced_collect_seals_every_window() {
    let dir = temp_dir("trace");
    let (out, trace) = (dir.join("out"), dir.join("flight.tsv"));
    let addr = free_addr();
    let collect = Proc::spawn(
        &dir,
        &[
            "collect",
            "--listen",
            &addr,
            "--window",
            "1",
            "--topk",
            "300",
            "--out",
            out.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ],
    );
    sensor(&dir, &addr).join();
    collect.join();

    let windows = std::fs::read_dir(&out)
        .unwrap()
        .filter(|e| {
            let name = e.as_ref().unwrap().file_name();
            let name = name.to_string_lossy();
            name.starts_with("rcode-") && !name.contains("10win")
        })
        .count();
    assert!(windows >= 3, "{windows} data windows");
    let shown = dnsobs()
        .args(["trace", trace.to_str().unwrap()])
        .output()
        .expect("spawn trace");
    assert!(shown.status.success());
    let text = String::from_utf8_lossy(&shown.stdout);
    let summary = format!("{windows} window(s): {windows} sealed, 0 conflict, 0 dropped, 0 open");
    assert!(text.contains(&summary), "want `{summary}` in:\n{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Summaries of `window_secs`-second windows of a small simulated world:
/// every summary of the first window, then the first one of the second.
fn first_window_and_one(psl: &psl::Psl) -> (f64, Vec<dns_observatory::TxSummary>) {
    let mut sim = simnet::Simulation::from_config(simnet::SimConfig::small());
    let summaries: Vec<_> = sim
        .collect(2.0)
        .iter()
        .map(|tx| dns_observatory::TxSummary::from_transaction(tx, psl))
        .collect();
    // State-exporting windows start at whole multiples of their length.
    let first = summaries[0].time.floor();
    let next = summaries
        .iter()
        .position(|s| s.time >= first + 1.0)
        .expect("a second window");
    (first, summaries[..=next].to_vec())
}

/// A forwarding `collect` sends a window upstream when it closes: its
/// sensor sends window 0 and one transaction of window 1, then idles,
/// and window 0's records arrive upstream before any BYE, followed in
/// the same frame by the watermark closing window 0.
#[test]
fn forwarding_collect_flushes_each_window_upstream() {
    use sketchwire::Uplink;

    let dir = temp_dir("flush");
    let upstream = TcpListener::bind("127.0.0.1:0").expect("bind upstream");
    upstream.set_nonblocking(true).unwrap();
    let up_addr = upstream.local_addr().unwrap().to_string();
    let (collect, addr) = Proc::collect(
        &dir,
        &["--window", "1", "--topk", "300", "--forward", &up_addr],
    );
    let psl = psl::Psl::embedded();
    let (first, summaries) = first_window_and_one(&psl);
    let client =
        feed::Sensor::<dns_observatory::TxSummary>::connect(addr, feed::SensorConfig::new(0));
    for s in &summaries {
        client.send(s);
    }
    client.flush();
    client.wait_drained();

    // The uplink connects with its first frame.
    let deadline = Instant::now() + Duration::from_secs(30);
    let late = "window 0 did not go upstream while the feed was open";
    let mut stream = loop {
        match upstream.accept() {
            Ok((stream, _)) => break stream,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                assert!(Instant::now() < deadline, "{late}");
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("accept: {e}"),
        }
    };
    stream.set_nonblocking(false).unwrap();
    let mut reader = feed::FrameReader::<Uplink>::new();
    let mut buf = vec![0u8; 1 << 16];
    let mut datasets = std::collections::BTreeSet::new();
    let mut closed = false;
    let mut read = |stream: &mut std::net::TcpStream, reader: &mut feed::FrameReader<_>| {
        let left = deadline.saturating_duration_since(Instant::now());
        stream
            .set_read_timeout(Some(left.max(Duration::from_millis(1))))
            .unwrap();
        let n = stream
            .read(&mut buf)
            .unwrap_or_else(|e| panic!("{late}: {e}"));
        reader.push(&buf[..n]);
        n
    };
    while !closed {
        assert!(read(&mut stream, &mut reader) > 0, "{late}");
        while let Some(frame) = reader.next_frame().expect("valid uplink frames") {
            if let feed::Frame::Batch { items, .. } = frame {
                for item in items {
                    assert!(!closed, "the watermark comes after the records");
                    match item {
                        Uplink::State(ws) => {
                            assert_eq!(ws.start, first, "only window 0 has closed");
                            datasets.insert(ws.topk.dataset.clone());
                        }
                        Uplink::Closed { upstream, through } => {
                            assert_eq!((upstream, through), (0, first + 1.0));
                            closed = true;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(datasets.len(), 5, "every dataset of window 0 went up");
    client.finish();
    while read(&mut stream, &mut reader) > 0 {}
    collect.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// How long an upstream outage a forwarding `collect` rides out. Every
/// closed window is flushed as a frame of its own, so the uplink's send
/// buffer (`buffer_frames` frames, the one its writer is retrying
/// included) holds exactly that many windows. Later windows are dropped,
/// and the BYE ledgers them.
#[test]
fn a_down_upstream_buffers_one_frame_per_window() {
    use feed::FeedItem;
    use sketchwire::Uplink;

    const WINDOWS: usize = 70;
    let buffered = feed::SensorConfig::new(0).buffer_frames;
    let dir = temp_dir("outage");
    let up_addr = free_addr();
    let (mut collect, addr) = Proc::collect(
        &dir,
        &["--window", "1", "--topk", "300", "--forward", &up_addr],
    );

    // A few summaries of window 0, repeated one window later each time.
    let psl = psl::Psl::embedded();
    let (first, mut summaries) = first_window_and_one(&psl);
    summaries.pop();
    summaries.truncate(50);
    let client =
        feed::Sensor::<dns_observatory::TxSummary>::connect(addr, feed::SensorConfig::new(0));
    for k in 0..WINDOWS {
        for s in &summaries {
            let mut s = s.clone();
            s.time += k as f64;
            client.send(s);
        }
    }
    client.finish();

    // Every window has gone to the uplink once the ledger is printed.
    collect.wait_for("exported ");
    let deadline = Instant::now() + Duration::from_secs(60);
    let upstream = TcpListener::bind(&up_addr).expect("bind the upstream");
    upstream.set_nonblocking(true).unwrap();
    let mut stream = loop {
        match upstream.accept() {
            Ok((stream, _)) => break stream,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                assert!(Instant::now() < deadline, "the uplink never reconnected");
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("accept: {e}"),
        }
    };
    stream.set_nonblocking(false).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = feed::FrameReader::<Uplink>::new();
    let mut buf = vec![0u8; 1 << 16];
    let (mut starts, mut dropped) = (Vec::new(), None);
    while dropped.is_none() {
        let n = stream.read(&mut buf).expect("uplink read");
        assert!(n > 0, "the uplink closed before its BYE");
        reader.push(&buf[..n]);
        while let Some(frame) = reader.next_frame().expect("valid uplink frames") {
            match frame {
                feed::Frame::Batch { mut items, .. } => {
                    let start = items[0].order_time();
                    let watermark = Uplink::Closed {
                        upstream: 0,
                        through: start + 1.0,
                    };
                    assert_eq!(items.pop(), Some(watermark), "closed after its records");
                    assert!(
                        (items.iter()).all(|i| matches!(i, Uplink::State(ws) if ws.start == start)),
                        "one window a frame"
                    );
                    starts.push(start);
                }
                feed::Frame::Bye { dropped_frames, .. } => dropped = Some(dropped_frames),
                feed::Frame::Hello { .. } => {}
            }
        }
    }
    let delivered = starts.len();
    assert_eq!(
        delivered, buffered,
        "windows that survived a {buffered}-frame buffer"
    );
    let oldest: Vec<f64> = (0..delivered).map(|k| first + k as f64).collect();
    assert_eq!(starts, oldest, "the oldest windows are kept");
    assert_eq!(dropped, Some((WINDOWS - delivered) as u64));
    collect.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `collect --forward A --serve B` hands the uplink borrowed records and
/// the broker the batch itself; a subscriber of B renders, byte for byte,
/// the TSVs the aggregator at A writes.
#[test]
fn forward_and_serve_deliver_the_same_windows() {
    use pubsub::{Frame, FrameReader, SubEvent, SubscriberCore, Topic};
    use std::io::Write;

    let dir = temp_dir("forward-serve");
    let global = dir.join("global");
    let (agg_addr, addr, serve_addr) = (free_addr(), free_addr(), free_addr());
    let aggregate = Proc::spawn(
        &dir,
        &[
            "aggregate",
            "--listen",
            &agg_addr,
            "--out",
            global.to_str().unwrap(),
        ],
    );
    let collect = Proc::spawn(
        &dir,
        &[
            "collect",
            "--listen",
            &addr,
            "--window",
            "1",
            "--topk",
            "300",
            "--forward",
            &agg_addr,
            "--serve",
            &serve_addr,
        ],
    );
    // Subscribe before any window seals: the handshake's answer comes
    // just before the broker registers the client.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut stream = loop {
        match std::net::TcpStream::connect(&serve_addr) {
            Ok(stream) => break stream,
            Err(e) => {
                assert!(Instant::now() < deadline, "--serve never listened: {e}");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };
    let hello = Frame::Hello {
        protocol: pubsub::PROTOCOL_VERSION,
        item_version: 1,
    };
    let subscribe = Frame::Subscribe {
        topics: vec![Topic::Features],
    };
    for frame in [hello, subscribe] {
        stream.write_all(&pubsub::encode_frame_vec(&frame)).unwrap();
    }
    let (mut reader, mut sub) = (FrameReader::new(), SubscriberCore::new());
    let mut buf = vec![0u8; 1 << 16];
    let mut next_event = |stream: &mut std::net::TcpStream| loop {
        if let Some(frame) = reader.next_frame().expect("valid frames") {
            match sub.on_frame(frame).expect("consistent stream") {
                Some(event) => return Some(event),
                None => return None,
            }
        }
        let n = stream.read(&mut buf).expect("subscription read");
        assert!(n > 0, "stream closed without a Bye");
        reader.push(&buf[..n]);
    };
    assert!(next_event(&mut stream).is_none(), "the broker's hello");
    std::thread::sleep(Duration::from_millis(200));

    sensor(&dir, &addr).join();
    let mut mirror = std::collections::BTreeMap::new();
    loop {
        match next_event(&mut stream) {
            Some(SubEvent::Window(h)) => {
                let dump =
                    dns_observatory::render_state(&h.state, h.start, h.length).expect("renders");
                let mut bytes = Vec::new();
                dns_observatory::tsv::write_window(&mut bytes, &dump).unwrap();
                let name = format!("{}-{:05}.tsv", dump.dataset, dump.start as u64);
                mirror.insert(name, bytes);
            }
            Some(SubEvent::Meta { .. }) => {}
            Some(SubEvent::End) => break,
            other => panic!("unexpected event {other:?}"),
        }
    }
    collect.join();
    aggregate.join();
    let written: std::collections::BTreeMap<String, Vec<u8>> = std::fs::read_dir(&global)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect();
    assert!(written.len() >= 10, "aggregator wrote {written:?}");
    assert_eq!(
        mirror.keys().collect::<Vec<_>>(),
        written.keys().collect::<Vec<_>>()
    );
    for (name, bytes) in &written {
        assert!(mirror[name] == *bytes, "{name}: subscriber differs");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An upstream that says BYE stops holding the global view. Two
/// forwarding collectors feed one `aggregate --out`; collector 0's sensor
/// sends three windows and finishes, and collector 0 says BYE upstream.
/// Collector 1's sensor sends seven windows and stays open, so collector 1
/// closes its first six. Window 5, two windows after collector 0's last,
/// must reach `--out` while collector 1 is still open.
#[test]
fn a_departed_upstream_stops_holding_later_windows() {
    use dns_observatory::TxSummary;

    let dir = temp_dir("departure");
    let global = dir.join("global");
    let agg_addr = free_addr();
    let agg_args = [
        "aggregate",
        "--listen",
        &agg_addr,
        "--upstreams",
        "2",
        "--out",
        global.to_str().unwrap(),
    ];
    let aggregate = Proc::spawn(&dir, &agg_args);
    let forward = |upstream: &str| {
        let args = ["--window", "1", "--topk", "300", "--forward", &agg_addr];
        Proc::collect(&dir, &[&args[..], &["--upstream", upstream]].concat())
    };
    let ((early_collect, early_addr), (open_collect, open_addr)) = (forward("0"), forward("1"));

    let psl = psl::Psl::embedded();
    let mut sim = simnet::Simulation::from_config(simnet::SimConfig::small());
    let summaries: Vec<TxSummary> = (sim.collect(7.0).iter())
        .map(|tx| TxSummary::from_transaction(tx, &psl))
        .collect();
    let first = summaries[0].time.floor();
    let early: Vec<TxSummary> = (summaries.iter())
        .filter(|s| s.time < first + 3.0)
        .cloned()
        .collect();
    let open = feed::Sensor::connect(open_addr, feed::SensorConfig::new(0));
    send_paced(&open, &summaries);
    let leaving = feed::Sensor::connect(early_addr, feed::SensorConfig::new(0));
    send_paced(&leaving, &early);
    assert_eq!(leaving.finish().dropped_frames, 0);
    early_collect.join();

    let window5 = global.join(format!("rcode-{:05}.tsv", first as u64 + 5));
    let deadline = Instant::now() + Duration::from_secs(30);
    while !window5.exists() {
        assert!(
            Instant::now() < deadline,
            "window 5 was not sealed after upstream 0 left"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(open.finish().dropped_frames, 0);
    open_collect.join();
    aggregate.join();
    let _ = std::fs::remove_dir_all(&dir);
}
