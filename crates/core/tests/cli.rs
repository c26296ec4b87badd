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
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Stdio};
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
/// and returns its stderr.
struct Proc(Child);

impl Proc {
    fn spawn(cwd: &Path, args: &[&str]) -> Proc {
        let mut command = dnsobs();
        command.args(args).current_dir(cwd).stderr(Stdio::piped());
        Proc(command.spawn().expect("spawn dnsobs"))
    }

    fn join(mut self) -> String {
        let deadline = Instant::now() + Duration::from_secs(60);
        while self.0.try_wait().expect("try_wait").is_none() {
            assert!(Instant::now() < deadline, "dnsobs timed out");
            std::thread::sleep(Duration::from_millis(20));
        }
        let mut err = String::new();
        use std::io::Read;
        let mut pipe = self.0.stderr.take().expect("piped stderr");
        pipe.read_to_string(&mut err).expect("read stderr");
        let status = self.0.wait().expect("reaped");
        assert!(status.success(), "dnsobs failed ({status}): {err}");
        err
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.0.kill();
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
/// one TSV per stored window and dataset, conserving every transaction.
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
    let rendered = std::fs::read_dir(&out).unwrap().count();
    assert_eq!(rendered, starts.len() * 5, "a file per window and dataset");
    assert!(
        !dir.join("dnsobs-data").exists(),
        "--out given: no default directory"
    );
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
/// ends: a sensor sends two windows and falls silent, and the first
/// window's files are there while the feed is still open. After BYE the
/// tree is, byte for byte, the reference fold of the same summaries.
#[test]
fn collect_writes_each_window_as_it_closes() {
    use dns_observatory::{Dataset, Observatory, ObservatoryConfig, TxSummary};

    let dir = temp_dir("streaming");
    let out = dir.join("out");
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
        ],
    );

    let psl = psl::Psl::embedded();
    let mut sim = simnet::Simulation::from_config(simnet::SimConfig::small());
    let summaries: Vec<TxSummary> = sim
        .collect(2.0)
        .iter()
        .map(|tx| TxSummary::from_transaction(tx, &psl))
        .collect();
    let client = feed::Sensor::connect(addr, feed::SensorConfig::new(0));
    for s in &summaries {
        client.send(s.clone());
    }
    client.wait_drained();

    let datasets = [
        (Dataset::SrvIp, 300),
        (Dataset::Esld, 300),
        (Dataset::Qname, 300),
        (Dataset::Qtype, 64),
        (Dataset::Rcode, 16),
    ];
    let first_start = summaries[0].time as u64;
    let first_window = |ds: Dataset| out.join(format!("{}-{first_start:05}.tsv", ds.name()));
    let deadline = Instant::now() + Duration::from_secs(60);
    while !datasets.iter().all(|&(ds, _)| first_window(ds).exists()) {
        assert!(
            Instant::now() < deadline,
            "the first window was not written while the feed was open"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    client.finish();
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
    let want = dns_observatory::tsv::render_store(&reference.finish(), &kinds);
    assert_eq!(want.len(), 2 * datasets.len(), "two windows were sent");
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
