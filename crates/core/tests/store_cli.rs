//! Full-stack crash-recovery round-trip through the `dnsobs` binary:
//!
//! ```text
//! sensor ──▶ collect --store DIR --kill-after-windows 2   (exits 3)
//! sensor ──▶ collect --store DIR                          (resumes)
//!                      │
//!                      └──▶ dnsobs query / store API      (== reference)
//! ```
//!
//! The interrupted collector dies hard (process exit, not a graceful
//! drain) right after its Nth window becomes durable. The restarted
//! collector must resume the watermark frontier from the store's last
//! durable window, skip the replayed traffic it already folded, and end
//! up with a store whose contents — every window, every sketch state —
//! equal an uninterrupted reference run over the same seeded traffic.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn dnsobs() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dnsobs"))
}

fn free_addr() -> String {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    format!("127.0.0.1:{}", l.local_addr().unwrap().port())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dnsobs-storecli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct Proc {
    name: &'static str,
    child: Child,
}

impl Proc {
    fn spawn(name: &'static str, args: &[&str]) -> Proc {
        let child = dnsobs()
            .args(args)
            .stderr(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
        Proc { name, child }
    }

    /// Wait up to 60 s for the expected exit code; return captured stderr.
    fn join_code(mut self, want: i32) -> String {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait().expect("try_wait") {
                Some(status) => {
                    let mut err = String::new();
                    if let Some(mut pipe) = self.child.stderr.take() {
                        use std::io::Read;
                        let _ = pipe.read_to_string(&mut err);
                    }
                    assert_eq!(
                        status.code(),
                        Some(want),
                        "{} exited {status:?}, want {want}: {err}",
                        self.name
                    );
                    return err;
                }
                None if Instant::now() > deadline => {
                    let _ = self.child.kill();
                    panic!("{} timed out", self.name);
                }
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    fn join(self) -> String {
        self.join_code(0)
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
    }
}

fn collect(name: &'static str, listen: &str, store: &Path, extra: &[&str]) -> Proc {
    let mut args = vec![
        "collect",
        "--listen",
        listen,
        "--sensors",
        "1",
        "--window",
        "1",
        // The admission gate stays on: exports serialize its bloom
        // bit-exact and list entries in restore order, so resume is
        // exact even for gated (and saturated) trackers.
        "--topk",
        "10000",
        "--store",
        store.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    Proc::spawn(name, &args)
}

fn sensor(name: &'static str, connect: &str) -> Proc {
    Proc::spawn(
        name,
        &[
            "sensor",
            "--connect",
            connect,
            "--duration",
            "4",
            "--seed",
            "11",
            "--sensors",
            "1",
            "--index",
            "0",
        ],
    )
}

/// Every durable window, chunk-reassembled and canonicalized: one state
/// per (window, dataset), entries sorted by (count desc, key). Chunk
/// boundaries and export order among equal counts are insertion-order
/// representation freedoms a resume does not pin; the reassembled,
/// sorted view is what must be identical.
fn store_contents(dir: &Path) -> (Option<u64>, Vec<(u64, String, sketchwire::TopKState)>) {
    let (s, report) = store::Store::open(dir).expect("open store");
    assert!(report.is_clean(), "unexpected recovery debris: {report:?}");
    let mut chunks: std::collections::BTreeMap<(u64, String), Vec<sketchwire::TopKState>> =
        Default::default();
    for meta in s.segments().to_vec() {
        let (_, states) = s.read_segment(&meta).expect("readable segment");
        for ws in states {
            chunks
                .entry(((ws.start * 1e6).round() as u64, ws.topk.dataset.clone()))
                .or_default()
                .push(ws.topk);
        }
    }
    let all = chunks
        .into_iter()
        .map(|((start_us, dataset), parts)| {
            let mut whole = sketchwire::merge_chunks(&parts).expect("complete chunks");
            whole
                .entries
                .sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.key.cmp(&b.key)));
            (start_us, dataset, whole)
        })
        .collect();
    (s.frontier_us(), all)
}

#[test]
fn kill_restart_resume_equals_uninterrupted_run() {
    let dir = temp_dir("roundtrip");
    let ref_store = dir.join("reference");
    let kill_store = dir.join("interrupted");

    // Reference: one uninterrupted run over the seeded traffic.
    {
        let addr = free_addr();
        let c = collect("collect-ref", &addr, &ref_store, &[]);
        let s = sensor("sensor-ref", &addr);
        s.join();
        c.join();
    }
    let (ref_frontier, ref_states) = store_contents(&ref_store);
    assert!(
        ref_states.len() >= 6,
        "reference too small to interrupt meaningfully: {} states",
        ref_states.len()
    );
    let ref_windows: std::collections::BTreeSet<u64> = ref_states
        .iter()
        .map(|(start_us, _, _)| *start_us)
        .collect();
    assert!(ref_windows.len() >= 3, "need ≥3 windows to kill after 2");

    // Interrupted: same traffic, but the collector exits hard (code 3)
    // once its second window is durable. The sensor is still mid-stream
    // when the collector dies; it gets killed on drop.
    {
        let addr = free_addr();
        let c = collect(
            "collect-kill",
            &addr,
            &kill_store,
            &["--kill-after-windows", "2"],
        );
        let s = sensor("sensor-kill", &addr);
        let err = c.join_code(3);
        assert!(err.contains("kill hook"), "missing kill-hook notice: {err}");
        drop(s);
    }
    let (mid_frontier, mid_states) = store_contents(&kill_store);
    assert!(mid_frontier.is_some(), "interrupted store has no frontier");
    assert!(
        mid_states.len() < ref_states.len(),
        "kill left nothing to resume"
    );

    // Restart against the same store; the sensor replays the same seeded
    // traffic from t=0 and the collector must skip what is already
    // durable, then continue to the same final state.
    {
        let addr = free_addr();
        let c = collect("collect-resume", &addr, &kill_store, &[]);
        let s = sensor("sensor-resume", &addr);
        s.join();
        let err = c.join();
        assert!(
            err.contains("resumed watermark frontier"),
            "collector did not resume from the store: {err}"
        );
        assert!(
            err.contains("skipped") || err.contains("ingested"),
            "no resume accounting in stderr: {err}"
        );
    }

    let (got_frontier, got_states) = store_contents(&kill_store);
    assert_eq!(got_frontier, ref_frontier, "watermark frontier differs");
    assert_eq!(
        got_states.len(),
        ref_states.len(),
        "window-state count differs"
    );
    for (got, want) in got_states.iter().zip(&ref_states) {
        assert_eq!(
            got,
            want,
            "window t={}s dataset {} differs from uninterrupted run",
            want.0 as f64 / 1e6,
            want.1
        );
    }

    // And the query layer agrees: the top-k at the final window is
    // byte-identical between the two stores.
    let q = |store: &Path| {
        let out = dnsobs()
            .args([
                "query",
                "topk",
                "--store",
                store.to_str().unwrap(),
                "--dataset",
                "qtype",
                "--at",
                "2",
                "--n",
                "5",
            ])
            .output()
            .expect("spawn query");
        assert!(status_ok(&out), "query failed: {:?}", out);
        // Strip the latency line — wall-clock differs run to run.
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| !l.starts_with("answered in"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(q(&ref_store), q(&kill_store), "query answers differ");

    let _ = std::fs::remove_dir_all(&dir);
}

fn status_ok(out: &std::process::Output) -> bool {
    out.status.success()
}

/// The read-only verbs never create a store: `query` and `store info` on
/// a directory without one fail and leave nothing behind.
#[test]
fn readers_refuse_a_missing_store() {
    let dir = temp_dir("missing").join("no-store");
    let store = dir.to_str().unwrap();
    for args in [
        vec![
            "query",
            "topk",
            "--store",
            store,
            "--dataset",
            "qtype",
            "--at",
            "2",
        ],
        vec!["store", "info", "--dir", store],
    ] {
        let out = dnsobs().args(&args).output().expect("spawn");
        assert!(!status_ok(&out), "{args:?} answered from no store: {out:?}");
        assert!(!dir.exists(), "{args:?} created the store");
    }
    let _ = std::fs::remove_dir_all(dir.parent().unwrap());
}
