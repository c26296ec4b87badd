//! Child processes of the system under test: spawn, watch, reap.
//!
//! Every `dnsobs` process the benchmark starts is a [`Proc`]: killed on
//! drop, waited for with a deadline, its stderr kept for the ledger
//! lines and for the tail printed when a run hangs. The `/proc` readers
//! for CPU time and resident memory live here too.

use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest any single wait on the system under test may take.
pub const WAIT_LIMIT: Duration = Duration::from_secs(60);

/// The `dnsobs` executable: next to this benchmark's own executable,
/// where `run.sh` builds both.
pub fn dnsobs_path() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let path = me.with_file_name("dnsobs");
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} not found: build it with run.sh",
            path.display()
        ))
    }
}

/// A loopback address that was free a moment ago.
pub fn free_addr() -> String {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    format!("127.0.0.1:{}", l.local_addr().expect("local addr").port())
}

/// Block until `addr` accepts a connection.
pub fn wait_listening(addr: &str, who: &mut Proc) -> Result<(), String> {
    let deadline = Instant::now() + WAIT_LIMIT;
    loop {
        if TcpStream::connect(addr).is_ok() {
            return Ok(());
        }
        if let Some(status) = who.exited() {
            return Err(format!(
                "{} exited ({status}) before listening on {addr}\n{}",
                who.name,
                who.stderr_tail()
            ));
        }
        if Instant::now() > deadline {
            return Err(format!(
                "{} never listened on {addr}\n{}",
                who.name,
                who.stderr_tail()
            ));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// One `dnsobs` child. Dropping it kills and reaps the process.
pub struct Proc {
    pub name: &'static str,
    child: Child,
    pid: u32,
    stderr: Arc<Mutex<String>>,
    reader: Option<JoinHandle<()>>,
}

impl Proc {
    /// Start `dnsobs` with `args`, in directory `cwd`: a forwarding
    /// `collect` creates its default `./dnsobs-data` even though it
    /// writes nothing there, and that belongs in the scratch space.
    pub fn spawn(name: &'static str, args: &[&str], cwd: &Path) -> Result<Proc, String> {
        let mut child = Command::new(dnsobs_path()?)
            .args(args)
            .current_dir(cwd)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {name}: {e}"))?;
        let pid = child.id();
        let mut pipe = child.stderr.take().expect("stderr was piped");
        let stderr = Arc::new(Mutex::new(String::new()));
        let sink = Arc::clone(&stderr);
        // Drained continuously so a chatty child never blocks on a full
        // pipe; the thread ends when the child closes its stderr.
        let reader = std::thread::spawn(move || {
            let mut buf = [0u8; 4096];
            while let Ok(n) = pipe.read(&mut buf) {
                if n == 0 {
                    break;
                }
                sink.lock()
                    .expect("stderr sink poisoned")
                    .push_str(&String::from_utf8_lossy(&buf[..n]));
            }
        });
        Ok(Proc {
            name,
            child,
            pid,
            stderr,
            reader: Some(reader),
        })
    }

    pub fn pid(&self) -> u32 {
        self.pid
    }

    fn exited(&mut self) -> Option<std::process::ExitStatus> {
        self.child.try_wait().ok().flatten()
    }

    /// Everything the child has written to stderr so far.
    pub fn stderr(&self) -> String {
        self.stderr.lock().expect("stderr sink poisoned").clone()
    }

    /// The last lines of stderr, for a failure report.
    pub fn stderr_tail(&self) -> String {
        let text = self.stderr();
        let lines: Vec<&str> = text.lines().collect();
        let from = lines.len().saturating_sub(12);
        format!("--- {} stderr ---\n{}", self.name, lines[from..].join("\n"))
    }

    /// Wait for a clean exit; a timeout or a non-zero status is an error
    /// carrying the stderr tail. Returns the full stderr.
    pub fn join(mut self) -> Result<String, String> {
        let deadline = Instant::now() + WAIT_LIMIT;
        let status = loop {
            match self.exited() {
                Some(status) => break status,
                None if Instant::now() > deadline => {
                    return Err(format!("{} timed out\n{}", self.name, self.stderr_tail()));
                }
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        };
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
        if status.success() {
            Ok(self.stderr())
        } else {
            Err(format!(
                "{} failed ({status})\n{}",
                self.name,
                self.stderr_tail()
            ))
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

/// `utime + stime` out of a `/proc/<pid>/stat` line, in clock ticks,
/// and `cutime + cstime` (reaped children) next to it.
pub fn parse_stat_ticks(stat: &str) -> Option<(u64, u64)> {
    // The command name may hold spaces and parentheses; fields are
    // counted from the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state is field 0, so utime (14th overall) is 11.
    let num = |i: usize| fields.get(i)?.parse::<u64>().ok();
    Some((num(11)? + num(12)?, num(13)? + num(14)?))
}

/// `VmHWM` (peak resident set) out of a `/proc/<pid>/status` text, kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Clock ticks per second of `/proc` CPU times. Linux has used 100 on
/// every architecture this runs on since 2.6 (`USER_HZ`).
const TICKS_PER_SEC: f64 = 100.0;

/// CPU seconds of this process and of its reaped children so far.
pub fn cpu_seconds_self_and_reaped() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let (own, reaped) = parse_stat_ticks(&stat).unwrap_or((0, 0));
    (own + reaped) as f64 / TICKS_PER_SEC
}

/// CPU seconds a live process has used so far.
pub fn cpu_seconds_of(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    parse_stat_ticks(&stat).map_or(0.0, |(own, _)| own as f64 / TICKS_PER_SEC)
}

fn vm_hwm_kb(pid: &str) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .unwrap_or(0)
}

/// Forget this process's peak resident set so far, so that the next
/// reading covers only what follows (`run.sh` without `--workload` runs
/// several workloads in one process). Best effort: where the kernel
/// refuses, the peak simply includes the earlier work.
pub fn reset_own_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process, MB.
pub fn own_peak_rss_mb() -> f64 {
    vm_hwm_kb("self") as f64 / 1024.0
}

/// Samples the children's `VmHWM` until stopped. A high-water mark only
/// grows, so the last sample before a child exits is its peak up to the
/// sampling period.
pub struct RssWatch {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<f64>>,
}

impl RssWatch {
    pub fn start(pids: Vec<u32>) -> RssWatch {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut peak = vec![0u64; pids.len()];
            loop {
                // Relaxed: the flag publishes no other data.
                let last = flag.load(Ordering::Relaxed);
                for (slot, pid) in peak.iter_mut().zip(&pids) {
                    *slot = (*slot).max(vm_hwm_kb(&pid.to_string()));
                }
                if last {
                    return peak.iter().sum::<u64>() as f64 / 1024.0;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        RssWatch {
            stop,
            thread: Some(thread),
        }
    }

    /// Sum over the children of their peak resident set, MB.
    pub fn finish(mut self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        self.thread
            .take()
            .map_or(0.0, |h| h.join().expect("rss watch panicked"))
    }
}

impl Drop for RssWatch {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
    }
}

/// Milliseconds this host takes, right now, for a fixed piece of
/// single-thread work (integer mixing plus random reads in a 1 MiB
/// table). The reference container is a guest on a shared host whose
/// speed drifts by tens of per cent within minutes; printed next to a
/// run's figures, the probe tells a slow run from a slow host.
pub fn host_probe_ms() -> f64 {
    const TABLE: usize = 1 << 17;
    const STEPS: u32 = 4_000_000;
    // Non-zero, so the pages are touched before the clock starts.
    let mut table = vec![1u64; TABLE];
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let started = Instant::now();
    for _ in 0..STEPS {
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_add(0x94d0_49bb_1331_11eb);
        let slot = &mut table[(x >> 40) as usize % TABLE];
        *slot = slot.wrapping_add(x);
        x ^= *slot;
    }
    std::hint::black_box(&table);
    started.elapsed().as_secs_f64() * 1e3
}

/// A scratch directory removed on drop, unless [`ScratchDir::keep`] was
/// called because the run failed and the evidence should stay.
pub struct ScratchDir {
    path: PathBuf,
    keep: bool,
}

impl ScratchDir {
    pub fn create(root: &Path, tag: &str) -> Result<ScratchDir, String> {
        let path = root.join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(ScratchDir { path, keep: false })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    pub fn sub(&self, name: &str) -> Result<PathBuf, String> {
        let p = self.path.join(name);
        std::fs::create_dir_all(&p).map_err(|e| format!("create {}: {e}", p.display()))?;
        Ok(p)
    }

    pub fn keep(&mut self) {
        self.keep = true;
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        if !self.keep {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

/// Total size of the regular files directly inside `dir`, bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_survives_a_hostile_command_name() {
        let line = "4242 (dns obs) x) S 1 4242 4242 0 -1 4194304 100 200 0 0 \
                    31 7 11 5 20 0 4 0 12345 1000000 250 18446744073709551615";
        assert_eq!(parse_stat_ticks(line), Some((38, 16)));
        assert_eq!(parse_stat_ticks("garbage"), None);
        assert_eq!(parse_stat_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_parser_reads_the_high_water_mark() {
        let text = "Name:\tdnsobs\nVmPeak:\t  9000 kB\nVmHWM:\t    6120 kB\nVmRSS:\t 5000 kB\n";
        assert_eq!(parse_vm_hwm_kb(text), Some(6120));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }
}
