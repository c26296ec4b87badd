//! `obsbench` — the repository's benchmark.
//!
//! End-to-end numbers are taken black-box against real `dnsobs`
//! processes (`e2e`, `history`); per-layer numbers come from a separate
//! traced replay of the same generated input through the same public
//! calls (`replay`, via the one adapter `layers`). See README.md.

mod e2e;
mod history;
mod layers;
mod proc;
mod replay;
mod span;
mod stats;
mod workload;

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Seconds one run measures when `--seconds` is not given: the
/// `run_seconds` of BENCHMARK.json.
const RUN_SECONDS: u64 = 12;

/// `(name, value, unit)`, in the order BENCHMARK.json lists them.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// One run's result in the shape the driver reads.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    failures: Vec<String>,
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    /// `Some`: driver mode, one run, one JSON line.
    trace: Option<bool>,
    repeat: usize,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 0,
        trace: None,
        repeat: 1,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut number = |what: &str| -> Result<u64, String> {
            let v = it.next().ok_or(format!("{flag} needs {what}"))?;
            v.parse().map_err(|e| format!("{flag} {v}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(it.next().ok_or("--workload needs a name")?),
            "--seed" => args.seed = number("a number")?,
            "--seconds" => args.seconds = number("a number")?.max(1),
            "--repeat" => args.repeat = number("a number")?.max(1) as usize,
            "--trace" => {
                args.trace = Some(match number("0 or 1")? {
                    0 => false,
                    1 => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other}")),
                })
            }
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &args.workload {
        if !workload::WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w}; one of {}",
                workload::WORKLOADS.join(", ")
            ));
        }
    }
    if args.seconds == 0 {
        args.seconds = if args.quick { 1 } else { RUN_SECONDS };
    }
    Ok(args)
}

/// Scratch space and trace files live under the build directory, which
/// is inside the checkout and ignored by git.
fn work_dir() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // <target>/release/obsbench → <target>/obsbench
    let target = me
        .parent()
        .and_then(|p| p.parent())
        .ok_or("executable has no target directory")?;
    let dir = target.join("obsbench");
    std::fs::create_dir_all(dir.join("tmp"))
        .map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// What an untraced run of any workload boils down to.
struct EndToEnd {
    set_up_s: Vec<f64>,
    ops: u64,
    wall_s: f64,
    cpu_s: f64,
    rss_mb: f64,
    latency_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

fn stream_end_to_end(
    spec: &workload::StreamSpec,
    args: &Args,
    tmp: &std::path::Path,
) -> Result<EndToEnd, String> {
    let trace = workload::generate_trace(spec, args.seed);
    let until = match spec.laps_per_second {
        // One warm-up lap, then the measured ones.
        Some(rate) => e2e::Until::TotalLaps(1 + (args.seconds as f64 * rate).ceil() as u32),
        None => e2e::Until::Elapsed(Duration::from_secs(args.seconds)),
    };
    let set_ups = if args.quick { 1 } else { e2e::SET_UPS };
    let o = e2e::run_stream(spec, &trace, until, set_ups, tmp)?;
    eprintln!(
        "obsbench: {}: {} tx in {:.2}s, latency {}, generator blocked {:.2}s, late {}",
        spec.name,
        o.measured_tx,
        o.measured_wall_s,
        stats::Timing::of(&o.latency_ms).render("ms"),
        o.blocked_s,
        stats::Timing::of(&o.late_ms).render("ms")
    );
    Ok(EndToEnd {
        set_up_s: o.set_up_s,
        ops: o.measured_tx,
        wall_s: o.measured_wall_s,
        cpu_s: o.cpu_s,
        rss_mb: o.children_peak_rss_mb,
        latency_ms: o.latency_ms,
        attempted: o.sent_total,
        failed: o.sent_total.abs_diff(o.accounted_tx)
            + o.windows_expected.abs_diff(o.windows_delivered),
        failures: o.failures,
    })
}

fn history_end_to_end(args: &Args, tmp: &std::path::Path) -> Result<EndToEnd, String> {
    let spec = workload::history_spec(args.quick);
    let o = history::run_history(&spec, args.seed, Duration::from_secs(args.seconds), tmp)?;
    eprintln!(
        "obsbench: history_store: {} windows ({:.1} MB, {} segments) built in {:.2}s, {}/{} planted events recovered, query latency {}, {} over the {} ms limit",
        o.windows,
        o.disk_mb,
        o.live_segments,
        o.build_s,
        o.recovered,
        o.planted,
        stats::Timing::of(&o.query_ms).render("ms"),
        o.over_budget,
        spec.budget_ms
    );
    let ops = o.query_ms.len() as u64;
    Ok(EndToEnd {
        set_up_s: vec![o.build_s],
        ops,
        wall_s: o.queries_wall_s,
        cpu_s: o.cpu_s,
        rss_mb: proc::own_peak_rss_mb(),
        latency_ms: o.query_ms,
        attempted: ops,
        failed: o.errors + o.over_budget,
        failures: o.failures,
    })
}

/// Untraced run of one workload: the end-to-end metrics.
fn run_untraced(name: &str, args: &Args) -> Result<RunResult, String> {
    let tmp = work_dir()?.join("tmp");
    let probe_before = proc::host_probe_ms();
    let e = match workload::stream_spec(name, args.quick) {
        Some(spec) => stream_end_to_end(&spec, args, &tmp)?,
        None => history_end_to_end(args, &tmp)?,
    };
    eprintln!(
        "obsbench: {name}: host probe {probe_before:.1} ms before, {:.1} ms after",
        proc::host_probe_ms()
    );
    Ok(RunResult {
        correct: e.failures.is_empty() && e.failed == 0,
        attempted: e.attempted,
        failed: e.failed,
        metrics: vec![
            ("setup_s", stats::median(&e.set_up_s), "s"),
            ("ops_per_s", e.ops as f64 / e.wall_s, "1/s"),
            ("cpu_us_per_op", e.cpu_s * 1e6 / e.ops as f64, "us"),
            ("peak_rss_mb", e.rss_mb, "MB"),
            ("latency_p50_ms", stats::median(&e.latency_ms), "ms"),
        ],
        failures: e.failures,
    })
}

fn json_line(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    )
}

fn run_one(name: &str, traced: bool, args: &Args) -> Result<RunResult, String> {
    if traced {
        replay::run_traced(name, args.seed, args.quick, &work_dir()?)
    } else {
        run_untraced(name, args)
    }
}

fn print_run(title: &str, r: &RunResult) {
    println!("{title}");
    for (name, value, unit) in &r.metrics {
        println!("  {name:<42} {value:>16.4} {unit}");
    }
    println!(
        "  {:<42} {:>16} of {} operations failed",
        "failed", r.failed, r.attempted
    );
    for f in &r.failures {
        println!("  ORACLE FAILED: {f}");
    }
}

/// Human mode: every workload untraced (`--repeat` times, with the
/// spread of each end-to-end metric) and then traced.
fn run_all(args: &Args) -> Result<bool, String> {
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => workload::WORKLOADS.to_vec(),
    };
    let started = Instant::now();
    let mut ok = true;
    if args.quick {
        println!("--quick: a tenth of the input; values are NOT comparable with full runs");
    }
    for name in names {
        let mut runs = Vec::new();
        for round in 1..=args.repeat {
            let r = run_one(name, false, args)?;
            print_run(
                &format!("{name} · untraced · run {round}/{}", args.repeat),
                &r,
            );
            ok &= r.correct;
            runs.push(r.metrics);
        }
        if args.repeat > 1 {
            println!("{name} · spread over {} runs", args.repeat);
            for (i, &(metric, _, unit)) in runs[0].iter().enumerate() {
                let values: Vec<f64> = runs.iter().map(|m| m[i].1).collect();
                let (q1, q3) = stats::quartiles(&values);
                println!(
                    "  {metric:<18} median {:>14.4} {unit:<4} q1 {q1:>14.4} q3 {q3:>14.4} spread {:>6.2} %",
                    stats::median(&values),
                    stats::relative_spread(&values) * 100.0
                );
            }
        }
        let r = run_one(name, true, args)?;
        print_run(&format!("{name} · traced"), &r);
        ok &= r.correct;
    }
    println!(
        "{} in {:.1}s; budget tables and span dumps are in {}",
        if ok {
            "every oracle passed"
        } else {
            "AN ORACLE FAILED"
        },
        started.elapsed().as_secs_f64(),
        work_dir()?.display()
    );
    Ok(ok)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("obsbench: {e}");
            eprintln!("usage: obsbench [--workload NAME] [--seed N] [--seconds S] [--repeat K] [--quick] [--trace 0|1]");
            std::process::exit(2);
        }
    };
    let outcome = match (args.trace, &args.workload) {
        (Some(traced), Some(name)) => run_one(name, traced, &args).map(|r| {
            for f in &r.failures {
                eprintln!("obsbench: oracle failed: {f}");
            }
            println!("{}", json_line(&r));
            true
        }),
        (Some(_), None) => Err("--trace needs --workload".to_string()),
        (None, _) => run_all(&args),
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("obsbench: run failed: {e}");
            std::process::exit(1);
        }
    }
}
