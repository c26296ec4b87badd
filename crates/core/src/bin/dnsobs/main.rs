//! `dnsobs` — the platform as a command-line tool.
//!
//! ```text
//! dnsobs simulate --duration 60 --out ./data     run the pipeline, write TSV files
//! dnsobs show ./data/srvip-60.tsv                pretty-print a TSV window
//! dnsobs top ./data/srvip-60.tsv --n 10          top rows of a window by hits
//! dnsobs collect --listen 127.0.0.1:5300         run the collector half of a feed
//! dnsobs sensor --connect 127.0.0.1:5300         run one sensor pushing into it
//! dnsobs status --metrics 127.0.0.1:9464         one-page health view of a run
//! ```
//!
//! Run it without arguments for every subcommand and flag; that text,
//! the parser and the README's reference are all rendered from the one
//! table in [`flags`]. Three pieces exist once and every subcommand file
//! is glue over them: [`flags`] (what the command line may say),
//! [`session`] (`--metrics`, `--trace-out`, the stall watchdog, opening a
//! store) and [`sinks`] (where closed windows go, in which order).
//!
//! `sensor`/`collect` split the platform at the paper's Figure 1 A→B
//! boundary: sensors summarize resolver traffic locally and stream the
//! summaries over TCP; the collector merges the streams back into one
//! time-ordered feed and runs the tracking pipeline on it. Start the
//! collector first (or don't — sensors reconnect with backoff), run one
//! `sensor --index I` process per sensor with the same `--seed` and
//! `--sensors N`, and the collector's TSV output matches a single-process
//! `simulate` run of the same seed.

mod aggregate;
mod collect;
mod flags;
mod inspect;
mod query;
mod session;
mod simulate;
mod sinks;
mod store_admin;
mod subscribe;

use dns_observatory::{Dataset, ObservatoryConfig};
use telemetry::FlightRecorder;

fn main() {
    // Whatever crashes, the black box survives to stderr.
    FlightRecorder::install_panic_hook();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = flags::parse(&args).map_err(|usage| misuse(usage.trim_end()));
    let done = parsed.and_then(|p| match p.cmd.path {
        ["simulate"] => simulate::simulate(&p),
        ["sensor"] => simulate::sensor(&p),
        ["collect"] => collect::collect(&p),
        ["aggregate"] => aggregate::aggregate(&p),
        ["subscribe"] => subscribe::subscribe(&p),
        ["query", kind] => query::query(&p, kind),
        ["store", "synth"] => store_admin::synth(&p),
        ["store", "info"] => store_admin::info(&p),
        ["store", "expire"] => store_admin::expire(&p),
        ["status"] => inspect::status(&p),
        ["trace"] => inspect::trace(&p),
        ["show"] | ["top"] => inspect::show(&p),
        other => unreachable!("row {other:?} has no handler"),
    });
    std::process::exit(done.err().unwrap_or(0));
}

/// What every fallible step returns: `Err` is the process exit code, its
/// one stderr line already printed — 2 for a command line that asks for
/// something impossible, 1 when the run itself failed.
type Done<T = ()> = Result<T, i32>;

/// Print `message`; the run failed (exit code 1).
fn fail(message: impl std::fmt::Display) -> i32 {
    eprintln!("{message}");
    1
}

/// Print `message`; the command line is unusable (exit code 2).
fn misuse(message: impl std::fmt::Display) -> i32 {
    eprintln!("{message}");
    2
}

/// The tracking configuration of `simulate` and `collect`: the standard
/// dataset suite with the big trackers capped at `--topk`, small
/// enumerated datasets at their natural caps, windows of `--window`.
fn observatory_config(p: &flags::Parsed) -> ObservatoryConfig {
    let cap: usize = p.req(&flags::TOPK);
    ObservatoryConfig {
        datasets: vec![
            (Dataset::SrvIp, cap),
            (Dataset::Esld, cap),
            (Dataset::Qname, cap),
            (Dataset::Qtype, 64.min(cap)),
            (Dataset::Rcode, 16.min(cap)),
        ],
        window_secs: p.req(&flags::WINDOW),
        ..ObservatoryConfig::default()
    }
}
