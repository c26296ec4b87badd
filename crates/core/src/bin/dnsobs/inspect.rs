//! Read-only views: `status` (a live `--metrics` endpoint), `trace` (a
//! flight-recorder dump) and `show`/`top` (one TSV window).

use crate::flags::{self, Parsed};
use crate::{fail, Done};
use dns_observatory::{lineage, status as health, tsv};
use std::fs::File;
use std::io::BufReader;

/// Scrape a metrics endpoint and render the one-page operator summary.
pub fn status(p: &Parsed) -> Done {
    let addr: String = p.req(&flags::METRICS);
    let text = telemetry::fetch(&addr).map_err(|e| {
        let flag = flags::METRICS.name;
        fail(format_args!(
            "cannot scrape {addr}: {e}\n(start a run with `{flag} {addr}` first)"
        ))
    })?;
    let samples = telemetry::prometheus::parse(&text);
    print!("{}", health::render_status(&samples));
    Ok(())
}

/// Render a flight-recorder dump file as per-window lineage, all of it
/// or the one window starting at `--window-start`.
pub fn trace(p: &Parsed) -> Done {
    let path = p.positional();
    let text =
        std::fs::read_to_string(path).map_err(|e| fail(format_args!("cannot read {path}: {e}")))?;
    let rows = telemetry::trace::parse_dump(&text);
    let only = p
        .opt::<f64>(&flags::WINDOW_START)
        .map(|s| (s * 1e6).round() as u64);
    print!("{}", lineage::render_trace(&rows, only));
    Ok(())
}

/// Pretty-print a TSV window: every row for `show`, `--n` for `top`.
pub fn show(p: &Parsed) -> Done {
    let path = p.positional();
    let top: usize = p.opt(&flags::N).unwrap_or(usize::MAX);
    let file = File::open(path).map_err(|e| fail(format_args!("cannot open {path}: {e}")))?;
    let dump = tsv::read_window(BufReader::new(file))
        .map_err(|e| fail(format_args!("cannot parse {path}: {e}")))?;
    println!(
        "dataset {} | window {}s @ t={}s | kept {} dropped {} filtered {}",
        dump.dataset, dump.length, dump.start, dump.kept, dump.dropped, dump.filtered
    );
    println!(
        "{:<40} {:>8} {:>7} {:>7} {:>9} {:>8}",
        "key", "hits", "nxd", "nodata", "delay_ms", "top_ttl"
    );
    for (key, row) in dump.rows.iter().take(top) {
        println!(
            "{:<40} {:>8} {:>6.1}% {:>6.1}% {:>9.1} {:>8}",
            key,
            row.hits,
            row.nxd_share() * 100.0,
            row.nodata_share() * 100.0,
            row.median_delay(),
            row.top_ttl()
                .map(|t| t.to_string())
                .unwrap_or_else(|| "-".into())
        );
    }
    Ok(())
}
