//! `dnsobs trace` — render a flight-recorder dump as per-window lineage.
//!
//! Input is the parsed dump ([`telemetry::trace::parse_dump`]), so the
//! renderer is a pure function over rows and testable without a file.
//! Events across all subsystems are regrouped by the window id they
//! carry — the window's start time in µs, the same keying the
//! federation wire uses — which turns N per-stage rings into one
//! chronological story per window: opened where, ingested how much,
//! closed by which stage, sealed (or dropped, or conflicted) when.
//!
//! A window with ingests but no terminal event is flagged `open`: either
//! the dump was taken mid-flight (normal) or a window leaked (the bug
//! the flight recorder exists to catch).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use telemetry::trace::{TraceKind, TraceRow, NO_SOURCE, NO_WINDOW};

/// How one window's trace ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Sealed,
    Dropped,
    Conflict,
    Open,
}

impl Fate {
    fn label(self) -> &'static str {
        match self {
            Fate::Sealed => "sealed",
            Fate::Dropped => "dropped",
            Fate::Conflict => "conflict",
            Fate::Open => "open",
        }
    }
}

fn fate(rows: &[&TraceRow]) -> Fate {
    // A drop event on a window that ALSO sealed marks late records, not
    // the window's fate — terminal precedence: conflict > seal > drop.
    if rows.iter().any(|r| r.kind == TraceKind::Conflict) {
        Fate::Conflict
    } else if rows.iter().any(|r| r.kind == TraceKind::Seal) {
        Fate::Sealed
    } else if rows.iter().any(|r| r.kind == TraceKind::Drop) {
        Fate::Dropped
    } else {
        Fate::Open
    }
}

/// Render a trace dump as per-window lineage. `only_window` (µs)
/// restricts the detail listing to one window; the summary always
/// covers everything. Returns a multi-line string ending in `\n`.
pub fn render_trace(rows: &[TraceRow], only_window: Option<u64>) -> String {
    let mut out = String::new();
    if rows.is_empty() {
        out.push_str("no trace events\n");
        return out;
    }

    let mut windows: BTreeMap<u64, Vec<&TraceRow>> = BTreeMap::new();
    let mut unkeyed = 0usize;
    for row in rows {
        if row.window_us == NO_WINDOW {
            unkeyed += 1;
        } else {
            windows.entry(row.window_us).or_default().push(row);
        }
    }
    let subsystems: std::collections::BTreeSet<&str> =
        rows.iter().map(|r| r.subsystem.as_str()).collect();

    let fates: Vec<Fate> = windows.values().map(|rows| fate(rows)).collect();
    let count = |f: Fate| fates.iter().filter(|&&g| g == f).count();
    let _ = writeln!(
        out,
        "{} event(s) in {} subsystem(s); {} window(s): {} sealed, {} conflict, {} dropped, {} open; {} unkeyed event(s)",
        rows.len(),
        subsystems.len(),
        windows.len(),
        count(Fate::Sealed),
        count(Fate::Conflict),
        count(Fate::Dropped),
        count(Fate::Open),
        unkeyed
    );

    // The display rounds starts to milliseconds, so the filter accepts
    // ids within half a millisecond of the requested start — an operator
    // retyping a start from a previous render must get a match.
    let wanted = |w: u64| only_window.is_none_or(|want| w.abs_diff(want) <= 500);
    let mut shown = 0usize;
    for (window_us, mut wrows) in windows {
        if !wanted(window_us) {
            continue;
        }
        shown += 1;
        wrows.sort_by_key(|r| (r.at_us, r.subsystem.as_str(), r.seq));
        let first = wrows.first().map(|r| r.at_us).unwrap_or(0);
        let last = wrows.last().map(|r| r.at_us).unwrap_or(0);
        let _ = writeln!(
            out,
            "window {:.3}s  [{}]  {} event(s), {:.3}s first-to-last",
            window_us as f64 / 1e6,
            fate(&wrows).label(),
            wrows.len(),
            last.saturating_sub(first) as f64 / 1e6
        );
        for row in wrows {
            let source = if row.source == NO_SOURCE {
                String::new()
            } else {
                format!(" source={}", row.source)
            };
            let dataset = if row.dataset.is_empty() {
                String::new()
            } else {
                format!(" dataset={}", row.dataset)
            };
            let _ = writeln!(
                out,
                "  +{:>10.3}s  {:<18} {:<8}{}{} value={}",
                row.at_us.saturating_sub(first) as f64 / 1e6,
                format!("{}/{}", row.subsystem, row.stage),
                row.kind.as_str(),
                dataset,
                source,
                row.value
            );
        }
    }
    if let Some(want) = only_window {
        if shown == 0 {
            let _ = writeln!(
                out,
                "no window starting within 0.5 ms of {:.3}s",
                want as f64 / 1e6
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::trace::parse_dump;
    use telemetry::trace::{FlightRecorder, TraceEvent};

    fn row(
        subsystem: &str,
        seq: u64,
        at_us: u64,
        stage: &str,
        kind: TraceKind,
        window_us: u64,
    ) -> TraceRow {
        TraceRow {
            subsystem: subsystem.to_string(),
            seq,
            at_us,
            stage: stage.to_string(),
            kind,
            window_us,
            dataset: String::new(),
            source: NO_SOURCE,
            value: 0,
        }
    }

    #[test]
    fn empty_dump_says_so() {
        assert_eq!(render_trace(&[], None), "no trace events\n");
    }

    #[test]
    fn windows_group_and_sort_across_subsystems() {
        let rows = vec![
            row(
                "aggregator",
                0,
                900,
                "aggregator",
                TraceKind::Seal,
                2_000_000,
            ),
            row("pipeline", 0, 100, "fold", TraceKind::Open, 2_000_000),
            row("pipeline", 1, 500, "fold", TraceKind::Close, 2_000_000),
            row("pipeline", 2, 500, "fold", TraceKind::Open, 3_000_000),
        ];
        let text = render_trace(&rows, None);
        assert!(text.contains("4 event(s) in 2 subsystem(s); 2 window(s): 1 sealed"));
        assert!(text.contains("1 open"));
        assert!(text.contains("window 2.000s  [sealed]  3 event(s)"));
        assert!(text.contains("window 3.000s  [open]  1 event(s)"));
        // Events come out in at_us order within the window.
        let open_at = text.find("pipeline/fold").expect("open line");
        let seal_at = text.find("aggregator/aggregator").expect("seal line");
        assert!(open_at < seal_at);
    }

    #[test]
    fn late_drop_does_not_demote_a_sealed_window() {
        let rows = vec![
            row("agg", 0, 10, "aggregator", TraceKind::Seal, 1_000_000),
            row("agg", 1, 20, "aggregator", TraceKind::Drop, 1_000_000),
        ];
        let text = render_trace(&rows, None);
        assert!(text.contains("[sealed]"));
        assert!(text.contains("1 sealed, 0 conflict, 0 dropped, 0 open"));
    }

    #[test]
    fn conflict_wins_over_seal() {
        let rows = vec![
            row("agg", 0, 10, "aggregator", TraceKind::Conflict, 1_000_000),
            row("agg", 1, 20, "aggregator", TraceKind::Seal, 1_000_000),
        ];
        assert!(render_trace(&rows, None).contains("[conflict]"));
    }

    #[test]
    fn window_filter_keeps_summary_but_trims_detail() {
        let rows = vec![
            row("a", 0, 10, "s", TraceKind::Seal, 1_000_000),
            row("a", 1, 20, "s", TraceKind::Seal, 2_000_000),
        ];
        let text = render_trace(&rows, Some(2_000_000));
        assert!(text.contains("2 window(s)"));
        assert!(!text.contains("window 1.000s"));
        assert!(text.contains("window 2.000s"));
    }

    #[test]
    fn window_filter_matches_at_display_precision() {
        // The window actually starts at 182 µs but renders as 0.000s;
        // retyping the rendered value must match, and a miss says so.
        let rows = vec![row("a", 0, 10, "s", TraceKind::Seal, 182)];
        let text = render_trace(&rows, Some(0));
        assert!(text.contains("window 0.000s  [sealed]"), "{text}");
        let miss = render_trace(&rows, Some(99_000_000));
        assert!(!miss.contains("[sealed]"));
        assert!(miss.contains("no window starting within 0.5 ms of 99.000s"));
    }

    #[test]
    fn renders_a_real_recorder_dump() {
        let fr = FlightRecorder::with_capacity(16);
        fr.ring("pipeline")
            .record(TraceEvent::new(100, "fold", TraceKind::Open).window(60_000_000));
        fr.ring("pipeline").record(
            TraceEvent::new(900, "fold", TraceKind::Seal)
                .window(60_000_000)
                .value(42),
        );
        let rows = parse_dump(&fr.dump());
        let text = render_trace(&rows, None);
        assert!(text.contains("window 60.000s  [sealed]"));
        assert!(text.contains("value=42"));
    }
}
