//! `dnsobs status` — a one-screen summary of a live `/metrics` scrape.
//!
//! Input is the parsed Prometheus exposition ([`telemetry::prometheus::parse`]),
//! so the renderer is a pure function over a name→value map and testable
//! without a running server. Sections appear only when their metrics do,
//! so the same screen serves a sensor, a collector, or a full pipeline.

use telemetry::prometheus::Samples;

/// Sum every sample of `base`: the plain series plus all labeled ones
/// (`base{...}`). Returns `None` when the metric is entirely absent.
fn sum(samples: &Samples, base: &str) -> Option<f64> {
    let mut total = 0.0;
    let mut seen = false;
    let prefix = format!("{base}{{");
    for (name, v) in samples {
        if name == base || name.starts_with(&prefix) {
            total += v;
            seen = true;
        }
    }
    seen.then_some(total)
}

/// Every `(label-set, value)` of `base`, for per-sensor/per-upstream lines.
fn series<'a>(samples: &'a Samples, base: &str) -> Vec<(&'a str, f64)> {
    let prefix = format!("{base}{{");
    samples
        .iter()
        .filter_map(|(name, v)| {
            if name == base {
                Some(("", *v))
            } else {
                name.strip_prefix(&prefix)
                    .and_then(|rest| rest.strip_suffix('}'))
                    .map(|labels| (labels, *v))
            }
        })
        .collect()
}

fn fmt_count(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

fn push_line(out: &mut String, key: &str, value: String) {
    out.push_str(&format!("  {key:<28} {value}\n"));
}

/// Render the status screen. Returns a multi-line string ending in `\n`;
/// "no metrics" when the scrape was empty.
pub fn render_status(samples: &Samples) -> String {
    let mut out = String::new();

    if let Some(ingested) = sum(samples, "pipeline_ingested_total") {
        out.push_str("pipeline\n");
        push_line(&mut out, "ingested", fmt_count(ingested));
        if let Some(w) = sum(samples, "pipeline_windows_total") {
            push_line(&mut out, "windows closed", fmt_count(w));
        }
        if let (Some(c), Some(s)) = (
            sum(samples, "pipeline_window_seconds_count"),
            sum(samples, "pipeline_window_seconds_sum"),
        ) {
            if c > 0.0 {
                push_line(
                    &mut out,
                    "window residency mean (s)",
                    format!("{:.3} over {} windows", s / c, fmt_count(c)),
                );
            }
        }
    }

    if let Some(kept) = sum(samples, "pipeline_kept_total") {
        let dropped = sum(samples, "pipeline_dropped_total").unwrap_or(0.0);
        let filtered = sum(samples, "pipeline_filtered_total").unwrap_or(0.0);
        out.push_str("trackers\n");
        push_line(
            &mut out,
            "kept / dropped / filtered",
            format!(
                "{} / {} / {}",
                fmt_count(kept),
                fmt_count(dropped),
                fmt_count(filtered)
            ),
        );
        if let Some(ev) = sum(samples, "topk_evictions_total") {
            push_line(&mut out, "top-k evictions", fmt_count(ev));
        }
        if let Some(m) = sum(samples, "topk_monitored") {
            push_line(&mut out, "monitored objects", fmt_count(m));
        }
    }

    if let Some(frames) = sum(samples, "feed_collector_frames_total") {
        out.push_str("collector\n");
        let items = sum(samples, "feed_collector_items_total").unwrap_or(0.0);
        push_line(
            &mut out,
            "frames / items",
            format!("{} / {}", fmt_count(frames), fmt_count(items)),
        );
        if let Some(s) = sum(samples, "feed_collector_sensors") {
            push_line(&mut out, "sensors connected", fmt_count(s));
        }
        let gaps = sum(samples, "feed_collector_gap_recorded_frames_total").unwrap_or(0.0);
        let open = sum(samples, "feed_collector_open_gap_frames").unwrap_or(0.0);
        let crc = sum(samples, "feed_collector_crc_errors_total").unwrap_or(0.0);
        push_line(
            &mut out,
            "gap frames (open) / crc",
            format!(
                "{} ({}) / {}",
                fmt_count(gaps),
                fmt_count(open),
                fmt_count(crc)
            ),
        );
        if let Some(late) = sum(samples, "feed_collector_late_items_total") {
            push_line(&mut out, "late items", fmt_count(late));
        }
    }

    let pushed = series(samples, "feed_sensor_pushed_items_total");
    if !pushed.is_empty() {
        out.push_str("sensors\n");
        for (labels, v) in &pushed {
            let sent = lookup(samples, "feed_sensor_sent_items_total", labels).unwrap_or(0.0);
            let dropped =
                lookup(samples, "feed_sensor_buffer_dropped_items_total", labels).unwrap_or(0.0);
            let who = label_value(labels, "sensor").unwrap_or(labels);
            push_line(
                &mut out,
                &format!("sensor {who}"),
                format!(
                    "pushed {} sent {} dropped {}",
                    fmt_count(*v),
                    fmt_count(sent),
                    fmt_count(dropped)
                ),
            );
        }
    }

    if let Some(records) = sum(samples, "agg_records_total") {
        out.push_str("aggregator\n");
        let rejected = sum(samples, "agg_rejected_records_total").unwrap_or(0.0);
        let late = sum(samples, "agg_late_records_total").unwrap_or(0.0);
        push_line(
            &mut out,
            "records / rejected / late",
            format!(
                "{} / {} / {}",
                fmt_count(records),
                fmt_count(rejected),
                fmt_count(late)
            ),
        );
        if let Some(sealed) = sum(samples, "agg_windows_sealed_total") {
            let merges = sum(samples, "agg_dataset_merges_total").unwrap_or(0.0);
            push_line(
                &mut out,
                "windows sealed / merges",
                format!("{} / {}", fmt_count(sealed), fmt_count(merges)),
            );
        }
        if let Some(open) = sum(samples, "agg_open_windows") {
            push_line(&mut out, "open windows", fmt_count(open));
        }
        if let (Some(c), Some(s)) = (
            sum(samples, "agg_window_seal_seconds_count"),
            sum(samples, "agg_window_seal_seconds_sum"),
        ) {
            if c > 0.0 {
                push_line(
                    &mut out,
                    "seal latency mean (s)",
                    format!("{:.3} over {} windows", s / c, fmt_count(c)),
                );
            }
        }
        let upstreams = series(samples, "agg_upstream_records_total");
        if !upstreams.is_empty() {
            push_line(&mut out, "upstreams", fmt_count(upstreams.len() as f64));
            for (labels, v) in &upstreams {
                let gaps = lookup(samples, "agg_upstream_window_gaps_total", labels).unwrap_or(0.0);
                let windows = lookup(samples, "agg_upstream_windows_total", labels).unwrap_or(0.0);
                let who = label_value(labels, "upstream").unwrap_or(labels);
                push_line(
                    &mut out,
                    &format!("upstream {who}"),
                    format!(
                        "records {} windows {} gaps {}",
                        fmt_count(*v),
                        fmt_count(windows),
                        fmt_count(gaps)
                    ),
                );
            }
        }
    }

    if let Some(appends) = sum(samples, "store_appends_total") {
        out.push_str("store\n");
        let segments = sum(samples, "store_segments_written_total").unwrap_or(0.0);
        let records = sum(samples, "store_records_written_total").unwrap_or(0.0);
        push_line(
            &mut out,
            "appends / segments / records",
            format!(
                "{} / {} / {}",
                fmt_count(appends),
                fmt_count(segments),
                fmt_count(records)
            ),
        );
        if let Some(compactions) = sum(samples, "store_compactions_total") {
            let inputs = sum(samples, "store_compaction_input_segments_total").unwrap_or(0.0);
            push_line(
                &mut out,
                "compactions / inputs rolled",
                format!("{} / {}", fmt_count(compactions), fmt_count(inputs)),
            );
        }
        let tmp = sum(samples, "store_recovery_tmp_removed_total").unwrap_or(0.0);
        let orphans = sum(samples, "store_recovery_orphans_removed_total").unwrap_or(0.0);
        if tmp + orphans > 0.0 {
            push_line(
                &mut out,
                "recovery swept tmp/orphans",
                format!("{} / {}", fmt_count(tmp), fmt_count(orphans)),
            );
        }
        if let Some(expired) = sum(samples, "store_expired_segments_total") {
            if expired > 0.0 {
                push_line(&mut out, "expired segments", fmt_count(expired));
            }
        }
    }

    if let Some(windows) = sum(samples, "pubsub_windows_ingested_total") {
        out.push_str("pubsub\n");
        push_line(
            &mut out,
            "clients / windows served",
            format!(
                "{} / {}",
                fmt_count(sum(samples, "pubsub_clients").unwrap_or(0.0)),
                fmt_count(windows)
            ),
        );
        let pushed = sum(samples, "pubsub_frames_pushed_total").unwrap_or(0.0);
        let delivered = sum(samples, "pubsub_frames_delivered_total").unwrap_or(0.0);
        let dropped = sum(samples, "pubsub_frames_dropped_total").unwrap_or(0.0);
        push_line(
            &mut out,
            "frames pushed/delivered/drop",
            format!(
                "{} / {} / {}",
                fmt_count(pushed),
                fmt_count(delivered),
                fmt_count(dropped)
            ),
        );
        let evicted = sum(samples, "pubsub_clients_evicted_total").unwrap_or(0.0);
        let lost = sum(samples, "pubsub_ingest_dropped_total").unwrap_or(0.0);
        if evicted + lost > 0.0 {
            push_line(
                &mut out,
                "evicted clients / lost seals",
                format!("{} / {}", fmt_count(evicted), fmt_count(lost)),
            );
        }
    }

    if let Some(tx) = sum(samples, "simnet_transactions_total") {
        out.push_str("simnet\n");
        push_line(&mut out, "transactions", fmt_count(tx));
        if let Some(secs) = sum(samples, "simnet_stream_seconds") {
            if secs > 0.0 {
                push_line(&mut out, "tx/s (stream time)", format!("{:.0}", tx / secs));
            }
        }
    }

    if let Some(threads) = sum(samples, "process_threads") {
        out.push_str("process\n");
        push_line(&mut out, "threads", fmt_count(threads));
        if let (Some(rss), Some(vsize)) = (
            sum(samples, "process_rss_kbytes"),
            sum(samples, "process_vsize_kbytes"),
        ) {
            push_line(
                &mut out,
                "rss / vsize (MB)",
                format!("{:.1} / {:.1}", rss / 1024.0, vsize / 1024.0),
            );
        }
    }

    if out.is_empty() {
        out.push_str("no metrics\n");
    }
    out
}

/// Value of `base{labels}` exactly.
fn lookup(samples: &Samples, base: &str, labels: &str) -> Option<f64> {
    samples.get(&format!("{base}{{{labels}}}")).copied()
}

/// Extract one label's value out of a `k="v",...` label string.
fn label_value<'a>(labels: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("{key}=\"");
    let start = labels.find(&pat)? + pat.len();
    let end = labels[start..].find('"')? + start;
    Some(&labels[start..end])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(pairs: &[(&str, f64)]) -> Samples {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn empty_scrape_says_so() {
        assert_eq!(render_status(&Samples::new()), "no metrics\n");
    }

    #[test]
    fn pipeline_section_sums_labeled_series() {
        let s = samples(&[
            ("pipeline_ingested_total", 1000.0),
            ("pipeline_windows_total", 4.0),
            ("pipeline_kept_total{dataset=\"srvip\"}", 700.0),
            ("pipeline_kept_total{dataset=\"qtype\"}", 300.0),
            ("pipeline_dropped_total{dataset=\"srvip\"}", 5.0),
        ]);
        let text = render_status(&s);
        assert!(text.contains("pipeline\n"));
        assert!(text.contains("ingested"));
        assert!(text.contains("1000"));
        assert!(text.contains("windows closed"));
        assert!(text.contains("1000 / 5 / 0"));
    }

    #[test]
    fn collector_and_sensor_sections() {
        let s = samples(&[
            ("feed_collector_frames_total", 42.0),
            ("feed_collector_items_total", 420.0),
            ("feed_collector_gap_recorded_frames_total", 3.0),
            ("feed_collector_open_gap_frames", 1.0),
            ("feed_collector_crc_errors_total", 2.0),
            ("feed_sensor_pushed_items_total{sensor=\"7\"}", 500.0),
            ("feed_sensor_sent_items_total{sensor=\"7\"}", 480.0),
            ("feed_sensor_buffer_dropped_items_total{sensor=\"7\"}", 20.0),
        ]);
        let text = render_status(&s);
        assert!(text.contains("collector\n"));
        assert!(text.contains("42 / 420"));
        assert!(text.contains("3 (1) / 2"));
        assert!(text.contains("sensor 7"));
        assert!(text.contains("pushed 500 sent 480 dropped 20"));
    }

    #[test]
    fn aggregator_section_lists_upstream_ledgers() {
        let s = samples(&[
            ("agg_records_total", 120.0),
            ("agg_rejected_records_total", 2.0),
            ("agg_late_records_total", 1.0),
            ("agg_windows_sealed_total", 6.0),
            ("agg_dataset_merges_total", 18.0),
            ("agg_open_windows", 2.0),
            ("agg_upstream_records_total{upstream=\"3\"}", 60.0),
            ("agg_upstream_windows_total{upstream=\"3\"}", 6.0),
            ("agg_upstream_window_gaps_total{upstream=\"3\"}", 1.0),
            ("agg_upstream_records_total{upstream=\"9\"}", 60.0),
            ("agg_upstream_windows_total{upstream=\"9\"}", 7.0),
        ]);
        let text = render_status(&s);
        assert!(text.contains("aggregator\n"));
        assert!(text.contains("120 / 2 / 1"));
        assert!(text.contains("6 / 18"));
        assert!(text.contains("upstream 3"));
        assert!(text.contains("records 60 windows 6 gaps 1"));
        assert!(text.contains("upstream 9"));
        assert!(text.contains("records 60 windows 7 gaps 0"));
    }

    #[test]
    fn store_section_renders_compaction_and_recovery_ledger() {
        let s = samples(&[
            ("store_appends_total", 12.0),
            ("store_segments_written_total", 14.0),
            ("store_records_written_total", 96.0),
            ("store_compactions_total", 3.0),
            ("store_compaction_input_segments_total", 9.0),
            ("store_recovery_tmp_removed_total", 1.0),
            ("store_recovery_orphans_removed_total", 2.0),
        ]);
        let text = render_status(&s);
        assert!(text.contains("store\n"));
        assert!(text.contains("12 / 14 / 96"));
        assert!(text.contains("3 / 9"));
        assert!(text.contains("recovery swept tmp/orphans"));
        assert!(text.contains("1 / 2"));
    }

    #[test]
    fn store_recovery_line_is_hidden_when_clean() {
        let s = samples(&[("store_appends_total", 2.0)]);
        let text = render_status(&s);
        assert!(text.contains("store\n"));
        assert!(!text.contains("recovery swept"));
        assert!(!text.contains("expired segments"));
    }

    #[test]
    fn store_section_reports_retention_expiry() {
        let s = samples(&[
            ("store_appends_total", 2.0),
            ("store_expired_segments_total", 7.0),
        ]);
        let text = render_status(&s);
        assert!(text.contains("expired segments"));
        assert!(text.contains("7"));
    }

    #[test]
    fn pubsub_section_renders_broker_ledger() {
        let s = samples(&[
            ("pubsub_windows_ingested_total", 20.0),
            ("pubsub_clients", 3.0),
            ("pubsub_frames_pushed_total", 60.0),
            ("pubsub_frames_delivered_total", 55.0),
            ("pubsub_frames_dropped_total", 5.0),
            ("pubsub_clients_evicted_total", 1.0),
        ]);
        let text = render_status(&s);
        assert!(text.contains("pubsub\n"));
        assert!(text.contains("3 / 20"));
        assert!(text.contains("60 / 55 / 5"));
        assert!(text.contains("evicted clients / lost seals"));
        assert!(text.contains("1 / 0"));
    }

    #[test]
    fn pubsub_eviction_line_is_hidden_when_healthy() {
        let s = samples(&[
            ("pubsub_windows_ingested_total", 20.0),
            ("pubsub_frames_pushed_total", 60.0),
            ("pubsub_frames_delivered_total", 60.0),
        ]);
        let text = render_status(&s);
        assert!(text.contains("pubsub\n"));
        assert!(!text.contains("evicted clients"));
    }

    #[test]
    fn stage_latency_means_render_from_histogram_sums() {
        let s = samples(&[
            ("pipeline_ingested_total", 10.0),
            ("pipeline_window_seconds_sum{stage=\"fold\"}", 3.0),
            ("pipeline_window_seconds_count{stage=\"fold\"}", 6.0),
            ("agg_records_total", 4.0),
            ("agg_window_seal_seconds_sum", 1.0),
            ("agg_window_seal_seconds_count", 4.0),
        ]);
        let text = render_status(&s);
        assert!(text.contains("window residency mean (s)"));
        assert!(text.contains("0.500 over 6 windows"));
        assert!(text.contains("seal latency mean (s)"));
        assert!(text.contains("0.250 over 4 windows"));
    }

    #[test]
    fn simnet_rate_uses_stream_time() {
        let s = samples(&[
            ("simnet_transactions_total", 5000.0),
            ("simnet_stream_seconds", 10.0),
        ]);
        let text = render_status(&s);
        assert!(text.contains("simnet\n"));
        assert!(text.contains("500"));
    }

    #[test]
    fn process_section_reports_thread_and_memory_budget() {
        let s = samples(&[
            ("process_threads", 17.0),
            ("process_rss_kbytes", 10240.0),
            ("process_vsize_kbytes", 204800.0),
        ]);
        let text = render_status(&s);
        assert!(text.contains("process\n"));
        assert!(text.contains("17"));
        assert!(text.contains("10.0 / 200.0"));
    }

    #[test]
    fn label_value_extracts() {
        assert_eq!(
            label_value("dataset=\"srvip\",sensor=\"3\"", "sensor"),
            Some("3")
        );
        assert_eq!(label_value("dataset=\"srvip\"", "sensor"), None);
    }
}
