//! TSV serialization of window dumps (paper §2.4: "data is stored on disk
//! in the TSV file format", column header first, collection statistics in
//! the last row).

use crate::features::FeatureRow;
use crate::keys::Dataset;
use crate::timeseries::{TimeSeriesStore, WindowDump};
use std::io::{self, BufRead, Write};

/// Column names, in file order.
pub const COLUMNS: &[&str] = &[
    "key",
    "hits",
    "unans",
    "ok",
    "nxd",
    "rfs",
    "fail",
    "ok_ans",
    "ok_ns",
    "ok_add",
    "ok_nil",
    "ok6",
    "ok6nil",
    "ok_sec",
    "srvips",
    "srcips",
    "sources",
    "qnamesa",
    "qnames",
    "tlds",
    "eslds",
    "qtypes",
    "ip4s",
    "ip6s",
    "qdots",
    "qdots_max",
    "lvl",
    "nslvl",
    "ttl_top",
    "ttl_a_top",
    "nsttl_top",
    "negttl_top",
    "a_data_top",
    "ns_names_top",
    "delay_q25",
    "delay_q50",
    "delay_q75",
    "hops_q25",
    "hops_q50",
    "hops_q75",
    "size_q25",
    "size_q50",
    "size_q75",
];

fn fmt_tops(tops: &[(u64, f64)]) -> String {
    if tops.is_empty() {
        return "-".to_string();
    }
    tops.iter()
        .map(|(v, s)| format!("{v}:{s:.4}"))
        .collect::<Vec<_>>()
        .join("|")
}

fn parse_tops(s: &str) -> Option<Vec<(u64, f64)>> {
    if s == "-" {
        return Some(Vec::new());
    }
    s.split('|')
        .map(|pair| {
            let (v, share) = pair.split_once(':')?;
            Some((v.parse().ok()?, share.parse().ok()?))
        })
        .collect()
}

fn fmt_f(v: f64) -> String {
    if v.is_nan() {
        "-".to_string()
    } else {
        format!("{v:.3}")
    }
}

fn parse_f(s: &str) -> Option<f64> {
    if s == "-" {
        Some(f64::NAN)
    } else {
        s.parse().ok()
    }
}

/// Write one window dump as TSV: header, rows, and a final `#totals` row
/// with the collection statistics.
pub fn write_window<W: Write>(w: &mut W, dump: &WindowDump) -> io::Result<()> {
    writeln!(w, "{}", COLUMNS.join("\t"))?;
    for (key, row) in &dump.rows {
        write_row(w, key, row)?;
    }
    writeln!(
        w,
        "#totals\tdataset={}\tstart={}\tlength={}\tkept={}\tdropped={}\tfiltered={}",
        dump.dataset, dump.start, dump.length, dump.kept, dump.dropped, dump.filtered
    )
}

fn write_row<W: Write>(w: &mut W, key: &str, r: &FeatureRow) -> io::Result<()> {
    writeln!(
        w,
        "{key}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        r.hits,
        r.unans,
        r.ok,
        r.nxd,
        r.rfs,
        r.fail,
        r.ok_ans,
        r.ok_ns,
        r.ok_add,
        r.ok_nil,
        r.ok6,
        r.ok6nil,
        r.ok_sec,
        fmt_f(r.srvips),
        fmt_f(r.srcips),
        fmt_f(r.sources),
        fmt_f(r.qnamesa),
        fmt_f(r.qnames),
        fmt_f(r.tlds),
        fmt_f(r.eslds),
        fmt_f(r.qtypes),
        fmt_f(r.ip4s),
        fmt_f(r.ip6s),
        fmt_f(r.qdots),
        r.qdots_max,
        fmt_f(r.lvl),
        fmt_f(r.nslvl),
        fmt_tops(&r.ttl_top),
        fmt_tops(&r.ttl_a_top),
        fmt_tops(&r.nsttl_top),
        fmt_tops(&r.negttl_top),
        fmt_tops(&r.a_data_top),
        fmt_tops(&r.ns_names_top),
        fmt_f(r.resp_delays[0]),
        fmt_f(r.resp_delays[1]),
        fmt_f(r.resp_delays[2]),
        fmt_f(r.network_hops[0]),
        fmt_f(r.network_hops[1]),
        fmt_f(r.network_hops[2]),
        fmt_f(r.resp_size[0]),
        fmt_f(r.resp_size[1]),
        fmt_f(r.resp_size[2]),
    )
}

/// Render every window of the given datasets exactly as `dnsobs` writes
/// them to disk: one `(file-name, bytes)` pair per window, in dataset
/// then window order. This is the canonical byte-level fingerprint of a
/// pipeline run — the loopback-equivalence and chaos differential tests
/// compare two runs by comparing these pairs.
pub fn render_store(store: &TimeSeriesStore, datasets: &[Dataset]) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for &ds in datasets {
        for w in store.dataset(ds) {
            let mut bytes = Vec::new();
            write_window(&mut bytes, w).expect("writing to a Vec cannot fail");
            out.push((format!("{}-{:05}", ds.name(), w.start as u64), bytes));
        }
    }
    out
}

/// Parse a TSV produced by [`write_window`] back into a [`WindowDump`].
pub fn read_window<R: BufRead>(r: R) -> io::Result<WindowDump> {
    let mut lines = r.lines();
    let header = lines
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "empty file"))??;
    if header != COLUMNS.join("\t") {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "unexpected header",
        ));
    }
    let mut dump = WindowDump {
        dataset: String::new(),
        start: 0.0,
        length: 0.0,
        rows: Vec::new(),
        kept: 0,
        dropped: 0,
        filtered: 0,
    };
    for line in lines {
        let line = line?;
        if let Some(rest) = line.strip_prefix("#totals\t") {
            for field in rest.split('\t') {
                if let Some((k, v)) = field.split_once('=') {
                    match k {
                        "dataset" => dump.dataset = v.to_string(),
                        "start" => dump.start = v.parse().unwrap_or(0.0),
                        "length" => dump.length = v.parse().unwrap_or(0.0),
                        "kept" => dump.kept = v.parse().unwrap_or(0),
                        "dropped" => dump.dropped = v.parse().unwrap_or(0),
                        "filtered" => dump.filtered = v.parse().unwrap_or(0),
                        _ => {}
                    }
                }
            }
            continue;
        }
        let (key, row) = parse_row(&line)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad row"))?;
        dump.rows.push((key, row));
    }
    Ok(dump)
}

/// Column names of the `meta` self-report files, in file order.
pub const META_COLUMNS: &[&str] = &["metric", "value"];

/// Write one telemetry self-report window in the same shape as the data
/// files: column header first, one row per metric, `#totals` last. The
/// dataset name is always `meta`, so the files sort next to the real
/// datasets in an output directory.
pub fn write_meta_window<W: Write>(
    w: &mut W,
    start: f64,
    length: f64,
    rows: &[(String, f64)],
) -> io::Result<()> {
    writeln!(w, "{}", META_COLUMNS.join("\t"))?;
    for (metric, value) in rows {
        // Counters dominate; print them without a fractional tail so the
        // files diff cleanly, falling back to full precision for gauges.
        if value.fract() == 0.0 && value.abs() < 9.0e15 {
            writeln!(w, "{metric}\t{}", *value as i64)?;
        } else {
            writeln!(w, "{metric}\t{value}")?;
        }
    }
    writeln!(
        w,
        "#totals\tdataset=meta\tstart={start}\tlength={length}\tmetrics={}",
        rows.len()
    )
}

/// A parsed meta self-report: `(start, length, rows)`.
pub type MetaWindow = (f64, f64, Vec<(String, f64)>);

/// Parse a meta self-report produced by [`write_meta_window`].
pub fn read_meta_window<R: BufRead>(r: R) -> io::Result<MetaWindow> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let mut lines = r.lines();
    let header = lines
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "empty file"))??;
    if header != META_COLUMNS.join("\t") {
        return Err(bad("unexpected meta header"));
    }
    let (mut start, mut length) = (0.0f64, 0.0f64);
    let mut rows = Vec::new();
    for line in lines {
        let line = line?;
        if let Some(rest) = line.strip_prefix("#totals\t") {
            for field in rest.split('\t') {
                if let Some((k, v)) = field.split_once('=') {
                    match k {
                        "start" => start = v.parse().map_err(|_| bad("bad start"))?,
                        "length" => length = v.parse().map_err(|_| bad("bad length"))?,
                        _ => {}
                    }
                }
            }
            continue;
        }
        let (metric, value) = line.split_once('\t').ok_or_else(|| bad("bad meta row"))?;
        rows.push((
            metric.to_string(),
            value.parse().map_err(|_| bad("bad meta value"))?,
        ));
    }
    Ok((start, length, rows))
}

fn parse_row(line: &str) -> Option<(String, FeatureRow)> {
    let f: Vec<&str> = line.split('\t').collect();
    if f.len() != COLUMNS.len() {
        return None;
    }
    let mut i = 0usize;
    let mut next = || {
        let v = f[i];
        i += 1;
        v
    };
    let key = next().to_string();
    let row = FeatureRow {
        hits: next().parse().ok()?,
        unans: next().parse().ok()?,
        ok: next().parse().ok()?,
        nxd: next().parse().ok()?,
        rfs: next().parse().ok()?,
        fail: next().parse().ok()?,
        ok_ans: next().parse().ok()?,
        ok_ns: next().parse().ok()?,
        ok_add: next().parse().ok()?,
        ok_nil: next().parse().ok()?,
        ok6: next().parse().ok()?,
        ok6nil: next().parse().ok()?,
        ok_sec: next().parse().ok()?,
        srvips: parse_f(next())?,
        srcips: parse_f(next())?,
        sources: parse_f(next())?,
        qnamesa: parse_f(next())?,
        qnames: parse_f(next())?,
        tlds: parse_f(next())?,
        eslds: parse_f(next())?,
        qtypes: parse_f(next())?,
        ip4s: parse_f(next())?,
        ip6s: parse_f(next())?,
        qdots: parse_f(next())?,
        qdots_max: next().parse().ok()?,
        lvl: parse_f(next())?,
        nslvl: parse_f(next())?,
        ttl_top: parse_tops(next())?,
        ttl_a_top: parse_tops(next())?,
        nsttl_top: parse_tops(next())?,
        negttl_top: parse_tops(next())?,
        a_data_top: parse_tops(next())?,
        ns_names_top: parse_tops(next())?,
        resp_delays: [parse_f(next())?, parse_f(next())?, parse_f(next())?],
        network_hops: [parse_f(next())?, parse_f(next())?, parse_f(next())?],
        resp_size: [parse_f(next())?, parse_f(next())?, parse_f(next())?],
    };
    Some((key, row))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{FeatureConfig, FeatureSet};
    use crate::summarize::TxSummary;
    use psl::Psl;
    use simnet::{SimConfig, Simulation};

    fn sample_dump() -> WindowDump {
        let psl = Psl::embedded();
        let mut sim = Simulation::from_config(SimConfig::small());
        let mut fs = FeatureSet::new(FeatureConfig::default());
        sim.run(1.0, &mut |tx| {
            fs.fold(&TxSummary::from_transaction(tx, &psl))
        });
        WindowDump {
            dataset: "srvip".into(),
            start: 0.0,
            length: 60.0,
            rows: vec![("198.41.0.4".into(), fs.row())],
            kept: fs.hits(),
            dropped: 3,
            filtered: 1,
        }
    }

    #[test]
    fn roundtrip() {
        let dump = sample_dump();
        let mut buf = Vec::new();
        write_window(&mut buf, &dump).unwrap();
        let parsed = read_window(&buf[..]).unwrap();
        assert_eq!(parsed.dataset, dump.dataset);
        assert_eq!(parsed.kept, dump.kept);
        assert_eq!(parsed.dropped, dump.dropped);
        assert_eq!(parsed.rows.len(), 1);
        let (key, row) = &parsed.rows[0];
        let (okey, orow) = &dump.rows[0];
        assert_eq!(key, okey);
        assert_eq!(row.hits, orow.hits);
        assert_eq!(row.ttl_top.len(), orow.ttl_top.len());
        assert!((row.qdots - orow.qdots).abs() < 0.01);
    }

    #[test]
    fn header_first_totals_last() {
        let dump = sample_dump();
        let mut buf = Vec::new();
        write_window(&mut buf, &dump).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("key\thits\t"));
        assert!(lines.last().unwrap().starts_with("#totals\t"));
    }

    #[test]
    fn nan_roundtrips_as_dash() {
        let mut dump = sample_dump();
        dump.rows[0].1.resp_delays = [f64::NAN; 3];
        let mut buf = Vec::new();
        write_window(&mut buf, &dump).unwrap();
        assert!(String::from_utf8_lossy(&buf).contains("\t-\t"));
        let parsed = read_window(&buf[..]).unwrap();
        assert!(parsed.rows[0].1.resp_delays[1].is_nan());
    }

    #[test]
    fn rejects_bad_header() {
        let bad = b"wrong\theader\n";
        assert!(read_window(&bad[..]).is_err());
    }

    #[test]
    fn rejects_truncated_row() {
        let dump = sample_dump();
        let mut buf = Vec::new();
        write_window(&mut buf, &dump).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        lines[1] = lines[1].split('\t').take(5).collect::<Vec<_>>().join("\t");
        let broken = lines.join("\n");
        assert!(read_window(broken.as_bytes()).is_err());
    }

    #[test]
    fn meta_window_roundtrips() {
        let rows = vec![
            ("pipeline_ingested_total".to_string(), 12_345.0),
            ("pipeline_window_seconds_sum".to_string(), 0.125),
        ];
        let mut buf = Vec::new();
        write_meta_window(&mut buf, 60.0, 60.0, &rows).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("metric\tvalue\n"));
        assert!(text.contains("pipeline_ingested_total\t12345\n"));
        assert!(text
            .lines()
            .last()
            .unwrap()
            .starts_with("#totals\tdataset=meta"));
        let (start, length, parsed) = read_meta_window(&buf[..]).unwrap();
        assert_eq!(start, 60.0);
        assert_eq!(length, 60.0);
        assert_eq!(parsed, rows);
    }

    #[test]
    fn meta_window_rejects_data_header() {
        let dump = sample_dump();
        let mut buf = Vec::new();
        write_window(&mut buf, &dump).unwrap();
        assert!(read_meta_window(&buf[..]).is_err());
    }

    #[test]
    fn empty_tops_roundtrip() {
        assert_eq!(fmt_tops(&[]), "-");
        assert_eq!(parse_tops("-"), Some(vec![]));
        let tops = vec![(300u64, 0.75), (60u64, 0.25)];
        let s = fmt_tops(&tops);
        let parsed = parse_tops(&s).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, 300);
    }
}
