//! TSV serialization of window dumps (paper §2.4: "data is stored on disk
//! in the TSV file format", column header first, collection statistics in
//! the last row).

use crate::features::FeatureRow;
use crate::keys::Dataset;
use crate::timeseries::{TimeSeriesStore, WindowDump};
use std::io::{self, BufRead, Write};

/// Column names, in file order.
pub const COLUMNS: &[&str] = FeatureRow::COLUMNS;

/// One feature's TSV cell(s), each written after a tab: counts as
/// integers, other numbers to 3 decimals (`-` for NaN), a top-3 list as
/// `value:share|…` (`-` when empty), a quartile triple as three cells,
/// a [`FeatureRow`] as its features' cells in column order.
pub(crate) trait Cell: Sized {
    /// Write the cell(s), each after a tab.
    fn write_cell<W: Write>(&self, w: &mut W) -> io::Result<()>;
    /// Parse the cell(s) from the next field(s) of a row.
    fn parse_cell<'a>(cells: &mut impl Iterator<Item = &'a str>) -> Option<Self>;
}

macro_rules! integer_cells {
    ($($t:ty),*) => {$(
        impl Cell for $t {
            fn write_cell<W: Write>(&self, w: &mut W) -> io::Result<()> {
                write!(w, "\t{self}")
            }

            fn parse_cell<'a>(cells: &mut impl Iterator<Item = &'a str>) -> Option<Self> {
                cells.next()?.parse().ok()
            }
        }
    )*};
}

integer_cells!(u64, u8);

impl Cell for f64 {
    fn write_cell<W: Write>(&self, w: &mut W) -> io::Result<()> {
        if self.is_nan() {
            w.write_all(b"\t-")
        } else {
            write!(w, "\t{self:.3}")
        }
    }

    fn parse_cell<'a>(cells: &mut impl Iterator<Item = &'a str>) -> Option<Self> {
        match cells.next()? {
            "-" => Some(f64::NAN),
            cell => cell.parse().ok(),
        }
    }
}

impl Cell for Vec<(u64, f64)> {
    fn write_cell<W: Write>(&self, w: &mut W) -> io::Result<()> {
        if self.is_empty() {
            return w.write_all(b"\t-");
        }
        for (i, (value, share)) in self.iter().enumerate() {
            let sep = if i == 0 { '\t' } else { '|' };
            write!(w, "{sep}{value}:{share:.4}")?;
        }
        Ok(())
    }

    fn parse_cell<'a>(cells: &mut impl Iterator<Item = &'a str>) -> Option<Self> {
        match cells.next()? {
            "-" => Some(Vec::new()),
            cell => cell
                .split('|')
                .map(|pair| {
                    let (value, share) = pair.split_once(':')?;
                    Some((value.parse().ok()?, share.parse().ok()?))
                })
                .collect(),
        }
    }
}

impl Cell for [f64; 3] {
    fn write_cell<W: Write>(&self, w: &mut W) -> io::Result<()> {
        self.iter().try_for_each(|v| v.write_cell(w))
    }

    fn parse_cell<'a>(cells: &mut impl Iterator<Item = &'a str>) -> Option<Self> {
        let [q25, q50, q75] = [(); 3].map(|()| f64::parse_cell(cells));
        Some([q25?, q50?, q75?])
    }
}

/// Write one window dump as TSV: header, rows, and a final `#totals` row
/// with the collection statistics.
pub fn write_window<W: Write>(w: &mut W, dump: &WindowDump) -> io::Result<()> {
    writeln!(w, "{}", COLUMNS.join("\t"))?;
    for (key, row) in &dump.rows {
        w.write_all(key.as_bytes())?;
        row.write_cell(w)?;
        w.write_all(b"\n")?;
    }
    writeln!(
        w,
        "#totals\tdataset={}\tstart={}\tlength={}\tkept={}\tdropped={}\tfiltered={}",
        dump.dataset, dump.start, dump.length, dump.kept, dump.dropped, dump.filtered
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

/// Read a file's header line, which must be `columns`.
fn read_header(
    lines: &mut impl Iterator<Item = io::Result<String>>,
    columns: &[&str],
) -> io::Result<()> {
    let eof = || io::Error::new(io::ErrorKind::UnexpectedEof, "empty file");
    if lines.next().ok_or_else(eof)?? != columns.join("\t") {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "unexpected header",
        ));
    }
    Ok(())
}

/// The `key=value` fields of a `#totals` line; `None` for any other line.
fn totals(line: &str) -> Option<impl Iterator<Item = (&str, &str)>> {
    let fields = line.strip_prefix("#totals\t")?.split('\t');
    Some(fields.filter_map(|field| field.split_once('=')))
}

/// Parse a TSV produced by [`write_window`] back into a [`WindowDump`].
pub fn read_window<R: BufRead>(r: R) -> io::Result<WindowDump> {
    let mut lines = r.lines();
    read_header(&mut lines, COLUMNS)?;
    let mut dump = WindowDump::default();
    for line in lines {
        let line = line?;
        if let Some(fields) = totals(&line) {
            for (k, v) in fields {
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
            continue;
        }
        let mut cells = line.split('\t');
        let key = cells.next().unwrap_or_default().to_string();
        match (FeatureRow::parse_cell(&mut cells), cells.next()) {
            (Some(row), None) => dump.rows.push((key, row)),
            _ => return Err(io::Error::new(io::ErrorKind::InvalidData, "bad row")),
        }
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
    read_header(&mut lines, META_COLUMNS)?;
    let (mut start, mut length) = (0.0f64, 0.0f64);
    let mut rows = Vec::new();
    for line in lines {
        let line = line?;
        if let Some(fields) = totals(&line) {
            for (k, v) in fields {
                match k {
                    "start" => start = v.parse().map_err(|_| bad("bad start"))?,
                    "length" => length = v.parse().map_err(|_| bad("bad length"))?,
                    _ => {}
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
        let cell = |tops: &Vec<(u64, f64)>| {
            let mut bytes = Vec::new();
            tops.write_cell(&mut bytes).unwrap();
            String::from_utf8(bytes).unwrap()
        };
        let parse = |s: &str| Vec::<(u64, f64)>::parse_cell(&mut s.split('\t').skip(1));
        assert_eq!(cell(&vec![]), "\t-");
        assert_eq!(parse("\t-"), Some(vec![]));
        let tops = vec![(300u64, 0.75), (60u64, 0.25)];
        let s = cell(&tops);
        assert_eq!(s, "\t300:0.7500|60:0.2500");
        let parsed = parse(&s).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, 300);
    }
}
