//! Where windows go once they are closed: the TSV directory every writer
//! shares, and the one seal path of the state-exporting writers.

use crate::flags::{self, Parsed};
use crate::session::{open_store, Session};
use crate::{fail, Done};
use dns_observatory::aggregate::rollup;
use dns_observatory::{render_state, tsv, MetaReporter, WindowDump};
use feed::{Sensor, SensorConfig, SensorReport};
use pubsub::{EvictReason, SealedRecord, ServeConfig, Server, ServerHandle};
use sketchwire::{TopKState, WindowState};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::sync::Arc;
use store::{CompactionPolicy, Store};
use telemetry::Registry;

/// Where `--out` points when it is not given.
pub const DEFAULT_OUT: &str = "./dnsobs-data";

/// A directory of TSV windows: data files named by dataset and window
/// start like the paper's storage layout (§2.4), `meta-*.tsv`
/// self-reports next to them.
pub struct TsvDir {
    dir: PathBuf,
    files: usize,
    meta_files: usize,
    /// Base windows of the local pipeline awaiting their `10win` rollup,
    /// per dataset.
    rollups: BTreeMap<String, Vec<WindowDump>>,
}

/// Base windows per coarse `10win` rollup file.
const ROLLUP_FAN_IN: usize = 10;

impl TsvDir {
    /// Create `--out` (or [`DEFAULT_OUT`]) and everything above it.
    pub fn create(out: Option<PathBuf>) -> Done<TsvDir> {
        let dir = out.unwrap_or_else(|| PathBuf::from(DEFAULT_OUT));
        std::fs::create_dir_all(&dir)
            .map_err(|e| fail(format_args!("cannot create {}: {e}", dir.display())))?;
        Ok(TsvDir {
            dir,
            files: 0,
            meta_files: 0,
            rollups: BTreeMap::new(),
        })
    }

    pub fn display(&self) -> std::path::Display<'_> {
        self.dir.display()
    }

    /// Write one window as `{dataset}-{level}{start:05}.tsv`; `level` is
    /// empty for base windows.
    pub fn write_dump(&mut self, level: &str, dump: &WindowDump) -> Done {
        let name = format!("{}-{level}{:05}.tsv", dump.dataset, dump.start as u64);
        let path = self.dir.join(name);
        let written = File::create(&path).and_then(|file| {
            let mut w = BufWriter::new(file);
            tsv::write_window(&mut w, dump)?;
            w.flush()
        });
        written.map_err(|e| fail(format_args!("failed writing {}: {e}", path.display())))?;
        self.files += 1;
        Ok(())
    }

    /// Write one rendered meta self-report window, named by its window
    /// start like the data files (`meta-00060.tsv`).
    pub fn write_meta(&mut self, bytes: &[u8]) {
        let Ok((start, _, _)) = tsv::read_meta_window(bytes) else {
            return;
        };
        let path = self.dir.join(format!("meta-{:05}.tsv", start as u64));
        match std::fs::write(&path, bytes) {
            Ok(()) => self.meta_files += 1,
            Err(e) => eprintln!("failed writing {}: {e}", path.display()),
        }
    }

    /// One closed window of the local pipeline, written as it arrives;
    /// every tenth of a dataset completes a coarse `10win` rollup, which
    /// takes the windows by move and is written at once too — so a long
    /// run keeps at most nine windows per dataset, whatever its length.
    pub fn write_window(&mut self, dump: WindowDump) -> Done {
        self.write_dump("", &dump)?;
        let pending = self.rollups.entry(dump.dataset.clone()).or_default();
        pending.push(dump);
        if pending.len() == ROLLUP_FAN_IN {
            let rolled = rollup(pending);
            pending.clear();
            self.write_dump("10win-", &rolled)?;
        }
        Ok(())
    }

    /// The directory's one ledger line.
    pub fn report(&self) {
        let (files, meta, dir) = (self.files, self.meta_files, self.dir.display());
        eprintln!("wrote {files} TSV files and {meta} meta report(s) to {dir}");
    }
}

/// The platform's own counters as one TSV window per data window of
/// stream time (the paper's `meta` dataset, §2.4), baseline armed.
pub fn meta_reporter(window_secs: f64) -> MetaReporter {
    let mut meta = MetaReporter::new(Registry::global(), (window_secs.max(1.0) * 1e6) as u64);
    meta.tick(0);
    meta
}

/// What a finished feed client pushed, dropped and reconnected.
pub fn sent_ledger(report: &SensorReport) -> String {
    format!(
        "sent {} frames/{} items, dropped {} frames/{} items, {} connect(s)",
        report.sent_frames,
        report.sent_items,
        report.dropped_frames,
        report.dropped_items,
        report.connects
    )
}

/// Run the compaction tick: roll every newly ripe hour/day/month bucket.
pub fn compact(store: &mut Store) -> Done {
    let report = store::compact(store, &CompactionPolicy::default())
        .map_err(|e| fail(format_args!("store compaction failed: {e}")))?;
    if !report.rolled.is_empty() {
        let (inputs, rollups) = (report.inputs(), report.rolled.len());
        eprintln!("store: rolled {inputs} segment(s) into {rollups} rollup(s)");
    }
    Ok(())
}

/// Drop every segment wholly before `horizon_us` behind a manifest-swap
/// commit; returns how many went.
pub fn expire(store: &mut Store, horizon_us: u64) -> Done<usize> {
    let report = store
        .expire_before(horizon_us)
        .map_err(|e| fail(format_args!("store expiry failed: {e}")))?;
    if !report.expired.is_empty() {
        eprintln!(
            "store: expired {} segment(s), {} window(s), {} record(s) behind t={}s",
            report.expired.len(),
            report.windows(),
            report.records(),
            report.horizon_us as f64 / 1e6
        );
    }
    for meta in &report.expired {
        eprintln!("  removed {}", meta.name);
    }
    Ok(report.expired.len())
}

/// `--retain DAYS` (fractional days allowed) as microseconds of stream
/// time; zero means no retention.
pub fn retain_span_us(p: &Parsed) -> Option<u64> {
    let days: f64 = p.opt(&flags::RETAIN)?;
    (days > 0.0).then(|| (days * 86_400.0 * 1e6).round() as u64)
}

/// Every sink a state-exporting writer was asked for, and the one order
/// sealed windows go through them.
pub struct Sinks {
    tsv: Option<TsvDir>,
    store: Option<Store>,
    retain: Option<u64>,
    kill_after: Option<u64>,
    state_out: Option<(PathBuf, Vec<u8>)>,
    forward: Option<Sensor<WindowState>>,
    serve: Option<(Server, ServerHandle)>,
    /// Live subscribers get the platform's own meta self-reports next to
    /// the data, one per window of stream time.
    meta: Option<MetaReporter>,
    /// The newest durable window (start seconds + its states), read when
    /// the store was opened.
    resume: Option<(f64, Vec<WindowState>)>,
    /// Stream time of the newest meta tick.
    last_us: u64,
    windows_stored: u64,
    exported: u64,
}

impl Sinks {
    /// Build whichever sinks the flags ask for. `out` is the TSV
    /// directory, already defaulted by callers that always render.
    pub fn from_flags(p: &Parsed, session: &Session, out: Option<PathBuf>) -> Done<Sinks> {
        let tsv = out.map(|dir| TsvDir::create(Some(dir))).transpose()?;
        let store = match p.opt::<PathBuf>(&flags::STORE) {
            Some(dir) => Some(open_store(&dir)?.with_trace(session.ring("store"))),
            None => None,
        };
        let resume = match &store {
            Some(store) => store
                .last_window()
                .map_err(|e| fail(format_args!("store: cannot read last window: {e}")))?,
            None => None,
        };
        let serve = match p.opt::<String>(&flags::SERVE) {
            Some(addr) => {
                let (config, ring) = (ServeConfig::default(), session.ring("pubsub"));
                let mut server = Server::bind(&addr, config, &Registry::global(), ring)
                    .map_err(|e| fail(format_args!("cannot serve on {addr}: {e}")))?;
                eprintln!("serving live windows on {}", server.local_addr());
                let handle = server.take_handle().expect("fresh server has its handle");
                Some((server, handle))
            }
            None => None,
        };
        // Only a `collect` has a --window, and the stream time to tick with.
        let meta = match (&serve, p.opt::<f64>(&flags::WINDOW)) {
            (Some(_), Some(window)) => Some(meta_reporter(window)),
            _ => None,
        };
        let upstream: u64 = p.opt(&flags::UPSTREAM).unwrap_or(0);
        let forward = p.opt::<String>(&flags::FORWARD);
        let state_out = p.opt::<PathBuf>(&flags::STATE_OUT);
        Ok(Sinks {
            tsv,
            store,
            retain: retain_span_us(p),
            kill_after: p.opt(&flags::KILL_AFTER),
            state_out: state_out.map(|path| (path, Vec::new())),
            forward: forward.map(|addr| Sensor::connect(addr, SensorConfig::new(upstream))),
            serve,
            meta,
            resume,
            last_us: 0,
            windows_stored: 0,
            exported: 0,
        })
    }

    /// The store's newest durable window, where a restart resumes.
    pub fn resume_point(&self) -> Option<&(f64, Vec<WindowState>)> {
        self.resume.as_ref()
    }

    /// Advance the meta self-report to stream time `now_us`.
    pub fn tick_meta(&mut self, now_us: u64) {
        self.last_us = now_us;
        if let Some(bytes) = self.meta.as_mut().and_then(|m| m.tick(now_us)) {
            self.publish_meta(bytes);
        }
    }

    fn publish_meta(&mut self, bytes: Vec<u8>) {
        if let (Some((_, handle)), Ok((start, _, _))) =
            (&mut self.serve, tsv::read_meta_window(bytes.as_slice()))
        {
            handle.publish_meta((start.max(0.0) * 1e6) as u64, bytes);
        }
    }

    /// Hand one sealed window's full record batch (every dataset, every
    /// chunk) to every sink. Durability first: the window is in the store
    /// (then compaction and `--retain` tick) before anything downstream
    /// sees it, so a crash can lose a rendering but never show a window
    /// that a restart would not also have. Each record is encoded at most
    /// once: the store and `--state-out` frame the same item bytes, and the
    /// broker's snapshots too when they are there (otherwise the broker
    /// encodes on its own thread). The uplink is flushed with the window,
    /// so it never waits on later ones. Publishing comes before the TSV
    /// render, so the broker thread encodes while this one renders; it
    /// never blocks — a full broker ring drops the batch and counts it,
    /// subscribers resync later.
    pub fn seal(&mut self, batch: Vec<WindowState>) -> Done {
        if batch.is_empty() {
            return Ok(());
        }
        let items: Vec<Vec<u8>> = match self.store.is_some() || self.state_out.is_some() {
            true => batch.iter().map(WindowState::item_bytes).collect(),
            false => Vec::new(),
        };
        if let Some(store) = &mut self.store {
            store
                .append_encoded(&batch, &items)
                .map_err(|e| fail(format_args!("store append failed: {e}")))?;
            compact(store)?;
            if let (Some(span), Some(frontier)) = (self.retain, store.frontier_us()) {
                expire(store, frontier.saturating_sub(span))?;
            }
            self.windows_stored += 1;
            if self.kill_after.is_some_and(|n| self.windows_stored >= n) {
                let stored = self.windows_stored;
                eprintln!("kill hook: exiting after {stored} stored window(s)");
                std::process::exit(3);
            }
        }
        self.exported += batch.len() as u64;
        if let Some((_, buf)) = &mut self.state_out {
            items
                .iter()
                .for_each(|item| sketchwire::write_record_bytes(item, buf));
        }
        if let Some(up) = &self.forward {
            batch.iter().for_each(|ws| up.send(ws));
            up.flush();
        }
        // The broker and the render share the records instead of copying
        // them.
        let batch: Vec<Arc<WindowState>> = batch.into_iter().map(Arc::new).collect();
        if let Some((_, handle)) = &mut self.serve {
            let mut items = items.into_iter();
            let records = batch.iter().map(|state| SealedRecord {
                state: state.clone(),
                item: items.next(),
            });
            handle.publish_records(records.collect());
        }
        if let Some(tsv) = &mut self.tsv {
            render(tsv, &batch)?;
        }
        Ok(())
    }

    /// The run is over: flush what is buffered, close every sink and
    /// print its ledger.
    pub fn finish(mut self) -> Done {
        let last_us = self.last_us;
        if let Some(bytes) = self.meta.as_mut().and_then(|m| m.finish(last_us)) {
            self.publish_meta(bytes);
        }
        if let Some((server, handle)) = self.serve.take() {
            drop(handle);
            let report = server.finish();
            let gave_up =
                |r: &EvictReason| matches!(r, EvictReason::TooSlow | EvictReason::Protocol);
            eprintln!(
                "served {} client(s): {} frames delivered, {} dropped, {} undelivered at exit, {} evicted",
                report.clients_seen,
                report.frames_delivered,
                report.frames_dropped,
                report.undelivered,
                report.departures.iter().filter(|d| gave_up(&d.reason)).count()
            );
        }
        eprintln!("exported {} window-state record(s)", self.exported);
        if let Some(store) = &self.store {
            let frontier = store.frontier_us();
            eprintln!(
                "store: {} live segment(s), frontier {}",
                store.segments().len(),
                frontier.map_or("empty".to_string(), |us| format!("t={}s", us as f64 / 1e6))
            );
        }
        if let Some(tsv) = &self.tsv {
            tsv.report();
        }
        if let Some((path, buf)) = &self.state_out {
            std::fs::write(path, buf)
                .map_err(|e| fail(format_args!("failed writing {}: {e}", path.display())))?;
            eprintln!("wrote {} state bytes to {}", buf.len(), path.display());
        }
        if let Some(up) = self.forward {
            eprintln!("forwarded: {}", sent_ledger(&up.finish()));
        }
        Ok(())
    }
}

/// Render one window's batch through the path `subscribe` and the store's
/// queries use: chunks of a dataset (adjacent in a batch) are reassembled,
/// then `render_state` → `tsv::write_window`.
fn render(tsv: &mut TsvDir, batch: &[Arc<WindowState>]) -> Done {
    let mut rest = batch;
    while let Some(first) = rest.first() {
        let (start, dataset) = (first.start, &first.topk.dataset);
        let same = |ws: &&Arc<WindowState>| ws.start == start && ws.topk.dataset == *dataset;
        let (parts, tail) = rest.split_at(rest.iter().take_while(same).count());
        rest = tail;
        let dump = if parts.len() == 1 && first.topk.chunks == 1 {
            render_state(&first.topk, start, first.length)
        } else {
            let chunks: Vec<&TopKState> = parts.iter().map(|ws| &ws.topk).collect();
            sketchwire::merge_chunks(&chunks)
                .and_then(|whole| render_state(&whole, start, first.length))
        };
        let dump = dump.map_err(|e| {
            fail(format_args!(
                "window t={start}s of {dataset} does not render: {e}"
            ))
        })?;
        tsv.write_dump("", &dump)?;
    }
    Ok(())
}
