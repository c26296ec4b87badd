//! Store lifecycle: open with crash recovery, append, read, resume.
//!
//! A store directory contains exactly one [`MANIFEST`] plus the segment
//! files it references. Every mutation follows the same discipline:
//!
//! 1. write new segment(s) to `*.tmp`, rename to `*.seg`;
//! 2. write the new manifest to `MANIFEST.tmp`, rename over `MANIFEST`;
//! 3. only then unlink any replaced input segments.
//!
//! The manifest rename is the commit point. [`Store::open`] recovers
//! from a crash at any step by sweeping temp files and unreferenced
//! segments into a [`RecoveryReport`] — removed, ledgered, never
//! silently kept — while a *referenced but missing* segment is a hard
//! typed error (that store lost data and must not answer queries).
//!
//! [`MANIFEST`]: crate::manifest::MANIFEST_NAME

use crate::compact::CrashFs;
use crate::manifest::{valid_segment_name, Manifest, SegmentMeta, MANIFEST_NAME};
use crate::segment::{self, window_us, SegmentFooter};
use crate::StoreError;
use sketchwire::WindowState;
use std::borrow::Borrow;
use std::path::{Path, PathBuf};
use telemetry::trace::{TraceEvent, TraceKind, TraceRing};
use telemetry::{Counter, Registry};

/// Trace stage name for store events.
const STAGE: &str = "store";

/// What [`Store::open`] swept up after a crash. Nothing is ever removed
/// silently: every swept file is named here for the caller to ledger.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Temp files from interrupted writes, removed.
    pub removed_tmp: Vec<String>,
    /// Segment files not referenced by the manifest (a crash between
    /// segment rename and manifest swap), removed.
    pub removed_orphans: Vec<String>,
}

impl RecoveryReport {
    /// True when recovery had nothing to sweep (clean shutdown).
    pub fn is_clean(&self) -> bool {
        self.removed_tmp.is_empty() && self.removed_orphans.is_empty()
    }
}

/// Store/compaction counters, mirrored into a telemetry registry.
#[derive(Debug)]
pub(crate) struct StoreMetrics {
    pub(crate) appends: Counter,
    pub(crate) segments_written: Counter,
    pub(crate) records_written: Counter,
    pub(crate) compactions: Counter,
    pub(crate) compaction_inputs: Counter,
    pub(crate) recovery_tmp: Counter,
    pub(crate) recovery_orphans: Counter,
    pub(crate) expired_segments: Counter,
}

impl StoreMetrics {
    fn register(registry: &Registry) -> StoreMetrics {
        StoreMetrics {
            appends: registry.counter("store_appends_total"),
            segments_written: registry.counter("store_segments_written_total"),
            records_written: registry.counter("store_records_written_total"),
            compactions: registry.counter("store_compactions_total"),
            compaction_inputs: registry.counter("store_compaction_input_segments_total"),
            recovery_tmp: registry.counter("store_recovery_tmp_removed_total"),
            recovery_orphans: registry.counter("store_recovery_orphans_removed_total"),
            expired_segments: registry.counter("store_expired_segments_total"),
        }
    }
}

/// What one retention pass removed. Expiry is segment-granular: only
/// segments *wholly* past the horizon are dropped, so a window is never
/// partially forgotten.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExpiryReport {
    /// The horizon applied (µs): segments with `end_us < horizon` go.
    pub horizon_us: u64,
    /// Manifest rows of the segments removed, in manifest order.
    pub expired: Vec<SegmentMeta>,
}

impl ExpiryReport {
    /// Windows covered by the expired segments.
    pub fn windows(&self) -> u64 {
        self.expired.iter().map(|s| s.windows as u64).sum()
    }

    /// Records covered by the expired segments.
    pub fn records(&self) -> u64 {
        self.expired.iter().map(|s| s.records as u64).sum()
    }
}

/// An open historical window store.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    manifest: Manifest,
    pub(crate) metrics: Option<StoreMetrics>,
    pub(crate) trace: TraceRing,
    pub(crate) now_us: u64,
}

impl Store {
    /// Open `dir`, creating an empty store if it does not exist yet, and
    /// sweep crash leftovers. See the module docs for the recovery
    /// contract.
    pub fn open(dir: &Path) -> Result<(Store, RecoveryReport), StoreError> {
        std::fs::create_dir_all(dir).map_err(|e| StoreError::io(dir, e))?;
        let manifest_path = dir.join(MANIFEST_NAME);
        let manifest = match std::fs::read(&manifest_path) {
            Ok(bytes) => {
                let text = String::from_utf8(bytes).map_err(|_| StoreError::Manifest {
                    what: "manifest is not UTF-8".into(),
                })?;
                Manifest::decode(&text)?
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // A fresh directory gets an empty manifest — but segment
                // files without any manifest mean the commit record was
                // destroyed, which recovery must not paper over.
                if dir_has_segments(dir)? {
                    return Err(StoreError::Manifest {
                        what: "manifest missing but segment files present".into(),
                    });
                }
                let empty = Manifest::default();
                write_atomic(dir, MANIFEST_NAME, empty.encode().as_bytes())?;
                empty
            }
            Err(e) => return Err(StoreError::io(&manifest_path, e)),
        };

        let mut report = RecoveryReport::default();
        let mut present = std::collections::BTreeSet::new();
        let entries = std::fs::read_dir(dir).map_err(|e| StoreError::io(dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| StoreError::io(dir, e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name == MANIFEST_NAME {
                continue;
            }
            if name.ends_with(".tmp") {
                std::fs::remove_file(entry.path()).map_err(|e| StoreError::io(&entry.path(), e))?;
                report.removed_tmp.push(name);
            } else if name.ends_with(".seg") {
                present.insert(name);
            }
            // Anything else in the directory is not ours to touch.
        }
        for meta in &manifest.segments {
            if !present.remove(&meta.name) {
                return Err(StoreError::MissingSegment {
                    segment: meta.name.clone(),
                });
            }
        }
        for orphan in present {
            let path = dir.join(&orphan);
            std::fs::remove_file(&path).map_err(|e| StoreError::io(&path, e))?;
            report.removed_orphans.push(orphan);
        }
        report.removed_tmp.sort();
        report.removed_orphans.sort();

        Ok((
            Store {
                dir: dir.to_path_buf(),
                manifest,
                metrics: None,
                trace: TraceRing::disabled(),
                now_us: 0,
            },
            report,
        ))
    }

    /// Mirror store counters into `registry` (builder style). Pass the
    /// recovery report so swept files are counted, not just printed.
    pub fn with_registry(mut self, registry: &Registry, recovered: &RecoveryReport) -> Store {
        let metrics = StoreMetrics::register(registry);
        metrics.recovery_tmp.inc(recovered.removed_tmp.len() as u64);
        metrics
            .recovery_orphans
            .inc(recovered.removed_orphans.len() as u64);
        self.metrics = Some(metrics);
        self
    }

    /// Record provenance events into `ring` (builder style).
    pub fn with_trace(mut self, ring: TraceRing) -> Store {
        self.trace = ring;
        self
    }

    /// Inject the current clock reading (µs) for trace timestamps.
    pub fn set_now_us(&mut self, now_us: u64) {
        self.now_us = now_us;
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Live segments, in manifest order.
    pub fn segments(&self) -> &[SegmentMeta] {
        &self.manifest.segments
    }

    /// Manifest swap counter.
    pub fn generation(&self) -> u64 {
        self.manifest.generation
    }

    /// The durable watermark frontier: the latest window end (µs) any
    /// live segment covers. A restarted collector resumes from here.
    pub fn frontier_us(&self) -> Option<u64> {
        self.manifest.segments.iter().map(|s| s.end_us).max()
    }

    /// Append a batch of window states as one new level-0 segment.
    pub fn append(&mut self, states: &[WindowState]) -> Result<SegmentMeta, StoreError> {
        self.append_with(states, &mut CrashFs::durable())
    }

    /// [`Store::append`] for states whose item bytes the caller already
    /// made (`items[i]` is `states[i].item_bytes()`): the segment frames
    /// those bytes instead of encoding the states again. Same file.
    pub fn append_encoded<S: Borrow<WindowState>, I: AsRef<[u8]>>(
        &mut self,
        states: &[S],
        items: &[I],
    ) -> Result<SegmentMeta, StoreError> {
        refuse_empty(states.len())?;
        let image = segment::encode_segment_items(0, states, items);
        self.commit_append(image, &mut CrashFs::durable())
    }

    /// [`Store::append`] with every filesystem mutation routed through
    /// `fs`, so the chaos suite can crash the append at any syscall.
    pub fn append_with(
        &mut self,
        states: &[WindowState],
        fs: &mut CrashFs,
    ) -> Result<SegmentMeta, StoreError> {
        refuse_empty(states.len())?;
        self.commit_append(segment::encode_segment(0, states), fs)
    }

    /// Write a level-0 segment image, then commit it to the manifest.
    fn commit_append(
        &mut self,
        image: (Vec<u8>, SegmentFooter),
        fs: &mut CrashFs,
    ) -> Result<SegmentMeta, StoreError> {
        let meta = self.write_image(image, fs)?;
        let mut next = self.manifest.clone();
        next.generation += 1;
        next.segments.push(meta.clone());
        self.swap_manifest(next, fs)?;
        if let Some(m) = &self.metrics {
            m.appends.inc(1);
        }
        self.trace_event(TraceKind::Seal, meta.start_us, meta.records as u64);
        Ok(meta)
    }

    /// Drop every segment wholly before `horizon_us` (retention). The
    /// manifest swap is the commit point, exactly as for appends: the
    /// shrunk manifest lands first, then the dead segment files are
    /// unlinked. A crash in between leaves unreferenced `.seg` files,
    /// which the next [`Store::open`] sweeps and ledgers in its
    /// [`RecoveryReport`] — the deletion is never silent either way.
    pub fn expire_before(&mut self, horizon_us: u64) -> Result<ExpiryReport, StoreError> {
        self.expire_before_with(horizon_us, &mut CrashFs::durable())
    }

    /// [`Store::expire_before`] with filesystem mutations routed through
    /// `fs`, so the chaos suite can crash the retention pass mid-flight.
    pub fn expire_before_with(
        &mut self,
        horizon_us: u64,
        fs: &mut CrashFs,
    ) -> Result<ExpiryReport, StoreError> {
        let expired: Vec<SegmentMeta> = self
            .manifest
            .segments
            .iter()
            .filter(|s| s.end_us < horizon_us)
            .cloned()
            .collect();
        if expired.is_empty() {
            return Ok(ExpiryReport {
                horizon_us,
                expired,
            });
        }
        let mut next = self.manifest.clone();
        next.generation += 1;
        next.segments.retain(|s| s.end_us >= horizon_us);
        self.swap_manifest(next, fs)?;
        for meta in &expired {
            fs.remove(&self.dir.join(&meta.name))?;
            self.trace_event(TraceKind::Drop, meta.start_us, meta.records as u64);
        }
        if let Some(m) = &self.metrics {
            m.expired_segments.inc(expired.len() as u64);
        }
        Ok(ExpiryReport {
            horizon_us,
            expired,
        })
    }

    /// Write one segment (temp + rename) and return its manifest row.
    /// The segment is durable but *unreferenced* until the caller swaps
    /// the manifest — exactly the window the chaos axis crashes into.
    pub(crate) fn write_segment(
        &mut self,
        level: u8,
        states: &[WindowState],
        fs: &mut CrashFs,
    ) -> Result<SegmentMeta, StoreError> {
        self.write_image(segment::encode_segment(level, states), fs)
    }

    /// [`Store::write_segment`] of an encoded segment image.
    fn write_image(
        &mut self,
        (bytes, footer): (Vec<u8>, SegmentFooter),
        fs: &mut CrashFs,
    ) -> Result<SegmentMeta, StoreError> {
        let level = footer.level;
        let name = format!(
            "L{level}-{:016}-g{:06}.seg",
            footer.start_us,
            self.manifest.generation + 1
        );
        debug_assert!(valid_segment_name(&name));
        let tmp = self.dir.join(format!("{name}.tmp"));
        fs.write(&tmp, &bytes)?;
        fs.rename(&tmp, &self.dir.join(&name))?;
        if let Some(m) = &self.metrics {
            m.segments_written.inc(1);
            m.records_written.inc(footer.records as u64);
        }
        Ok(SegmentMeta {
            name,
            level,
            start_us: footer.start_us,
            end_us: footer.end_us,
            windows: footer.windows,
            records: footer.records,
        })
    }

    /// Swap in `next` as the live manifest (temp + rename commit point).
    pub(crate) fn swap_manifest(
        &mut self,
        next: Manifest,
        fs: &mut CrashFs,
    ) -> Result<(), StoreError> {
        let tmp = self.dir.join(format!("{MANIFEST_NAME}.tmp"));
        fs.write(&tmp, next.encode().as_bytes())?;
        fs.rename(&tmp, &self.dir.join(MANIFEST_NAME))?;
        self.manifest = next;
        Ok(())
    }

    pub(crate) fn trace_event(&self, kind: TraceKind, window_us: u64, value: u64) {
        if self.trace.is_enabled() {
            self.trace.record(
                TraceEvent::new(self.now_us, STAGE, kind)
                    .window(window_us)
                    .value(value),
            );
        }
    }

    /// Read and fully validate one live segment.
    pub fn read_segment(
        &self,
        meta: &SegmentMeta,
    ) -> Result<(SegmentFooter, Vec<WindowState>), StoreError> {
        let path = self.dir.join(&meta.name);
        let bytes = std::fs::read(&path).map_err(|e| match e.kind() {
            std::io::ErrorKind::NotFound => StoreError::MissingSegment {
                segment: meta.name.clone(),
            },
            _ => StoreError::io(&path, e),
        })?;
        segment::decode_segment(&bytes, &meta.name)
    }

    /// Read only a segment's footer index (no record decoding).
    pub fn read_footer(&self, meta: &SegmentMeta) -> Result<SegmentFooter, StoreError> {
        let path = self.dir.join(&meta.name);
        let bytes = std::fs::read(&path).map_err(|e| match e.kind() {
            std::io::ErrorKind::NotFound => StoreError::MissingSegment {
                segment: meta.name.clone(),
            },
            _ => StoreError::io(&path, e),
        })?;
        segment::read_footer(&bytes, &meta.name).map(|(f, _)| f)
    }

    /// The newest durable window: its start time and all of its states
    /// (every dataset, every chunk). This is the resume point — the
    /// compactor never rolls the newest level-0 window (see
    /// [`crate::compact`]), so the states here are verbatim tracker
    /// exports, not cross-window merges.
    pub fn last_window(&self) -> Result<Option<(f64, Vec<WindowState>)>, StoreError> {
        let newest = self
            .manifest
            .segments
            .iter()
            .filter(|s| s.level == 0)
            .max_by_key(|s| s.end_us);
        let Some(meta) = newest else {
            return Ok(None);
        };
        let (_, states) = self.read_segment(meta)?;
        let last_us = states.iter().map(|ws| window_us(ws.start)).max();
        let Some(last_us) = last_us else {
            return Ok(None);
        };
        let mut last: Vec<WindowState> = states
            .into_iter()
            .filter(|ws| window_us(ws.start) == last_us)
            .collect();
        last.sort_by(|a, b| {
            a.topk
                .dataset
                .cmp(&b.topk.dataset)
                .then(a.topk.chunk.cmp(&b.topk.chunk))
        });
        let start = last.first().map(|ws| ws.start).unwrap_or_default();
        Ok(Some((start, last)))
    }
}

fn refuse_empty(records: usize) -> Result<(), StoreError> {
    match records {
        0 => Err(StoreError::Manifest {
            what: "refusing to append an empty batch".into(),
        }),
        _ => Ok(()),
    }
}

fn dir_has_segments(dir: &Path) -> Result<bool, StoreError> {
    let entries = std::fs::read_dir(dir).map_err(|e| StoreError::io(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io(dir, e))?;
        if entry.file_name().to_string_lossy().ends_with(".seg") {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Plain durable temp-write + rename, for paths outside fault injection.
fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp = dir.join(format!("{name}.tmp"));
    std::fs::write(&tmp, bytes).map_err(|e| StoreError::io(&tmp, e))?;
    let to = dir.join(name);
    std::fs::rename(&tmp, &to).map_err(|e| StoreError::io(&to, e))?;
    Ok(())
}
