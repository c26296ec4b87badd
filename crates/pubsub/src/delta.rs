//! Canonical window states and the snapshot⊕delta law.
//!
//! The broker publishes each dataset's sealed window either whole (a
//! *snapshot*) or as the difference against the previously published
//! window (a *delta*: full replacement entries for changed/new keys plus
//! the keys that left the Top-k). The one law everything rests on — and
//! the crate's proptests pin — is
//!
//! ```text
//! apply_delta(prev, diff_states(prev_us, prev, next_us, next)) == next
//! ```
//!
//! for any two *canonical* states of the same dataset. Canonical means
//! key-ascending entries, whole (`chunk == 0`, `chunks == 1`) and
//! gate-free: subscribers consume an aggregate view of the window, never
//! resume state, so the admission gate is stripped before publication.

use std::collections::BTreeMap;

use feed::codec::write_varint;
use feed::{ByteReader, FeedError};
use sketchwire::{FeatureState, TopKEntry, TopKState};

/// Longest accepted dataset name (mirrors the state codec).
const MAX_DATASET_BYTES: usize = 256;
/// Longest accepted removed key (mirrors the state codec's key cap).
const MAX_KEY_BYTES: usize = 4096;

/// A window's integer identity on the wire: its start in microseconds of
/// virtual time. Starts are window-aligned multiples of the window length,
/// so the rounding is exact for any realistic window geometry.
pub fn window_id_us(start_secs: f64) -> u64 {
    (start_secs * 1e6).round() as u64
}

/// Put a reassembled tracker state into the canonical published form:
/// key-ascending entries, whole, and without the admission gate (the
/// subscription tier serves aggregates, not resumable tracker state).
pub fn canonicalize(mut state: TopKState) -> TopKState {
    state.entries.sort_by(|a, b| a.key.cmp(&b.key));
    state.chunk = 0;
    state.chunks = 1;
    state.gate = None;
    state
}

/// The canonical empty feature accumulator used by feature-stripped
/// (`topk` topic) frames. `source_cap` of 1 keeps the state valid under
/// the codec's `source_cap > 0` invariant.
fn empty_features() -> FeatureState {
    FeatureState {
        adds: Vec::new(),
        maxes: Vec::new(),
        hlls: Vec::new(),
        source_cap: 1,
        sources: Vec::new(),
        tops: Vec::new(),
        hists: Vec::new(),
    }
}

/// The feature-stripped view of a canonical state: same header and
/// Space-Saving counter pairs, every entry's feature accumulator replaced
/// by the canonical empty one. This is what `topk`-topic subscribers
/// receive — rank and bound data at a fraction of the bytes.
pub fn strip_features(state: &TopKState) -> TopKState {
    let mut stripped = state.header();
    stripped.entries = state
        .entries
        .iter()
        .map(|e| TopKEntry {
            key: e.key.clone(),
            count: e.count,
            error: e.error,
            inserted_at: e.inserted_at,
            features: empty_features(),
        })
        .collect();
    stripped
}

/// Write `e` as [`strip_features`] would leave it, without building the
/// stripped entry.
pub(crate) fn encode_stripped_entry(e: &TopKEntry, out: &mut Vec<u8>) {
    e.encode_counters(out);
    empty_features().encode(out);
}

/// One dataset's window-to-window difference: the full header of the new
/// window, replacement entries for keys that changed or appeared, and the
/// keys that left. Applying it to the basis window (see [`apply_delta`])
/// reproduces the new window exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowDelta {
    /// Dataset name.
    pub dataset: String,
    /// Identity of the basis window this delta applies to.
    pub prev_window_us: u64,
    /// Identity of the window this delta produces.
    pub window_us: u64,
    /// New window's start, seconds of virtual time.
    pub start: f64,
    /// New window's length, seconds.
    pub length: f64,
    /// New window's tracker capacity.
    pub capacity: u64,
    /// New window's total observations.
    pub observed: u64,
    /// New window's `min_count`.
    pub min_count: u64,
    /// New window's stated error bound.
    pub error_bound: u64,
    /// New window's eviction total.
    pub evictions: u64,
    /// New window's kept-transaction count.
    pub kept: u64,
    /// New window's dropped-transaction count.
    pub dropped: u64,
    /// New window's gate-filtered count.
    pub filtered: u64,
    /// Full replacement entries for changed or new keys, key-ascending.
    pub changed: Vec<TopKEntry>,
    /// Keys present in the basis but absent from the new window,
    /// key-ascending and disjoint from `changed`.
    pub removed: Vec<String>,
}

impl WindowDelta {
    /// Encode into `out` (the pub/sub codec frames this as a payload body).
    pub fn encode(&self, out: &mut Vec<u8>) {
        let head = DeltaHead {
            dataset: &self.dataset,
            prev_window_us: self.prev_window_us,
            window_us: self.window_us,
            start: self.start,
            length: self.length,
            counters: [
                self.capacity,
                self.observed,
                self.min_count,
                self.error_bound,
                self.evictions,
                self.kept,
                self.dropped,
                self.filtered,
            ],
        };
        let changed: Vec<&TopKEntry> = self.changed.iter().collect();
        let removed: Vec<&str> = self.removed.iter().map(String::as_str).collect();
        head.encode(&changed, TopKEntry::encode, &removed, out);
    }

    /// Decode and validate one delta.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<WindowDelta, FeedError> {
        let dataset = read_string(r, MAX_DATASET_BYTES, "delta dataset")?;
        let prev_window_us = r.varint()?;
        let window_us = r.varint()?;
        if prev_window_us >= window_us {
            return Err(FeedError::Invalid("delta window order"));
        }
        let start = r.f64("delta start")?;
        if !(start.is_finite() && start >= 0.0) {
            return Err(FeedError::Invalid("delta start out of range"));
        }
        let length = r.f64("delta length")?;
        if !(length.is_finite() && length > 0.0) {
            return Err(FeedError::Invalid("delta length out of range"));
        }
        let capacity = r.varint()?;
        if capacity == 0 {
            return Err(FeedError::Invalid("delta capacity zero"));
        }
        let observed = r.varint()?;
        let min_count = r.varint()?;
        let error_bound = r.varint()?;
        if min_count > error_bound {
            return Err(FeedError::Invalid("delta min_count exceeds error bound"));
        }
        let evictions = r.varint()?;
        let kept = r.varint()?;
        let dropped = r.varint()?;
        let filtered = r.varint()?;
        let n_changed = r.count(16, "delta changed entries")?;
        let mut changed = Vec::with_capacity(n_changed);
        for _ in 0..n_changed {
            let e = TopKEntry::decode(r)?;
            if e.count > observed {
                return Err(FeedError::Invalid("delta entry count exceeds observed"));
            }
            changed.push(e);
        }
        if changed.windows(2).any(|w| w[0].key >= w[1].key) {
            return Err(FeedError::Invalid("delta changed keys not ascending"));
        }
        let n_removed = r.count(1, "delta removed keys")?;
        let mut removed = Vec::with_capacity(n_removed);
        for _ in 0..n_removed {
            removed.push(read_string(r, MAX_KEY_BYTES, "delta removed key")?);
        }
        if removed.windows(2).any(|w| w[0] >= w[1]) {
            return Err(FeedError::Invalid("delta removed keys not ascending"));
        }
        // Both lists are sorted; a merge walk finds any shared key.
        let (mut i, mut j) = (0, 0);
        while i < changed.len() && j < removed.len() {
            match changed[i].key.as_str().cmp(removed[j].as_str()) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    return Err(FeedError::Invalid("delta changed/removed overlap"))
                }
            }
        }
        Ok(WindowDelta {
            dataset,
            prev_window_us,
            window_us,
            start,
            length,
            capacity,
            observed,
            min_count,
            error_bound,
            evictions,
            kept,
            dropped,
            filtered,
            changed,
            removed,
        })
    }
}

/// A delta's header: everything before the changed entries.
struct DeltaHead<'a> {
    dataset: &'a str,
    prev_window_us: u64,
    window_us: u64,
    start: f64,
    length: f64,
    /// `capacity, observed, min_count, error_bound, evictions, kept,
    /// dropped, filtered` of the new window, in wire order.
    counters: [u64; 8],
}

impl DeltaHead<'_> {
    /// Write the header, then the changed entries (each through `entry`)
    /// and the removed keys — one delta body.
    fn encode(
        &self,
        changed: &[&TopKEntry],
        entry: fn(&TopKEntry, &mut Vec<u8>),
        removed: &[&str],
        out: &mut Vec<u8>,
    ) {
        write_varint(self.dataset.len() as u64, out);
        out.extend_from_slice(self.dataset.as_bytes());
        write_varint(self.prev_window_us, out);
        write_varint(self.window_us, out);
        out.extend_from_slice(&self.start.to_bits().to_le_bytes());
        out.extend_from_slice(&self.length.to_bits().to_le_bytes());
        for c in self.counters {
            write_varint(c, out);
        }
        write_varint(changed.len() as u64, out);
        for e in changed {
            entry(e, out);
        }
        write_varint(removed.len() as u64, out);
        for k in removed {
            write_varint(k.len() as u64, out);
            out.extend_from_slice(k.as_bytes());
        }
    }
}

/// Whether `keys` are strictly ascending (so also free of duplicates).
pub(crate) fn strictly_ascending<'a>(mut keys: impl Iterator<Item = &'a str>) -> bool {
    let mut last = None;
    keys.all(|k| last.replace(k).is_none_or(|prev| prev < k))
}

fn read_string(
    r: &mut ByteReader<'_>,
    max: usize,
    what: &'static str,
) -> Result<String, FeedError> {
    let len = r.count(1, what)?;
    if len > max {
        return Err(FeedError::Invalid(what));
    }
    let bytes = r.bytes(len, what)?;
    match std::str::from_utf8(bytes) {
        Ok(s) => Ok(s.to_string()),
        Err(_) => Err(FeedError::Invalid(what)),
    }
}

/// Diff two canonical states of the same dataset into the delta that
/// turns `prev` into `next`. Both inputs must be canonical (see
/// [`canonicalize`]); the diff compares whole entries, so a key whose
/// counter pair *or* features changed is re-sent in full — features reset
/// each window, which keeps idle keys out of steady-state deltas.
pub fn diff_states(
    prev_window_us: u64,
    prev: &TopKState,
    window_us: u64,
    start: f64,
    length: f64,
    next: &TopKState,
) -> WindowDelta {
    debug_assert_eq!(prev.dataset, next.dataset, "diff across datasets");
    let mut changed = Vec::new();
    let mut removed = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < prev.entries.len() || j < next.entries.len() {
        let ord = match (prev.entries.get(i), next.entries.get(j)) {
            (Some(p), Some(n)) => p.key.cmp(&n.key),
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (None, None) => unreachable!("loop bound"),
        };
        match ord {
            std::cmp::Ordering::Less => {
                removed.push(prev.entries[i].key.clone());
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                changed.push(next.entries[j].clone());
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                if prev.entries[i] != next.entries[j] {
                    changed.push(next.entries[j].clone());
                }
                i += 1;
                j += 1;
            }
        }
    }
    WindowDelta {
        dataset: next.dataset.clone(),
        prev_window_us,
        window_us,
        start,
        length,
        capacity: next.capacity,
        observed: next.observed,
        min_count: next.min_count,
        error_bound: next.error_bound,
        evictions: next.evictions,
        kept: next.kept,
        dropped: next.dropped,
        filtered: next.filtered,
        changed,
        removed,
    }
}

/// Encode into `out` the delta body `diff_states(prev_window_us, prev,
/// window_us, start, length, next).encode(out)` writes, straight from the
/// borrowed entries: no changed entry is cloned. With `stripped`, the
/// body is the delta between the feature-stripped views of both states
/// (what the same chain over [`strip_features`] of each writes), and
/// neither view is built.
#[allow(clippy::too_many_arguments)]
pub(crate) fn encode_diff(
    prev_window_us: u64,
    prev: &TopKState,
    window_us: u64,
    start: f64,
    length: f64,
    next: &TopKState,
    stripped: bool,
    out: &mut Vec<u8>,
) {
    // Stripped entries all carry the same empty features, so they differ
    // exactly when their counter pairs do.
    let same = |p: &TopKEntry, n: &TopKEntry| match stripped {
        true => p.count == n.count && p.error == n.error && p.inserted_at == n.inserted_at,
        false => p == n,
    };
    let mut changed = Vec::new();
    let mut removed = Vec::new();
    let mut prev_entries = prev.entries.iter().peekable();
    for n in &next.entries {
        while let Some(p) = prev_entries.next_if(|p| p.key < n.key) {
            removed.push(p.key.as_str());
        }
        match prev_entries.next_if(|p| p.key == n.key) {
            Some(p) if same(p, n) => {}
            _ => changed.push(n),
        }
    }
    removed.extend(prev_entries.map(|p| p.key.as_str()));
    let head = DeltaHead {
        dataset: &next.dataset,
        prev_window_us,
        window_us,
        start,
        length,
        counters: [
            next.capacity,
            next.observed,
            next.min_count,
            next.error_bound,
            next.evictions,
            next.kept,
            next.dropped,
            next.filtered,
        ],
    };
    let entry = match stripped {
        true => encode_stripped_entry,
        false => TopKEntry::encode,
    };
    head.encode(&changed, entry, &removed, out);
}

/// Apply a delta to its basis window, reproducing the next window's
/// canonical state exactly. Strict about desync: a removed key the basis
/// does not hold, or a dataset mismatch, is an error — the subscriber
/// treats it as a protocol violation rather than guessing.
pub fn apply_delta(prev: &TopKState, d: &WindowDelta) -> Result<TopKState, &'static str> {
    if prev.dataset != d.dataset {
        return Err("delta dataset mismatch");
    }
    let mut entries: BTreeMap<&str, &TopKEntry> =
        prev.entries.iter().map(|e| (e.key.as_str(), e)).collect();
    for k in &d.removed {
        if entries.remove(k.as_str()).is_none() {
            return Err(REMOVES_UNHELD);
        }
    }
    for e in &d.changed {
        entries.insert(e.key.as_str(), e);
    }
    Ok(TopKState {
        dataset: d.dataset.clone(),
        capacity: d.capacity,
        observed: d.observed,
        min_count: d.min_count,
        error_bound: d.error_bound,
        evictions: d.evictions,
        kept: d.kept,
        dropped: d.dropped,
        filtered: d.filtered,
        chunk: 0,
        chunks: 1,
        entries: entries.into_values().cloned().collect(),
        gate: None,
    })
}

const REMOVES_UNHELD: &str = "delta removes a key the basis does not hold";

/// Whether the basis, the changed and the removed keys are each strictly
/// ascending — true of every decoded delta and every canonical basis —
/// so one forward walk over each applies the delta.
fn walkable(prev: &TopKState, d: &WindowDelta) -> bool {
    strictly_ascending(prev.entries.iter().map(|e| e.key.as_str()))
        && strictly_ascending(d.changed.iter().map(|e| e.key.as_str()))
        && strictly_ascending(d.removed.iter().map(String::as_str))
}

/// [`apply_delta`] by move: one sorted merge walk moves the basis's
/// entries and the delta's changed entries into the result, and clones
/// nothing. Same result and same rejections as [`apply_delta`] on every
/// input; a rejected delta hands the basis back, untouched, with the
/// error. An input whose key lists are not all strictly ascending is
/// handed to [`apply_delta`] itself.
// The error carries the basis back: no larger than the state `Ok` holds.
#[allow(clippy::result_large_err)]
pub fn apply_delta_owned(
    prev: TopKState,
    d: WindowDelta,
) -> Result<TopKState, (TopKState, &'static str)> {
    if !walkable(&prev, &d) {
        return apply_delta(&prev, &d).map_err(|e| (prev, e));
    }
    if prev.dataset != d.dataset {
        return Err((prev, "delta dataset mismatch"));
    }
    // Both lists ascend, so one forward scan finds every removed key.
    let mut held = prev.entries.iter().map(|e| e.key.as_str());
    if !d.removed.iter().all(|k| held.any(|h| h == k)) {
        return Err((prev, REMOVES_UNHELD));
    }
    // A key both removed and changed leaves the basis here and comes back
    // from `changed` before the next basis key, as in `apply_delta`.
    let mut entries = Vec::with_capacity(prev.entries.len() + d.changed.len());
    let mut changed = d.changed.into_iter().peekable();
    let mut removed = d.removed.iter().peekable();
    for e in prev.entries {
        while let Some(c) = changed.next_if(|c| c.key < e.key) {
            entries.push(c);
        }
        if removed.next_if(|k| **k == e.key).is_some() {
            continue;
        }
        entries.push(changed.next_if(|c| c.key == e.key).unwrap_or(e));
    }
    entries.extend(changed);
    Ok(TopKState {
        dataset: d.dataset,
        capacity: d.capacity,
        observed: d.observed,
        min_count: d.min_count,
        error_bound: d.error_bound,
        evictions: d.evictions,
        kept: d.kept,
        dropped: d.dropped,
        filtered: d.filtered,
        chunk: 0,
        chunks: 1,
        entries,
        gate: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features(hits: u64) -> FeatureState {
        FeatureState {
            adds: vec![hits],
            maxes: Vec::new(),
            hlls: Vec::new(),
            source_cap: 4,
            sources: vec![1],
            tops: Vec::new(),
            hists: Vec::new(),
        }
    }

    fn entry(key: &str, count: u64, hits: u64) -> TopKEntry {
        TopKEntry {
            key: key.to_string(),
            count,
            error: 0,
            inserted_at: 0.0,
            features: features(hits),
        }
    }

    fn state(entries: Vec<TopKEntry>, observed: u64) -> TopKState {
        canonicalize(TopKState {
            dataset: "esld".to_string(),
            capacity: 8,
            observed,
            min_count: 0,
            error_bound: observed / 8,
            evictions: 0,
            kept: observed,
            dropped: 0,
            filtered: 0,
            chunk: 0,
            chunks: 1,
            entries,
            gate: None,
        })
    }

    #[test]
    fn diff_apply_roundtrips() {
        let prev = state(
            vec![entry("a", 5, 5), entry("b", 3, 3), entry("c", 2, 2)],
            10,
        );
        // b changed count, c unchanged bytes (stays out of the delta),
        // d is new, a left.
        let next = state(
            vec![entry("b", 7, 4), entry("c", 2, 2), entry("d", 4, 4)],
            17,
        );
        let d = diff_states(600_000_000, &prev, 1_200_000_000, 1200.0, 600.0, &next);
        assert_eq!(d.removed, vec!["a".to_string()]);
        assert_eq!(
            d.changed.iter().map(|e| e.key.as_str()).collect::<Vec<_>>(),
            vec!["b", "d"],
            "unchanged entries stay out of the delta"
        );
        assert_eq!(apply_delta(&prev, &d).unwrap(), next);
    }

    #[test]
    fn unchanged_window_yields_empty_delta() {
        let prev = state(vec![entry("a", 5, 5)], 5);
        let d = diff_states(0, &prev, 600_000_000, 600.0, 600.0, &prev);
        assert!(d.changed.is_empty() && d.removed.is_empty());
        assert_eq!(apply_delta(&prev, &d).unwrap(), prev);
    }

    #[test]
    fn apply_rejects_desync() {
        let prev = state(vec![entry("a", 5, 5)], 5);
        let next = state(vec![entry("b", 1, 1)], 6);
        let mut d = diff_states(0, &prev, 600_000_000, 600.0, 600.0, &next);
        d.removed = vec!["zz".to_string()];
        assert!(apply_delta(&prev, &d).is_err());
    }

    #[test]
    fn delta_codec_roundtrips_and_validates() {
        let prev = state(vec![entry("a", 5, 5), entry("b", 3, 3)], 8);
        let next = state(vec![entry("b", 9, 6)], 14);
        let d = diff_states(0, &prev, 600_000_000, 600.0, 600.0, &next);
        let mut buf = Vec::new();
        d.encode(&mut buf);
        let mut r = ByteReader::new(&buf);
        let back = WindowDelta::decode(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(back, d);

        // Overlapping changed/removed keys must be rejected.
        let mut bad = d.clone();
        bad.removed = vec!["b".to_string()];
        let mut buf = Vec::new();
        bad.encode(&mut buf);
        assert!(matches!(
            WindowDelta::decode(&mut ByteReader::new(&buf)),
            Err(FeedError::Invalid("delta changed/removed overlap"))
        ));
    }

    #[test]
    fn strip_features_keeps_counters() {
        let s = state(vec![entry("a", 5, 5)], 5);
        let t = strip_features(&s);
        assert_eq!(t.entries[0].count, 5);
        assert!(t.entries[0].features.adds.is_empty());
        assert_eq!(t.observed, s.observed);
    }

    #[test]
    fn canonicalize_sorts_and_strips_gate() {
        let mut s = state(vec![entry("b", 2, 2), entry("a", 3, 3)], 5);
        s.chunk = 0;
        s.chunks = 1;
        let c = canonicalize(s);
        assert_eq!(c.entries[0].key, "a");
        assert!(c.gate.is_none());
    }

    #[test]
    fn window_ids_are_exact_for_aligned_starts() {
        assert_eq!(window_id_us(0.0), 0);
        assert_eq!(window_id_us(600.0), 600_000_000);
        assert_eq!(window_id_us(86_400.0 * 365.0), 31_536_000_000_000);
    }
}
