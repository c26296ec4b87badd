//! Merge laws over serialized sketch state.
//!
//! Everything here is associative and commutative — the property the
//! serialized-layer proptests pin — so an aggregation tree produces the
//! same global state no matter how streams arrive or how the tree is
//! shaped. Three ingredients make that work:
//!
//! * integer arithmetic only (saturating adds, maxes, mins) — no
//!   floating-point accumulation on the wire;
//! * merges never truncate (top-value tables and contributor sets may
//!   exceed their nominal capacity; capacity is re-applied on render);
//! * the Space-Saving law: a key absent from input `x` has true count
//!   `≤ min_count(x)`, so the merged count and error both gain
//!   `min_count(x)`, and the merged `min_count` is the sum of the
//!   inputs' — which keeps the law self-similar under further merges.
//!
//! The bound bookkeeping that falls out: every merged entry satisfies
//! `count − error ≤ true ≤ count` and `error ≤ error_bound`, where the
//! merged `error_bound` is exactly the sum of the per-input bounds — the
//! *stated* error the aggregator emits and the chaos oracle asserts.

use std::borrow::Borrow;
use std::collections::BTreeMap;

use crate::state::{FeatureState, HistogramState, StateError, TopKEntry, TopKState};

fn check_features(a: &FeatureState, b: &FeatureState) -> Result<(), StateError> {
    if a.adds.len() != b.adds.len() {
        return Err(StateError::LayoutMismatch("counter count"));
    }
    if a.maxes.len() != b.maxes.len() {
        return Err(StateError::LayoutMismatch("max count"));
    }
    if a.hlls.len() != b.hlls.len() {
        return Err(StateError::LayoutMismatch("hll count"));
    }
    if a.hlls.iter().zip(&b.hlls).any(|(x, y)| x.p != y.p) {
        return Err(StateError::LayoutMismatch("hll precision"));
    }
    if a.source_cap != b.source_cap {
        return Err(StateError::LayoutMismatch("source cap"));
    }
    if a.tops.len() != b.tops.len() {
        return Err(StateError::LayoutMismatch("topvalues count"));
    }
    if a.tops
        .iter()
        .zip(&b.tops)
        .any(|(x, y)| x.capacity != y.capacity)
    {
        return Err(StateError::LayoutMismatch("topvalues capacity"));
    }
    if a.hists.len() != b.hists.len() {
        return Err(StateError::LayoutMismatch("histogram count"));
    }
    if a.hists.iter().zip(&b.hists).any(|(x, y)| {
        x.min.to_bits() != y.min.to_bits()
            || x.base.to_bits() != y.base.to_bits()
            || x.counts.len() != y.counts.len()
    }) {
        return Err(StateError::LayoutMismatch("histogram layout"));
    }
    Ok(())
}

fn merge_sorted_u16(a: &[u16], b: &[u16]) -> Vec<u16> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

fn merge_histogram_into(a: &mut HistogramState, b: &HistogramState) {
    for (x, &y) in a.counts.iter_mut().zip(&b.counts) {
        *x = x.saturating_add(y);
    }
    // Canonical empty bounds (+∞/−∞) are the identity of min/max, so
    // empty inputs merge transparently.
    a.observed_min = a.observed_min.min(b.observed_min);
    a.observed_max = a.observed_max.max(b.observed_max);
}

/// Merge two feature accumulator states of identical shape.
pub fn merge_features(a: &FeatureState, b: &FeatureState) -> Result<FeatureState, StateError> {
    let mut merged = a.clone();
    merge_features_into(&mut merged, b)?;
    Ok(merged)
}

/// [`merge_features`] in place: `b` merges into `a`, which a shape
/// mismatch leaves untouched.
fn merge_features_into(a: &mut FeatureState, b: &FeatureState) -> Result<(), StateError> {
    check_features(a, b)?;
    for (x, &y) in a.adds.iter_mut().zip(&b.adds) {
        *x = x.saturating_add(y);
    }
    for (x, &y) in a.maxes.iter_mut().zip(&b.maxes) {
        *x = (*x).max(y);
    }
    for (x, y) in a.hlls.iter_mut().zip(&b.hlls) {
        sketches::HyperLogLog::merge_into(&mut x.registers, &y.registers);
    }
    a.sources = merge_sorted_u16(&a.sources, &b.sources);
    for (x, y) in a.tops.iter_mut().zip(&b.tops) {
        let mut by_value: BTreeMap<u64, u64> = BTreeMap::new();
        for &(v, c) in x.slots.iter().chain(&y.slots) {
            let slot = by_value.entry(v).or_insert(0);
            *slot = slot.saturating_add(c);
        }
        x.observed = x.observed.saturating_add(y.observed);
        // Canonical value-ascending order keeps merges comparable
        // regardless of input slot order.
        x.slots = by_value.into_iter().collect();
    }
    for (x, y) in a.hists.iter_mut().zip(&b.hists) {
        merge_histogram_into(x, y);
    }
    Ok(())
}

/// Merge two assembled tracker states from *different* sources (the
/// cross-collector Space-Saving merge law). Inputs must be whole windows
/// (`chunks == 1`); chunks of one source reassemble with
/// [`merge_chunks`] first — the absent-key adjustment would be wrong
/// within a single source. Copies both inputs; a caller that owns them
/// merges with [`merge_topk_into`].
pub fn merge_topk(a: &TopKState, b: &TopKState) -> Result<TopKState, StateError> {
    let mut merged = a.clone();
    merge_topk_into(&mut merged, b.clone())?;
    Ok(merged)
}

/// [`merge_topk`] by move: `b` merges into `a` in one walk over the
/// key-ascending entries — a key both sides track merges its features
/// into `a`'s, every one-sided entry moves — so nothing is cloned. A
/// conflict leaves `a` as it was, apart from its entries now being in
/// key order. A key repeated within one input (no decoded state has one)
/// is a conflict.
pub fn merge_topk_into(a: &mut TopKState, mut b: TopKState) -> Result<(), StateError> {
    if a.dataset != b.dataset {
        return Err(StateError::DatasetMismatch);
    }
    if a.chunks != 1 || b.chunks != 1 {
        return Err(StateError::ChunkMismatch("merging unassembled chunk"));
    }
    sort_by_key(&mut a.entries)?;
    sort_by_key(&mut b.entries)?;
    // Every shape conflict surfaces before anything moves, in key order.
    let mut others = b.entries.iter().peekable();
    for x in &a.entries {
        while others.next_if(|y| y.key < x.key).is_some() {}
        if let Some(y) = others.next_if(|y| y.key == x.key) {
            check_features(&x.features, &y.features)?;
        }
    }
    let (a_min, b_min) = (a.min_count, b.min_count);
    // A key one side never tracked has a true count of at most that
    // side's min_count — add it to both the count (the upper bound stays
    // an upper bound) and the error (the lower bound concedes it may be
    // zero).
    let absent_from = |mut e: TopKEntry, min: u64| {
        e.count = e.count.saturating_add(min);
        e.error = e.error.saturating_add(min);
        e
    };
    let mut entries = Vec::with_capacity(a.entries.len() + b.entries.len());
    let mut others = b.entries.into_iter().peekable();
    for mut x in std::mem::take(&mut a.entries) {
        while let Some(y) = others.next_if(|y| y.key < x.key) {
            entries.push(absent_from(y, a_min));
        }
        match others.next_if(|y| y.key == x.key) {
            Some(y) => {
                x.count = x.count.saturating_add(y.count);
                x.error = x.error.saturating_add(y.error);
                x.inserted_at = x.inserted_at.min(y.inserted_at);
                merge_features_into(&mut x.features, &y.features).expect("shapes checked");
                entries.push(x);
            }
            None => entries.push(absent_from(x, b_min)),
        }
    }
    entries.extend(others.map(|y| absent_from(y, a_min)));
    a.capacity = a.capacity.min(b.capacity);
    a.observed = a.observed.saturating_add(b.observed);
    a.min_count = a_min.saturating_add(b_min);
    a.error_bound = a.error_bound.saturating_add(b.error_bound);
    a.evictions = a.evictions.saturating_add(b.evictions);
    a.kept = a.kept.saturating_add(b.kept);
    a.dropped = a.dropped.saturating_add(b.dropped);
    a.filtered = a.filtered.saturating_add(b.filtered);
    a.chunk = 0;
    a.chunks = 1;
    a.entries = entries;
    // A merge output is an aggregate of two trackers, not a live
    // tracker: no single gate describes it, so it carries none.
    a.gate = None;
    Ok(())
}

/// Put `entries` in key order for the merge walk (one pass when they
/// already are, as merge outputs and reassembled chunks are).
fn sort_by_key(entries: &mut [TopKEntry]) -> Result<(), StateError> {
    entries.sort_by(|x, y| x.key.cmp(&y.key));
    if entries.windows(2).any(|w| w[0].key == w[1].key) {
        return Err(StateError::ChunkMismatch("repeated key"));
    }
    Ok(())
}

/// Reassemble the surviving chunks of *one* source window into a whole
/// tracker state. Chunks repeat the source header, so any subset (chunk
/// loss under faults) still reassembles; the per-source `min_count` law
/// stays valid for the keys that survived. Headers must agree and keys
/// must be disjoint — anything else is a [`StateError::ChunkMismatch`].
///
/// Takes the chunks by reference (`&[TopKState]` or `&[&TopKState]`) and
/// clones their entries.
pub fn merge_chunks<P: Borrow<TopKState>>(parts: &[P]) -> Result<TopKState, StateError> {
    let first = check_chunks(parts)?;
    let n = parts.iter().map(|p| p.borrow().entries.len()).sum();
    let mut entries = Vec::with_capacity(n);
    for p in parts {
        entries.extend(p.borrow().entries.iter().cloned());
    }
    join_chunks(first.header(), entries)
}

/// [`merge_chunks`] by move: the chunks' entries move into the whole
/// state, and nothing is cloned.
pub fn assemble_chunks(mut parts: Vec<TopKState>) -> Result<TopKState, StateError> {
    let head = check_chunks(&parts)?.header();
    let mut entries = std::mem::take(&mut parts[0].entries);
    for p in &mut parts[1..] {
        entries.append(&mut p.entries);
    }
    join_chunks(head, entries)
}

/// The checks of [`merge_chunks`]; returns the first chunk, whose header
/// every other chunk repeats.
fn check_chunks<P: Borrow<TopKState>>(parts: &[P]) -> Result<&TopKState, StateError> {
    let first = parts
        .first()
        .ok_or(StateError::ChunkMismatch("no chunks"))?
        .borrow();
    let mut seen = std::collections::BTreeSet::new();
    for p in parts {
        let p = p.borrow();
        if p.dataset != first.dataset {
            return Err(StateError::DatasetMismatch);
        }
        if p.chunks != first.chunks || p.chunk >= p.chunks {
            return Err(StateError::ChunkMismatch("chunk count disagreement"));
        }
        if !seen.insert(p.chunk) {
            return Err(StateError::ChunkMismatch("duplicate chunk"));
        }
        if p.capacity != first.capacity
            || p.observed != first.observed
            || p.min_count != first.min_count
            || p.error_bound != first.error_bound
            || p.evictions != first.evictions
            || p.kept != first.kept
            || p.dropped != first.dropped
            || p.filtered != first.filtered
            || p.gate != first.gate
        {
            return Err(StateError::ChunkMismatch("header disagreement"));
        }
    }
    // A split state is only whole once every declared chunk is present;
    // merging fewer would silently under-count the tracker.
    if parts.len() as u32 != first.chunks {
        return Err(StateError::ChunkMismatch("missing chunks"));
    }
    Ok(first)
}

/// The whole state from the chunks' shared header and all their entries.
fn join_chunks(mut head: TopKState, mut entries: Vec<TopKEntry>) -> Result<TopKState, StateError> {
    entries.sort_by(|a, b| a.key.cmp(&b.key));
    if entries.windows(2).any(|w| w[0].key == w[1].key) {
        return Err(StateError::ChunkMismatch("overlapping chunk keys"));
    }
    head.chunk = 0;
    head.chunks = 1;
    head.entries = entries;
    Ok(head)
}
