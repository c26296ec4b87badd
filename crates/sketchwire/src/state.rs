//! Serializable per-window sketch state.
//!
//! Every type here is a plain-data mirror of a live sketch: HLL register
//! arrays, Space-Saving counters with their error terms, feature
//! accumulator internals. The encoding is the same discipline as the feed
//! codec — little-endian fixed-width integers, LEB128 varints for counts,
//! IEEE-bits `f64` — and every decode path validates structure so hostile
//! bytes produce a typed [`FeedError`], never a panic or an unbounded
//! allocation.
//!
//! Decode-time validation is deliberately strict about *invariants* a
//! well-formed exporter upholds (Space-Saving `error ≤ count`,
//! `min_count ≤ error_bound`, strictly ascending source lists, canonical
//! empty-histogram bounds): a record that violates them cannot have come
//! from a correct exporter or merge, and rejecting it early keeps the
//! aggregation tier's stated error bounds trustworthy.

use feed::codec::write_varint;
use feed::{ByteReader, FeedError, FeedItem, MergeOrder};
use std::sync::Arc;

/// Longest accepted rendered key (dataset keys are names/addresses — a
/// DNS name caps at 253 octets; 4 KiB leaves room for future key kinds).
const MAX_KEY_BYTES: usize = 4096;
/// Longest accepted dataset name.
const MAX_DATASET_BYTES: usize = 256;
/// Widest accepted histogram layout.
const MAX_HIST_BUCKETS: usize = 4096;
/// Most per-feature sub-sketches of one kind (HLLs, top-value tables,
/// histograms) a record may carry.
const MAX_SKETCHES: usize = 64;
/// Widest accepted admission-gate bloom filter (bits). The pipeline
/// sizes gates at `4·k` expected items, so even a million-key tracker
/// stays orders of magnitude under this.
const MAX_GATE_BITS: u64 = 1 << 27;

fn write_f64(v: f64, out: &mut Vec<u8>) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn write_string(s: &str, out: &mut Vec<u8>) {
    write_varint(s.len() as u64, out);
    out.extend_from_slice(s.as_bytes());
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

/// One HyperLogLog's serialized registers.
#[derive(Debug, Clone, PartialEq)]
pub struct HllState {
    /// Precision (4..=16): the sketch has `2^p` one-byte registers.
    pub p: u8,
    /// The register array, length `2^p`, each value `≤ 65 - p`.
    pub registers: Vec<u8>,
}

impl HllState {
    /// Capture a live sketch.
    pub fn from_sketch(h: &sketches::HyperLogLog) -> HllState {
        HllState {
            p: h.precision(),
            registers: h.registers().to_vec(),
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.p);
        out.extend_from_slice(&self.registers);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<HllState, FeedError> {
        let p = r.u8("hll precision")?;
        if !(4..=16).contains(&p) {
            return Err(FeedError::Invalid("hll precision out of range"));
        }
        let registers = r.bytes(1usize << p, "hll registers")?.to_vec();
        if registers.iter().any(|&reg| reg > 65 - p) {
            return Err(FeedError::Invalid("hll register exceeds rank range"));
        }
        Ok(HllState { p, registers })
    }
}

/// One exact bounded value-count table ([`sketches::TopValues`]).
///
/// A merged state may carry more than `capacity` slots — merging never
/// truncates (truncation would break associativity); the capacity is
/// re-applied when the state is rendered back into a live tracker.
#[derive(Debug, Clone, PartialEq)]
pub struct TopValuesState {
    /// Slot capacity of the originating tracker.
    pub capacity: u64,
    /// Total occurrences recorded, evicted ones included.
    pub observed: u64,
    /// `(value, count)` pairs with distinct values.
    pub slots: Vec<(u64, u64)>,
}

impl TopValuesState {
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(self.capacity, out);
        write_varint(self.observed, out);
        write_varint(self.slots.len() as u64, out);
        for &(v, c) in &self.slots {
            write_varint(v, out);
            write_varint(c, out);
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<TopValuesState, FeedError> {
        let capacity = r.varint()?;
        if capacity == 0 {
            return Err(FeedError::Invalid("topvalues capacity zero"));
        }
        let observed = r.varint()?;
        let n = r.count(2, "topvalues slots")?;
        let mut slots = Vec::with_capacity(n);
        let mut sum = 0u64;
        for _ in 0..n {
            let v = r.varint()?;
            let c = r.varint()?;
            sum = sum
                .checked_add(c)
                .ok_or(FeedError::Invalid("topvalues count overflow"))?;
            slots.push((v, c));
        }
        if sum > observed {
            return Err(FeedError::Invalid("topvalues counts exceed observed"));
        }
        let mut values: Vec<u64> = slots.iter().map(|&(v, _)| v).collect();
        values.sort_unstable();
        if values.windows(2).any(|w| w[0] == w[1]) {
            return Err(FeedError::Invalid("duplicate topvalues value"));
        }
        Ok(TopValuesState {
            capacity,
            observed,
            slots,
        })
    }
}

/// One log-bucketed histogram's counts plus its layout and observed range.
///
/// The running sum behind `LogHistogram::mean` is deliberately *not* on
/// the wire: floating-point summation is not associative, and carrying it
/// would break the merge-associativity law this tier is built on. The
/// rendered view only needs quantiles, which are exact from the counts
/// and the (min/max-mergeable) observed range.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramState {
    /// Layout: inclusive lower edge of bucket 0.
    pub min: f64,
    /// Layout: per-bucket growth factor.
    pub base: f64,
    /// Per-bucket counts (the layout length is `counts.len()`).
    pub counts: Vec<u64>,
    /// Smallest recorded value; `+∞` when empty (canonical).
    pub observed_min: f64,
    /// Largest recorded value; `-∞` when empty (canonical).
    pub observed_max: f64,
}

impl HistogramState {
    /// Capture a live histogram.
    pub fn from_sketch(h: &sketches::LogHistogram) -> HistogramState {
        let b = h.buckets();
        HistogramState {
            min: b.min(),
            base: b.base(),
            counts: h.counts().to_vec(),
            observed_min: h.min_value().unwrap_or(f64::INFINITY),
            observed_max: h.max_value().unwrap_or(f64::NEG_INFINITY),
        }
    }

    /// Total recorded observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    fn encode(&self, out: &mut Vec<u8>) {
        write_f64(self.min, out);
        write_f64(self.base, out);
        write_varint(self.counts.len() as u64, out);
        for &c in &self.counts {
            write_varint(c, out);
        }
        write_f64(self.observed_min, out);
        write_f64(self.observed_max, out);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<HistogramState, FeedError> {
        let min = r.f64("histogram min")?;
        if !(min.is_finite() && min > 0.0) {
            return Err(FeedError::Invalid("histogram layout min"));
        }
        let base = r.f64("histogram base")?;
        if !(base.is_finite() && base > 1.0) {
            return Err(FeedError::Invalid("histogram layout base"));
        }
        let n = r.count(1, "histogram buckets")?;
        if n == 0 || n > MAX_HIST_BUCKETS {
            return Err(FeedError::Invalid("histogram bucket count"));
        }
        let mut counts = Vec::with_capacity(n);
        let mut total = 0u64;
        for _ in 0..n {
            let c = r.varint()?;
            total = total
                .checked_add(c)
                .ok_or(FeedError::Invalid("histogram total overflow"))?;
            counts.push(c);
        }
        let observed_min = r.f64("histogram observed min")?;
        let observed_max = r.f64("histogram observed max")?;
        if total == 0 {
            if observed_min != f64::INFINITY || observed_max != f64::NEG_INFINITY {
                return Err(FeedError::Invalid("empty histogram bounds"));
            }
        } else if !(observed_min.is_finite()
            && observed_max.is_finite()
            && observed_min <= observed_max)
        {
            return Err(FeedError::Invalid("histogram bounds"));
        }
        Ok(HistogramState {
            min,
            base,
            counts,
            observed_min,
            observed_max,
        })
    }
}

/// One feature accumulator's serialized internals.
///
/// The layout is positional and owned by the producer (`core` maps its
/// `FeatureSet` fields to fixed indices); this crate only guarantees the
/// merge semantics per group: `adds` sum, `maxes` take the maximum,
/// `hlls` merge register-wise, `sources` union (a strictly ascending set
/// of contributor ids), `tops` union-sum, `hists` add counts and widen
/// the observed range. Two states merge only if their shapes agree.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureState {
    /// Additive counters (hit/response-class counts, integer sums).
    pub adds: Vec<u64>,
    /// Max-merged watermarks.
    pub maxes: Vec<u64>,
    /// Cardinality sketches.
    pub hlls: Vec<HllState>,
    /// Capacity of the contributor set in the originating accumulator.
    pub source_cap: u64,
    /// Distinct contributor ids, strictly ascending. A merged state may
    /// exceed `source_cap`; the cap is re-applied on render.
    pub sources: Vec<u16>,
    /// Exact bounded value-count tables.
    pub tops: Vec<TopValuesState>,
    /// Log-bucketed histograms.
    pub hists: Vec<HistogramState>,
}

impl FeatureState {
    /// Encode into `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        write_varint(self.adds.len() as u64, out);
        for &v in &self.adds {
            write_varint(v, out);
        }
        write_varint(self.maxes.len() as u64, out);
        for &v in &self.maxes {
            write_varint(v, out);
        }
        write_varint(self.hlls.len() as u64, out);
        for h in &self.hlls {
            h.encode(out);
        }
        write_varint(self.source_cap, out);
        write_varint(self.sources.len() as u64, out);
        for &s in &self.sources {
            out.extend_from_slice(&s.to_le_bytes());
        }
        write_varint(self.tops.len() as u64, out);
        for t in &self.tops {
            t.encode(out);
        }
        write_varint(self.hists.len() as u64, out);
        for h in &self.hists {
            h.encode(out);
        }
    }

    /// Decode and validate one feature state.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<FeatureState, FeedError> {
        let n_adds = r.count(1, "feature counters")?;
        if n_adds > MAX_SKETCHES {
            return Err(FeedError::Invalid("too many feature counters"));
        }
        let mut adds = Vec::with_capacity(n_adds);
        for _ in 0..n_adds {
            adds.push(r.varint()?);
        }
        let n_maxes = r.count(1, "feature maxes")?;
        if n_maxes > MAX_SKETCHES {
            return Err(FeedError::Invalid("too many feature maxes"));
        }
        let mut maxes = Vec::with_capacity(n_maxes);
        for _ in 0..n_maxes {
            maxes.push(r.varint()?);
        }
        let n_hlls = r.count(17, "feature hlls")?;
        if n_hlls > MAX_SKETCHES {
            return Err(FeedError::Invalid("too many feature hlls"));
        }
        let mut hlls = Vec::with_capacity(n_hlls);
        for _ in 0..n_hlls {
            hlls.push(HllState::decode(r)?);
        }
        let source_cap = r.varint()?;
        if source_cap == 0 {
            return Err(FeedError::Invalid("feature source cap zero"));
        }
        let n_sources = r.count(2, "feature sources")?;
        let mut sources = Vec::with_capacity(n_sources);
        for _ in 0..n_sources {
            sources.push(r.u16("feature source")?);
        }
        if sources.windows(2).any(|w| w[0] >= w[1]) {
            return Err(FeedError::Invalid("feature sources not ascending"));
        }
        let n_tops = r.count(3, "feature tops")?;
        if n_tops > MAX_SKETCHES {
            return Err(FeedError::Invalid("too many feature tops"));
        }
        let mut tops = Vec::with_capacity(n_tops);
        for _ in 0..n_tops {
            tops.push(TopValuesState::decode(r)?);
        }
        let n_hists = r.count(18, "feature hists")?;
        if n_hists > MAX_SKETCHES {
            return Err(FeedError::Invalid("too many feature hists"));
        }
        let mut hists = Vec::with_capacity(n_hists);
        for _ in 0..n_hists {
            hists.push(HistogramState::decode(r)?);
        }
        Ok(FeatureState {
            adds,
            maxes,
            hlls,
            source_cap,
            sources,
            tops,
            hists,
        })
    }
}

/// One tracked key inside a [`TopKState`]: the Space-Saving counter pair
/// plus the key's feature accumulator.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKEntry {
    /// Rendered key (the canonical cross-collector identity).
    pub key: String,
    /// Space-Saving count: an upper bound on the key's true count.
    pub count: u64,
    /// Space-Saving error: `count - error` lower-bounds the true count.
    pub error: u64,
    /// Virtual time the key (re-)entered the tracker — min-merged, and
    /// used by the residency rule when rendering a window.
    pub inserted_at: f64,
    /// The key's per-window feature accumulator state.
    pub features: FeatureState,
}

impl TopKEntry {
    /// Encode into `out` (public so the pub/sub delta codec can frame
    /// individual entries without re-stating the layout).
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.encode_counters(out);
        self.features.encode(out);
    }

    /// Encode everything but the feature accumulator, which the caller
    /// writes next (the pub/sub tier's feature-stripped view writes an
    /// empty one without building it per entry).
    pub fn encode_counters(&self, out: &mut Vec<u8>) {
        write_string(&self.key, out);
        write_varint(self.count, out);
        write_varint(self.error, out);
        write_f64(self.inserted_at, out);
    }

    /// Decode and validate one entry.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<TopKEntry, FeedError> {
        let key = read_string(r, MAX_KEY_BYTES, "topk key")?;
        let count = r.varint()?;
        let error = r.varint()?;
        if error > count {
            return Err(FeedError::Invalid("entry error exceeds count"));
        }
        let inserted_at = r.f64("entry inserted_at")?;
        if !(inserted_at.is_finite() && inserted_at >= 0.0) {
            return Err(FeedError::Invalid("entry inserted_at out of range"));
        }
        let features = FeatureState::decode(r)?;
        Ok(TopKEntry {
            key,
            count,
            error,
            inserted_at,
            features,
        })
    }
}

/// The Space-Saving admission-gate bloom filter, serialized bit-exact.
///
/// The gate decides whether an unmonitored key may displace a monitored
/// one, so it is live tracker state: a resumed `--store DIR` run that
/// rebuilt the gate empty would admit keys the original would have
/// filtered, and its exports would diverge from an uncrashed run's.
/// Hashing is deterministic (fixed xxh64 seeds), so carrying the raw
/// words reproduces every future gate answer exactly. Merged states
/// (cross-collector) drop the gate — a merge output is an aggregate,
/// not a resumable live tracker.
#[derive(Debug, Clone, PartialEq)]
pub struct GateState {
    /// Bit-array width of the originating filter.
    pub num_bits: u64,
    /// Hash function count.
    pub num_hashes: u32,
    /// Items inserted since the last gate rotation.
    pub inserted: u64,
    /// The bit array, one little-endian word per 64 bits; exactly
    /// `ceil(num_bits / 64)` words, unused tail bits zero.
    pub words: Vec<u64>,
}

impl GateState {
    /// Capture a live filter.
    pub fn from_filter(f: &sketches::BloomFilter) -> GateState {
        GateState {
            num_bits: f.num_bits() as u64,
            num_hashes: f.num_hashes(),
            inserted: f.inserted(),
            words: f.words().to_vec(),
        }
    }

    /// Rebuild a live filter (state is pre-validated by `decode`).
    pub fn to_filter(&self) -> Option<sketches::BloomFilter> {
        sketches::BloomFilter::from_parts(
            self.words.clone(),
            self.num_bits as usize,
            self.num_hashes,
            self.inserted,
        )
    }

    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(self.num_bits, out);
        write_varint(self.num_hashes as u64, out);
        write_varint(self.inserted, out);
        for &w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<GateState, FeedError> {
        let num_bits = r.varint()?;
        if num_bits == 0 || num_bits > MAX_GATE_BITS {
            return Err(FeedError::Invalid("gate bit count out of range"));
        }
        let num_hashes = r.varint()?;
        if num_hashes == 0 || num_hashes > 64 {
            return Err(FeedError::Invalid("gate hash count out of range"));
        }
        let inserted = r.varint()?;
        let n_words = (num_bits as usize).div_ceil(64);
        let bytes = r.bytes(n_words * 8, "gate words")?;
        let words: Vec<u64> = bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
            .collect();
        // A real filter never sets a bit at index ≥ num_bits; a set tail
        // bit is corruption, and rejecting it keeps decode canonical.
        let tail = num_bits % 64;
        if tail != 0 {
            let last = words.last().copied().unwrap_or(0);
            if last >> tail != 0 {
                return Err(FeedError::Invalid("gate tail bits set"));
            }
        }
        Ok(GateState {
            num_bits,
            num_hashes: num_hashes as u32,
            inserted,
            words,
        })
    }
}

/// One dataset's Space-Saving tracker state for one window, possibly one
/// chunk of it (large trackers are split so every frame stays under the
/// transport's frame cap; chunks of one source reassemble losslessly).
#[derive(Debug, Clone, PartialEq)]
pub struct TopKState {
    /// Dataset name (`srvip`, `esld`, …).
    pub dataset: String,
    /// Tracker capacity `k`.
    pub capacity: u64,
    /// Total observations folded into the tracker.
    pub observed: u64,
    /// Tracker `min_count`: upper bound on the true count of any key
    /// *absent* from the tracker. Merges add (each input bounds its own
    /// unseen keys independently).
    pub min_count: u64,
    /// Stated error bound: `observed / capacity` at export; merges add,
    /// so a merged state's bound is the sum of its inputs' bounds — the
    /// law the chaos oracle asserts.
    pub error_bound: u64,
    /// Keys evicted from the tracker so far.
    pub evictions: u64,
    /// Transactions folded into tracked keys this window.
    pub kept: u64,
    /// Transactions dropped by eviction churn this window.
    pub dropped: u64,
    /// Transactions skipped by the admission gate this window.
    pub filtered: u64,
    /// Chunk index within `chunks` (0-based).
    pub chunk: u32,
    /// Total chunks this source window was split into (≥ 1).
    pub chunks: u32,
    /// Tracked keys. Distinct; merge output is key-ascending.
    pub entries: Vec<TopKEntry>,
    /// Admission-gate bloom state, present on gated tracker exports so a
    /// `--store DIR` resume is exact even for saturated trackers. `None`
    /// for ungated trackers and for merge outputs. Chunks of one source
    /// all repeat the same gate (it is header state, like the counters).
    pub gate: Option<GateState>,
}

impl TopKState {
    /// Largest per-entry Space-Saving error in this state — for any
    /// well-formed export or merge it stays `≤ error_bound`.
    pub fn max_entry_error(&self) -> u64 {
        self.entries.iter().map(|e| e.error).max().unwrap_or(0)
    }

    /// Split into chunks of at most `max_entries` keys each. Every chunk
    /// repeats the full header (the counters describe the *source
    /// tracker*, not the chunk) so any subset of surviving chunks still
    /// merges with correct bounds.
    pub fn into_chunks(mut self, max_entries: usize) -> Vec<TopKState> {
        let max = max_entries.max(1);
        if self.entries.len() <= max {
            self.chunk = 0;
            self.chunks = 1;
            return vec![self];
        }
        let n_chunks = self.entries.len().div_ceil(max) as u32;
        let mut chunks = Vec::with_capacity(n_chunks as usize);
        let mut rest = std::mem::take(&mut self.entries);
        for i in 0..n_chunks {
            let tail = rest.split_off(rest.len().min(max));
            let mut part = self.clone();
            part.chunk = i;
            part.chunks = n_chunks;
            part.entries = rest;
            chunks.push(part);
            rest = tail;
        }
        chunks
    }

    /// A copy of everything but the entries: counters, chunk position and
    /// gate.
    pub fn header(&self) -> TopKState {
        TopKState {
            dataset: self.dataset.clone(),
            entries: Vec::new(),
            gate: self.gate.clone(),
            ..*self
        }
    }

    /// Encode into `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.encode_with(out, TopKEntry::encode);
    }

    /// [`TopKState::encode`] with every entry written by `entry` instead
    /// of [`TopKEntry::encode`].
    pub(crate) fn encode_with(
        &self,
        out: &mut Vec<u8>,
        mut entry: impl FnMut(&TopKEntry, &mut Vec<u8>),
    ) {
        write_string(&self.dataset, out);
        write_varint(self.capacity, out);
        write_varint(self.observed, out);
        write_varint(self.min_count, out);
        write_varint(self.error_bound, out);
        write_varint(self.evictions, out);
        write_varint(self.kept, out);
        write_varint(self.dropped, out);
        write_varint(self.filtered, out);
        write_varint(self.chunk as u64, out);
        write_varint(self.chunks as u64, out);
        write_varint(self.entries.len() as u64, out);
        for e in &self.entries {
            entry(e, out);
        }
        match &self.gate {
            None => out.push(0),
            Some(g) => {
                out.push(1);
                g.encode(out);
            }
        }
    }

    /// Decode and validate one tracker state.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<TopKState, FeedError> {
        let dataset = read_string(r, MAX_DATASET_BYTES, "dataset name")?;
        let capacity = r.varint()?;
        if capacity == 0 {
            return Err(FeedError::Invalid("topk capacity zero"));
        }
        let observed = r.varint()?;
        let min_count = r.varint()?;
        let error_bound = r.varint()?;
        if min_count > error_bound {
            return Err(FeedError::Invalid("min_count exceeds error bound"));
        }
        let evictions = r.varint()?;
        let kept = r.varint()?;
        let dropped = r.varint()?;
        let filtered = r.varint()?;
        let chunk = r.varint()?;
        let chunks = r.varint()?;
        if chunks == 0 || chunks > u32::MAX as u64 || chunk >= chunks {
            return Err(FeedError::Invalid("chunk index out of range"));
        }
        let n = r.count(16, "topk entries")?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let e = TopKEntry::decode(r)?;
            if e.count > observed {
                return Err(FeedError::Invalid("entry count exceeds observed"));
            }
            entries.push(e);
        }
        let mut keys: Vec<&str> = entries.iter().map(|e| e.key.as_str()).collect();
        keys.sort_unstable();
        if keys.windows(2).any(|w| w[0] == w[1]) {
            return Err(FeedError::Invalid("duplicate topk key"));
        }
        let gate = match r.u8("gate presence")? {
            0 => None,
            1 => Some(GateState::decode(r)?),
            _ => return Err(FeedError::Invalid("gate presence flag")),
        };
        Ok(TopKState {
            dataset,
            capacity,
            observed,
            min_count,
            error_bound,
            evictions,
            kept,
            dropped,
            filtered,
            chunk: chunk as u32,
            chunks: chunks as u32,
            entries,
            gate,
        })
    }
}

/// The federation feed item: one upstream collector's tracker state for
/// one dataset in one window (or one chunk of it). Streams of these ride
/// the existing sensor→collector transport unchanged — the aggregation
/// tier inherits its framing, gap/dup ledgers, reconnect backoff and
/// time-ordered merge for free.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowState {
    /// Originating collector id (doubles as the feed sensor id).
    pub upstream: u64,
    /// Window start, seconds of virtual time, aligned to a multiple of
    /// `length` so windows line up across collectors.
    pub start: f64,
    /// Window length, seconds.
    pub length: f64,
    /// The serialized tracker state.
    pub topk: TopKState,
}

impl WindowState {
    /// The item encoding of a record made of these parts, every entry
    /// written by `entry` — for states a caller only borrows, published
    /// under another header (the broker's upstream-0 snapshots).
    pub fn encode_parts(
        upstream: u64,
        start: f64,
        length: f64,
        topk: &TopKState,
        entry: impl FnMut(&TopKEntry, &mut Vec<u8>),
        out: &mut Vec<u8>,
    ) {
        write_varint(upstream, out);
        write_f64(start, out);
        write_f64(length, out);
        topk.encode_with(out, entry);
    }

    /// The item encoding in a buffer of its own: what a seal path makes
    /// once per record and every byte sink then frames.
    pub fn item_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }
}

impl FeedItem for WindowState {
    const ITEM_VERSION: u8 = 1;

    fn encode(&self, out: &mut Vec<u8>) {
        let (upstream, start, length) = (self.upstream, self.start, self.length);
        WindowState::encode_parts(upstream, start, length, &self.topk, TopKEntry::encode, out);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<WindowState, FeedError> {
        let upstream = r.varint()?;
        let start = r.f64("window start")?;
        if !(start.is_finite() && start >= 0.0) {
            return Err(FeedError::Invalid("window start out of range"));
        }
        let length = r.f64("window length")?;
        if !(length.is_finite() && length > 0.0) {
            return Err(FeedError::Invalid("window length out of range"));
        }
        let topk = TopKState::decode(r)?;
        Ok(WindowState {
            upstream,
            start,
            length,
            topk,
        })
    }

    fn order_time(&self) -> f64 {
        self.start
    }
}

/// The item a forwarding collector sends its aggregator: a window-state
/// record, or a record-less watermark saying the upstream has closed every
/// window that starts before `through`.
///
/// A collector sends the watermark after the records of the windows it
/// just closed, in the same frame, so the aggregator can seal a window as
/// soon as every upstream has closed it instead of waiting for the next
/// window's first record. A record's bytes here are its [`WindowState`]
/// item bytes behind a tag; the at-rest formats carry bare
/// [`WindowState`]s and do not change.
///
/// The aggregator folds upstreams in id order, so how their streams
/// interleave does not matter: the collector passes each stream on as it
/// arrives ([`MergeOrder::Arrival`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Uplink {
    /// One window-state record, shared with the sender's other sinks.
    State(Arc<WindowState>),
    /// Upstream `upstream` has closed every window starting before
    /// `through` (seconds): nothing more comes for them.
    Closed {
        /// Originating collector id.
        upstream: u64,
        /// Start of the window the upstream's fold has open.
        through: f64,
    },
}

const UPLINK_STATE: u8 = 0;
const UPLINK_CLOSED: u8 = 1;

impl FeedItem for Uplink {
    /// Version 1 was a bare [`WindowState`]; a version-2 aggregator
    /// refuses such a collector at HELLO.
    const ITEM_VERSION: u8 = 2;
    const MERGE: MergeOrder = MergeOrder::Arrival;

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Uplink::State(ws) => {
                out.push(UPLINK_STATE);
                ws.encode(out);
            }
            Uplink::Closed { upstream, through } => {
                out.push(UPLINK_CLOSED);
                write_varint(*upstream, out);
                write_f64(*through, out);
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Uplink, FeedError> {
        match r.u8("uplink tag")? {
            UPLINK_STATE => WindowState::decode(r).map(|ws| Uplink::State(Arc::new(ws))),
            UPLINK_CLOSED => {
                let upstream = r.varint()?;
                let through = r.f64("closed-through time")?;
                if !(through.is_finite() && through >= 0.0) {
                    return Err(FeedError::Invalid("closed-through time out of range"));
                }
                Ok(Uplink::Closed { upstream, through })
            }
            _ => Err(FeedError::Invalid("unknown uplink item tag")),
        }
    }

    fn order_time(&self) -> f64 {
        match self {
            Uplink::State(ws) => ws.start,
            Uplink::Closed { through, .. } => *through,
        }
    }
}

/// Typed error for merge/aggregation structure conflicts (decode errors
/// stay [`FeedError`]; these arise when two individually valid states
/// cannot be combined).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateError {
    /// The two states describe different datasets.
    DatasetMismatch,
    /// Sketch shapes disagree (counter counts, HLL precision, top-value
    /// capacity, histogram layout, source cap).
    LayoutMismatch(&'static str),
    /// Chunk reassembly conflict (duplicate index, header disagreement,
    /// overlapping or repeated keys, or merging an unassembled chunk).
    ChunkMismatch(&'static str),
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::DatasetMismatch => write!(f, "dataset mismatch"),
            StateError::LayoutMismatch(what) => write!(f, "sketch layout mismatch: {what}"),
            StateError::ChunkMismatch(what) => write!(f, "chunk conflict: {what}"),
        }
    }
}

impl std::error::Error for StateError {}
