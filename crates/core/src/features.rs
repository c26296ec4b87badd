//! Per-object traffic features (paper §2.3, step D).
//!
//! Each tracked object owns a [`FeatureSet`] — live sketch state folded
//! over the summaries attributed to it within the current 60-second
//! window. At window boundaries the set is rendered into a plain-number
//! [`FeatureRow`] and reset, without disturbing the top-k list itself.

use crate::summarize::{Outcome, TxSummary};
use serde::{Deserialize, Serialize};
use sketches::{HyperLogLog, LogBuckets, LogHistogram, TopValues};
use sketchwire::StateError;
use std::cell::RefCell;
use std::net::IpAddr;
use std::sync::{Arc, OnceLock};

/// Positional layout contract of a serialized [`FeatureSet`] — the order
/// in which counters, sketches, and distributions appear inside a
/// [`sketchwire::FeatureState`]. Owned by this module: [`FeatureSet::to_state`]
/// writes it, [`FeatureSet::from_state`] refuses anything else.
///
/// `adds`: hits, unans, ok, nxd, rfs, fail, ok_ans, ok_ns, ok_add,
/// ok_nil, ok6, ok6nil, ok_sec, qdots_sum, lvl_sum, nslvl_sum, answered.
/// `maxes`: qdots_max. `hlls`: srvips, srcips, qnamesa, qnames, tlds,
/// eslds, qtypes, ip4s, ip6s. `tops`: ttl, ttl_a, nsttl, negttl, a_data,
/// ns_names. `hists`: resp_delays, network_hops, resp_size.
pub const STATE_ADDS: usize = 17;
/// Max-merged scalar count in the layout contract.
pub const STATE_MAXES: usize = 1;
/// HyperLogLog count in the layout contract.
pub const STATE_HLLS: usize = 9;
/// Top-value table count in the layout contract.
pub const STATE_TOPS: usize = 6;
/// Histogram count in the layout contract.
pub const STATE_HISTS: usize = 3;
/// Exact-contributor-set cap (matches the fold-path cap).
pub const STATE_SOURCE_CAP: u64 = 4_096;

/// Sizing knobs for per-object sketches. The defaults balance accuracy
/// against the memory of 10⁵ tracked objects.
#[derive(Debug, Clone, Copy)]
pub struct FeatureConfig {
    /// HyperLogLog precision for per-object cardinalities (2^p registers).
    pub hll_precision: u8,
    /// Distinct TTL values tracked exactly per object.
    pub ttl_slots: usize,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig {
            hll_precision: 7,
            ttl_slots: 8,
        }
    }
}

/// The bucket layouts of the three per-object histograms — response
/// delay (ms), network hops, response size (bytes) — which every
/// [`FeatureSet`] shares.
fn hist_layouts() -> &'static [LogBuckets; 3] {
    static LAYOUTS: OnceLock<[LogBuckets; 3]> = OnceLock::new();
    LAYOUTS.get_or_init(|| {
        [
            LogBuckets::new(0.2, 10_000.0, 10),
            LogBuckets::new(1.0, 64.0, 20),
            LogBuckets::new(12.0, 9_000.0, 10),
        ]
    })
}

fn hash_ip(ip: IpAddr) -> u64 {
    match ip {
        IpAddr::V4(v4) => HyperLogLog::hash(&v4.octets()),
        IpAddr::V6(v6) => HyperLogLog::hash(&v6.octets()),
    }
}

/// What a fold derives from a summary alone, whichever object it is
/// folded into: the HyperLogLog item hashes and the histogram bucket
/// indices. One summary is folded once per dataset, so the pipeline
/// loads one digest per summary ([`FoldDigest::load`], reusing its
/// storage) and every tracker folds with it.
#[derive(Debug, Default)]
pub struct FoldDigest {
    qname: u64,
    qtype: u64,
    nameserver: u64,
    resolver: u64,
    /// NoError only, like the sketches they feed.
    tld: Option<u64>,
    esld: Option<u64>,
    ip4s: Vec<u64>,
    ip6s: Vec<u64>,
    /// Bucket of each histogram's value, where the summary has one.
    delay: Option<usize>,
    hops: Option<usize>,
    size: Option<usize>,
}

impl FoldDigest {
    /// The digest of `s`.
    pub fn of(s: &TxSummary) -> FoldDigest {
        let mut digest = FoldDigest::default();
        digest.load(s);
        digest
    }

    /// Replace the contents with the digest of `s`.
    pub fn load(&mut self, s: &TxSummary) {
        self.qname = HyperLogLog::hash(s.qname.as_wire());
        self.qtype = HyperLogLog::hash(&s.qtype.code().to_be_bytes());
        self.nameserver = hash_ip(s.nameserver);
        self.resolver = hash_ip(s.resolver);
        let ok = s.outcome == Outcome::NoError;
        let hash_text = |t: &String| HyperLogLog::hash(t.as_bytes());
        self.tld = s.tld.as_ref().filter(|_| ok).map(hash_text);
        self.esld = s.esld.as_ref().filter(|_| ok).map(hash_text);
        self.ip4s.clear();
        self.ip6s.clear();
        if ok {
            let hashes = s.ip4s.iter().map(|a| HyperLogLog::hash(&a.octets()));
            self.ip4s.extend(hashes);
            let hashes = s.ip6s.iter().map(|a| HyperLogLog::hash(&a.octets()));
            self.ip6s.extend(hashes);
        }
        let answered = s.outcome != Outcome::Unanswered;
        let [delays, hops, sizes] = hist_layouts();
        let bucket = |layout: &LogBuckets, value: Option<f64>| {
            value
                .filter(|v| answered && !v.is_nan())
                .map(|v| layout.index_of(v))
        };
        self.delay = bucket(delays, s.delay_ms);
        self.hops = bucket(hops, s.hops.map(f64::from));
        self.size = bucket(sizes, s.resp_size.map(f64::from));
    }
}

/// Word indices of the counters (`adds`, in state order) and of the
/// one max in a [`FeatureSet`]'s word block.
mod add {
    pub const HITS: usize = 0;
    pub const UNANS: usize = 1;
    pub const OK: usize = 2;
    pub const NXD: usize = 3;
    pub const RFS: usize = 4;
    pub const FAIL: usize = 5;
    pub const OK_ANS: usize = 6;
    pub const OK_NS: usize = 7;
    pub const OK_ADD: usize = 8;
    pub const OK_NIL: usize = 9;
    pub const OK6: usize = 10;
    pub const OK6NIL: usize = 11;
    pub const OK_SEC: usize = 12;
    pub const QDOTS_SUM: usize = 13;
    pub const LVL_SUM: usize = 14;
    pub const NSLVL_SUM: usize = 15;
    pub const ANSWERED: usize = 16;
    /// The max follows the counters.
    pub const QDOTS_MAX: usize = super::STATE_ADDS;
}

/// Indices of the HyperLogLogs, in state order.
mod hll {
    pub const SRVIPS: usize = 0;
    pub const SRCIPS: usize = 1;
    pub const QNAMESA: usize = 2;
    pub const QNAMES: usize = 3;
    pub const TLDS: usize = 4;
    pub const ESLDS: usize = 5;
    pub const QTYPES: usize = 6;
    pub const IP4S: usize = 7;
    pub const IP6S: usize = 8;
}

/// Indices of the top-value tables, in state order.
mod top {
    pub const TTL: usize = 0;
    pub const TTL_A: usize = 1;
    pub const NSTTL: usize = 2;
    pub const NEGTTL: usize = 3;
    pub const A_DATA: usize = 4;
    pub const NS_NAMES: usize = 5;
}

/// Indices of the histograms, in state order.
mod hist {
    pub const DELAYS: usize = 0;
    pub const HOPS: usize = 1;
    pub const SIZES: usize = 2;
}

/// Widest top-value table [`FeatureSet::from_state`] builds: a table's
/// words are allocated for its capacity, which a state declares.
const MAX_TOP_SLOTS: u64 = 4_096;

/// Where each sketch of a [`FeatureSet`] lives in its two blocks. The
/// word block holds the counters, the max, the top-value tables (each
/// `[observed, len, value, count, …]`, [`TopValues`]' table) and the
/// histograms (each `[total, sum, min, max, counts…]`,
/// [`LogHistogram`]'s block), in that order; the register block holds
/// the HyperLogLogs one after another. One layout is shared by every set
/// built alike.
#[derive(Debug, PartialEq)]
struct Layout {
    /// HLL `i` is `registers[hll_at[i]..hll_at[i + 1]]`.
    hll_at: [usize; STATE_HLLS + 1],
    /// Table `i` is `words[top_at[i]..top_at[i + 1]]`.
    top_at: [usize; STATE_TOPS + 1],
    /// Histogram `i` is `words[hist_at[i]..hist_at[i + 1]]`; the last
    /// offset is the block's length.
    hist_at: [usize; STATE_HISTS + 1],
    /// Bucket layout of each histogram.
    buckets: [LogBuckets; STATE_HISTS],
}

impl Layout {
    fn new(
        precisions: [u8; STATE_HLLS],
        capacities: [usize; STATE_TOPS],
        buckets: [LogBuckets; STATE_HISTS],
    ) -> Layout {
        let mut hll_at = [0; STATE_HLLS + 1];
        for (i, p) in precisions.into_iter().enumerate() {
            assert!((4..=16).contains(&p), "precision must be in 4..=16");
            hll_at[i + 1] = hll_at[i] + (1 << p);
        }
        let mut top_at = [STATE_ADDS + STATE_MAXES; STATE_TOPS + 1];
        for (i, cap) in capacities.into_iter().enumerate() {
            assert!(cap > 0, "top-value capacity must be positive");
            top_at[i + 1] = top_at[i] + TopValues::table_words(cap);
        }
        let mut hist_at = [top_at[STATE_TOPS]; STATE_HISTS + 1];
        for (i, b) in buckets.iter().enumerate() {
            hist_at[i + 1] = hist_at[i] + LogHistogram::block_words(b);
        }
        Layout {
            hll_at,
            top_at,
            hist_at,
            buckets,
        }
    }

    /// This layout, shared: each thread keeps the layout it last built a
    /// set with, and a set laid out alike takes that one.
    fn shared(self) -> Arc<Layout> {
        thread_local! {
            static LAST: RefCell<Option<Arc<Layout>>> = const { RefCell::new(None) };
        }
        LAST.with(|last| {
            let mut last = last.borrow_mut();
            match &*last {
                Some(layout) if **layout == self => layout.clone(),
                _ => last.insert(Arc::new(self)).clone(),
            }
        })
    }
}

/// Live sketch state for one tracked object: one block of words and one
/// of HyperLogLog registers, laid out by a shared [`Layout`] in the
/// state layout's order, so a fold writes at offsets, a reset fills two
/// blocks and an export copies slices.
#[derive(Debug, Clone)]
pub struct FeatureSet {
    layout: Arc<Layout>,
    /// Counters, the max, the top-value tables and the histograms.
    words: Box<[u64]>,
    /// The HyperLogLog registers.
    registers: Box<[u8]>,
    /// Exact contributor set (small by construction), sorted ascending.
    /// A `Vec`, so a reset keeps its storage.
    sources: Vec<u16>,
}

impl FeatureSet {
    /// Fresh, empty feature state.
    pub fn new(cfg: FeatureConfig) -> FeatureSet {
        let layout = Layout::new(
            [cfg.hll_precision; STATE_HLLS],
            [cfg.ttl_slots; STATE_TOPS],
            *hist_layouts(),
        );
        FeatureSet::with_layout(layout.shared())
    }

    fn with_layout(layout: Arc<Layout>) -> FeatureSet {
        FeatureSet {
            words: vec![0; layout.hist_at[STATE_HISTS]].into_boxed_slice(),
            registers: vec![0; layout.hll_at[STATE_HLLS]].into_boxed_slice(),
            sources: Vec::new(),
            layout,
        }
    }

    fn hll(&self, i: usize) -> &[u8] {
        &self.registers[self.layout.hll_at[i]..self.layout.hll_at[i + 1]]
    }

    fn hll_mut(&mut self, i: usize) -> &mut [u8] {
        &mut self.registers[self.layout.hll_at[i]..self.layout.hll_at[i + 1]]
    }

    fn top(&self, i: usize) -> &[u64] {
        &self.words[self.layout.top_at[i]..self.layout.top_at[i + 1]]
    }

    fn top_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.words[self.layout.top_at[i]..self.layout.top_at[i + 1]]
    }

    fn hist(&self, i: usize) -> &[u64] {
        &self.words[self.layout.hist_at[i]..self.layout.hist_at[i + 1]]
    }

    fn hist_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.words[self.layout.hist_at[i]..self.layout.hist_at[i + 1]]
    }

    fn insert(&mut self, i: usize, hash: u64) {
        HyperLogLog::insert_hash_into(self.hll_mut(i), hash);
    }

    fn record(&mut self, i: usize, value: u64) {
        TopValues::record_into(self.top_mut(i), value, 1);
    }

    /// Fold one summary into the state: the one-object form of
    /// [`FeatureSet::fold_digest`].
    pub fn fold(&mut self, s: &TxSummary) {
        self.fold_digest(s, &FoldDigest::of(s));
    }

    /// Fold one summary into the state, `d` being its digest.
    pub fn fold_digest(&mut self, s: &TxSummary, d: &FoldDigest) {
        debug_assert_eq!(&self.layout.buckets, hist_layouts());
        let ok = s.outcome == Outcome::NoError;
        let w = &mut self.words;
        w[add::HITS] += 1;
        match s.outcome {
            Outcome::Unanswered => w[add::UNANS] += 1,
            Outcome::NoError => w[add::OK] += 1,
            Outcome::NxDomain => w[add::NXD] += 1,
            Outcome::Refused => w[add::RFS] += 1,
            Outcome::ServFail => w[add::FAIL] += 1,
            Outcome::OtherError => {}
        }
        if ok {
            let aaaa = s.qtype == dnswire::RecordType::Aaaa;
            w[add::OK_ANS] += s.ok_ans as u64;
            w[add::OK_NS] += s.ok_ns as u64;
            w[add::OK_ADD] += s.ok_add as u64;
            w[add::OK_NIL] += s.is_nodata() as u64;
            w[add::OK6] += aaaa as u64;
            w[add::OK6NIL] += (aaaa && s.is_nodata()) as u64;
            w[add::OK_SEC] += s.dnssec_ok as u64;
            self.insert(hll::QNAMES, d.qname);
            if let Some(tld) = d.tld {
                self.insert(hll::TLDS, tld);
            }
            if let Some(esld) = d.esld {
                self.insert(hll::ESLDS, esld);
            }
            for &a in &d.ip4s {
                self.insert(hll::IP4S, a);
            }
            for &a in &d.ip6s {
                self.insert(hll::IP6S, a);
            }
        }
        if s.outcome != Outcome::Unanswered {
            let w = &mut self.words;
            w[add::ANSWERED] += 1;
            w[add::LVL_SUM] += s.answer_count as u64;
            w[add::NSLVL_SUM] += s.authority_ns_count as u64;
            if let (Some(at), Some(delay)) = (d.delay, s.delay_ms) {
                LogHistogram::record_into(self.hist_mut(hist::DELAYS), at, delay);
            }
            if let (Some(at), Some(hops)) = (d.hops, s.hops) {
                LogHistogram::record_into(self.hist_mut(hist::HOPS), at, hops as f64);
            }
            if let (Some(at), Some(size)) = (d.size, s.resp_size) {
                LogHistogram::record_into(self.hist_mut(hist::SIZES), at, size as f64);
            }
            if let Some(ttl) = s.answer_ttl {
                self.record(top::TTL, ttl as u64);
                if s.qtype == dnswire::RecordType::A {
                    self.record(top::TTL_A, ttl as u64);
                }
                if s.qtype == dnswire::RecordType::Ns {
                    self.record(top::NSTTL, ttl as u64);
                }
            }
            if let Some(ttl) = s.ns_ttl {
                self.record(top::NSTTL, ttl as u64);
            }
            if let Some(m) = s.soa_minimum {
                if s.is_nodata() || s.outcome == Outcome::NxDomain {
                    self.record(top::NEGTTL, m as u64);
                }
            }
            for &h in &s.answer_data_hashes {
                self.record(top::A_DATA, h);
            }
            for &h in &s.ns_name_hashes {
                self.record(top::NS_NAMES, h);
            }
        }
        let w = &mut self.words;
        w[add::QDOTS_SUM] += s.qdots as u64;
        w[add::QDOTS_MAX] = w[add::QDOTS_MAX].max(s.qdots as u64);
        self.insert(hll::QNAMESA, d.qname);
        self.insert(hll::QTYPES, d.qtype);
        self.insert(hll::SRVIPS, d.nameserver);
        self.insert(hll::SRCIPS, d.resolver);
        if let Err(at) = self.sources.binary_search(&s.contributor) {
            if (self.sources.len() as u64) < STATE_SOURCE_CAP {
                self.sources.insert(at, s.contributor);
            }
        }
    }

    /// Render the current state as plain numbers.
    pub fn row(&self) -> FeatureRow {
        let w = &self.words;
        let avg = |sum: usize, n: usize| {
            if w[n] == 0 {
                0.0
            } else {
                w[sum] as f64 / w[n] as f64
            }
        };
        let est = |i: usize| HyperLogLog::estimate_of(self.hll(i));
        let tv = |i: usize| TopValues::top_n_with_share_of(self.top(i), 3);
        let quart = |i: usize| {
            LogHistogram::quartiles_of(self.hist(i), &self.layout.buckets[i])
                .map(|(a, b, c)| [a, b, c])
                .unwrap_or([f64::NAN; 3])
        };
        FeatureRow {
            hits: w[add::HITS],
            unans: w[add::UNANS],
            ok: w[add::OK],
            nxd: w[add::NXD],
            rfs: w[add::RFS],
            fail: w[add::FAIL],
            ok_ans: w[add::OK_ANS],
            ok_ns: w[add::OK_NS],
            ok_add: w[add::OK_ADD],
            ok_nil: w[add::OK_NIL],
            ok6: w[add::OK6],
            ok6nil: w[add::OK6NIL],
            ok_sec: w[add::OK_SEC],
            srvips: est(hll::SRVIPS),
            srcips: est(hll::SRCIPS),
            sources: self.sources.len() as f64,
            qnamesa: est(hll::QNAMESA),
            qnames: est(hll::QNAMES),
            tlds: est(hll::TLDS),
            eslds: est(hll::ESLDS),
            qtypes: est(hll::QTYPES),
            ip4s: est(hll::IP4S),
            ip6s: est(hll::IP6S),
            qdots: avg(add::QDOTS_SUM, add::HITS),
            qdots_max: w[add::QDOTS_MAX] as u8,
            lvl: avg(add::LVL_SUM, add::ANSWERED),
            nslvl: avg(add::NSLVL_SUM, add::ANSWERED),
            ttl_top: tv(top::TTL),
            ttl_a_top: tv(top::TTL_A),
            nsttl_top: tv(top::NSTTL),
            negttl_top: tv(top::NEGTTL),
            a_data_top: tv(top::A_DATA),
            ns_names_top: tv(top::NS_NAMES),
            resp_delays: quart(hist::DELAYS),
            network_hops: quart(hist::HOPS),
            resp_size: quart(hist::SIZES),
        }
    }

    /// Reset all statistics for the next window (the object itself stays
    /// in the top-k cache — paper §2.4). Clears in place: one fill per
    /// block, every sketch's empty form being all zeros, so neither a
    /// window dump nor an eviction (which recycles the victim's state
    /// through here) touches the allocator.
    pub fn reset(&mut self) {
        self.words.fill(0);
        self.registers.fill(0);
        self.sources.clear();
    }

    /// Total transactions folded so far.
    pub fn hits(&self) -> u64 {
        self.words[add::HITS]
    }

    /// Export the live sketch state as a wire-ready [`FeatureState`],
    /// following the positional layout contract (`STATE_*` constants).
    pub fn to_state(&self) -> sketchwire::FeatureState {
        use sketchwire::{FeatureState, HistogramState, HllState, TopValuesState};
        let hll = |i: usize| {
            let registers = self.hll(i);
            HllState {
                p: registers.len().trailing_zeros() as u8,
                registers: registers.to_vec(),
            }
        };
        let top = |i: usize| {
            let table = self.top(i);
            TopValuesState {
                capacity: TopValues::capacity_of(table) as u64,
                observed: table[0],
                slots: TopValues::slots_of(table).collect(),
            }
        };
        let hist = |i: usize| {
            let (buckets, block) = (&self.layout.buckets[i], self.hist(i));
            let (observed_min, observed_max) =
                LogHistogram::observed_of(block).unwrap_or((f64::INFINITY, f64::NEG_INFINITY));
            HistogramState {
                min: buckets.min(),
                base: buckets.base(),
                counts: LogHistogram::counts_of(block).to_vec(),
                observed_min,
                observed_max,
            }
        };
        FeatureState {
            adds: self.words[..STATE_ADDS].to_vec(),
            maxes: self.words[STATE_ADDS..STATE_ADDS + STATE_MAXES].to_vec(),
            hlls: (0..STATE_HLLS).map(hll).collect(),
            source_cap: STATE_SOURCE_CAP,
            sources: self.sources.clone(),
            tops: (0..STATE_TOPS).map(top).collect(),
            hists: (0..STATE_HISTS).map(hist).collect(),
        }
    }

    /// Rebuild live sketch state from a (possibly merged) wire state,
    /// laid out as the state is: each HLL's precision, each table's
    /// capacity and each histogram's buckets come from it.
    ///
    /// Merged states may exceed nominal capacities — top-value tables
    /// keep their most frequent entries (ties to the smaller value,
    /// matching [`TopValues::ranked`]) and contributor sets their first
    /// `source_cap` ids; a table within its capacity keeps its slot
    /// order. A state whose shape does not match the layout contract, or
    /// that declares a table wider than 4 096 slots, is a
    /// [`StateError::LayoutMismatch`].
    pub fn from_state(state: &sketchwire::FeatureState) -> Result<FeatureSet, StateError> {
        if state.adds.len() != STATE_ADDS {
            return Err(StateError::LayoutMismatch("counter count"));
        }
        if state.maxes.len() != STATE_MAXES {
            return Err(StateError::LayoutMismatch("max count"));
        }
        if state.hlls.len() != STATE_HLLS {
            return Err(StateError::LayoutMismatch("hll count"));
        }
        if state.hlls.iter().any(|h| !(4..=16).contains(&h.p)) {
            return Err(StateError::LayoutMismatch("hll precision"));
        }
        if state
            .hlls
            .iter()
            .any(|h| h.registers.len() != 1 << h.p || h.registers.iter().any(|&r| r > 65 - h.p))
        {
            return Err(StateError::LayoutMismatch("hll registers"));
        }
        if state.tops.len() != STATE_TOPS {
            return Err(StateError::LayoutMismatch("topvalues count"));
        }
        if state
            .tops
            .iter()
            .any(|t| !(1..=MAX_TOP_SLOTS).contains(&t.capacity))
        {
            return Err(StateError::LayoutMismatch("topvalues capacity"));
        }
        if state.hists.len() != STATE_HISTS {
            return Err(StateError::LayoutMismatch("histogram count"));
        }
        if state.hists.iter().any(|h| {
            !(h.min.is_finite() && h.min > 0.0 && h.base.is_finite() && h.base > 1.0)
                || h.counts.is_empty()
        }) {
            return Err(StateError::LayoutMismatch("histogram layout"));
        }
        let layout = Layout::new(
            std::array::from_fn(|i| state.hlls[i].p),
            std::array::from_fn(|i| state.tops[i].capacity as usize),
            std::array::from_fn(|i| {
                let h = &state.hists[i];
                LogBuckets::from_parts(h.min, h.base, h.counts.len())
            }),
        );
        let mut fs = FeatureSet::with_layout(layout.shared());
        fs.words[..STATE_ADDS].copy_from_slice(&state.adds);
        fs.words[add::QDOTS_MAX] = state.maxes[0].min(u8::MAX as u64);
        for (i, h) in state.hlls.iter().enumerate() {
            fs.hll_mut(i).copy_from_slice(&h.registers);
        }
        for (i, t) in state.tops.iter().enumerate() {
            let cap = t.capacity as usize;
            if t.slots.len() <= cap {
                TopValues::fill_table(fs.top_mut(i), t.observed, &t.slots);
            } else {
                let mut slots = t.slots.clone();
                TopValues::rank(&mut slots);
                TopValues::fill_table(fs.top_mut(i), t.observed, &slots[..cap]);
            }
        }
        for (i, h) in state.hists.iter().enumerate() {
            let buckets = fs.layout.buckets[i];
            let block = fs.hist_mut(i);
            LogHistogram::fill_block(block, &buckets, &h.counts, h.observed_min, h.observed_max);
        }
        fs.sources = state
            .sources
            .iter()
            .take(state.source_cap as usize)
            .copied()
            .collect();
        fs.sources.sort_unstable();
        fs.sources.dedup();
        Ok(fs)
    }
}

/// One object's features in one time window, as plain numbers — the TSV
/// row of the paper's data files (step E).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureRow {
    /// Total transactions.
    pub hits: u64,
    /// Unanswered queries.
    pub unans: u64,
    /// NoError responses.
    pub ok: u64,
    /// NXDOMAIN responses.
    pub nxd: u64,
    /// Refused responses.
    pub rfs: u64,
    /// ServFail responses.
    pub fail: u64,
    /// NoError with non-empty ANSWER.
    pub ok_ans: u64,
    /// NoError with NS in AUTHORITY.
    pub ok_ns: u64,
    /// NoError with non-empty ADDITIONAL.
    pub ok_add: u64,
    /// NoData responses.
    pub ok_nil: u64,
    /// AAAA NoError responses.
    pub ok6: u64,
    /// AAAA NoData responses.
    pub ok6nil: u64,
    /// DNSSEC-signed responses.
    pub ok_sec: u64,
    /// Distinct nameserver IPs (estimate).
    pub srvips: f64,
    /// Distinct resolver IPs (estimate).
    pub srcips: f64,
    /// Distinct SIE contributors (exact).
    pub sources: f64,
    /// Distinct QNAMEs over all queries (estimate).
    pub qnamesa: f64,
    /// Distinct QNAMEs that got NoError (estimate).
    pub qnames: f64,
    /// Distinct TLDs in NoError traffic (estimate).
    pub tlds: f64,
    /// Distinct effective SLDs in NoError traffic (estimate).
    pub eslds: f64,
    /// Distinct QTYPEs (estimate).
    pub qtypes: f64,
    /// Distinct IPv4 addresses in answers (estimate).
    pub ip4s: f64,
    /// Distinct IPv6 addresses in answers (estimate).
    pub ip6s: f64,
    /// Mean QNAME label count.
    pub qdots: f64,
    /// Maximum QNAME label count (qmin detection).
    pub qdots_max: u8,
    /// Mean ANSWER record count.
    pub lvl: f64,
    /// Mean AUTHORITY NS record count.
    pub nslvl: f64,
    /// Top-3 ANSWER TTLs with shares.
    pub ttl_top: Vec<(u64, f64)>,
    /// Top-3 TTLs of A answers specifically (change detection, §4.2).
    pub ttl_a_top: Vec<(u64, f64)>,
    /// Top-3 AUTHORITY NS TTLs with shares.
    pub nsttl_top: Vec<(u64, f64)>,
    /// Top-3 negative-caching TTLs (SOA minimum) with shares.
    pub negttl_top: Vec<(u64, f64)>,
    /// Top-3 ANSWER rdata hashes with shares (change detection).
    pub a_data_top: Vec<(u64, f64)>,
    /// Top-3 NS-name hashes with shares (change detection).
    pub ns_names_top: Vec<(u64, f64)>,
    /// Response delay quartiles [q25, median, q75] in ms (NaN when empty).
    pub resp_delays: [f64; 3],
    /// Network hop quartiles.
    pub network_hops: [f64; 3],
    /// Response size quartiles, bytes.
    pub resp_size: [f64; 3],
}

impl FeatureRow {
    /// NoError + data share of hits (ok_ans or ok_ns).
    pub fn data_share(&self) -> f64 {
        if self.hits == 0 {
            return 0.0;
        }
        (self.ok - self.ok_nil) as f64 / self.hits as f64
    }

    /// NoData share of hits.
    pub fn nodata_share(&self) -> f64 {
        if self.hits == 0 {
            return 0.0;
        }
        self.ok_nil as f64 / self.hits as f64
    }

    /// NXDOMAIN share of hits.
    pub fn nxd_share(&self) -> f64 {
        if self.hits == 0 {
            return 0.0;
        }
        self.nxd as f64 / self.hits as f64
    }

    /// The most common ANSWER TTL, if any.
    pub fn top_ttl(&self) -> Option<u64> {
        self.ttl_top.first().map(|&(v, _)| v)
    }

    /// Median response delay (NaN when no responses).
    pub fn median_delay(&self) -> f64 {
        self.resp_delays[1]
    }

    /// Median hop count (NaN when no responses).
    pub fn median_hops(&self) -> f64 {
        self.network_hops[1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psl::Psl;
    use simnet::{SimConfig, Simulation};

    fn folded(secs: f64) -> FeatureSet {
        let psl = Psl::embedded();
        let mut sim = Simulation::from_config(SimConfig::small());
        let mut fs = FeatureSet::new(FeatureConfig::default());
        sim.run(secs, &mut |tx| {
            fs.fold(&TxSummary::from_transaction(tx, &psl));
        });
        fs
    }

    #[test]
    fn counters_are_consistent() {
        let fs = folded(2.0);
        let row = fs.row();
        assert!(row.hits > 200);
        assert_eq!(
            row.hits,
            row.unans + row.ok + row.nxd + row.rfs + row.fail,
            "every outcome classified (no OtherError in sim)"
        );
        assert!(row.ok_nil <= row.ok);
        assert!(row.ok6nil <= row.ok6);
        assert!(row.ok_ans <= row.ok);
    }

    #[test]
    fn cardinalities_plausible() {
        let fs = folded(2.0);
        let row = fs.row();
        assert!(row.srcips >= 1.0 && row.srcips <= 50.0);
        assert!(row.srvips > 10.0);
        assert!(row.qnamesa >= row.qnames * 0.5);
        assert!(row.qtypes >= 3.0);
        assert!(row.sources >= 1.0);
        assert!(row.tlds >= 1.0);
    }

    #[test]
    fn quartiles_ordered() {
        let fs = folded(1.0);
        let row = fs.row();
        let [a, b, c] = row.resp_delays;
        assert!(
            a <= b && b <= c,
            "delay quartiles out of order: {a} {b} {c}"
        );
        assert!(row.median_delay() > 0.0);
        let [ha, hb, hc] = row.network_hops;
        assert!(ha <= hb && hb <= hc);
        assert!(row.resp_size[0] >= 12.0);
    }

    #[test]
    fn ttl_top_has_shares() {
        let fs = folded(2.0);
        let row = fs.row();
        assert!(!row.ttl_top.is_empty());
        let total: f64 = row.ttl_top.iter().map(|(_, s)| s).sum();
        assert!(total <= 1.0 + 1e-9);
        assert!(row.top_ttl().is_some());
    }

    #[test]
    fn reset_clears_but_preserves_config() {
        let mut fs = folded(1.0);
        assert!(fs.hits() > 0);
        let m_before = {
            let row = fs.row();
            let _ = row;
            0
        };
        let _ = m_before;
        fs.reset();
        assert_eq!(fs.hits(), 0);
        let row = fs.row();
        assert_eq!(row.hits, 0);
        assert!(row.resp_delays[1].is_nan());
        assert!(row.ttl_top.is_empty());
    }

    /// The fold as it is defined, every sketch fed its item or value
    /// directly: what folding through a [`FoldDigest`] must reproduce.
    fn fold_reference(fs: &mut FeatureSet, s: &TxSummary) {
        use dnswire::RecordType;
        let ip = |a: std::net::IpAddr| match a {
            std::net::IpAddr::V4(v4) => v4.octets().to_vec(),
            std::net::IpAddr::V6(v6) => v6.octets().to_vec(),
        };
        let insert = |fs: &mut FeatureSet, i: usize, item: &[u8]| {
            HyperLogLog::insert_hash_into(fs.hll_mut(i), HyperLogLog::hash(item));
        };
        let record = |fs: &mut FeatureSet, i: usize, value: f64| {
            if value.is_nan() {
                return;
            }
            let at = fs.layout.buckets[i].index_of(value);
            LogHistogram::record_into(fs.hist_mut(i), at, value);
        };
        let nodata = s.is_nodata();
        fs.words[add::HITS] += 1;
        match s.outcome {
            Outcome::Unanswered => fs.words[add::UNANS] += 1,
            Outcome::NoError => fs.words[add::OK] += 1,
            Outcome::NxDomain => fs.words[add::NXD] += 1,
            Outcome::Refused => fs.words[add::RFS] += 1,
            Outcome::ServFail => fs.words[add::FAIL] += 1,
            Outcome::OtherError => {}
        }
        if s.outcome == Outcome::NoError {
            for (flag, at) in [
                (s.ok_ans, add::OK_ANS),
                (s.ok_ns, add::OK_NS),
                (s.ok_add, add::OK_ADD),
                (nodata, add::OK_NIL),
                (s.qtype == RecordType::Aaaa, add::OK6),
                (s.qtype == RecordType::Aaaa && nodata, add::OK6NIL),
                (s.dnssec_ok, add::OK_SEC),
            ] {
                if flag {
                    fs.words[at] += 1;
                }
            }
            insert(fs, hll::QNAMES, s.qname.as_wire());
            if let Some(tld) = &s.tld {
                insert(fs, hll::TLDS, tld.as_bytes());
            }
            if let Some(esld) = &s.esld {
                insert(fs, hll::ESLDS, esld.as_bytes());
            }
            s.ip4s
                .iter()
                .for_each(|a| insert(fs, hll::IP4S, &a.octets()));
            s.ip6s
                .iter()
                .for_each(|a| insert(fs, hll::IP6S, &a.octets()));
        }
        if s.outcome != Outcome::Unanswered {
            fs.words[add::ANSWERED] += 1;
            fs.words[add::LVL_SUM] += s.answer_count as u64;
            fs.words[add::NSLVL_SUM] += s.authority_ns_count as u64;
            s.delay_ms
                .into_iter()
                .for_each(|d| record(fs, hist::DELAYS, d));
            s.hops
                .into_iter()
                .for_each(|h| record(fs, hist::HOPS, h as f64));
            s.resp_size
                .into_iter()
                .for_each(|b| record(fs, hist::SIZES, b as f64));
            if let Some(ttl) = s.answer_ttl {
                fs.record(top::TTL, ttl as u64);
                if s.qtype == RecordType::A {
                    fs.record(top::TTL_A, ttl as u64);
                }
                if s.qtype == RecordType::Ns {
                    fs.record(top::NSTTL, ttl as u64);
                }
            }
            s.ns_ttl
                .into_iter()
                .for_each(|t| fs.record(top::NSTTL, t as u64));
            if let Some(m) = s.soa_minimum {
                if nodata || s.outcome == Outcome::NxDomain {
                    fs.record(top::NEGTTL, m as u64);
                }
            }
            s.answer_data_hashes
                .iter()
                .for_each(|&h| fs.record(top::A_DATA, h));
            s.ns_name_hashes
                .iter()
                .for_each(|&h| fs.record(top::NS_NAMES, h));
        }
        fs.words[add::QDOTS_SUM] += s.qdots as u64;
        fs.words[add::QDOTS_MAX] = fs.words[add::QDOTS_MAX].max(s.qdots as u64);
        insert(fs, hll::QNAMESA, s.qname.as_wire());
        insert(fs, hll::QTYPES, &s.qtype.code().to_be_bytes());
        insert(fs, hll::SRVIPS, &ip(s.nameserver));
        insert(fs, hll::SRCIPS, &ip(s.resolver));
        if !fs.sources.contains(&s.contributor) && (fs.sources.len() as u64) < STATE_SOURCE_CAP {
            fs.sources.push(s.contributor);
            fs.sources.sort_unstable();
        }
    }

    /// Folding through one reused digest equals the direct fold, in the
    /// exported state and the rendered row, and a reset set folds like a
    /// new one.
    #[test]
    fn digest_fold_equals_direct_fold() {
        let psl = Psl::embedded();
        let mut sim = Simulation::from_config(SimConfig::small());
        let mut summaries = Vec::new();
        sim.run(2.0, &mut |tx| {
            summaries.push(TxSummary::from_transaction(tx, &psl))
        });
        assert!(summaries.iter().any(|s| !s.ip4s.is_empty()));
        assert!(summaries.iter().any(|s| s.outcome == Outcome::Unanswered));

        let mut digest = FoldDigest::default();
        let mut recycled = FeatureSet::new(FeatureConfig::default());
        for half in summaries.chunks(summaries.len() / 2 + 1) {
            let mut direct = FeatureSet::new(FeatureConfig::default());
            recycled.reset();
            for s in half {
                fold_reference(&mut direct, s);
                digest.load(s);
                recycled.fold_digest(s, &digest);
            }
            assert_eq!(recycled.to_state(), direct.to_state());
            assert_eq!(
                format!("{:?}", recycled.row()),
                format!("{:?}", direct.row())
            );
        }
    }

    #[test]
    fn share_helpers() {
        let fs = folded(2.0);
        let row = fs.row();
        let total = row.data_share() + row.nodata_share() + row.nxd_share();
        assert!(total <= 1.0 + 1e-9);
        assert!(row.data_share() > 0.0);
    }

    #[test]
    fn empty_row_is_all_zero() {
        let fs = FeatureSet::new(FeatureConfig::default());
        let row = fs.row();
        assert_eq!(row.hits, 0);
        assert_eq!(row.qdots, 0.0);
        assert_eq!(row.srvips, 0.0);
        assert_eq!(row.data_share(), 0.0);
        assert!(row.top_ttl().is_none());
    }

    /// The two inputs a block layout cannot take: a table wider than
    /// the slot bound (its words would be allocated for the declared
    /// capacity) and registers that do not fit their precision.
    #[test]
    fn from_state_refuses_what_it_cannot_lay_out() {
        let state = folded(0.5).to_state();
        assert!(FeatureSet::from_state(&state).is_ok());
        let mut wide = state.clone();
        wide.tops[0].capacity = MAX_TOP_SLOTS + 1;
        assert!(FeatureSet::from_state(&wide).is_err());
        wide.tops[0].capacity = MAX_TOP_SLOTS;
        assert!(FeatureSet::from_state(&wide).is_ok());
        let mut short = state.clone();
        short.hlls[3].registers.pop();
        assert!(FeatureSet::from_state(&short).is_err());
        let mut high = state;
        high.hlls[3].registers[0] = 65 - high.hlls[3].p + 1;
        assert!(FeatureSet::from_state(&high).is_err());
    }

    /// One layout per thread serves every set built alike.
    #[test]
    fn sets_built_alike_share_one_layout() {
        let a = FeatureSet::new(FeatureConfig::default());
        let b = FeatureSet::from_state(&a.to_state()).unwrap();
        assert!(Arc::ptr_eq(&a.layout, &b.layout));
        assert_eq!(a.words.len(), 254);
        assert_eq!(a.registers.len(), STATE_HLLS << 7);
    }
}
