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
use std::net::IpAddr;
use std::sync::OnceLock;

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

/// Live sketch state for one tracked object.
#[derive(Debug, Clone)]
pub struct FeatureSet {
    // --- counters ---------------------------------------------------------
    hits: u64,
    unans: u64,
    ok: u64,
    nxd: u64,
    rfs: u64,
    fail: u64,
    ok_ans: u64,
    ok_ns: u64,
    ok_add: u64,
    ok_nil: u64,
    ok6: u64,
    ok6nil: u64,
    ok_sec: u64,
    // --- averages ----------------------------------------------------------
    qdots_sum: u64,
    lvl_sum: u64,
    nslvl_sum: u64,
    answered: u64,
    // --- cardinalities ------------------------------------------------------
    srvips: HyperLogLog,
    srcips: HyperLogLog,
    qnamesa: HyperLogLog,
    qnames: HyperLogLog,
    tlds: HyperLogLog,
    eslds: HyperLogLog,
    qtypes: HyperLogLog,
    ip4s: HyperLogLog,
    ip6s: HyperLogLog,
    /// Exact contributor set (small by construction), sorted ascending.
    /// A `Vec`, so a reset keeps its storage.
    sources: Vec<u16>,
    // --- distributions ------------------------------------------------------
    ttl: TopValues,
    ttl_a: TopValues,
    nsttl: TopValues,
    negttl: TopValues,
    a_data: TopValues,
    ns_names: TopValues,
    resp_delays: LogHistogram,
    network_hops: LogHistogram,
    resp_size: LogHistogram,
    // --- meta ----------------------------------------------------------------
    qdots_max: u8,
}

impl FeatureSet {
    /// Fresh, empty feature state.
    pub fn new(cfg: FeatureConfig) -> FeatureSet {
        let hll = || HyperLogLog::new(cfg.hll_precision);
        FeatureSet {
            hits: 0,
            unans: 0,
            ok: 0,
            nxd: 0,
            rfs: 0,
            fail: 0,
            ok_ans: 0,
            ok_ns: 0,
            ok_add: 0,
            ok_nil: 0,
            ok6: 0,
            ok6nil: 0,
            ok_sec: 0,
            qdots_sum: 0,
            lvl_sum: 0,
            nslvl_sum: 0,
            answered: 0,
            srvips: hll(),
            srcips: hll(),
            qnamesa: hll(),
            qnames: hll(),
            tlds: hll(),
            eslds: hll(),
            qtypes: hll(),
            ip4s: hll(),
            ip6s: hll(),
            sources: Vec::new(),
            ttl: TopValues::new(cfg.ttl_slots),
            ttl_a: TopValues::new(cfg.ttl_slots),
            nsttl: TopValues::new(cfg.ttl_slots),
            negttl: TopValues::new(cfg.ttl_slots),
            a_data: TopValues::new(cfg.ttl_slots),
            ns_names: TopValues::new(cfg.ttl_slots),
            resp_delays: LogHistogram::with_buckets(hist_layouts()[0]),
            network_hops: LogHistogram::with_buckets(hist_layouts()[1]),
            resp_size: LogHistogram::with_buckets(hist_layouts()[2]),
            qdots_max: 0,
        }
    }

    /// Fold one summary into the state: the one-object form of
    /// [`FeatureSet::fold_digest`].
    pub fn fold(&mut self, s: &TxSummary) {
        self.fold_digest(s, &FoldDigest::of(s));
    }

    /// Fold one summary into the state, `d` being its digest.
    pub fn fold_digest(&mut self, s: &TxSummary, d: &FoldDigest) {
        debug_assert_eq!(self.resp_delays.buckets(), hist_layouts()[0]);
        self.hits += 1;
        match s.outcome {
            Outcome::Unanswered => self.unans += 1,
            Outcome::NoError => self.ok += 1,
            Outcome::NxDomain => self.nxd += 1,
            Outcome::Refused => self.rfs += 1,
            Outcome::ServFail => self.fail += 1,
            Outcome::OtherError => {}
        }
        if s.outcome == Outcome::NoError {
            if s.ok_ans {
                self.ok_ans += 1;
            }
            if s.ok_ns {
                self.ok_ns += 1;
            }
            if s.ok_add {
                self.ok_add += 1;
            }
            if s.is_nodata() {
                self.ok_nil += 1;
            }
            if s.qtype == dnswire::RecordType::Aaaa {
                self.ok6 += 1;
                if s.is_nodata() {
                    self.ok6nil += 1;
                }
            }
            if s.dnssec_ok {
                self.ok_sec += 1;
            }
            self.qnames.insert_hash(d.qname);
            if let Some(tld) = d.tld {
                self.tlds.insert_hash(tld);
            }
            if let Some(esld) = d.esld {
                self.eslds.insert_hash(esld);
            }
            for &a in &d.ip4s {
                self.ip4s.insert_hash(a);
            }
            for &a in &d.ip6s {
                self.ip6s.insert_hash(a);
            }
        }
        if s.outcome != Outcome::Unanswered {
            self.answered += 1;
            self.lvl_sum += s.answer_count as u64;
            self.nslvl_sum += s.authority_ns_count as u64;
            if let (Some(at), Some(delay)) = (d.delay, s.delay_ms) {
                self.resp_delays.record_at(at, delay);
            }
            if let (Some(at), Some(hops)) = (d.hops, s.hops) {
                self.network_hops.record_at(at, hops as f64);
            }
            if let (Some(at), Some(size)) = (d.size, s.resp_size) {
                self.resp_size.record_at(at, size as f64);
            }
            if let Some(ttl) = s.answer_ttl {
                self.ttl.record(ttl as u64);
                if s.qtype == dnswire::RecordType::A {
                    self.ttl_a.record(ttl as u64);
                }
                if s.qtype == dnswire::RecordType::Ns {
                    self.nsttl.record(ttl as u64);
                }
            }
            if let Some(ttl) = s.ns_ttl {
                self.nsttl.record(ttl as u64);
            }
            if let Some(m) = s.soa_minimum {
                if s.is_nodata() || s.outcome == Outcome::NxDomain {
                    self.negttl.record(m as u64);
                }
            }
            for &h in &s.answer_data_hashes {
                self.a_data.record(h);
            }
            for &h in &s.ns_name_hashes {
                self.ns_names.record(h);
            }
        }
        self.qdots_sum += s.qdots as u64;
        self.qdots_max = self.qdots_max.max(s.qdots);
        self.qnamesa.insert_hash(d.qname);
        self.qtypes.insert_hash(d.qtype);
        self.srvips.insert_hash(d.nameserver);
        self.srcips.insert_hash(d.resolver);
        if let Err(at) = self.sources.binary_search(&s.contributor) {
            if (self.sources.len() as u64) < STATE_SOURCE_CAP {
                self.sources.insert(at, s.contributor);
            }
        }
    }

    /// Render the current state as plain numbers.
    pub fn row(&self) -> FeatureRow {
        let avg = |sum: u64, n: u64| if n == 0 { 0.0 } else { sum as f64 / n as f64 };
        let quart = |h: &LogHistogram| {
            h.quartiles()
                .map(|(a, b, c)| [a, b, c])
                .unwrap_or([f64::NAN; 3])
        };
        let tv = |t: &TopValues| t.top_n_with_share(3).into_iter().collect();
        FeatureRow {
            hits: self.hits,
            unans: self.unans,
            ok: self.ok,
            nxd: self.nxd,
            rfs: self.rfs,
            fail: self.fail,
            ok_ans: self.ok_ans,
            ok_ns: self.ok_ns,
            ok_add: self.ok_add,
            ok_nil: self.ok_nil,
            ok6: self.ok6,
            ok6nil: self.ok6nil,
            ok_sec: self.ok_sec,
            srvips: self.srvips.estimate(),
            srcips: self.srcips.estimate(),
            sources: self.sources.len() as f64,
            qnamesa: self.qnamesa.estimate(),
            qnames: self.qnames.estimate(),
            tlds: self.tlds.estimate(),
            eslds: self.eslds.estimate(),
            qtypes: self.qtypes.estimate(),
            ip4s: self.ip4s.estimate(),
            ip6s: self.ip6s.estimate(),
            qdots: avg(self.qdots_sum, self.hits),
            qdots_max: self.qdots_max,
            lvl: avg(self.lvl_sum, self.answered),
            nslvl: avg(self.nslvl_sum, self.answered),
            ttl_top: tv(&self.ttl),
            ttl_a_top: tv(&self.ttl_a),
            nsttl_top: tv(&self.nsttl),
            negttl_top: tv(&self.negttl),
            a_data_top: tv(&self.a_data),
            ns_names_top: tv(&self.ns_names),
            resp_delays: quart(&self.resp_delays),
            network_hops: quart(&self.network_hops),
            resp_size: quart(&self.resp_size),
        }
    }

    /// Reset all statistics for the next window (the object itself stays
    /// in the top-k cache — paper §2.4). Clears in place: every sketch
    /// keeps its storage, so neither a window dump nor an eviction (which
    /// recycles the victim's state through here) touches the allocator.
    pub fn reset(&mut self) {
        let FeatureSet {
            hits,
            unans,
            ok,
            nxd,
            rfs,
            fail,
            ok_ans,
            ok_ns,
            ok_add,
            ok_nil,
            ok6,
            ok6nil,
            ok_sec,
            qdots_sum,
            lvl_sum,
            nslvl_sum,
            answered,
            srvips,
            srcips,
            qnamesa,
            qnames,
            tlds,
            eslds,
            qtypes,
            ip4s,
            ip6s,
            sources,
            ttl,
            ttl_a,
            nsttl,
            negttl,
            a_data,
            ns_names,
            resp_delays,
            network_hops,
            resp_size,
            qdots_max,
        } = self;
        for counter in [
            hits, unans, ok, nxd, rfs, fail, ok_ans, ok_ns, ok_add, ok_nil, ok6, ok6nil, ok_sec,
            qdots_sum, lvl_sum, nslvl_sum, answered,
        ] {
            *counter = 0;
        }
        for hll in [
            srvips, srcips, qnamesa, qnames, tlds, eslds, qtypes, ip4s, ip6s,
        ] {
            hll.clear();
        }
        sources.clear();
        for top in [ttl, ttl_a, nsttl, negttl, a_data, ns_names] {
            top.clear();
        }
        for hist in [resp_delays, network_hops, resp_size] {
            hist.clear();
        }
        *qdots_max = 0;
    }

    /// Total transactions folded so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Export the live sketch state as a wire-ready [`FeatureState`],
    /// following the positional layout contract (`STATE_*` constants).
    pub fn to_state(&self) -> sketchwire::FeatureState {
        use sketchwire::{FeatureState, HistogramState, HllState, TopValuesState};
        FeatureState {
            adds: vec![
                self.hits,
                self.unans,
                self.ok,
                self.nxd,
                self.rfs,
                self.fail,
                self.ok_ans,
                self.ok_ns,
                self.ok_add,
                self.ok_nil,
                self.ok6,
                self.ok6nil,
                self.ok_sec,
                self.qdots_sum,
                self.lvl_sum,
                self.nslvl_sum,
                self.answered,
            ],
            maxes: vec![self.qdots_max as u64],
            hlls: [
                &self.srvips,
                &self.srcips,
                &self.qnamesa,
                &self.qnames,
                &self.tlds,
                &self.eslds,
                &self.qtypes,
                &self.ip4s,
                &self.ip6s,
            ]
            .into_iter()
            .map(HllState::from_sketch)
            .collect(),
            source_cap: STATE_SOURCE_CAP,
            sources: self.sources.clone(),
            tops: [
                &self.ttl,
                &self.ttl_a,
                &self.nsttl,
                &self.negttl,
                &self.a_data,
                &self.ns_names,
            ]
            .into_iter()
            .map(TopValuesState::from_sketch)
            .collect(),
            hists: [&self.resp_delays, &self.network_hops, &self.resp_size]
                .into_iter()
                .map(HistogramState::from_sketch)
                .collect(),
        }
    }

    /// Rebuild live sketch state from a (possibly merged) wire state.
    ///
    /// Merged states may exceed nominal capacities — top-value tables
    /// keep their most frequent entries (ties to the smaller value,
    /// matching [`TopValues::ranked`]) and contributor sets their first
    /// `source_cap` ids. A state whose shape does not match the layout
    /// contract is a [`StateError::LayoutMismatch`].
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
        if state.tops.len() != STATE_TOPS {
            return Err(StateError::LayoutMismatch("topvalues count"));
        }
        if state.tops.iter().any(|t| t.capacity == 0) {
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
        let a = &state.adds;
        let hll = |i: usize| state.hlls[i].to_sketch();
        let top = |i: usize| {
            let t = &state.tops[i];
            let cap = t.capacity as usize;
            let mut slots = t.slots.clone();
            slots.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
            slots.truncate(cap);
            TopValues::from_parts(cap, t.observed, slots)
        };
        let hist = |i: usize| state.hists[i].to_sketch();
        Ok(FeatureSet {
            hits: a[0],
            unans: a[1],
            ok: a[2],
            nxd: a[3],
            rfs: a[4],
            fail: a[5],
            ok_ans: a[6],
            ok_ns: a[7],
            ok_add: a[8],
            ok_nil: a[9],
            ok6: a[10],
            ok6nil: a[11],
            ok_sec: a[12],
            qdots_sum: a[13],
            lvl_sum: a[14],
            nslvl_sum: a[15],
            answered: a[16],
            srvips: hll(0),
            srcips: hll(1),
            qnamesa: hll(2),
            qnames: hll(3),
            tlds: hll(4),
            eslds: hll(5),
            qtypes: hll(6),
            ip4s: hll(7),
            ip6s: hll(8),
            sources: {
                let mut ids: Vec<u16> = state
                    .sources
                    .iter()
                    .take(state.source_cap as usize)
                    .copied()
                    .collect();
                ids.sort_unstable();
                ids.dedup();
                ids
            },
            ttl: top(0),
            ttl_a: top(1),
            nsttl: top(2),
            negttl: top(3),
            a_data: top(4),
            ns_names: top(5),
            resp_delays: hist(0),
            network_hops: hist(1),
            resp_size: hist(2),
            qdots_max: state.maxes[0].min(u8::MAX as u64) as u8,
        })
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
        let nodata = s.is_nodata();
        fs.hits += 1;
        match s.outcome {
            Outcome::Unanswered => fs.unans += 1,
            Outcome::NoError => fs.ok += 1,
            Outcome::NxDomain => fs.nxd += 1,
            Outcome::Refused => fs.rfs += 1,
            Outcome::ServFail => fs.fail += 1,
            Outcome::OtherError => {}
        }
        if s.outcome == Outcome::NoError {
            fs.ok_ans += s.ok_ans as u64;
            fs.ok_ns += s.ok_ns as u64;
            fs.ok_add += s.ok_add as u64;
            fs.ok_nil += nodata as u64;
            fs.ok6 += (s.qtype == RecordType::Aaaa) as u64;
            fs.ok6nil += (s.qtype == RecordType::Aaaa && nodata) as u64;
            fs.ok_sec += s.dnssec_ok as u64;
            fs.qnames.insert(s.qname.as_wire());
            if let Some(tld) = &s.tld {
                fs.tlds.insert(tld.as_bytes());
            }
            if let Some(esld) = &s.esld {
                fs.eslds.insert(esld.as_bytes());
            }
            s.ip4s.iter().for_each(|a| fs.ip4s.insert(&a.octets()));
            s.ip6s.iter().for_each(|a| fs.ip6s.insert(&a.octets()));
        }
        if s.outcome != Outcome::Unanswered {
            fs.answered += 1;
            fs.lvl_sum += s.answer_count as u64;
            fs.nslvl_sum += s.authority_ns_count as u64;
            s.delay_ms
                .into_iter()
                .for_each(|d| fs.resp_delays.record(d));
            s.hops
                .into_iter()
                .for_each(|h| fs.network_hops.record(h as f64));
            s.resp_size
                .into_iter()
                .for_each(|b| fs.resp_size.record(b as f64));
            if let Some(ttl) = s.answer_ttl {
                fs.ttl.record(ttl as u64);
                if s.qtype == RecordType::A {
                    fs.ttl_a.record(ttl as u64);
                }
                if s.qtype == RecordType::Ns {
                    fs.nsttl.record(ttl as u64);
                }
            }
            s.ns_ttl.into_iter().for_each(|t| fs.nsttl.record(t as u64));
            if let Some(m) = s.soa_minimum {
                if nodata || s.outcome == Outcome::NxDomain {
                    fs.negttl.record(m as u64);
                }
            }
            s.answer_data_hashes
                .iter()
                .for_each(|&h| fs.a_data.record(h));
            s.ns_name_hashes.iter().for_each(|&h| fs.ns_names.record(h));
        }
        fs.qdots_sum += s.qdots as u64;
        fs.qdots_max = fs.qdots_max.max(s.qdots);
        fs.qnamesa.insert(s.qname.as_wire());
        fs.qtypes.insert(&s.qtype.code().to_be_bytes());
        fs.srvips.insert(&ip(s.nameserver));
        fs.srcips.insert(&ip(s.resolver));
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
}
