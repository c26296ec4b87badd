//! Top-k object tracking (paper §2.2, step C): Space-Saving cache with a
//! Bloom-filter eviction gate and the 60-second residency rule.

use crate::features::{FeatureConfig, FeatureSet, FoldDigest};
use crate::keys::{Dataset, Key, KeyBuf};
use crate::summarize::TxSummary;
use sketches::{BloomFilter, SpaceSaving};

/// Half-life of the per-object rate estimate, seconds.
const RATE_HALFLIFE: f64 = 60.0;

/// One dataset's tracker: key extraction + Space-Saving + features.
///
/// The hot path is allocation-free in the steady state: keys are encoded
/// into a reusable [`KeyBuf`] scratch buffer and looked up by borrowed
/// bytes; an owned [`Key`] is built only when an object actually enters
/// the cache.
#[derive(Debug)]
pub struct TopKTracker {
    dataset: Dataset,
    ss: SpaceSaving<Key, FeatureSet>,
    /// Eviction gate: a key must have been seen before (within the current
    /// Bloom generation) to displace a monitored object.
    bloom: Option<BloomFilter>,
    feature_cfg: FeatureConfig,
    /// Reusable key-encoding scratch; lives here so `observe` allocates
    /// nothing per transaction.
    keybuf: KeyBuf,
    /// Reusable digest for the one-tracker [`TopKTracker::observe`].
    digest: FoldDigest,
    /// Transactions dropped because their object is not monitored.
    dropped: u64,
    /// Transactions aggregated into a monitored object.
    kept: u64,
    /// Transactions skipped by the dataset's input filter.
    filtered: u64,
}

impl TopKTracker {
    /// Create a tracker for `dataset` with capacity `k`.
    pub fn new(dataset: Dataset, k: usize, feature_cfg: FeatureConfig, bloom_gate: bool) -> Self {
        TopKTracker {
            dataset,
            ss: SpaceSaving::new(k, RATE_HALFLIFE),
            bloom: bloom_gate.then(|| BloomFilter::new(4 * k.max(1_024), 0.02)),
            feature_cfg,
            keybuf: KeyBuf::new(),
            digest: FoldDigest::default(),
            dropped: 0,
            kept: 0,
            filtered: 0,
        }
    }

    /// The dataset this tracker aggregates.
    pub fn dataset(&self) -> Dataset {
        self.dataset
    }

    /// Rebuild a tracker from serialized state captured at a window
    /// boundary — the historical store's crash-recovery path.
    ///
    /// [`TopKTracker::export_state`] resets every feature set as it
    /// exports, so the tracker this rebuilds — historical counts, error
    /// terms, insertion times, bucket order, and the admission-gate
    /// bloom, all under *fresh* feature state — is exactly the
    /// post-export tracker: feeding both the same subsequent traffic
    /// yields the same exports, saturated or not (entries arrive in the
    /// export's restore order, which reproduces eviction-victim choices;
    /// the serialized gate reproduces admission decisions).
    /// `kept`/`dropped`/`filtered` restart at zero; the exporter computes
    /// per-window deltas against its own boundary snapshot, so absolute
    /// restart does not skew any window's statistics.
    ///
    /// `state` must be whole (`chunks == 1`; reassemble with
    /// `merge_chunks` first) and must name a known dataset with
    /// renderable keys — anything else is a typed error.
    pub fn restore(
        state: &sketchwire::TopKState,
        feature_cfg: FeatureConfig,
        bloom_gate: bool,
    ) -> Result<TopKTracker, sketchwire::StateError> {
        use sketchwire::StateError;
        if state.chunks != 1 {
            return Err(StateError::ChunkMismatch("restore from unassembled chunk"));
        }
        let dataset = Dataset::from_name(&state.dataset)
            .ok_or(StateError::LayoutMismatch("unknown dataset name"))?;
        if state.capacity == 0 || state.capacity > usize::MAX as u64 {
            return Err(StateError::LayoutMismatch("restore capacity out of range"));
        }
        let mut tracker =
            TopKTracker::new(dataset, state.capacity as usize, feature_cfg, bloom_gate);
        // Reinstall the serialized admission gate bit-exact: hashing is
        // deterministic, so the restored gate answers every future probe
        // the way the original would have — which is what makes resume
        // exact even for saturated trackers.
        if bloom_gate {
            if let Some(g) = &state.gate {
                tracker.bloom = Some(
                    g.to_filter()
                        .ok_or(StateError::LayoutMismatch("inconsistent gate state"))?,
                );
            }
        }
        for e in &state.entries {
            let key = Key::from_render(dataset, &e.key)
                .ok_or(StateError::LayoutMismatch("unrenderable key"))?;
            if !tracker.ss.restore_entry(
                key,
                e.count,
                e.error,
                e.inserted_at,
                FeatureSet::new(feature_cfg),
            ) {
                return Err(StateError::LayoutMismatch(
                    "duplicate or over-capacity restore entry",
                ));
            }
        }
        tracker.ss.restore_totals(state.observed, state.evictions);
        Ok(tracker)
    }

    /// Feed one summary: the one-tracker form of
    /// [`TopKTracker::observe_digest`], the digest built here.
    pub fn observe(&mut self, s: &TxSummary) {
        let mut digest = std::mem::take(&mut self.digest);
        digest.load(s);
        self.observe_digest(s, &digest);
        self.digest = digest;
    }

    /// Feed one summary, `d` being its [`FoldDigest`] (loaded once per
    /// summary and shared by every dataset's tracker). Allocates nothing
    /// once the cache is full, whether the object is monitored or
    /// displaces another: the key is encoded into the reusable scratch
    /// buffer and looked up by borrowed bytes, and feature state is
    /// recycled.
    pub fn observe_digest(&mut self, s: &TxSummary, d: &FoldDigest) {
        if !self.dataset.key_into(s, &mut self.keybuf) {
            self.filtered += 1;
            return;
        }
        let key = self.keybuf.as_bytes();
        // One index probe per transaction: a monitored object folds
        // straight away, and only an unknown key goes on to admission.
        if let Some(fs) = self.ss.observe_known(key, s.time) {
            fs.fold_digest(s, d);
            self.kept += 1;
            return;
        }
        // The Bloom gate only applies when the key would *displace* a
        // monitored object: if the cache is full, require a second
        // sighting first.
        if let Some(bloom) = &mut self.bloom {
            if self.ss.len() == self.ss.capacity() {
                let seen_before = bloom.check_and_insert(key);
                if !seen_before {
                    self.dropped += 1;
                    return;
                }
                // Generation rotation keeps the filter from saturating.
                if bloom.fill_ratio() > 0.5 {
                    bloom.clear();
                }
            }
        }
        let cfg = self.feature_cfg;
        // An evicted object's feature state is recycled in place, never
        // dropped and rebuilt: churn costs no allocator work.
        let fs = self.ss.admit(
            self.keybuf.to_key(),
            s.time,
            || FeatureSet::new(cfg),
            FeatureSet::reset,
        );
        fs.fold_digest(s, d);
        self.kept += 1;
    }

    /// Monitored object count.
    pub fn len(&self) -> usize {
        self.ss.len()
    }

    /// True if nothing is monitored yet.
    pub fn is_empty(&self) -> bool {
        self.ss.is_empty()
    }

    /// `(kept, dropped, filtered)` transaction counts — the paper's "data
    /// collection statistics" row at the end of each TSV file.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.kept, self.dropped, self.filtered)
    }

    /// Monitored objects displaced so far (Space-Saving `replace_min`
    /// calls) — the churn number the telemetry layer exports.
    pub fn evictions(&self) -> u64 {
        self.ss.evictions()
    }

    /// Smallest monitored count — the Space-Saving error bound on any
    /// reported frequency.
    pub fn min_count(&self) -> u64 {
        self.ss.min_count()
    }

    /// Worst-case over-count bound (observed / capacity).
    pub fn error_bound(&self) -> u64 {
        self.ss.error_bound()
    }

    /// Export the tracker's full state for one window as a wire-ready
    /// [`sketchwire::TopKState`], then reset all feature state (the top-k
    /// list itself stays intact, exactly like [`TopKTracker::dump`]).
    ///
    /// *Every* monitored entry is exported, including zero-hit ones: the
    /// federated merge law needs to know which keys each collector
    /// tracked (a key absent from an input gains that input's
    /// `min_count` on both bounds). Residency and the hit filter are
    /// re-applied when the merged global window is rendered. `kept`,
    /// `dropped`, and `filtered` are this window's deltas, computed by
    /// the caller against the previous window boundary.
    pub fn export_state(
        &mut self,
        kept: u64,
        dropped: u64,
        filtered: u64,
    ) -> sketchwire::TopKState {
        let entries = self
            .ss
            // Restore order (count-descending; canonical within ties):
            // re-inserting in this order reproduces the eviction-victim
            // chains, which keeps a `--store DIR` resume exact even for
            // saturated trackers.
            .iter_restore()
            .into_iter()
            .map(|e| sketchwire::TopKEntry {
                key: e.key.render(),
                count: e.count,
                error: e.error,
                inserted_at: e.inserted_at,
                features: e.value.to_state(),
            })
            .collect();
        self.ss.for_each_value(|_, _, _, _, fs| fs.reset());
        sketchwire::TopKState {
            dataset: self.dataset.name().to_string(),
            capacity: self.ss.capacity() as u64,
            observed: self.ss.observed(),
            min_count: self.ss.min_count(),
            error_bound: self.ss.error_bound(),
            evictions: self.ss.evictions(),
            kept,
            dropped,
            filtered,
            chunk: 0,
            chunks: 1,
            entries,
            // The admission gate is live tracker state: without it a
            // resumed saturated tracker would re-admit keys the original
            // would have filtered, and the export streams would diverge.
            gate: self.bloom.as_ref().map(sketchwire::GateState::from_filter),
        }
    }

    /// Capture one window: render every object's features, reset the
    /// feature state, keep the top-k list intact.
    ///
    /// Objects inserted after `window_start` are skipped — they did not
    /// survive a full window in the cache (paper §2.4's residency rule) —
    /// but their state is still reset so the next window starts clean.
    pub fn dump(&mut self, window_start: f64) -> Vec<(String, crate::features::FeatureRow)> {
        let mut rows = Vec::new();
        let monitored = self.ss.len();
        // One pass: residency comes straight from each entry's insertion
        // time, so only emitted rows pay a key rendering (and nothing is
        // cloned into a side set, as the old two-pass version did).
        self.ss
            .for_each_value(|key, _count, _rate, inserted_at, fs| {
                if inserted_at <= window_start && fs.hits() > 0 {
                    if rows.is_empty() {
                        // Sized on the first row, so a window without
                        // traffic allocates nothing at all.
                        rows.reserve(monitored);
                    }
                    rows.push((key.render(), fs.row()));
                }
                fs.reset();
            });
        // Deterministic output order: by hits desc, then key.
        rows.sort_by(|a, b| b.1.hits.cmp(&a.1.hits).then_with(|| a.0.cmp(&b.0)));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psl::Psl;
    use simnet::{SimConfig, Simulation};

    fn feed(tracker: &mut TopKTracker, secs: f64) {
        let psl = Psl::embedded();
        let mut sim = Simulation::from_config(SimConfig::small());
        sim.run(secs, &mut |tx| {
            tracker.observe(&TxSummary::from_transaction(tx, &psl));
        });
    }

    #[test]
    fn tracks_top_nameservers() {
        let mut t = TopKTracker::new(Dataset::SrvIp, 100, FeatureConfig::default(), false);
        feed(&mut t, 2.0);
        assert!(!t.is_empty());
        let (kept, dropped, filtered) = t.stats();
        assert!(kept > 0);
        assert_eq!(filtered, 0, "srvip keys every tx");
        let _ = dropped;
    }

    #[test]
    fn dump_resets_but_keeps_list() {
        let mut t = TopKTracker::new(Dataset::Qtype, 32, FeatureConfig::default(), false);
        feed(&mut t, 1.0);
        let before_len = t.len();
        let rows = t.dump(2.0); // window began after every insertion
        assert!(!rows.is_empty());
        assert_eq!(t.len(), before_len, "top-k list must survive the dump");
        // After a dump with no new traffic, all feature state is empty.
        let rows2 = t.dump(2.0);
        assert!(rows2.is_empty(), "no hits since reset → no rows");
    }

    #[test]
    fn residency_rule_skips_new_objects() {
        let mut t = TopKTracker::new(Dataset::Qtype, 32, FeatureConfig::default(), false);
        feed(&mut t, 1.0);
        // Window started *after* every insertion time (sim times ≤1.0):
        // dump at window_start=2.0 keeps everything (inserted ≤ 2.0)...
        let rows = t.dump(2.0);
        assert!(!rows.is_empty());
        // ...while a dump claiming the window started at t=-1 (before any
        // insertion) must skip all objects.
        let mut t2 = TopKTracker::new(Dataset::Qtype, 32, FeatureConfig::default(), false);
        feed(&mut t2, 1.0);
        let rows2 = t2.dump(-1.0);
        assert!(rows2.is_empty());
    }

    #[test]
    fn rows_are_sorted_by_hits() {
        let mut t = TopKTracker::new(Dataset::SrvIp, 200, FeatureConfig::default(), false);
        feed(&mut t, 2.0);
        let rows = t.dump(2.0);
        for w in rows.windows(2) {
            assert!(w[0].1.hits >= w[1].1.hits);
        }
    }

    #[test]
    fn bloom_gate_reduces_churn() {
        // A tiny cache over FQNs with heavy one-shot noise: the gated
        // tracker must aggregate more traffic into its monitored objects
        // (fewer useless evictions) than the ungated one.
        let psl = Psl::embedded();
        let cfg = SimConfig {
            weight_botnet: 40.0, // unique names: pure churn
            ..SimConfig::small()
        };
        let mut gated = TopKTracker::new(Dataset::Qname, 64, FeatureConfig::default(), true);
        let mut raw = TopKTracker::new(Dataset::Qname, 64, FeatureConfig::default(), false);
        let mut sim = Simulation::from_config(cfg);
        sim.run(2.0, &mut |tx| {
            let s = TxSummary::from_transaction(tx, &psl);
            gated.observe(&s);
            raw.observe(&s);
        });
        let (_, gated_dropped, _) = gated.stats();
        assert!(gated_dropped > 0, "gate should drop one-shot names");
        // The gated tracker's monitored objects hold at least about as
        // many total hits as the ungated one (popular objects were not
        // evicted by churn). Small-sample noise allows a few per cent of
        // slack; what must not happen is the gate *costing* real traffic.
        let gated_hits: u64 = gated.dump(3.0).iter().map(|r| r.1.hits).sum();
        let raw_hits: u64 = raw.dump(3.0).iter().map(|r| r.1.hits).sum();
        assert!(
            gated_hits as f64 >= 0.9 * raw_hits as f64,
            "gated {gated_hits} far below raw {raw_hits}"
        );
    }

    #[test]
    fn restore_resumes_export_stream() {
        let psl = Psl::embedded();
        let mut summaries = Vec::new();
        let mut sim = Simulation::from_config(SimConfig::small());
        sim.run(2.0, &mut |tx| {
            summaries.push(TxSummary::from_transaction(tx, &psl));
        });
        let mid = summaries.len() / 2;

        // Live tracker sees everything, exporting (and resetting
        // features) at the midpoint boundary. Capacity above the
        // sample's distinct-key count: the unsaturated base case (the
        // saturated, gated case is covered below).
        let cfg = FeatureConfig::default();
        let mut live = TopKTracker::new(Dataset::SrvIp, 20_000, cfg, false);
        for s in &summaries[..mid] {
            live.observe(s);
        }
        let boundary = live.export_state(0, 0, 0);
        assert_eq!(boundary.evictions, 0, "test premise: unsaturated cache");
        let mut restored = TopKTracker::restore(&boundary, cfg, false).expect("restore");
        assert_eq!(restored.len(), live.len());
        assert_eq!(restored.min_count(), live.min_count());
        assert_eq!(restored.error_bound(), live.error_bound());

        for s in &summaries[mid..] {
            live.observe(s);
            restored.observe(s);
        }
        // Unsaturated caches: the next exports must agree entry-for-entry
        // (canonical key order; tie order within equal counts is the only
        // representation freedom).
        let canon = |mut st: sketchwire::TopKState| {
            st.entries.sort_by(|a, b| a.key.cmp(&b.key));
            st
        };
        let a = canon(live.export_state(0, 0, 0));
        let b = canon(restored.export_state(0, 0, 0));
        assert_eq!(a, b, "restored tracker must resume the export stream");
    }

    #[test]
    fn restore_resumes_saturated_gated_tracker() {
        // The hard case the serialized gate and restore order exist for:
        // a tiny gated cache under heavy churn, split mid-stream. The
        // restored tracker must make the same admission decisions (gate
        // bits are bit-exact) and evict the same victims (bucket chains
        // are reproduced), so the subsequent exports agree exactly.
        let psl = Psl::embedded();
        let cfg = SimConfig {
            weight_botnet: 40.0, // unique names: saturates a tiny cache
            ..SimConfig::small()
        };
        let mut summaries = Vec::new();
        let mut sim = Simulation::from_config(cfg);
        sim.run(2.0, &mut |tx| {
            summaries.push(TxSummary::from_transaction(tx, &psl));
        });
        let mid = summaries.len() / 2;

        let fcfg = FeatureConfig::default();
        let mut live = TopKTracker::new(Dataset::Qname, 64, fcfg, true);
        for s in &summaries[..mid] {
            live.observe(s);
        }
        let at_boundary = live.stats();
        let boundary = live.export_state(0, 0, 0);
        assert!(boundary.evictions > 0, "test premise: saturated cache");
        assert!(boundary.gate.is_some(), "gated export carries the gate");

        let mut restored = TopKTracker::restore(&boundary, fcfg, true).expect("restore");
        for s in &summaries[mid..] {
            live.observe(s);
            restored.observe(s);
        }
        // The restored tracker's counters restart at zero, so compare
        // the live tracker's post-boundary deltas.
        let (lk, ld, lf) = live.stats();
        let (bk, bd, bf) = at_boundary;
        assert_eq!(
            (lk - bk, ld - bd, lf - bf),
            restored.stats(),
            "admission decisions"
        );
        assert_eq!(live.evictions(), restored.evictions());
        let a = live.export_state(0, 0, 0);
        let b = restored.export_state(0, 0, 0);
        assert_eq!(a, b, "saturated gated resume must be exact");
    }

    #[test]
    fn restore_rejects_malformed_state() {
        let mut t = TopKTracker::new(Dataset::SrvIp, 16, FeatureConfig::default(), false);
        feed(&mut t, 0.5);
        let good = t.export_state(0, 0, 0);
        let cfg = FeatureConfig::default();
        let mut unknown = good.clone();
        unknown.dataset = "mystery".into();
        assert!(TopKTracker::restore(&unknown, cfg, false).is_err());
        let mut chunked = good.clone();
        chunked.chunks = 2;
        assert!(TopKTracker::restore(&chunked, cfg, false).is_err());
        let mut badkey = good.clone();
        if let Some(e) = badkey.entries.first_mut() {
            e.key = "not an ip".into();
            assert!(TopKTracker::restore(&badkey, cfg, false).is_err());
        }
    }

    #[test]
    fn filter_counts_for_aafqdn() {
        let mut t = TopKTracker::new(Dataset::AaFqdn, 100, FeatureConfig::default(), false);
        feed(&mut t, 1.0);
        let (kept, _, filtered) = t.stats();
        assert!(kept > 0);
        assert!(filtered > 0, "referrals must be filtered out");
    }
}
