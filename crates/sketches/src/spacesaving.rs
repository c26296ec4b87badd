//! The Space-Saving algorithm (Metwally, Agrawal, El Abbadi 2005).
//!
//! Tracks the `k` most frequent keys of a stream with bounded memory. Each
//! monitored key carries a count and a maximum-overestimation bound
//! (`error`). When a new key arrives and the cache is full, the minimum-
//! count entry is evicted and the newcomer inherits its count — this is
//! what gives the classic guarantees:
//!
//! * every key with true frequency > N/k is in the cache;
//! * for every cached key, `count − error ≤ true ≤ count`;
//! * `error ≤ N/k` where `N` is the number of observed items.
//!
//! The DNS Observatory additionally attaches a per-key *state* (`V`) used
//! for traffic features, and an exponentially-decaying rate estimate used
//! to rank objects by recent traffic (paper §2.2). On eviction the state
//! is replaced (feature statistics must not be inherited by an unrelated
//! key) but the count/rate are inherited, exactly as the algorithm demands.
//!
//! This implementation uses a `HashMap` keyed by `K` plus an intrusive
//! doubly-linked list of count buckets ("stream summary"), giving O(1)
//! amortized increments.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// Index type into the slab of monitored entries.
type Idx = usize;

const NIL: Idx = usize::MAX;

/// One monitored entry, exposed when iterating a [`SpaceSaving`].
#[derive(Debug, Clone)]
pub struct TopEntry<'a, K, V> {
    /// The tracked key.
    pub key: &'a K,
    /// Estimated hit count (upper bound on the true count).
    pub count: u64,
    /// Maximum overestimation: `count - error` lower-bounds the true count.
    pub error: u64,
    /// Decayed rate estimate in hits per second, if rate tracking is used.
    pub rate: f64,
    /// Caller-attached state.
    pub value: &'a V,
    /// Stream time (seconds) when this key last entered the cache.
    pub inserted_at: f64,
}

#[derive(Debug)]
struct Entry<K, V> {
    key: K,
    count: u64,
    error: u64,
    value: V,
    /// Exponentially decaying rate state.
    rate: f64,
    rate_updated: f64,
    inserted_at: f64,
    /// Bucket this entry belongs to.
    bucket: Idx,
    /// Neighbours within the bucket (doubly linked).
    prev: Idx,
    next: Idx,
}

#[derive(Debug)]
struct Bucket {
    count: u64,
    /// First entry in this bucket.
    head: Idx,
    /// Adjacent buckets ordered by count (asc).
    lower: Idx,
    higher: Idx,
}

/// Space-Saving top-k tracker with attached per-key state.
///
/// `V` is created on demand via a factory closure passed to
/// [`SpaceSaving::observe_with`]; the common case of `V: Default` can use
/// [`SpaceSaving::observe`].
#[derive(Debug)]
pub struct SpaceSaving<K, V> {
    capacity: usize,
    /// Half-life of the decaying rate estimate, seconds.
    rate_halflife: f64,
    entries: Vec<Entry<K, V>>,
    buckets: Vec<Bucket>,
    free_buckets: Vec<Idx>,
    index: HashMap<K, Idx>,
    /// Lowest-count bucket.
    min_bucket: Idx,
    observed: u64,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V> SpaceSaving<K, V> {
    /// Create a tracker for the top `capacity` keys. `rate_halflife` is
    /// the half-life (in stream seconds) of the per-key rate estimate.
    pub fn new(capacity: usize, rate_halflife: f64) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(rate_halflife > 0.0, "half-life must be positive");
        SpaceSaving {
            capacity,
            rate_halflife,
            entries: Vec::with_capacity(capacity),
            buckets: Vec::new(),
            free_buckets: Vec::new(),
            index: HashMap::with_capacity(capacity),
            min_bucket: NIL,
            observed: 0,
            evictions: 0,
        }
    }

    /// Total number of observations fed into the tracker.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Keys displaced from the cache since construction (each eviction
    /// inherits the minimum count, per the Space-Saving update rule).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Number of currently monitored keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Capacity `k` given at construction.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The guaranteed error bound `N/k` of any reported count.
    pub fn error_bound(&self) -> u64 {
        self.observed / self.capacity as u64
    }

    /// Observe `key` at stream time `now` (seconds); returns a mutable
    /// reference to its state. `V: Default` convenience over
    /// [`SpaceSaving::observe_with`].
    pub fn observe(&mut self, key: &K, now: f64) -> &mut V
    where
        V: Default,
    {
        self.observe_with(key, now, V::default)
    }

    /// Observe `key` at stream time `now`, with `make` supplying fresh
    /// state whenever the key (re)enters the cache.
    ///
    /// Returns the state so the caller can fold transaction features into
    /// it. If the key displaced another, the state is fresh even though
    /// count/error/rate are inherited.
    pub fn observe_with(&mut self, key: &K, now: f64, make: impl Fn() -> V) -> &mut V {
        self.observe_with_ref(key, now, || key.clone(), &make, |v| *v = make())
    }

    /// Observe a key by a borrowed lookup form `q`, deferring construction
    /// of the owned key until it actually has to enter the cache.
    ///
    /// In the steady state — the key is already monitored — this path
    /// performs no owned-key construction at all, which is what makes the
    /// tracker's hot loop allocation-free. `make_key` is called only on
    /// insertion (cache not yet full, or eviction of the minimum entry)
    /// and must produce a key whose `Borrow<Q>` view equals `q`; `make`
    /// and `recycle` are [`SpaceSaving::admit`]'s.
    pub fn observe_with_ref<Q>(
        &mut self,
        q: &Q,
        now: f64,
        make_key: impl FnOnce() -> K,
        make: impl FnOnce() -> V,
        recycle: impl FnOnce(&mut V),
    ) -> &mut V
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        match self.index.get(q) {
            Some(&idx) => self.hit(idx, now),
            None => {
                let key = make_key();
                debug_assert!(
                    key.borrow() == q,
                    "make_key must agree with the lookup form"
                );
                self.admit(key, now, make, recycle)
            }
        }
    }

    /// Observe `q` only if it is already monitored: one index probe, and
    /// nothing at all changes when it is not. Callers that decide
    /// admission themselves (an eviction gate) follow a `None` with
    /// [`SpaceSaving::admit`] or with nothing.
    pub fn observe_known<Q>(&mut self, q: &Q, now: f64) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let idx = *self.index.get(q)?;
        Some(self.hit(idx, now))
    }

    /// Observe a key that is not monitored: it takes a free slot with
    /// `make()` as its state or, when the cache is full, the minimum
    /// entry's slot. On eviction the victim's state stays where it is and
    /// `recycle` resets it in place — nothing is dropped or built, so a
    /// tracker under churn does no allocator work for its states — while
    /// count/error/rate are inherited as the algorithm demands. A key
    /// that turns out to be monitored is simply observed.
    pub fn admit(
        &mut self,
        key: K,
        now: f64,
        make: impl FnOnce() -> V,
        recycle: impl FnOnce(&mut V),
    ) -> &mut V {
        use std::collections::hash_map::Entry as Slot;
        let idx = match self.index.entry(key) {
            Slot::Occupied(slot) => {
                let idx = *slot.get();
                return self.hit(idx, now);
            }
            Slot::Vacant(slot) if self.entries.len() < self.capacity => {
                let idx = self.entries.len();
                self.entries.push(Entry {
                    key: slot.key().clone(),
                    count: 1,
                    error: 0,
                    value: make(),
                    rate: 0.0,
                    rate_updated: now,
                    inserted_at: now,
                    bucket: NIL,
                    prev: NIL,
                    next: NIL,
                });
                slot.insert(idx);
                self.link_new(idx);
                idx
            }
            Slot::Vacant(slot) => {
                let victim = self.buckets[self.min_bucket].head;
                debug_assert_ne!(victim, NIL);
                let old_key = std::mem::replace(&mut self.entries[victim].key, slot.key().clone());
                slot.insert(victim);
                self.index.remove(&old_key);
                recycle(&mut self.entries[victim].value);
                self.replace_min(victim, now);
                victim
            }
        };
        self.observed += 1;
        self.bump_rate(idx, now);
        &mut self.entries[idx].value
    }

    /// One more observation of the monitored entry `idx`.
    fn hit(&mut self, idx: Idx, now: f64) -> &mut V {
        self.observed += 1;
        self.bump(idx, now);
        &mut self.entries[idx].value
    }

    /// Re-insert a monitored entry captured by a previous state export,
    /// preserving its historical count, error term, and insertion time.
    ///
    /// This is the crash-recovery path of the historical store: a tracker
    /// serialized at a window boundary is rebuilt entry by entry, after
    /// which [`SpaceSaving::restore_totals`] re-establishes the cumulative
    /// `observed`/`evictions` totals. The bucket list is rebuilt by an
    /// ordered walk from the minimum, so entries may arrive in any count
    /// order. Returns `false` (and changes nothing) when the cache is
    /// already full or the key is already monitored.
    pub fn restore_entry(
        &mut self,
        key: K,
        count: u64,
        error: u64,
        inserted_at: f64,
        value: V,
    ) -> bool {
        if self.entries.len() >= self.capacity || self.index.contains_key(&key) {
            return false;
        }
        let idx = self.entries.len();
        self.entries.push(Entry {
            key: key.clone(),
            count,
            error,
            value,
            rate: 0.0,
            rate_updated: inserted_at,
            inserted_at,
            bucket: NIL,
            prev: NIL,
            next: NIL,
        });
        // Walk the ordered bucket list upward to the slot for `count`.
        let mut lower = NIL;
        let mut cur = self.min_bucket;
        while cur != NIL && self.buckets[cur].count < count {
            lower = cur;
            cur = self.buckets[cur].higher;
        }
        let target = if cur != NIL && self.buckets[cur].count == count {
            cur
        } else {
            self.alloc_bucket(count, lower, cur)
        };
        self.push_into_bucket(idx, target);
        self.index.insert(key, idx);
        true
    }

    /// Restore the cumulative observation totals exported alongside the
    /// entries re-inserted via [`SpaceSaving::restore_entry`].
    pub fn restore_totals(&mut self, observed: u64, evictions: u64) {
        self.observed = observed;
        self.evictions = evictions;
    }

    /// Estimated count for `key` if it is currently monitored. Accepts any
    /// borrowed form of the key (e.g. `&[u8]` for byte-backed keys).
    pub fn count<Q>(&self, key: &Q) -> Option<u64>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.index.get(key).map(|&i| self.entries[i].count)
    }

    /// The minimum count over all monitored entries (the next eviction
    /// inherits this); 0 while the cache is not full.
    pub fn min_count(&self) -> u64 {
        if self.entries.len() < self.capacity || self.min_bucket == NIL {
            0
        } else {
            self.buckets[self.min_bucket].count
        }
    }

    /// Iterate over all monitored entries in descending count order.
    pub fn iter_desc(&self) -> Vec<TopEntry<'_, K, V>> {
        let mut order: Vec<Idx> = (0..self.entries.len()).collect();
        order.sort_by(|&a, &b| self.entries[b].count.cmp(&self.entries[a].count));
        order
            .into_iter()
            .map(|i| {
                let e = &self.entries[i];
                TopEntry {
                    key: &e.key,
                    count: e.count,
                    error: e.error,
                    rate: self.decayed_rate(e, e.rate_updated),
                    value: &e.value,
                    inserted_at: e.inserted_at,
                }
            })
            .collect()
    }

    /// Iterate over all monitored entries in *restore order*: buckets
    /// from highest count to lowest, each bucket tail→head. Re-inserting
    /// entries in this order via [`SpaceSaving::restore_entry`] (which
    /// pushes to each bucket's head) reproduces every bucket chain
    /// exactly — and with it every future eviction-victim choice, which
    /// is what makes a serialized saturated tracker resume exact. The
    /// order is also count-descending, so it doubles as a display order.
    pub fn iter_restore(&self) -> Vec<TopEntry<'_, K, V>> {
        let mut buckets_desc = Vec::new();
        let mut cur = self.min_bucket;
        while cur != NIL {
            buckets_desc.push(cur);
            cur = self.buckets[cur].higher;
        }
        buckets_desc.reverse();
        let mut out = Vec::with_capacity(self.entries.len());
        for b in buckets_desc {
            let mut chain = Vec::new();
            let mut e = self.buckets[b].head;
            while e != NIL {
                chain.push(e);
                e = self.entries[e].next;
            }
            // Tail first: head-insertion on restore rebuilds head..tail.
            for &i in chain.iter().rev() {
                let e = &self.entries[i];
                out.push(TopEntry {
                    key: &e.key,
                    count: e.count,
                    error: e.error,
                    rate: self.decayed_rate(e, e.rate_updated),
                    value: &e.value,
                    inserted_at: e.inserted_at,
                });
            }
        }
        out
    }

    /// Visit every monitored entry mutably (used by the 60 s dump step to
    /// harvest-and-reset feature state without touching the top-k list).
    /// The callback receives `(key, count, rate, inserted_at, value)` so
    /// window-residency checks need no separate key-collecting pass.
    pub fn for_each_value<F: FnMut(&K, u64, f64, f64, &mut V)>(&mut self, mut f: F) {
        for e in &mut self.entries {
            let rate = {
                // Inline decay with current knowledge; rate_updated stays.
                e.rate
            };
            f(&e.key, e.count, rate, e.inserted_at, &mut e.value);
        }
    }

    /// Age of the entry for `key` (seconds since insertion) at `now`.
    pub fn entry_age(&self, key: &K, now: f64) -> Option<f64> {
        self.index
            .get(key)
            .map(|&i| now - self.entries[i].inserted_at)
    }

    fn decayed_rate(&self, e: &Entry<K, V>, now: f64) -> f64 {
        let dt = (now - e.rate_updated).max(0.0);
        e.rate * 0.5f64.powf(dt / self.rate_halflife)
    }

    fn bump_rate(&mut self, idx: Idx, now: f64) {
        let halflife = self.rate_halflife;
        let e = &mut self.entries[idx];
        let dt = (now - e.rate_updated).max(0.0);
        // Decay the old estimate to `now`, then add this hit's
        // contribution. Normalizing a unit impulse by the half-life keeps
        // the estimate in hits/second.
        let decayed = e.rate * 0.5f64.powf(dt / halflife);
        e.rate = decayed + std::f64::consts::LN_2 / halflife;
        e.rate_updated = now;
    }

    /// Move `idx` from its bucket to the bucket for `count+1`.
    fn bump(&mut self, idx: Idx, now: f64) {
        let old_bucket = self.entries[idx].bucket;
        let new_count = self.entries[idx].count + 1;
        self.entries[idx].count = new_count;

        // Find or create the bucket holding `new_count`. It is either the
        // next-higher bucket (if its count matches) or a new bucket wedged
        // between the two.
        let higher = self.buckets[old_bucket].higher;
        let target = if higher != NIL && self.buckets[higher].count == new_count {
            higher
        } else {
            self.alloc_bucket(new_count, old_bucket, higher)
        };

        self.unlink(idx);
        self.push_into_bucket(idx, target);
        self.maybe_free_bucket(old_bucket);
        self.bump_rate(idx, now);
    }

    /// Put the just-pushed entry `idx` (count 1) on the bucket list.
    fn link_new(&mut self, idx: Idx) {
        // Bucket with count 1 is by definition the minimum if present.
        let target = if self.min_bucket != NIL && self.buckets[self.min_bucket].count == 1 {
            self.min_bucket
        } else {
            self.alloc_bucket(1, NIL, self.min_bucket)
        };
        self.push_into_bucket(idx, target);
    }

    /// The minimum entry `victim` now holds a new key: inherit the
    /// minimum count as the error term and move up one bucket.
    fn replace_min(&mut self, victim: Idx, now: f64) {
        self.evictions += 1;
        let bucket = self.min_bucket;
        let min_count = self.buckets[bucket].count;
        {
            let e = &mut self.entries[victim];
            e.error = min_count;
            e.count = min_count + 1;
            e.inserted_at = now;
            // Rate state is inherited (decaying estimate of the slot's
            // traffic), matching the paper: "keeping (and updating) the
            // frequency estimate of the evicted entry".
        }

        // Move to the count+1 bucket, same as bump but starting from min.
        let higher = self.buckets[bucket].higher;
        let target = if higher != NIL && self.buckets[higher].count == min_count + 1 {
            higher
        } else {
            self.alloc_bucket(min_count + 1, bucket, higher)
        };
        self.unlink(victim);
        self.push_into_bucket(victim, target);
        self.maybe_free_bucket(bucket);
    }

    fn alloc_bucket(&mut self, count: u64, lower: Idx, higher: Idx) -> Idx {
        let idx = if let Some(free) = self.free_buckets.pop() {
            self.buckets[free] = Bucket {
                count,
                head: NIL,
                lower,
                higher,
            };
            free
        } else {
            self.buckets.push(Bucket {
                count,
                head: NIL,
                lower,
                higher,
            });
            self.buckets.len() - 1
        };
        if lower != NIL {
            self.buckets[lower].higher = idx;
        } else {
            self.min_bucket = idx;
        }
        if higher != NIL {
            self.buckets[higher].lower = idx;
        }
        idx
    }

    fn push_into_bucket(&mut self, idx: Idx, bucket: Idx) {
        let head = self.buckets[bucket].head;
        self.entries[idx].bucket = bucket;
        self.entries[idx].prev = NIL;
        self.entries[idx].next = head;
        if head != NIL {
            self.entries[head].prev = idx;
        }
        self.buckets[bucket].head = idx;
    }

    fn unlink(&mut self, idx: Idx) {
        let (prev, next, bucket) = {
            let e = &self.entries[idx];
            (e.prev, e.next, e.bucket)
        };
        if prev != NIL {
            self.entries[prev].next = next;
        } else {
            self.buckets[bucket].head = next;
        }
        if next != NIL {
            self.entries[next].prev = prev;
        }
        self.entries[idx].prev = NIL;
        self.entries[idx].next = NIL;
        self.entries[idx].bucket = NIL;
    }

    /// Release `bucket` if it became empty, splicing the ordered list.
    fn maybe_free_bucket(&mut self, bucket: Idx) {
        if self.buckets[bucket].head != NIL {
            return;
        }
        let (lower, higher) = (self.buckets[bucket].lower, self.buckets[bucket].higher);
        if lower != NIL {
            self.buckets[lower].higher = higher;
        } else {
            self.min_bucket = higher;
        }
        if higher != NIL {
            self.buckets[higher].lower = lower;
        }
        self.free_buckets.push(bucket);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Ss = SpaceSaving<String, u32>;

    fn observe(ss: &mut Ss, key: &str, t: f64) {
        *ss.observe(&key.to_string(), t) += 1;
    }

    #[test]
    fn tracks_exact_counts_below_capacity() {
        let mut ss = Ss::new(10, 60.0);
        for _ in 0..5 {
            observe(&mut ss, "a", 0.0);
        }
        for _ in 0..3 {
            observe(&mut ss, "b", 0.0);
        }
        assert_eq!(ss.count("a"), Some(5));
        assert_eq!(ss.count("b"), Some(3));
        assert_eq!(ss.observed(), 8);
        let top = ss.iter_desc();
        assert_eq!(top[0].key, "a");
        assert_eq!(top[0].error, 0);
    }

    #[test]
    fn eviction_inherits_min_count() {
        let mut ss = Ss::new(2, 60.0);
        observe(&mut ss, "a", 0.0);
        observe(&mut ss, "a", 0.0);
        observe(&mut ss, "b", 0.0);
        // Cache full: "c" evicts "b" (count 1) and gets count 2, error 1.
        observe(&mut ss, "c", 0.0);
        assert_eq!(ss.count("b"), None);
        assert_eq!(ss.count("c"), Some(2));
        let c = ss.iter_desc().into_iter().find(|e| e.key == "c").unwrap();
        assert_eq!(c.error, 1);
    }

    #[test]
    fn heavy_hitter_survives_noise() {
        let mut ss = Ss::new(8, 60.0);
        for i in 0..10_000 {
            observe(&mut ss, "heavy", i as f64 * 0.001);
            // A one-off key per iteration churns the low buckets.
            observe(&mut ss, &format!("noise{i}"), i as f64 * 0.001);
        }
        let top = ss.iter_desc();
        assert_eq!(top[0].key, "heavy");
        // Count is an upper bound and at least the true count.
        assert!(top[0].count >= 10_000);
    }

    #[test]
    fn error_bound_holds() {
        let mut ss = Ss::new(5, 60.0);
        for i in 0..1000u32 {
            observe(&mut ss, &format!("k{}", i % 37), 0.0);
        }
        let bound = ss.error_bound();
        for e in ss.iter_desc() {
            assert!(e.error <= bound, "error {} > bound {}", e.error, bound);
        }
    }

    #[test]
    fn new_state_on_eviction() {
        let mut ss = Ss::new(1, 60.0);
        *ss.observe(&"a".to_string(), 0.0) = 42;
        // "b" evicts "a": its state must be fresh, not 42.
        let v = ss.observe(&"b".to_string(), 0.0);
        assert_eq!(*v, 0);
    }

    #[test]
    fn rate_decays_toward_zero() {
        let mut ss = Ss::new(4, 10.0);
        for i in 0..100 {
            observe(&mut ss, "x", i as f64 * 0.01); // 100 hits in 1 s
        }
        let fresh = ss.iter_desc()[0].rate;
        assert!(fresh > 0.0);
        // Nothing for 100 s (10 half-lives): rate should be tiny but the
        // key still monitored.
        observe(&mut ss, "y", 101.0);
        let x = ss.iter_desc().into_iter().find(|e| e.key == "x").unwrap();
        // The stored (undecayed) value only updates on hits; decayed view
        // comes from iter at the entry's own timestamp. Compare via decay:
        assert!(x.rate <= fresh);
    }

    #[test]
    fn min_count_reflects_fill_state() {
        let mut ss = Ss::new(2, 60.0);
        assert_eq!(ss.min_count(), 0);
        observe(&mut ss, "a", 0.0);
        assert_eq!(ss.min_count(), 0); // not yet full
        observe(&mut ss, "b", 0.0);
        assert_eq!(ss.min_count(), 1); // full, min entry has count 1
        observe(&mut ss, "a", 0.0);
        assert_eq!(ss.min_count(), 1);
    }

    #[test]
    fn entry_age_tracks_insertion() {
        let mut ss = Ss::new(2, 60.0);
        observe(&mut ss, "a", 5.0);
        assert_eq!(ss.entry_age(&"a".into(), 10.0), Some(5.0));
        assert_eq!(ss.entry_age(&"zzz".into(), 10.0), None);
    }

    #[test]
    fn for_each_value_visits_all() {
        let mut ss = Ss::new(4, 60.0);
        for k in ["a", "b", "c"] {
            observe(&mut ss, k, 0.0);
        }
        let mut seen = Vec::new();
        ss.for_each_value(|k, _, _, _, v| {
            seen.push(k.clone());
            *v = 99;
        });
        seen.sort();
        assert_eq!(seen, vec!["a", "b", "c"]);
        assert!(ss.iter_desc().iter().all(|e| *e.value == 99));
    }

    #[test]
    fn restore_rebuilds_exported_state() {
        let mut ss = Ss::new(3, 60.0);
        for (k, n) in [("a", 5u32), ("b", 3), ("c", 1)] {
            for _ in 0..n {
                observe(&mut ss, k, 1.0);
            }
        }
        let snapshot: Vec<(String, u64, u64, f64)> = ss
            .iter_desc()
            .iter()
            .map(|e| (e.key.clone(), e.count, e.error, e.inserted_at))
            .collect();
        // Restore in ascending count order to exercise the bucket walk.
        let mut back = Ss::new(3, 60.0);
        for (k, c, err, at) in snapshot.iter().rev() {
            assert!(back.restore_entry(k.clone(), *c, *err, *at, 0u32));
        }
        back.restore_totals(ss.observed(), ss.evictions());
        assert_eq!(back.observed(), ss.observed());
        assert_eq!(back.evictions(), ss.evictions());
        assert_eq!(back.min_count(), ss.min_count());
        assert_eq!(back.error_bound(), ss.error_bound());
        // Further identical traffic keeps the two trackers in lockstep.
        for t in [&mut ss, &mut back] {
            observe(t, "b", 2.0);
            observe(t, "b", 2.0);
            observe(t, "c", 2.0);
        }
        // Tie order among equal counts is insertion-dependent, so compare
        // the canonical (count desc, key) shape — exactly what renderers
        // sort to before emitting.
        let shape = |s: &Ss| -> Vec<(String, u64, u64)> {
            let mut v: Vec<(String, u64, u64)> = s
                .iter_desc()
                .iter()
                .map(|e| (e.key.clone(), e.count, e.error))
                .collect();
            v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            v
        };
        assert_eq!(shape(&ss), shape(&back));
    }

    #[test]
    fn restore_order_reproduces_eviction_choices() {
        // Build a tracker whose min bucket holds several tied entries,
        // round-trip it through iter_restore/restore_entry, and check
        // the rebuilt tracker evicts the *same* victims under identical
        // further traffic — byte-for-byte equal restore order.
        let mut ss = Ss::new(4, 60.0);
        for k in ["a", "b", "c", "d"] {
            observe(&mut ss, k, 0.0); // all tied at count 1
        }
        observe(&mut ss, "a", 0.5); // a → 2, min bucket = {b,c,d}
        let snap: Vec<(String, u64, u64, f64)> = ss
            .iter_restore()
            .iter()
            .map(|e| (e.key.clone(), e.count, e.error, e.inserted_at))
            .collect();
        let mut back = Ss::new(4, 60.0);
        for (k, c, err, at) in &snap {
            assert!(back.restore_entry(k.clone(), *c, *err, *at, 0u32));
        }
        back.restore_totals(ss.observed(), ss.evictions());
        // Identical churn: each new key must displace the same victim.
        for (i, k) in ["x", "y", "z"].iter().enumerate() {
            observe(&mut ss, k, 1.0 + i as f64);
            observe(&mut back, k, 1.0 + i as f64);
            let shape = |s: &Ss| -> Vec<(String, u64, u64, String)> {
                s.iter_restore()
                    .iter()
                    .map(|e| (e.key.clone(), e.count, e.error, e.key.clone()))
                    .collect()
            };
            assert_eq!(shape(&ss), shape(&back), "diverged after {k}");
        }
    }

    #[test]
    fn restore_rejects_full_and_duplicate() {
        let mut ss = Ss::new(2, 60.0);
        assert!(ss.restore_entry("a".into(), 4, 0, 0.0, 0));
        assert!(!ss.restore_entry("a".into(), 4, 0, 0.0, 0), "duplicate");
        assert!(ss.restore_entry("b".into(), 2, 1, 0.0, 0));
        assert!(!ss.restore_entry("c".into(), 1, 0, 0.0, 0), "full");
        assert_eq!(ss.len(), 2);
        assert_eq!(ss.min_count(), 2);
    }

    #[test]
    fn bucket_list_stays_consistent_under_churn() {
        // Exercises alloc/free of buckets aggressively, then checks that
        // counts from iter_desc are sorted and the index agrees.
        let mut ss = Ss::new(16, 60.0);
        for i in 0..5000u32 {
            let key = format!("k{}", i % 23);
            observe(&mut ss, &key, i as f64);
            if i % 7 == 0 {
                observe(&mut ss, &format!("burst{}", i), i as f64);
            }
        }
        let top = ss.iter_desc();
        for w in top.windows(2) {
            assert!(w[0].count >= w[1].count);
        }
        for e in &top {
            assert_eq!(ss.count(&e.key.clone()), Some(e.count));
        }
        assert_eq!(top.len(), 16);
    }
}
