//! Exact top-N tracking of low-cardinality discrete values.
//!
//! The paper reports "the top-3 TTL values (and distributions)" per object
//! (§2.3). TTLs per object have tiny cardinality (a handful of configured
//! values plus cache-decremented noise), so an exact bounded counter map
//! with least-count eviction is appropriate: unlike Space-Saving we do not
//! inherit counts, because we want the *configured* values to dominate,
//! not to give newcomers a boost.

/// Tracks counts for up to `capacity` distinct `u64` values, evicting the
/// least frequent when full.
///
/// The tracker is one flat table of words, `[observed, len, value₀,
/// count₀, value₁, count₁, …]` with room for `capacity` pairs — the form
/// the slice kernels ([`TopValues::record_into`],
/// [`TopValues::top_n_with_share_of`]) work on, so a caller that keeps
/// many tables in one block of words shares this implementation.
#[derive(Debug, Clone)]
pub struct TopValues {
    table: Vec<u64>,
}

/// Words of a table's header: `observed`, then the slot count.
const HEAD: usize = 2;

impl TopValues {
    /// Track up to `capacity` distinct values exactly.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        TopValues {
            table: vec![0; TopValues::table_words(capacity)],
        }
    }

    /// Words of a table with room for `capacity` slots.
    pub fn table_words(capacity: usize) -> usize {
        HEAD + 2 * capacity
    }

    /// Record one occurrence of `value`.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Record `n` occurrences of `value`.
    pub fn record_n(&mut self, value: u64, n: u64) {
        TopValues::record_into(&mut self.table, value, n);
    }

    /// The record kernel over a bare table (see the type's layout): add
    /// `n` occurrences of `value`. A tracked value gains `n`; a new one
    /// takes a free slot, or else the first least-frequent slot if `n`
    /// beats its count — a 1-count newcomer never displaces an
    /// established value.
    pub fn record_into(table: &mut [u64], value: u64, n: u64) {
        table[0] += n;
        let len = table[1] as usize;
        let (head, slots) = table.split_at_mut(HEAD);
        let mut min_at = 0;
        for i in 0..len {
            if slots[2 * i] == value {
                slots[2 * i + 1] += n;
                return;
            }
            if slots[2 * i + 1] < slots[2 * min_at + 1] {
                min_at = i;
            }
        }
        if 2 * len < slots.len() {
            slots[2 * len] = value;
            slots[2 * len + 1] = n;
            head[1] += 1;
        } else if n > slots[2 * min_at + 1] {
            slots[2 * min_at] = value;
            slots[2 * min_at + 1] = n;
        }
    }

    /// Write `(value, count)` slots, in order, over a bare table's slots
    /// (at most its capacity of them), with `observed` occurrences in all.
    pub fn fill_table(table: &mut [u64], observed: u64, slots: &[(u64, u64)]) {
        assert!(
            HEAD + 2 * slots.len() <= table.len(),
            "slots exceed capacity"
        );
        table.fill(0);
        table[0] = observed;
        table[1] = slots.len() as u64;
        for (pair, &(v, c)) in table[HEAD..].chunks_exact_mut(2).zip(slots) {
            pair[0] = v;
            pair[1] = c;
        }
    }

    /// A bare table's occupied `(value, count)` slots, in slot order.
    pub fn slots_of(table: &[u64]) -> impl ExactSizeIterator<Item = (u64, u64)> + '_ {
        let len = table[1] as usize;
        table[HEAD..HEAD + 2 * len]
            .chunks_exact(2)
            .map(|pair| (pair[0], pair[1]))
    }

    /// Total number of recorded occurrences (including evicted ones).
    pub fn observed(&self) -> u64 {
        self.table[0]
    }

    /// Slot capacity.
    pub fn capacity(&self) -> usize {
        TopValues::capacity_of(&self.table)
    }

    /// A bare table's slot capacity.
    pub fn capacity_of(table: &[u64]) -> usize {
        (table.len() - HEAD) / 2
    }

    /// The occupied `(value, count)` slots in slot order — the
    /// serialization surface.
    pub fn slots(&self) -> impl ExactSizeIterator<Item = (u64, u64)> + '_ {
        TopValues::slots_of(&self.table)
    }

    /// Rebuild a tracker from raw parts previously obtained via
    /// [`slots`](Self::slots)/[`observed`](Self::observed) — the
    /// deserialization path. Callers must validate untrusted input first:
    /// distinct values, at most `capacity` slots, slot counts summing to
    /// at most `observed`.
    pub fn from_parts(capacity: usize, observed: u64, slots: Vec<(u64, u64)>) -> TopValues {
        let mut t = TopValues::new(capacity);
        TopValues::fill_table(&mut t.table, observed, &slots);
        t
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.observed() == 0
    }

    /// The most frequent value, `None` when empty.
    pub fn top(&self) -> Option<u64> {
        self.ranked().first().map(|&(v, _)| v)
    }

    /// All tracked values with counts, most frequent first; ties broken by
    /// smaller value for determinism.
    pub fn ranked(&self) -> Vec<(u64, u64)> {
        TopValues::ranked_of(&self.table)
    }

    /// The rank kernel: a bare table's slots, most frequent first, ties
    /// to the smaller value.
    pub fn ranked_of(table: &[u64]) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = TopValues::slots_of(table).collect();
        TopValues::rank(&mut v);
        v
    }

    /// Sort `(value, count)` pairs most frequent first, ties to the
    /// smaller value: the one ranking of every table, and the order in
    /// which an over-capacity table is cut back.
    pub fn rank(slots: &mut [(u64, u64)]) {
        slots.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    }

    /// The top `n` values with their share of all observations.
    pub fn top_n_with_share(&self, n: usize) -> Vec<(u64, f64)> {
        TopValues::top_n_with_share_of(&self.table, n)
    }

    /// [`TopValues::top_n_with_share`] over a bare table.
    pub fn top_n_with_share_of(table: &[u64], n: usize) -> Vec<(u64, f64)> {
        let observed = table[0];
        if observed == 0 {
            return Vec::new();
        }
        TopValues::ranked_of(table)
            .into_iter()
            .take(n)
            .map(|(v, c)| (v, c as f64 / observed as f64))
            .collect()
    }

    /// Merge another tracker into this one: each of its slots is
    /// recorded here, and its evicted occurrences count as observed.
    pub fn merge(&mut self, other: &TopValues) {
        let mut slotted = 0;
        for (v, c) in other.slots() {
            self.record_n(v, c);
            slotted += c;
        }
        self.table[0] += other.observed() - slotted;
    }

    /// Reset to empty.
    pub fn clear(&mut self) {
        self.table.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_and_ranks() {
        let mut t = TopValues::new(3);
        for _ in 0..5 {
            t.record(300);
        }
        for _ in 0..3 {
            t.record(60);
        }
        t.record(86400);
        assert_eq!(t.top(), Some(300));
        assert_eq!(t.ranked(), vec![(300, 5), (60, 3), (86400, 1)]);
        assert_eq!(t.observed(), 9);
    }

    #[test]
    fn shares_sum_to_at_most_one() {
        let mut t = TopValues::new(3);
        for v in [1u64, 1, 2, 2, 2, 3, 4, 5, 6] {
            t.record(v);
        }
        let shares = t.top_n_with_share(3);
        let total: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!(total <= 1.0 + 1e-12);
        assert_eq!(shares[0].0, 2);
    }

    #[test]
    fn weak_newcomer_does_not_displace() {
        let mut t = TopValues::new(2);
        t.record_n(100, 10);
        t.record_n(200, 5);
        t.record(300); // count 1 < min 5: dropped
        assert_eq!(t.ranked(), vec![(100, 10), (200, 5)]);
        t.record_n(400, 7); // beats 5: displaces 200
        assert_eq!(t.ranked(), vec![(100, 10), (400, 7)]);
    }

    #[test]
    fn deterministic_tie_break() {
        let mut t = TopValues::new(4);
        t.record(9);
        t.record(3);
        assert_eq!(t.ranked(), vec![(3, 1), (9, 1)]);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = TopValues::new(3);
        let mut b = TopValues::new(3);
        a.record_n(1, 4);
        a.record_n(2, 2);
        b.record_n(2, 3);
        b.record_n(3, 1);
        a.merge(&b);
        assert_eq!(a.ranked(), vec![(2, 5), (1, 4), (3, 1)]);
        assert_eq!(a.observed(), 10);
    }

    #[test]
    fn clear_resets() {
        let mut t = TopValues::new(2);
        t.record(7);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.top(), None);
    }
}
