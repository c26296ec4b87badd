//! Deterministic k-way merge of per-sensor item streams by time.
//!
//! Each sensor delivers its items in emission order, but the collector
//! receives the streams interleaved arbitrarily by the network. The
//! merger releases the globally smallest-time head only when every *open*
//! stream has a head to compare against — otherwise an early-arriving
//! stream could overtake a slow one and break determinism. A stream that
//! is closed (sensor said BYE or its connection dropped) no longer blocks
//! the merge; whatever it already delivered still drains in order.
//!
//! Ties on time break by sensor id, so the merged order is a pure
//! function of the input streams.
//!
//! An item type whose consumer does not depend on the interleaving
//! ([`MergeOrder::Arrival`]) skips the gate: a stream's items leave as
//! soon as they are pushed, and an open stream with an empty queue holds
//! back nobody. Each stream stays FIFO.
//!
//! # Late items
//!
//! A closed stream stops gating the merge, so its peers may legitimately
//! advance past time T while a sensor is disconnected. If that sensor
//! later reconnects and delivers items *older* than what has already been
//! released, emitting them would silently reorder the merged feed — the
//! downstream pipeline would produce different output than a single-
//! process run with no record of why. The merger therefore tracks the
//! release watermark `(time, sensor)` and refuses such items at
//! [`TimeMerger::push`], returning the count so the caller can account
//! the loss (the collector records it per sensor as `late_items`). An
//! arrival-ordered feed has no global order to break, so it keeps no
//! such check: its consumer ledgers lateness where it means something.
//!
//! The same rule applies *within* a stream, for both orders: a
//! gap-filling frame that arrives after newer frames were already queued
//! (an overtaken connection's data surfacing late) may carry items older
//! than the stream's own tail. Queuing them would break the stream's FIFO
//! order, so they are refused and counted too.

use std::collections::{BTreeMap, VecDeque};

use crate::codec::{FeedItem, MergeOrder};

#[derive(Debug)]
struct Stream<T> {
    queue: VecDeque<T>,
    open: bool,
}

/// Watermark-style merger of per-sensor time-ordered streams.
#[derive(Debug)]
pub struct TimeMerger<T> {
    streams: BTreeMap<u64, Stream<T>>,
    /// `(time, sensor)` of the most recently released item.
    watermark: Option<(f64, u64)>,
}

impl<T> Default for TimeMerger<T> {
    fn default() -> Self {
        TimeMerger {
            streams: BTreeMap::new(),
            watermark: None,
        }
    }
}

impl<T: FeedItem> TimeMerger<T> {
    /// Empty merger; streams appear via [`TimeMerger::open`].
    pub fn new() -> TimeMerger<T> {
        TimeMerger::default()
    }

    /// Declare `sensor` live: its stream now gates the merge until it is
    /// closed. Reopening after a close (sensor reconnect) is fine.
    pub fn open(&mut self, sensor: u64) {
        self.streams
            .entry(sensor)
            .or_insert_with(|| Stream {
                queue: VecDeque::new(),
                open: true,
            })
            .open = true;
    }

    /// Append items (in emission order) to `sensor`'s stream. Items that
    /// would release behind the merge watermark — a reconnecting sensor
    /// delivering data older than what already went out — are discarded
    /// to keep the output order deterministic (time-merged items only),
    /// as are items older than the stream's queued tail; the count of
    /// such late items is returned so the caller can account the
    /// divergence.
    pub fn push(&mut self, sensor: u64, items: impl IntoIterator<Item = T>) -> u64 {
        let stream = self.streams.entry(sensor).or_insert_with(|| Stream {
            queue: VecDeque::new(),
            open: false,
        });
        let mut late = 0u64;
        for item in items {
            let t = item.order_time();
            let behind_watermark = match self.watermark {
                Some((wt, ws)) if T::MERGE == MergeOrder::Time => {
                    t < wt || (t == wt && sensor < ws)
                }
                _ => false,
            };
            let behind_tail = match stream.queue.back() {
                Some(tail) => t < tail.order_time(),
                None => false,
            };
            if behind_watermark || behind_tail {
                late += 1;
                continue;
            }
            stream.queue.push_back(item);
        }
        late
    }

    /// Mark `sensor` finished: an empty queue no longer blocks the merge.
    pub fn close(&mut self, sensor: u64) {
        if let Some(s) = self.streams.get_mut(&sensor) {
            s.open = false;
        }
    }

    /// Number of streams currently gating the merge.
    pub fn open_streams(&self) -> usize {
        self.streams.values().filter(|s| s.open).count()
    }

    /// Items buffered across all streams.
    pub fn buffered(&self) -> usize {
        self.streams.values().map(|s| s.queue.len()).sum()
    }

    /// Pop the next item in merged time order, or `None` when an open
    /// stream is empty (more input needed; time-merged items only) or
    /// everything has drained.
    pub fn pop_ready(&mut self) -> Option<T> {
        let mut best: Option<(f64, u64)> = None;
        for (&sensor, stream) in &self.streams {
            match stream.queue.front() {
                None => {
                    if stream.open && T::MERGE == MergeOrder::Time {
                        // A live stream with no head: releasing anything
                        // now could reorder against its next item.
                        return None;
                    }
                }
                Some(head) => {
                    let t = head.order_time();
                    // BTreeMap iterates sensors ascending, so strict `<`
                    // keeps the lowest sensor id on time ties.
                    let better = match best {
                        None => true,
                        Some((bt, _)) => t < bt,
                    };
                    if better {
                        best = Some((t, sensor));
                    }
                }
            }
        }
        let (time, sensor) = best?;
        self.watermark = Some((time, sensor));
        let stream = self.streams.get_mut(&sensor)?;
        let item = stream.queue.pop_front();
        if stream.queue.is_empty() && !stream.open {
            self.streams.remove(&sensor);
        }
        item
    }

    /// Drain everything currently releasable, in merged order.
    pub fn drain_ready(&mut self) -> Vec<T> {
        let mut out = Vec::new();
        while let Some(item) = self.pop_ready() {
            out.push(item);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testitem::{ArrivalItem, TestItem};

    fn times(items: &[TestItem]) -> Vec<f64> {
        items.iter().map(|i| i.time).collect()
    }

    fn arrived(value: u64, time: f64) -> ArrivalItem {
        ArrivalItem::at(value, time)
    }

    fn values(items: Vec<ArrivalItem>) -> Vec<u64> {
        items.into_iter().map(|i| i.0.value).collect()
    }

    /// The time-merge gate is off for arrival-ordered items: an open,
    /// silent stream does not hold back its peer.
    #[test]
    fn arrival_items_are_not_held_by_an_open_empty_stream() {
        let mut m = TimeMerger::new();
        m.open(1);
        m.open(2);
        m.push(2, [arrived(20, 5.0), arrived(21, 6.0)]);
        assert_eq!(values(m.drain_ready()), [20, 21]);
        // Sensor 1 surfaces with older items: nothing global to be
        // behind, so they are delivered, not counted late.
        assert_eq!(m.push(1, [arrived(10, 1.0)]), 0);
        assert_eq!(values(m.drain_ready()), [10]);
        assert_eq!(m.open_streams(), 2);
    }

    /// Each arrival-ordered stream stays FIFO and refuses items behind
    /// its own queued tail.
    #[test]
    fn arrival_streams_stay_fifo_and_refuse_items_behind_their_tail() {
        let mut m = TimeMerger::new();
        m.open(1);
        m.open(2);
        m.push(1, [arrived(10, 1.0), arrived(11, 1.0), arrived(12, 2.0)]);
        let late = m.push(1, [arrived(13, 1.5), arrived(14, 3.0)]);
        assert_eq!(late, 1, "1.5 is behind the queued tail 2.0");
        m.push(2, [arrived(20, 0.5)]);
        let got = values(m.drain_ready());
        let of = |sensor: u64| -> Vec<u64> {
            got.iter().copied().filter(|v| v / 10 == sensor).collect()
        };
        assert_eq!(of(1), [10, 11, 12, 14]);
        assert_eq!(of(2), [20]);
        assert_eq!(m.buffered(), 0);
    }

    #[test]
    fn merges_two_streams_by_time() {
        let mut m = TimeMerger::new();
        m.open(1);
        m.open(2);
        m.push(1, [TestItem::at(1, 1.0), TestItem::at(3, 3.0)]);
        m.push(2, [TestItem::at(2, 2.0), TestItem::at(4, 4.0)]);
        m.close(1);
        m.close(2);
        assert_eq!(times(&m.drain_ready()), [1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.buffered(), 0);
    }

    #[test]
    fn open_empty_stream_blocks_release() {
        let mut m = TimeMerger::new();
        m.open(1);
        m.open(2);
        m.push(1, [TestItem::at(1, 1.0)]);
        // Sensor 2 is live but silent: nothing may be released yet.
        assert!(m.pop_ready().is_none());
        m.push(2, [TestItem::at(2, 0.5)]);
        // Now sensor 2's earlier item correctly comes out first.
        assert_eq!(m.pop_ready().unwrap().time, 0.5);
        assert_eq!(m.pop_ready(), None); // sensor 2 drained, still open
        m.close(2);
        assert_eq!(m.pop_ready().unwrap().time, 1.0);
    }

    #[test]
    fn closed_stream_does_not_block() {
        let mut m = TimeMerger::new();
        m.open(1);
        m.open(2);
        m.push(1, [TestItem::at(1, 1.0)]);
        m.close(2); // sensor 2 died without delivering anything
        assert_eq!(m.pop_ready().unwrap().time, 1.0);
    }

    #[test]
    fn time_ties_break_by_sensor_id() {
        let mut m = TimeMerger::new();
        m.open(2);
        m.open(1);
        m.push(2, [TestItem::at(20, 5.0)]);
        m.push(1, [TestItem::at(10, 5.0)]);
        m.close(1);
        m.close(2);
        let got: Vec<u64> = m.drain_ready().into_iter().map(|i| i.value).collect();
        assert_eq!(got, [10, 20]);
    }

    #[test]
    fn late_items_behind_watermark_are_dropped_and_counted() {
        let mut m = TimeMerger::new();
        m.open(1);
        m.open(2);
        m.push(1, [TestItem::at(1, 1.0), TestItem::at(2, 4.0)]);
        // Sensor 2 dies before delivering; the merge advances without it.
        m.close(2);
        assert_eq!(times(&m.drain_ready()), [1.0, 4.0]);
        // Sensor 2 reconnects and delivers items from before the
        // watermark: they must be dropped, not reordered in.
        m.open(2);
        let late = m.push(
            2,
            [
                TestItem::at(9, 0.5),
                TestItem::at(10, 2.0),
                TestItem::at(11, 5.0),
            ],
        );
        assert_eq!(late, 2, "items at 0.5 and 2.0 are behind watermark 4.0");
        m.close(1);
        m.close(2);
        assert_eq!(times(&m.drain_ready()), [5.0]);
    }

    #[test]
    fn watermark_tie_keeps_higher_sensor_and_drops_lower() {
        let mut m = TimeMerger::new();
        m.open(1);
        m.push(1, [TestItem::at(1, 3.0)]);
        m.close(1);
        assert_eq!(times(&m.drain_ready()), [3.0]);
        // Same time, higher sensor id: would release after (3.0, 1), OK.
        assert_eq!(m.push(2, [TestItem::at(2, 3.0)]), 0);
        // Same time, lower sensor id: would have had to release first.
        assert_eq!(m.push(0, [TestItem::at(3, 3.0)]), 1);
        m.close(0);
        m.close(2);
        assert_eq!(times(&m.drain_ready()), [3.0]);
    }

    /// A gap-filling frame surfaces behind frames already queued for the
    /// same stream: queueing its older items would break the stream's
    /// FIFO order, so they are refused and counted even though the
    /// global watermark has not passed them yet.
    #[test]
    fn items_behind_own_stream_tail_are_late() {
        let mut m = TimeMerger::new();
        m.open(1);
        m.push(1, [TestItem::at(1, 5.0)]);
        // Nothing released yet (no watermark), but 2.0 < queued tail 5.0.
        let late = m.push(1, [TestItem::at(2, 2.0), TestItem::at(3, 6.0)]);
        assert_eq!(late, 1);
        m.close(1);
        assert_eq!(times(&m.drain_ready()), [5.0, 6.0]);
    }

    #[test]
    fn reopen_after_close_gates_again() {
        let mut m = TimeMerger::new();
        m.open(1);
        m.open(2);
        m.push(2, [TestItem::at(2, 2.0)]);
        m.close(1);
        assert_eq!(m.pop_ready().unwrap().time, 2.0);
        m.open(1); // reconnect
        m.push(2, [TestItem::at(3, 3.0)]);
        assert!(m.pop_ready().is_none());
        m.push(1, [TestItem::at(1, 2.5)]);
        assert_eq!(m.pop_ready().unwrap().time, 2.5);
    }
}
