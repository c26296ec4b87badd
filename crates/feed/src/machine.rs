//! Sans-io sensor state machine: the feed's sensor protocol as a pure
//! poll/event automaton over an externally owned clock.
//!
//! [`SensorMachine`] holds all of the protocol logic — batching, bounded
//! buffering with drop accounting, HELLO-on-connect, at-least-once
//! retransmission, exponential backoff — and none of the I/O: the caller
//! owns the transport *and* the clock. The production [`crate::Sensor`]
//! drives it with a writer thread over `TcpStream` and wall time; the
//! `chaos` fault-injection kernel drives the same machine over a faulty
//! in-memory transport in microseconds of virtual time.
//!
//! # Driving contract
//!
//! Call [`SensorMachine::poll`] with the current time; it returns the one
//! thing the transport should do next:
//!
//! * [`SensorOp::Connect`] — attempt a connection, then report the result
//!   via [`SensorMachine::on_connected`] or
//!   [`SensorMachine::on_connect_failed`].
//! * [`SensorOp::Write`] — write the bytes, then report via
//!   [`SensorMachine::on_write_ok`] or [`SensorMachine::on_write_failed`].
//! * [`SensorOp::WaitUntil`] — nothing to do before the given time
//!   (backoff in progress).
//! * [`SensorOp::Idle`] — nothing queued; feed more items or finish.
//! * [`SensorOp::Done`] — the stream is complete (BYE written or the
//!   machine aborted).
//!
//! Sequence numbers are consumed even by frames dropped at the full
//! buffer. A frame stays at the front of the buffer until its write
//! completes, so it counts toward `buffer_frames`, a failed write
//! retransmits it (at-least-once), HELLO announces its sequence, and
//! [`SensorMachine::abort`] ledgers it as dropped. Backoff applies only
//! to failed *connects*: a lost established connection retries at once.

use std::borrow::Borrow;
use std::collections::VecDeque;
use std::sync::Arc;

use telemetry::Registry;

use crate::backoff::Backoff;
use crate::codec::FeedItem;
use crate::metrics::SensorMetrics;
use crate::sensor::{SealedFrame, SensorConfig, SensorEncoder, SensorReport};

/// What the transport should do next for this machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SensorOp {
    /// Attempt a connection to the collector.
    Connect,
    /// Write these bytes on the current connection. They are shared with
    /// the buffer, which keeps the frame until the write is reported.
    Write(Arc<Vec<u8>>),
    /// Nothing to do before this virtual time (microseconds): the machine
    /// is backing off between connect attempts.
    WaitUntil(u64),
    /// Nothing queued; the machine is waiting for more items.
    Idle,
    /// The stream is complete; the connection can be closed.
    Done,
}

/// A batch sealed by [`SensorMachine::push`]/[`SensorMachine::flush`],
/// with its fate at the send buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SealEvent {
    /// Frame sequence number (consumed even when dropped).
    pub seq: u64,
    /// Items inside the frame.
    pub items: u64,
    /// True when the full buffer dropped the frame (accounted, never
    /// written).
    pub dropped: bool,
}

/// What a successful write delivered, reported by
/// [`SensorMachine::on_write_ok`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wrote {
    /// The connection's HELLO preamble.
    Hello,
    /// A data batch.
    Batch {
        /// Frame sequence number.
        seq: u64,
        /// Items inside the frame.
        items: u64,
    },
    /// The final BYE frame.
    Bye,
}

#[derive(Debug)]
struct Queued {
    /// Shared with the transport, which writes them outside any lock.
    bytes: Arc<Vec<u8>>,
    seq: u64,
    items: u64,
    bye: bool,
}

/// The sensor protocol, sans io: see the module docs.
#[derive(Debug)]
pub struct SensorMachine<T> {
    encoder: SensorEncoder<T>,
    queue: VecDeque<Queued>,
    buffer_frames: usize,
    backoff: Backoff,
    connected: bool,
    hello_pending: bool,
    retry_at: Option<u64>,
    closing: bool,
    aborted: bool,
    connects: u64,
    sent_frames: u64,
    sent_items: u64,
    dropped_frames: u64,
    dropped_items: u64,
    metrics: SensorMetrics,
}

impl<T: FeedItem> SensorMachine<T> {
    /// Machine for `config` (the `backoff` seed drives the deterministic
    /// jitter; `first_seq` resumes a restarted incarnation), reporting
    /// telemetry to the global registry.
    pub fn new(config: SensorConfig) -> SensorMachine<T> {
        SensorMachine::with_registry(config, &Registry::global())
    }

    /// Machine for `config`, reporting telemetry to `registry` (the chaos
    /// harness injects a fresh registry per run to keep seeds isolated).
    pub fn with_registry(config: SensorConfig, registry: &Registry) -> SensorMachine<T> {
        let metrics = SensorMetrics::register(registry, config.sensor_id);
        SensorMachine {
            encoder: SensorEncoder::new(config.sensor_id, config.batch_items, config.first_seq),
            queue: VecDeque::new(),
            buffer_frames: config.buffer_frames.max(1),
            backoff: Backoff::new(config.backoff),
            connected: false,
            hello_pending: false,
            retry_at: None,
            closing: false,
            aborted: false,
            connects: 0,
            sent_frames: 0,
            sent_items: 0,
            dropped_frames: 0,
            dropped_items: 0,
            metrics,
        }
    }

    /// Sensor identity.
    pub fn sensor(&self) -> u64 {
        self.encoder.sensor()
    }

    /// Frames waiting in the send buffer (including any in-flight front).
    pub fn queued_frames(&self) -> usize {
        self.queue.len()
    }

    /// True once [`SensorMachine::abort`] has run.
    pub(crate) fn aborted(&self) -> bool {
        self.aborted
    }

    /// Sequence number a (re)connect resumes from: the frame at the front
    /// of the buffer, or the next one to be sealed.
    pub(crate) fn resume_seq(&self) -> u64 {
        self.queue
            .front()
            .map_or(self.encoder.next_seq(), |q| q.seq)
    }

    /// Queue an item (by value or by reference: it is encoded at once);
    /// returns the seal event when the batch fills.
    pub fn push(&mut self, item: impl Borrow<T>) -> Option<SealEvent> {
        debug_assert!(!self.closing, "push after finish");
        self.metrics.pushed_items.inc(1);
        let sealed = self.encoder.push(item)?;
        Some(self.enqueue(sealed, true, false))
    }

    /// Seal and queue the current partial batch, if any.
    pub fn flush(&mut self) -> Option<SealEvent> {
        let sealed = self.encoder.flush()?;
        Some(self.enqueue(sealed, true, false))
    }

    /// Flush, queue the BYE (which bypasses the drop policy: accounting
    /// must arrive), and mark the stream closing. Returns the final
    /// `next_seq` the BYE carries.
    pub fn finish(&mut self) -> u64 {
        self.flush();
        let bye = self
            .encoder
            .bye_frame(self.dropped_frames, self.dropped_items);
        let next_seq = bye.seq;
        self.enqueue(bye, false, true);
        self.closing = true;
        next_seq
    }

    /// Crash: seal any partial batch (consuming its sequence number, so
    /// the loss stays observable as a gap), discard everything still
    /// queued as dropped, and stop. Returns the final accounting.
    pub fn abort(&mut self) -> SensorReport {
        if let Some(sealed) = self.encoder.flush() {
            self.dropped_frames += 1;
            self.dropped_items += sealed.items;
            self.metrics.dropped_frames.inc(1);
            self.metrics.dropped_items.inc(sealed.items);
        }
        while let Some(q) = self.queue.pop_front() {
            if !q.bye {
                self.dropped_frames += 1;
                self.dropped_items += q.items;
                self.metrics.dropped_frames.inc(1);
                self.metrics.dropped_items.inc(q.items);
            }
        }
        self.metrics.queue_frames.set(0.0);
        self.aborted = true;
        self.closing = true;
        self.report()
    }

    /// What the transport should do next at virtual time `now`
    /// (microseconds).
    pub fn poll(&mut self, now: u64) -> SensorOp {
        if self.aborted {
            return SensorOp::Done;
        }
        if self.queue.is_empty() {
            return if self.closing {
                SensorOp::Done
            } else {
                SensorOp::Idle
            };
        }
        if self.connected {
            if self.hello_pending {
                let hello = SensorEncoder::<T>::hello_for(self.sensor(), self.resume_seq());
                return SensorOp::Write(Arc::new(hello));
            }
            let front = self.queue.front().expect("queue checked non-empty");
            return SensorOp::Write(Arc::clone(&front.bytes));
        }
        match self.retry_at {
            Some(t) if t > now => SensorOp::WaitUntil(t),
            _ => SensorOp::Connect,
        }
    }

    /// A connect attempt succeeded: reset backoff and schedule the HELLO
    /// announcing the sequence about to be (re)sent.
    pub fn on_connected(&mut self, _now: u64) {
        self.connected = true;
        self.hello_pending = true;
        self.retry_at = None;
        self.backoff.reset();
        self.metrics.backoff_seconds.set(0.0);
    }

    /// A connect attempt failed: back off before the next one.
    pub fn on_connect_failed(&mut self, now: u64) {
        let delay = self.backoff.next_delay();
        self.metrics.connect_failures.inc(1);
        self.metrics.backoff_seconds.set(delay.as_secs_f64());
        self.retry_at = Some(now + delay.as_micros() as u64);
    }

    /// The pending write completed; reports what went out. A completed
    /// batch write pops the frame (delivery is at-least-once from the
    /// collector's point of view: the same frame may arrive again after a
    /// reconnect, deduplicated there by sequence number).
    pub fn on_write_ok(&mut self) -> Wrote {
        if self.hello_pending {
            self.hello_pending = false;
            self.connects += 1;
            self.metrics.connects.inc(1);
            return Wrote::Hello;
        }
        let q = self.queue.pop_front().expect("write_ok without a frame");
        self.sent_frames += 1;
        self.sent_items += q.items;
        self.metrics.sent_frames.inc(1);
        self.metrics.sent_items.inc(q.items);
        self.metrics.queue_frames.set(self.queue.len() as f64);
        if q.bye {
            Wrote::Bye
        } else {
            Wrote::Batch {
                seq: q.seq,
                items: q.items,
            }
        }
    }

    /// The pending write failed: the connection is gone. The frame stays
    /// at the front for retransmission and the machine reconnects
    /// immediately (backoff applies only to failed connects).
    pub fn on_write_failed(&mut self, _now: u64) {
        self.connected = false;
        self.hello_pending = false;
        self.retry_at = None;
    }

    /// Current accounting snapshot (valid at any point).
    pub fn report(&self) -> SensorReport {
        SensorReport {
            sensor: self.encoder.sensor(),
            connects: self.connects,
            sent_frames: self.sent_frames,
            sent_items: self.sent_items,
            dropped_frames: self.dropped_frames,
            dropped_items: self.dropped_items,
            next_seq: self.encoder.next_seq(),
        }
    }

    fn enqueue(&mut self, frame: SealedFrame, droppable: bool, bye: bool) -> SealEvent {
        let event = SealEvent {
            seq: frame.seq,
            items: frame.items,
            dropped: false,
        };
        if droppable && self.queue.len() >= self.buffer_frames {
            // Sequence number stays consumed: the collector observes the
            // loss as a gap.
            self.dropped_frames += 1;
            self.dropped_items += frame.items;
            self.metrics.dropped_frames.inc(1);
            self.metrics.dropped_items.inc(frame.items);
            return SealEvent {
                dropped: true,
                ..event
            };
        }
        self.queue.push_back(Queued {
            bytes: Arc::new(frame.bytes),
            seq: frame.seq,
            items: frame.items,
            bye,
        });
        self.metrics.queue_frames.set(self.queue.len() as f64);
        event
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backoff::BackoffConfig;
    use crate::frame::{Frame, FrameReader};
    use crate::testitem::TestItem;

    fn config() -> SensorConfig {
        let mut c = SensorConfig::new(1);
        c.batch_items = 1;
        c.backoff = BackoffConfig {
            base_ms: 5,
            max_ms: 40,
            seed: 1,
        };
        c
    }

    /// The virtual-time twin of the old wall-clock "retries until the
    /// listener appears" test: connect attempts fail, the machine waits
    /// exactly its backoff schedule, and the first successful connect
    /// delivers HELLO + the frame.
    #[test]
    fn machine_retries_on_backoff_schedule_in_virtual_time() {
        let mut m = SensorMachine::<TestItem>::new(config());
        let mut now = 0u64;
        assert_eq!(m.poll(now), SensorOp::Idle);
        m.push(TestItem::new(42));

        // Replay the schedule independently to know the exact delays.
        let mut reference = Backoff::new(config().backoff);
        for _ in 0..3 {
            assert_eq!(m.poll(now), SensorOp::Connect);
            m.on_connect_failed(now);
            let expect = now + reference.next_delay().as_micros() as u64;
            match m.poll(now) {
                SensorOp::WaitUntil(t) => {
                    assert_eq!(t, expect, "backoff deviates from schedule");
                    now = t;
                }
                op => panic!("expected WaitUntil, got {op:?}"),
            }
        }

        // Listener appears: connect, HELLO for seq 0, then the batch.
        assert_eq!(m.poll(now), SensorOp::Connect);
        m.on_connected(now);
        let hello = match m.poll(now) {
            SensorOp::Write(bytes) => bytes,
            op => panic!("expected HELLO write, got {op:?}"),
        };
        assert_eq!(m.on_write_ok(), Wrote::Hello);
        let batch = match m.poll(now) {
            SensorOp::Write(bytes) => bytes,
            op => panic!("expected batch write, got {op:?}"),
        };
        assert_eq!(m.on_write_ok(), Wrote::Batch { seq: 0, items: 1 });
        assert_eq!(m.poll(now), SensorOp::Idle);

        let mut reader = FrameReader::<TestItem>::new();
        reader.push(&hello);
        reader.push(&batch);
        assert!(matches!(
            reader.next_frame().unwrap(),
            Some(Frame::Hello {
                sensor: 1,
                next_seq: 0,
                ..
            })
        ));
        assert!(matches!(
            reader.next_frame().unwrap(),
            Some(Frame::Batch { seq: 0, .. })
        ));

        let r = m.report();
        assert_eq!((r.connects, r.sent_frames, r.sent_items), (1, 1, 1));
        assert_eq!(r.dropped_frames, 0);
    }

    /// A failed write keeps the frame at the front; the reconnect HELLO
    /// announces that frame's sequence, and the frame goes out again
    /// (at-least-once).
    #[test]
    fn failed_write_retransmits_same_frame_after_immediate_reconnect() {
        let mut m = SensorMachine::<TestItem>::new(config());
        m.push(TestItem::new(1)); // seq 0
        m.push(TestItem::new(2)); // seq 1
        m.on_connected(0);
        assert_eq!(m.on_write_ok(), Wrote::Hello);
        assert_eq!(m.on_write_ok(), Wrote::Batch { seq: 0, items: 1 });
        // seq 1's write dies mid-flight.
        m.on_write_failed(10);
        // Reconnect is immediate (no backoff for lost connections).
        assert_eq!(m.poll(10), SensorOp::Connect);
        m.on_connected(10);
        let hello = match m.poll(10) {
            SensorOp::Write(bytes) => bytes,
            op => panic!("expected HELLO, got {op:?}"),
        };
        let mut reader = FrameReader::<TestItem>::new();
        reader.push(&hello);
        assert!(matches!(
            reader.next_frame().unwrap(),
            Some(Frame::Hello { next_seq: 1, .. })
        ));
        assert_eq!(m.on_write_ok(), Wrote::Hello);
        assert_eq!(m.on_write_ok(), Wrote::Batch { seq: 1, items: 1 });
        assert_eq!(m.report().connects, 2);
    }

    /// The bounded buffer drops (and accounts) whole frames, consuming
    /// their sequence numbers; BYE bypasses the drop policy.
    #[test]
    fn full_buffer_drops_are_accounted_and_bye_bypasses() {
        let mut c = config();
        c.buffer_frames = 2;
        let mut m = SensorMachine::<TestItem>::new(c);
        let mut dropped = 0;
        for v in 0..5u64 {
            let e = m.push(TestItem::new(v)).expect("batch_items=1 seals");
            assert_eq!(e.seq, v);
            if e.dropped {
                dropped += 1;
            }
        }
        assert_eq!(dropped, 3);
        let next_seq = m.finish();
        assert_eq!(next_seq, 5, "dropped frames still consume seqs");
        assert_eq!(m.queued_frames(), 3, "2 batches + BYE");
        let r = m.report();
        assert_eq!((r.dropped_frames, r.dropped_items), (3, 3));
    }

    /// Abort seals the partial batch so its loss is gap-visible, and
    /// counts everything still queued as dropped.
    #[test]
    fn abort_accounts_partial_batch_and_queue() {
        let mut c = config();
        c.batch_items = 4;
        let mut m = SensorMachine::<TestItem>::new(c);
        for v in 0..6u64 {
            m.push(TestItem::new(v)); // seals seq 0 (4 items), 2 pending
        }
        let r = m.abort();
        assert_eq!(r.next_seq, 2, "partial batch consumed seq 1");
        assert_eq!(r.dropped_frames, 2);
        assert_eq!(r.dropped_items, 6);
        assert!(matches!(m.poll(0), SensorOp::Done));
    }

    /// Finish drains the queue then reports Done; the BYE carries the
    /// drop tally.
    #[test]
    fn finish_writes_bye_then_done() {
        let mut m = SensorMachine::<TestItem>::new(config());
        m.push(TestItem::new(7));
        m.finish();
        m.on_connected(0);
        assert_eq!(m.on_write_ok(), Wrote::Hello);
        assert_eq!(m.on_write_ok(), Wrote::Batch { seq: 0, items: 1 });
        match m.poll(0) {
            SensorOp::Write(bytes) => {
                let mut reader = FrameReader::<TestItem>::new();
                reader.push(&bytes);
                assert!(matches!(
                    reader.next_frame().unwrap(),
                    Some(Frame::Bye {
                        next_seq: 1,
                        dropped_frames: 0,
                        ..
                    })
                ));
            }
            op => panic!("expected BYE write, got {op:?}"),
        }
        assert_eq!(m.on_write_ok(), Wrote::Bye);
        assert_eq!(m.poll(0), SensorOp::Done);
        assert_eq!(m.report().sent_frames, 2);
    }
}
