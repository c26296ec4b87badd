//! Sensor side of the feed: batch items into frames, buffer a bounded
//! number of frames, and push them to the collector over TCP with
//! reconnect-and-backoff.
//!
//! The codec half ([`SensorEncoder`]) is sans-io and independently
//! testable; the [`Sensor`] wraps it with a writer thread so the caller
//! (the resolver tap) never blocks on the network: when the send buffer
//! is full, whole frames are dropped and *accounted* — their sequence
//! numbers are still consumed, so the collector sees the exact gap, and
//! the BYE frame reports the sensor's own tally.

use std::borrow::Borrow;
use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use telemetry::trace::{TraceEvent, TraceKind, TraceRing};
use telemetry::{Clock, FlightRecorder, RateLimiter, Registry, SystemClock};

use crate::backoff::{Backoff, BackoffConfig};
use crate::codec::FeedItem;
use crate::collector::IO_STACK_BYTES;
use crate::frame::{encode_batch_preencoded, encode_frame, Frame};
use crate::metrics::SensorMetrics;

/// Tuning for a [`Sensor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SensorConfig {
    /// Identity reported in every frame; stable across reconnects and
    /// restarts.
    pub sensor_id: u64,
    /// Items per BATCH frame.
    pub batch_items: usize,
    /// Frames the send buffer holds before new frames are dropped.
    pub buffer_frames: usize,
    /// Sequence number of the first batch (a restarted sensor resumes
    /// from where its previous incarnation reported stopping).
    pub first_seq: u64,
    /// Reconnect schedule.
    pub backoff: BackoffConfig,
}

impl SensorConfig {
    /// Defaults for `sensor_id`: 256-item batches, 64-frame buffer,
    /// sequence numbers from zero.
    pub fn new(sensor_id: u64) -> SensorConfig {
        SensorConfig {
            sensor_id,
            batch_items: 256,
            buffer_frames: 64,
            first_seq: 0,
            backoff: BackoffConfig {
                seed: sensor_id,
                ..BackoffConfig::default()
            },
        }
    }
}

/// An encoded frame ready for the wire, with the metadata the buffer and
/// the loss accounting need.
#[derive(Debug, Clone)]
pub struct SealedFrame {
    /// Wire bytes (length prefix included).
    pub bytes: Vec<u8>,
    /// Frame sequence number (for BYE frames: the final `next_seq`).
    pub seq: u64,
    /// Items inside the frame.
    pub items: u64,
}

/// Soft byte budget for one BATCH: headroom under
/// [`crate::frame::MAX_FRAME`] for the batch header and CRC trailer.
/// Item counts alone can't bound frame size — one chunked sketch-state
/// record is orders of magnitude larger than a DNS summary — so the
/// encoder also seals when the next item would cross this line.
const MAX_BATCH_BYTES: usize = crate::frame::MAX_FRAME - 1024;

/// Sans-io encoder: accumulates items, seals them into BATCH frames with
/// monotone sequence numbers, and builds the HELLO/BYE envelopes.
///
/// Items are encoded as they arrive (batch-payload order), so batching
/// is byte-aware: a batch seals at `batch_items` items *or* just before
/// it would overflow the frame cap, whichever comes first.
#[derive(Debug)]
pub struct SensorEncoder<T> {
    sensor: u64,
    batch_items: usize,
    next_seq: u64,
    /// Pending items, already encoded back-to-back.
    pending: Vec<u8>,
    pending_items: u64,
    _item: std::marker::PhantomData<fn(T)>,
}

impl<T: FeedItem> SensorEncoder<T> {
    /// Encoder for `sensor`, sealing every `batch_items` items, starting
    /// at sequence `first_seq`.
    pub fn new(sensor: u64, batch_items: usize, first_seq: u64) -> SensorEncoder<T> {
        SensorEncoder {
            sensor,
            batch_items: batch_items.max(1),
            next_seq: first_seq,
            pending: Vec::new(),
            pending_items: 0,
            _item: std::marker::PhantomData,
        }
    }

    /// Sensor identity.
    pub fn sensor(&self) -> u64 {
        self.sensor
    }

    /// Sequence number the next sealed batch will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Items buffered towards the next batch.
    pub fn pending(&self) -> usize {
        self.pending_items as usize
    }

    /// HELLO announcing `sensor` will continue at `next_seq`.
    pub fn hello_for(sensor: u64, next_seq: u64) -> Vec<u8> {
        let mut out = Vec::new();
        encode_frame::<T>(
            &Frame::Hello {
                sensor,
                next_seq,
                item_version: T::ITEM_VERSION,
            },
            &mut out,
        );
        out
    }

    /// HELLO for this encoder's current position.
    pub fn hello_frame(&self) -> Vec<u8> {
        Self::hello_for(self.sensor, self.next_seq)
    }

    /// Add an item; returns a sealed frame when the batch fills — by
    /// item count, or early when the item would push the frame past
    /// [`crate::frame::MAX_FRAME`] (the item then opens the next
    /// batch). A *single* item must still fit a frame on its own; that
    /// is the chunking layer's contract, not the encoder's.
    pub fn push(&mut self, item: impl Borrow<T>) -> Option<SealedFrame> {
        let start = self.pending.len();
        item.borrow().encode(&mut self.pending);
        if self.pending_items > 0 && self.pending.len() > MAX_BATCH_BYTES {
            let tail = self.pending.split_off(start);
            let sealed = self.flush();
            self.pending = tail;
            self.pending_items = 1;
            return sealed;
        }
        self.pending_items += 1;
        if self.pending_items as usize >= self.batch_items {
            self.flush()
        } else {
            None
        }
    }

    /// Seal the partial batch, if any.
    pub fn flush(&mut self) -> Option<SealedFrame> {
        if self.pending_items == 0 {
            return None;
        }
        let encoded = std::mem::take(&mut self.pending);
        let items = std::mem::replace(&mut self.pending_items, 0);
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut bytes = Vec::with_capacity(encoded.len() + 32);
        encode_batch_preencoded(self.sensor, seq, items, &encoded, &mut bytes);
        Some(SealedFrame { bytes, seq, items })
    }

    /// BYE carrying this sensor's own loss accounting.
    pub fn bye_frame(&self, dropped_frames: u64, dropped_items: u64) -> SealedFrame {
        let mut bytes = Vec::new();
        encode_frame::<T>(
            &Frame::Bye {
                sensor: self.sensor,
                next_seq: self.next_seq,
                dropped_frames,
                dropped_items,
            },
            &mut bytes,
        );
        SealedFrame {
            bytes,
            seq: self.next_seq,
            items: 0,
        }
    }
}

/// Final accounting from a finished or aborted [`Sensor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SensorReport {
    /// Sensor identity.
    pub sensor: u64,
    /// Successful TCP connections made.
    pub connects: u64,
    /// Frames written to the wire (HELLOs excluded).
    pub sent_frames: u64,
    /// Items inside those frames.
    pub sent_items: u64,
    /// Frames dropped at the full send buffer.
    pub dropped_frames: u64,
    /// Items inside the dropped frames.
    pub dropped_items: u64,
    /// Sequence number a restarted incarnation should resume from.
    pub next_seq: u64,
}

#[derive(Debug, Default)]
struct Queue {
    frames: VecDeque<SealedFrame>,
    in_flight: bool,
    closing: bool,
    abort: bool,
    sent_frames: u64,
    sent_items: u64,
    dropped_frames: u64,
    dropped_items: u64,
    connects: u64,
}

struct Shared<T> {
    queue: Mutex<Queue>,
    cond: Condvar,
    encoder: Mutex<SensorEncoder<T>>,
}

/// TCP feed client: a resolver tap calls [`Sensor::send`] and never
/// blocks on the network; a writer thread owns the connection.
pub struct Sensor<T> {
    shared: Arc<Shared<T>>,
    buffer_frames: usize,
    writer: Option<JoinHandle<()>>,
    metrics: SensorMetrics,
    warn_limit: Mutex<RateLimiter>,
    warn_clock: SystemClock,
    trace: TraceRing,
}

/// Stage name on sensor trace events.
const STAGE: &str = "sensor";

impl<T: FeedItem> Sensor<T> {
    /// Start a sensor pushing to `addr`. Connection (and reconnection) is
    /// handled by the writer thread; this call never blocks on the
    /// network. Telemetry goes to the global registry.
    pub fn connect(addr: impl Into<String>, config: SensorConfig) -> Sensor<T> {
        Sensor::connect_with_registry(addr, config, &Registry::global())
    }

    /// Start a sensor reporting telemetry to `registry`.
    pub fn connect_with_registry(
        addr: impl Into<String>,
        config: SensorConfig,
        registry: &Registry,
    ) -> Sensor<T> {
        let addr = addr.into();
        let metrics = SensorMetrics::register(registry, config.sensor_id);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue::default()),
            cond: Condvar::new(),
            encoder: Mutex::new(SensorEncoder::new(
                config.sensor_id,
                config.batch_items,
                config.first_seq,
            )),
        });
        let writer = {
            let shared = Arc::clone(&shared);
            let backoff = config.backoff;
            let sensor_id = config.sensor_id;
            let metrics = metrics.clone();
            std::thread::Builder::new()
                .name(format!("feed-sensor-{sensor_id}"))
                .stack_size(IO_STACK_BYTES)
                .spawn(move || writer_loop::<T>(&addr, &shared, backoff, sensor_id, &metrics))
                .expect("spawn sensor writer")
        };
        Sensor {
            shared,
            buffer_frames: config.buffer_frames.max(1),
            writer: Some(writer),
            metrics,
            // One drop warning per 5s of wall time; the counters carry
            // the full tally.
            warn_limit: Mutex::new(RateLimiter::new(5_000_000)),
            warn_clock: SystemClock::new(),
            trace: FlightRecorder::global().ring("feed/sensor"),
        }
    }

    /// Queue an item (by value or by reference: it is encoded at once).
    /// When the batch fills, the sealed frame enters the send buffer — or
    /// is dropped (and accounted) if the buffer is full.
    pub fn send(&self, item: impl Borrow<T>) {
        self.metrics.pushed_items.inc(1);
        let sealed = self.shared.encoder.lock().unwrap().push(item);
        if let Some(frame) = sealed {
            self.enqueue(frame, true);
        }
    }

    /// Seal and queue the current partial batch.
    pub fn flush(&self) {
        let sealed = self.shared.encoder.lock().unwrap().flush();
        if let Some(frame) = sealed {
            self.enqueue(frame, true);
        }
    }

    /// Block until the send buffer has fully drained onto the wire.
    pub fn wait_drained(&self) {
        let mut q = self.shared.queue.lock().unwrap();
        while !q.frames.is_empty() || q.in_flight {
            q = self.shared.cond.wait(q).unwrap();
        }
    }

    /// Flush, send BYE, drain, and return the final accounting.
    pub fn finish(mut self) -> SensorReport {
        self.flush();
        let bye = {
            let q = self.shared.queue.lock().unwrap();
            let enc = self.shared.encoder.lock().unwrap();
            enc.bye_frame(q.dropped_frames, q.dropped_items)
        };
        // Control frames bypass the drop policy: accounting must arrive.
        self.enqueue(bye, false);
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.closing = true;
            self.shared.cond.notify_all();
        }
        if let Some(h) = self.writer.take() {
            let _ = h.join();
        }
        self.report()
    }

    /// Tear the connection down *without* BYE — simulates (or reacts to)
    /// a crash. The partial batch is sealed (consuming its sequence
    /// number, so its loss stays gap-visible) and everything queued is
    /// discarded and counted as dropped. The report's `next_seq` is what
    /// a restarted incarnation should resume from.
    pub fn abort(mut self) -> SensorReport {
        {
            let pending = self.shared.encoder.lock().unwrap().flush();
            let mut q = self.shared.queue.lock().unwrap();
            if let Some(f) = pending {
                q.dropped_frames += 1;
                q.dropped_items += f.items;
                self.metrics.dropped_frames.inc(1);
                self.metrics.dropped_items.inc(f.items);
            }
            while let Some(f) = q.frames.pop_front() {
                q.dropped_frames += 1;
                q.dropped_items += f.items;
                self.metrics.dropped_frames.inc(1);
                self.metrics.dropped_items.inc(f.items);
            }
            self.metrics.queue_frames.set(0.0);
            q.abort = true;
            self.shared.cond.notify_all();
        }
        if let Some(h) = self.writer.take() {
            let _ = h.join();
        }
        self.report()
    }

    fn report(&self) -> SensorReport {
        let q = self.shared.queue.lock().unwrap();
        let enc = self.shared.encoder.lock().unwrap();
        SensorReport {
            sensor: enc.sensor(),
            connects: q.connects,
            sent_frames: q.sent_frames,
            sent_items: q.sent_items,
            dropped_frames: q.dropped_frames,
            dropped_items: q.dropped_items,
            next_seq: enc.next_seq(),
        }
    }

    fn enqueue(&self, frame: SealedFrame, droppable: bool) {
        let mut q = self.shared.queue.lock().unwrap();
        if droppable && q.frames.len() >= self.buffer_frames {
            // The frame's sequence number stays consumed, so the
            // collector observes this exact loss as a gap.
            q.dropped_frames += 1;
            q.dropped_items += frame.items;
            let total = (q.dropped_frames, q.dropped_items);
            drop(q);
            self.metrics.dropped_frames.inc(1);
            self.metrics.dropped_items.inc(frame.items);
            if self.trace.is_enabled() {
                self.trace.record(
                    TraceEvent::new(self.warn_clock.now_us(), STAGE, TraceKind::Drop)
                        .source(self.metrics_sensor_id())
                        .value(frame.items),
                );
            }
            if let Some(suppressed) = self
                .warn_limit
                .lock()
                .unwrap()
                .allow(self.warn_clock.now_us())
            {
                eprintln!(
                    "sensor {}: send buffer full, dropped frame seq {} \
                     ({} frames / {} items total, {suppressed} earlier warnings suppressed)",
                    self.metrics_sensor_id(),
                    frame.seq,
                    total.0,
                    total.1,
                );
            }
            return;
        }
        q.frames.push_back(frame);
        self.metrics.queue_frames.set(q.frames.len() as f64);
        self.shared.cond.notify_all();
    }

    fn metrics_sensor_id(&self) -> u64 {
        self.shared.encoder.lock().unwrap().sensor()
    }
}

impl<T> Drop for Sensor<T> {
    fn drop(&mut self) {
        if let Some(h) = self.writer.take() {
            {
                let mut q = self.shared.queue.lock().unwrap();
                q.abort = true;
                self.shared.cond.notify_all();
            }
            let _ = h.join();
        }
    }
}

fn writer_loop<T: FeedItem>(
    addr: &str,
    shared: &Shared<T>,
    backoff: BackoffConfig,
    sensor_id: u64,
    metrics: &SensorMetrics,
) {
    let mut backoff = Backoff::new(backoff);
    let mut conn: Option<TcpStream> = None;
    // Connection lifecycle provenance: (re)connects announce the resume
    // position, write failures mark the retransmit about to happen.
    let trace = FlightRecorder::global().ring("feed/sensor");
    let trace_clock = SystemClock::new();
    'frames: loop {
        // Wait for something to send (or a shutdown signal).
        let frame = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if q.abort {
                    return;
                }
                if let Some(f) = q.frames.pop_front() {
                    q.in_flight = true;
                    break f;
                }
                if q.closing {
                    return;
                }
                q = shared.cond.wait(q).unwrap();
            }
        };
        // Write it, reconnecting as needed. At-least-once: a frame whose
        // write failed midway may reach the collector twice; the
        // sequence number lets the collector discard the duplicate.
        loop {
            if conn.is_none() {
                match TcpStream::connect(addr) {
                    Ok(stream) => {
                        let _ = stream.set_nodelay(true);
                        backoff.reset();
                        // Announce where this connection resumes: the
                        // frame about to be (re)sent.
                        let hello = SensorEncoder::<T>::hello_for(sensor_id, frame.seq);
                        let mut stream = stream;
                        if std::io::Write::write_all(&mut stream, &hello).is_err() {
                            continue;
                        }
                        {
                            let mut q = shared.queue.lock().unwrap();
                            q.connects += 1;
                        }
                        metrics.connects.inc(1);
                        metrics.backoff_seconds.set(0.0);
                        if trace.is_enabled() {
                            trace.record(
                                TraceEvent::new(trace_clock.now_us(), STAGE, TraceKind::Open)
                                    .source(sensor_id)
                                    .value(frame.seq),
                            );
                        }
                        conn = Some(stream);
                    }
                    Err(_) => {
                        let delay = backoff.next_delay();
                        metrics.connect_failures.inc(1);
                        metrics.backoff_seconds.set(delay.as_secs_f64());
                        if sleep_or_abort(shared, delay) {
                            return;
                        }
                        continue;
                    }
                }
            }
            let stream = conn.as_mut().expect("connection present");
            match std::io::Write::write_all(stream, &frame.bytes) {
                Ok(()) => {
                    let queued = {
                        let mut q = shared.queue.lock().unwrap();
                        q.in_flight = false;
                        q.sent_frames += 1;
                        q.sent_items += frame.items;
                        shared.cond.notify_all();
                        q.frames.len()
                    };
                    metrics.sent_frames.inc(1);
                    metrics.sent_items.inc(frame.items);
                    metrics.queue_frames.set(queued as f64);
                    continue 'frames;
                }
                Err(_) => {
                    conn = None;
                    if trace.is_enabled() {
                        trace.record(
                            TraceEvent::new(trace_clock.now_us(), STAGE, TraceKind::Mark)
                                .source(sensor_id)
                                .value(frame.seq),
                        );
                    }
                    if shared.queue.lock().unwrap().abort {
                        return;
                    }
                }
            }
        }
    }
}

/// Sleep `delay` but wake early on abort; returns true when aborting.
/// `closing` does not cut the sleep short: with frames still queued the
/// writer keeps trying to deliver them, on the backoff schedule, and
/// only a hard abort stops it mid-backoff.
fn sleep_or_abort<T>(shared: &Shared<T>, delay: Duration) -> bool {
    let q = shared.queue.lock().unwrap();
    let (q, _timeout) = shared
        .cond
        .wait_timeout_while(q, delay, |q| !q.abort)
        .unwrap();
    q.abort
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameReader;
    use crate::testitem::TestItem;
    use std::io::Read;
    use std::net::TcpListener;

    fn read_frames(stream: &mut TcpStream) -> Vec<Frame<TestItem>> {
        let mut reader = FrameReader::new();
        let mut buf = [0u8; 4096];
        let mut out = Vec::new();
        loop {
            let n = match stream.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => n,
            };
            reader.push(&buf[..n]);
            while let Some(f) = reader.next_frame().unwrap() {
                out.push(f);
            }
        }
        out
    }

    #[test]
    fn encoder_seals_batches_with_monotone_seq() {
        let mut enc = SensorEncoder::<TestItem>::new(3, 2, 10);
        assert!(enc.push(TestItem::new(1)).is_none());
        let f = enc.push(TestItem::new(2)).expect("batch sealed");
        assert_eq!((f.seq, f.items), (10, 2));
        assert!(enc.push(TestItem::new(3)).is_none());
        let f = enc.flush().expect("partial flushed");
        assert_eq!((f.seq, f.items), (11, 1));
        assert!(enc.flush().is_none());
        let bye = enc.bye_frame(4, 9);
        assert_eq!(bye.seq, 12);
        // Everything decodes back.
        let mut reader = FrameReader::<TestItem>::new();
        reader.push(&enc.hello_frame());
        reader.push(&bye.bytes);
        assert!(matches!(
            reader.next_frame().unwrap(),
            Some(Frame::Hello {
                sensor: 3,
                next_seq: 12,
                ..
            })
        ));
        assert!(matches!(
            reader.next_frame().unwrap(),
            Some(Frame::Bye {
                sensor: 3,
                next_seq: 12,
                dropped_frames: 4,
                dropped_items: 9,
            })
        ));
    }

    #[test]
    fn encoder_seals_early_before_frame_cap() {
        // Items are 16 bytes each; with an effectively unbounded item
        // count the byte budget alone must seal each batch under the
        // frame cap, and every item must still arrive exactly once, in
        // order.
        let total = 300_000u64;
        let mut enc = SensorEncoder::<TestItem>::new(5, usize::MAX, 0);
        let mut frames = Vec::new();
        for v in 0..total {
            frames.extend(enc.push(TestItem::new(v)));
        }
        frames.extend(enc.flush());
        assert!(frames.len() >= 2, "byte budget never sealed a frame");
        let mut reader = FrameReader::<TestItem>::new();
        let mut got = 0u64;
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.seq, i as u64, "monotone seqs across early seals");
            assert!(
                f.bytes.len() <= crate::frame::MAX_FRAME,
                "sealed frame exceeds the cap: {} bytes",
                f.bytes.len()
            );
            reader.push(&f.bytes);
            while let Some(frame) = reader.next_frame().unwrap() {
                match frame {
                    Frame::Batch {
                        sensor: 5, items, ..
                    } => {
                        for item in items {
                            assert_eq!(item.value, got);
                            got += 1;
                        }
                    }
                    other => panic!("unexpected frame {other:?}"),
                }
            }
        }
        assert_eq!(got, total, "every item delivered exactly once");
    }

    #[test]
    fn sensor_delivers_over_tcp() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            read_frames(&mut stream)
        });

        let mut config = SensorConfig::new(7);
        config.batch_items = 3;
        let sensor = Sensor::connect(addr.to_string(), config);
        for v in 0..7u64 {
            sensor.send(TestItem::new(v));
        }
        let report = sensor.finish();
        assert_eq!(report.sent_frames, 4); // 2 full + 1 partial + BYE
        assert_eq!(report.sent_items, 7);
        assert_eq!(report.dropped_frames, 0);
        assert_eq!(report.next_seq, 3);
        assert_eq!(report.connects, 1);

        let frames = server.join().unwrap();
        assert!(matches!(
            frames[0],
            Frame::Hello {
                sensor: 7,
                next_seq: 0,
                ..
            }
        ));
        let seqs: Vec<u64> = frames
            .iter()
            .filter_map(|f| match f {
                Frame::Batch { seq, .. } => Some(*seq),
                _ => None,
            })
            .collect();
        assert_eq!(seqs, [0, 1, 2]);
        assert!(matches!(
            frames.last().unwrap(),
            Frame::Bye {
                next_seq: 3,
                dropped_frames: 0,
                ..
            }
        ));
    }

    #[test]
    fn sensor_retries_until_listener_appears() {
        // Bind to learn a free port, then close it so the first connect
        // attempts fail and the backoff path runs.
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);

        let mut config = SensorConfig::new(1);
        config.batch_items = 1;
        config.backoff = BackoffConfig {
            base_ms: 5,
            max_ms: 40,
            seed: 1,
        };
        let sensor = Sensor::<TestItem>::connect(addr.to_string(), config);
        sensor.send(TestItem::new(42));

        // No wall-clock wait: the first attempt races our rebind and the
        // deterministic backoff schedule itself is covered sans-io (and
        // in virtual time) by `machine::tests`.
        let listener = TcpListener::bind(addr).unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            read_frames(&mut stream)
        });

        let report = sensor.finish();
        assert_eq!(report.sent_items, 1);
        assert_eq!(report.connects, 1);
        let frames = server.join().unwrap();
        assert!(frames
            .iter()
            .any(|f| matches!(f, Frame::Batch { seq: 0, .. })));
    }

    /// A closing sensor whose peer never listens backs off between
    /// connects like an open one: `finish` must not turn the retry loop
    /// into a busy spin.
    #[test]
    fn finishing_sensor_keeps_its_backoff() {
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);

        let registry = Registry::new();
        let failures =
            registry.counter_with("feed_sensor_connect_failures_total", &[("sensor", "4")]);
        let mut config = SensorConfig::new(4);
        config.backoff = BackoffConfig {
            base_ms: 40,
            max_ms: 40,
            seed: 4,
        };
        let sensor = Sensor::<TestItem>::connect_with_registry(addr.to_string(), config, &registry);
        sensor.send(TestItem::new(1));
        let started = std::time::Instant::now();
        let finishing = std::thread::spawn(move || sensor.finish());
        std::thread::sleep(Duration::from_millis(300));
        let (elapsed, failed) = (started.elapsed(), failures.value());
        // Every delay is at least half of 40 ms: one failure to start
        // with, then at most one per 20 ms.
        let allowed = 2 + elapsed.as_millis() as u64 / 20;
        assert!(failed >= 1, "the sensor never tried to connect");
        assert!(
            failed <= allowed,
            "{failed} connect failures in {elapsed:?}: the closing writer spins"
        );

        let listener = TcpListener::bind(addr).unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            read_frames(&mut stream)
        });
        let report = finishing.join().unwrap();
        assert_eq!(report.sent_items, 1);
        let frames = server.join().unwrap();
        assert!(matches!(frames.last(), Some(Frame::Bye { .. })));
    }

    #[test]
    fn full_buffer_drops_and_accounts() {
        // No listener at all: every sealed frame beyond the buffer bound
        // must be dropped with its items counted and its seq consumed.
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);

        let mut config = SensorConfig::new(2);
        config.batch_items = 1;
        config.buffer_frames = 2;
        config.backoff = BackoffConfig {
            base_ms: 1_000,
            max_ms: 1_000,
            seed: 2,
        };
        let sensor = Sensor::<TestItem>::connect(addr.to_string(), config);
        for v in 0..10u64 {
            sensor.send(TestItem::new(v));
        }
        let report = sensor.abort();
        // One frame may be in flight with the writer; the rest split
        // between the 2-slot buffer and the drop counter.
        assert!(
            report.dropped_frames >= 7,
            "dropped {}",
            report.dropped_frames
        );
        assert_eq!(report.dropped_items, report.dropped_frames);
        assert_eq!(report.next_seq, 10); // seqs consumed even for drops
        assert_eq!(report.sent_frames, 0);
    }
}
