//! Sensor side of the feed: batch items into frames, buffer a bounded
//! number of frames, and push them to the collector over TCP with
//! reconnect-and-backoff.
//!
//! The protocol is the sans-io [`SensorMachine`], whose codec half is
//! [`SensorEncoder`]. [`Sensor`] is its shell: a writer thread turns the
//! machine's ops into TCP and wall time, so the caller (the resolver
//! tap) never blocks on the network. When the send buffer is full, whole
//! frames are dropped and *accounted* — their sequence numbers are still
//! consumed, so the collector sees the exact gap, and the BYE frame
//! reports the sensor's own tally.

use std::borrow::Borrow;
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use telemetry::trace::{TraceEvent, TraceKind, TraceRing};
use telemetry::{Clock, FlightRecorder, RateLimiter, Registry, SystemClock};

use crate::backoff::BackoffConfig;
use crate::codec::FeedItem;
use crate::frame::{encode_batch_preencoded, encode_frame, Frame};
use crate::hub;
use crate::machine::{SealEvent, SensorMachine, SensorOp, Wrote};

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

struct Shared<T> {
    machine: Mutex<SensorMachine<T>>,
    cond: Condvar,
    clock: SystemClock,
    trace: TraceRing,
}

impl<T> Shared<T> {
    fn record(&self, kind: TraceKind, sensor: u64, value: u64) {
        if self.trace.is_enabled() {
            let event = TraceEvent::new(self.clock.now_us(), STAGE, kind);
            self.trace.record(event.source(sensor).value(value));
        }
    }
}

/// TCP feed client: a resolver tap calls [`Sensor::send`] and never
/// blocks on the network; a writer thread drives the [`SensorMachine`]
/// and owns the connection.
pub struct Sensor<T: FeedItem> {
    shared: Arc<Shared<T>>,
    writer: Option<JoinHandle<()>>,
    warn_limit: Mutex<RateLimiter>,
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
        let shared = Arc::new(Shared {
            machine: Mutex::new(SensorMachine::with_registry(config, registry)),
            cond: Condvar::new(),
            clock: SystemClock::new(),
            trace: FlightRecorder::global().ring("feed/sensor"),
        });
        let writer = {
            let shared = Arc::clone(&shared);
            hub::spawn(format!("feed-sensor-{}", config.sensor_id), move || {
                writer_loop(&addr, &shared)
            })
            .expect("spawn sensor writer")
        };
        Sensor {
            shared,
            writer: Some(writer),
            // One drop warning per 5s of wall time; the counters carry
            // the full tally.
            warn_limit: Mutex::new(RateLimiter::new(5_000_000)),
        }
    }

    /// Queue an item (by value or by reference: it is encoded at once).
    /// When the batch fills, the sealed frame enters the send buffer — or
    /// is dropped (and accounted) if the buffer is full.
    pub fn send(&self, item: impl Borrow<T>) {
        self.seal(|m| m.push(item));
    }

    /// Seal and queue the current partial batch.
    pub fn flush(&self) {
        self.seal(SensorMachine::flush);
    }

    /// Block until the send buffer has fully drained onto the wire.
    pub fn wait_drained(&self) {
        let mut m = self.shared.machine.lock().unwrap();
        while m.queued_frames() > 0 {
            m = self.shared.cond.wait(m).unwrap();
        }
    }

    /// Flush, send BYE, drain, and return the final accounting.
    pub fn finish(mut self) -> SensorReport {
        self.flush();
        self.shared.machine.lock().unwrap().finish();
        self.stop()
    }

    /// Tear the connection down *without* BYE — simulates (or reacts to)
    /// a crash. The partial batch is sealed (consuming its sequence
    /// number, so its loss stays gap-visible) and everything buffered,
    /// the frame being written included, is discarded and counted as
    /// dropped. The report's `next_seq` is what a restarted incarnation
    /// should resume from.
    pub fn abort(mut self) -> SensorReport {
        self.shared.machine.lock().unwrap().abort();
        self.stop()
    }

    /// Wake the writer, wait for it to exit, and return the final
    /// accounting.
    fn stop(&mut self) -> SensorReport {
        self.shared.cond.notify_all();
        if let Some(h) = self.writer.take() {
            let _ = h.join();
        }
        self.shared.machine.lock().unwrap().report()
    }

    /// Run a sealing call on the machine: wake the writer for a buffered
    /// frame, trace and warn (rate-limited) for a dropped one.
    fn seal(&self, op: impl FnOnce(&mut SensorMachine<T>) -> Option<SealEvent>) {
        let mut m = self.shared.machine.lock().unwrap();
        let Some(event) = op(&mut m) else { return };
        if !event.dropped {
            drop(m);
            self.shared.cond.notify_all();
            return;
        }
        let total = m.report();
        drop(m);
        self.shared
            .record(TraceKind::Drop, total.sensor, event.items);
        let now = self.shared.clock.now_us();
        if let Some(suppressed) = self.warn_limit.lock().unwrap().allow(now) {
            eprintln!(
                "sensor {}: send buffer full, dropped frame seq {} \
                 ({} frames / {} items total, {suppressed} earlier warnings suppressed)",
                total.sensor, event.seq, total.dropped_frames, total.dropped_items,
            );
        }
    }
}

impl<T: FeedItem> Drop for Sensor<T> {
    fn drop(&mut self) {
        if self.writer.is_some() {
            self.shared.machine.lock().unwrap().abort();
            self.stop();
        }
    }
}

/// The writer thread: turns the machine's ops into a TCP connection and
/// wall-time waits. The lock is released across every connect and write.
fn writer_loop<T: FeedItem>(addr: &str, shared: &Shared<T>) {
    let mut conn: Option<TcpStream> = None;
    let mut m = shared.machine.lock().unwrap();
    loop {
        let now = shared.clock.now_us();
        match m.poll(now) {
            SensorOp::Connect => {
                drop(m);
                let connected = TcpStream::connect(addr);
                m = shared.machine.lock().unwrap();
                let now = shared.clock.now_us();
                match connected {
                    Ok(stream) => {
                        let _ = stream.set_nodelay(true);
                        conn = Some(stream);
                        m.on_connected(now);
                    }
                    Err(_) => m.on_connect_failed(now),
                }
            }
            SensorOp::Write(bytes) => {
                drop(m);
                let stream = conn.as_mut().expect("connected before writing");
                let written = std::io::Write::write_all(stream, &bytes);
                m = shared.machine.lock().unwrap();
                if m.aborted() {
                    // `abort` has ledgered this frame as dropped already.
                    return;
                }
                if written.is_ok() {
                    if m.on_write_ok() == Wrote::Hello {
                        shared.record(TraceKind::Open, m.sensor(), m.resume_seq());
                    }
                    if m.queued_frames() == 0 {
                        // A `wait_drained` may be waiting for the empty
                        // buffer. Wake it outside the lock, which `send`
                        // takes for every item.
                        drop(m);
                        shared.cond.notify_all();
                        m = shared.machine.lock().unwrap();
                    }
                } else {
                    conn = None;
                    m.on_write_failed(shared.clock.now_us());
                    shared.record(TraceKind::Mark, m.sensor(), m.resume_seq());
                }
            }
            SensorOp::WaitUntil(t) => {
                let wait = Duration::from_micros(t.saturating_sub(now));
                m = shared.cond.wait_timeout(m, wait).unwrap().0;
            }
            SensorOp::Idle => m = shared.cond.wait(m).unwrap(),
            SensorOp::Done => return,
        }
    }
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
        // No listener at all: the writer holds the first frame in
        // backoff, that frame counts toward the 2-slot buffer, and every
        // sealed frame beyond the bound is dropped with its items counted
        // and its seq consumed. Abort ledgers what is still buffered, the
        // held frame included: nothing was sent, so all 10 are dropped.
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);

        let registry = Registry::new();
        let failures =
            registry.counter_with("feed_sensor_connect_failures_total", &[("sensor", "2")]);
        let mut config = SensorConfig::new(2);
        config.batch_items = 1;
        config.buffer_frames = 2;
        config.backoff = BackoffConfig {
            base_ms: 1_000,
            max_ms: 1_000,
            seed: 2,
        };
        let sensor = Sensor::<TestItem>::connect_with_registry(addr.to_string(), config, &registry);
        sensor.send(TestItem::new(0));
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while failures.value() < 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "the sensor never tried to connect"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        for v in 1..10u64 {
            sensor.send(TestItem::new(v));
        }
        let report = sensor.abort();
        assert_eq!(report.next_seq, 10); // seqs consumed even for drops
        assert_eq!(report.sent_frames, 0);
        assert_eq!(
            report.sent_frames + report.dropped_frames,
            report.next_seq,
            "{report:?}: a sealed frame is missing from the ledger"
        );
        assert_eq!(report.dropped_items, report.dropped_frames);
    }
}
