//! Threaded std::net shell around [`BrokerCore`].
//!
//! Thread layout (all io threads use the shared small-stack size):
//!
//! * **ingest ring** — the pipeline's seal path hands sealed windows to a
//!   bounded SPSC ring via [`ServerHandle::publish_windows`]; a full ring
//!   drops the batch and counts it (`pubsub_ingest_dropped_total`) — the
//!   seal path never blocks on the serving tier, full stop;
//! * **broker thread** — drains the ring into the core, processes client
//!   control messages, and carries out the core's actions (queue frame /
//!   evict);
//! * **accept thread** — non-blocking listener, one reader thread per
//!   connection;
//! * **per-client reader** — handshake (`Hello` + `Subscribe`, answered
//!   with the broker's `Hello`), then watches for `Bye`/errors;
//! * **per-client writer** — drains an unbounded channel of pre-encoded
//!   frames into the socket, reporting each write back as a drain so the
//!   core's egress accounting stays authoritative. The channel is
//!   unbounded but its population is bounded by the core: it never holds
//!   more than the client's egress window plus terminal frames.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use feed::FeedItem;
use sketchwire::WindowState;
use telemetry::{Counter, Registry, TraceRing};

use crate::broker::{Action, BrokerConfig, BrokerCore, BrokerReport, SealedRecord};
use crate::codec::{encode_frame_vec, EvictReason, Frame, FrameReader, Topic, PROTOCOL_VERSION};

/// Serving-tier configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Broker knobs (egress windows, degradation, eviction).
    pub broker: BrokerConfig,
    /// Seal-path ingest ring capacity, in sealed batches.
    pub ingest_depth: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            broker: BrokerConfig::default(),
            ingest_depth: 256,
        }
    }
}

/// One item on the seal-path ingest ring.
#[derive(Debug)]
pub enum Ingest {
    /// A sealed window batch (all datasets, possibly chunked).
    Windows(Vec<SealedRecord>),
    /// Meta TSV bytes for one window.
    Meta {
        /// Window start, microseconds.
        start_us: u64,
        /// Raw TSV bytes.
        bytes: Vec<u8>,
    },
}

/// The seal path's non-blocking publish handle (single producer — take it
/// once with [`Server::take_handle`]).
pub struct ServerHandle {
    tx: spsc::Producer<Ingest>,
    dropped: Counter,
}

impl ServerHandle {
    /// Offer a sealed window batch. Returns `false` (and counts the
    /// drop) if the ring is full or the server is gone — never blocks.
    pub fn publish_windows(&mut self, windows: Vec<WindowState>) -> bool {
        self.publish_records(windows.into_iter().map(SealedRecord::from).collect())
    }

    /// Offer a sealed window batch the seal path shares with its other
    /// sinks (see [`BrokerCore::on_sealed_records`]). Same non-blocking
    /// contract.
    pub fn publish_records(&mut self, records: Vec<SealedRecord>) -> bool {
        self.offer(Ingest::Windows(records))
    }

    /// Offer one window's meta TSV bytes. Same non-blocking contract.
    pub fn publish_meta(&mut self, start_us: u64, bytes: Vec<u8>) -> bool {
        self.offer(Ingest::Meta { start_us, bytes })
    }

    fn offer(&mut self, ingest: Ingest) -> bool {
        match self.tx.try_push(ingest) {
            Ok(()) => true,
            Err(_) => {
                self.dropped.inc(1);
                false
            }
        }
    }
}

enum WriterMsg {
    Frame(Arc<Vec<u8>>),
    Close,
}

enum Ctl {
    Connect {
        id: u64,
        topics: Vec<Topic>,
        writer: Sender<WriterMsg>,
        writer_thread: JoinHandle<()>,
        stream: TcpStream,
    },
    Drained {
        id: u64,
        n: u64,
    },
    Gone {
        id: u64,
        reason: EvictReason,
    },
}

struct Conn {
    writer: Sender<WriterMsg>,
    writer_thread: Option<JoinHandle<()>>,
    stream: TcpStream,
}

/// A running subscription server.
pub struct Server {
    local_addr: SocketAddr,
    producer: Option<ServerHandle>,
    stop: Arc<AtomicBool>,
    broker_thread: Option<JoinHandle<BrokerReport>>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` and start the serving tier. Metrics register in
    /// `registry`; broker decisions trace into `trace`.
    pub fn bind(
        addr: &str,
        cfg: ServeConfig,
        registry: &Registry,
        trace: TraceRing,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let (tx, rx) = spsc::ring::<Ingest>(cfg.ingest_depth.max(1));
        let (ctl_tx, ctl_rx) = mpsc::channel::<Ctl>();
        let stop = Arc::new(AtomicBool::new(false));

        let core = BrokerCore::new(cfg.broker)
            .with_registry(registry)
            .with_trace(trace);
        let seal_errors = registry.counter("pubsub_seal_errors_total");
        let broker_thread = spawn_io("pubsub-broker", move || {
            run_broker(core, rx, ctl_rx, seal_errors)
        })?;
        let accept_stop = stop.clone();
        let accept_thread = spawn_io("pubsub-accept", move || {
            run_accept(listener, ctl_tx, accept_stop)
        })?;

        Ok(Server {
            local_addr,
            producer: Some(ServerHandle {
                tx,
                dropped: registry.counter("pubsub_ingest_dropped_total"),
            }),
            stop,
            broker_thread: Some(broker_thread),
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Take the seal path's publish handle. Single producer: the first
    /// call wins, later calls return `None`.
    pub fn take_handle(&mut self) -> Option<ServerHandle> {
        self.producer.take()
    }

    /// Shut down: stop accepting, drain the ring, `Bye` every client,
    /// and return the broker's report. If [`Server::take_handle`] was
    /// called, the handle must be dropped first — the broker finishes
    /// only once the ingest ring disconnects.
    pub fn finish(mut self) -> BrokerReport {
        self.stop.store(true, Ordering::SeqCst);
        drop(self.producer.take());
        let report = self
            .broker_thread
            .take()
            .map(|t| t.join().unwrap_or_default())
            .unwrap_or_default();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        report
    }
}

fn spawn_io<T: Send + 'static>(
    name: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> std::io::Result<JoinHandle<T>> {
    std::thread::Builder::new()
        .name(name.to_string())
        .stack_size(telemetry::IO_THREAD_STACK_BYTES)
        .spawn(f)
}

fn run_accept(listener: TcpListener, ctl: Sender<Ctl>, stop: Arc<AtomicBool>) {
    let mut next_id: u64 = 0;
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                next_id += 1;
                let id = next_id;
                let _ = stream.set_nodelay(true);
                let ctl = ctl.clone();
                let spawned = spawn_io(&format!("pubsub-reader-{id}"), move || {
                    run_reader(stream, id, ctl)
                });
                if spawned.is_err() {
                    return;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => return,
        }
    }
}

/// Handshake: the client speaks `Hello` then `Subscribe`; we answer with
/// our own `Hello`. Anything else (or a decode error) aborts the
/// connection before it ever reaches the broker.
fn handshake(stream: &mut TcpStream, rd: &mut FrameReader) -> Result<Vec<Topic>, ()> {
    let mut buf = [0u8; 4096];
    let mut hello_seen = false;
    loop {
        while let Some(frame) = rd.next_frame().map_err(|_| ())? {
            match (hello_seen, frame) {
                (false, Frame::Hello { .. }) => hello_seen = true,
                (true, Frame::Subscribe { topics }) => {
                    let hello = encode_frame_vec(&Frame::Hello {
                        protocol: PROTOCOL_VERSION,
                        item_version: WindowState::ITEM_VERSION,
                    });
                    stream.write_all(&hello).map_err(|_| ())?;
                    return Ok(topics);
                }
                _ => return Err(()),
            }
        }
        let n = stream.read(&mut buf).map_err(|_| ())?;
        if n == 0 {
            return Err(());
        }
        rd.push(&buf[..n]);
    }
}

fn run_reader(mut stream: TcpStream, id: u64, ctl: Sender<Ctl>) {
    let mut rd = FrameReader::new();
    let topics = match handshake(&mut stream, &mut rd) {
        Ok(t) => t,
        Err(()) => {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
    };
    let (writer_stream, broker_stream) = match (stream.try_clone(), stream.try_clone()) {
        (Ok(a), Ok(b)) => (a, b),
        _ => {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
    };
    let (wtx, wrx) = mpsc::channel::<WriterMsg>();
    let writer_ctl = ctl.clone();
    let writer_thread = match spawn_io(&format!("pubsub-writer-{id}"), move || {
        run_writer(writer_stream, wrx, writer_ctl, id)
    }) {
        Ok(t) => t,
        Err(_) => {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
    };
    if ctl
        .send(Ctl::Connect {
            id,
            topics,
            writer: wtx,
            writer_thread,
            stream: broker_stream,
        })
        .is_err()
    {
        let _ = stream.shutdown(Shutdown::Both);
        return;
    }
    let mut buf = [0u8; 4096];
    loop {
        let n = match stream.read(&mut buf) {
            Ok(n) => n,
            Err(_) => {
                let _ = ctl.send(Ctl::Gone {
                    id,
                    reason: EvictReason::Gone,
                });
                return;
            }
        };
        if n == 0 {
            let _ = ctl.send(Ctl::Gone {
                id,
                reason: EvictReason::Gone,
            });
            return;
        }
        rd.push(&buf[..n]);
        // Any post-handshake frame ends the connection, so one decode
        // attempt per read suffices: Bye is a clean goodbye, anything
        // else (or damage) is a protocol violation.
        match rd.next_frame() {
            Ok(Some(Frame::Bye)) => {
                let _ = ctl.send(Ctl::Gone {
                    id,
                    reason: EvictReason::Gone,
                });
                return;
            }
            Ok(Some(_)) | Err(_) => {
                let _ = ctl.send(Ctl::Gone {
                    id,
                    reason: EvictReason::Protocol,
                });
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
            Ok(None) => {}
        }
    }
}

fn run_writer(mut stream: TcpStream, rx: Receiver<WriterMsg>, ctl: Sender<Ctl>, id: u64) {
    // Bound how long one stalled socket can pin this thread; a timed-out
    // write is a departure like any other.
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    while let Ok(msg) = rx.recv() {
        match msg {
            WriterMsg::Frame(frame) => {
                if stream.write_all(&frame).is_err() {
                    let _ = ctl.send(Ctl::Gone {
                        id,
                        reason: EvictReason::Gone,
                    });
                    let _ = stream.shutdown(Shutdown::Both);
                    return;
                }
                let _ = ctl.send(Ctl::Drained { id, n: 1 });
            }
            WriterMsg::Close => {
                let _ = stream.flush();
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
        }
    }
}

fn dispatch(conns: &mut HashMap<u64, Conn>, actions: &mut Vec<Action>) {
    for action in actions.drain(..) {
        match action {
            Action::Send { client, frame } => {
                if let Some(conn) = conns.get(&client) {
                    let _ = conn.writer.send(WriterMsg::Frame(frame));
                }
            }
            Action::Evict { client, frame, .. } => {
                if let Some(conn) = conns.remove(&client) {
                    // Best-effort terminal notice, then close; a stalled
                    // writer is unblocked by the shutdown.
                    let _ = conn.writer.send(WriterMsg::Frame(frame));
                    let _ = conn.writer.send(WriterMsg::Close);
                    let _ = conn.stream.shutdown(Shutdown::Both);
                }
            }
        }
    }
}

fn run_broker(
    mut core: BrokerCore,
    mut ring: spsc::Consumer<Ingest>,
    ctl: Receiver<Ctl>,
    seal_errors: Counter,
) -> BrokerReport {
    let epoch = Instant::now();
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut actions: Vec<Action> = Vec::new();
    let handle = |core: &mut BrokerCore,
                  conns: &mut HashMap<u64, Conn>,
                  actions: &mut Vec<Action>,
                  msg: Ctl| match msg {
        Ctl::Connect {
            id,
            topics,
            writer,
            writer_thread,
            stream,
        } => {
            conns.insert(
                id,
                Conn {
                    writer,
                    writer_thread: Some(writer_thread),
                    stream,
                },
            );
            core.on_client_connect(id, &topics, actions);
        }
        Ctl::Drained { id, n } => core.on_drained(id, n),
        Ctl::Gone { id, reason } => {
            core.on_client_gone(id, reason);
            if let Some(conn) = conns.remove(&id) {
                let _ = conn.writer.send(WriterMsg::Close);
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
        }
    };
    loop {
        core.set_now_us(epoch.elapsed().as_micros() as u64);
        let mut ingest_done = false;
        loop {
            match ring.try_pop() {
                Ok(Ingest::Windows(records)) => {
                    if core.on_sealed_records(records, &mut actions).is_err() {
                        seal_errors.inc(1);
                    }
                }
                Ok(Ingest::Meta { start_us, bytes }) => core.on_meta(start_us, bytes, &mut actions),
                Err(spsc::TryPopError::Empty) => break,
                Err(spsc::TryPopError::Disconnected) => {
                    ingest_done = true;
                    break;
                }
            }
        }
        dispatch(&mut conns, &mut actions);
        if ingest_done {
            break;
        }
        match ctl.recv_timeout(Duration::from_millis(5)) {
            Ok(msg) => {
                handle(&mut core, &mut conns, &mut actions, msg);
                while let Ok(msg) = ctl.try_recv() {
                    handle(&mut core, &mut conns, &mut actions, msg);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {}
        }
        dispatch(&mut conns, &mut actions);
    }
    // Drain any last control messages so departures that already
    // happened are ledgered with their true reason.
    while let Ok(msg) = ctl.try_recv() {
        handle(&mut core, &mut conns, &mut actions, msg);
    }
    // Give queued egress a bounded chance to reach the wire before the
    // goodbye, so the final ledger's delivered/undelivered split
    // reflects what the sockets actually took. Stalled clients hit the
    // deadline and keep their undelivered count.
    let deadline = Instant::now() + Duration::from_secs(2);
    while conns
        .keys()
        .any(|id| core.client_depth(*id).unwrap_or(0) > 0)
        && Instant::now() < deadline
    {
        match ctl.recv_timeout(Duration::from_millis(5)) {
            Ok(msg) => {
                handle(&mut core, &mut conns, &mut actions, msg);
                while let Ok(msg) = ctl.try_recv() {
                    handle(&mut core, &mut conns, &mut actions, msg);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        dispatch(&mut conns, &mut actions);
    }
    // Anyone still backed up is stalled: unblock their writer with a
    // socket shutdown so the joins below stay prompt.
    let stalled: Vec<u64> = conns
        .keys()
        .filter(|id| core.client_depth(**id).unwrap_or(0) > 0)
        .copied()
        .collect();
    core.set_now_us(epoch.elapsed().as_micros() as u64);
    let report = core.finish(&mut actions);
    dispatch(&mut conns, &mut actions);
    for (id, mut conn) in conns.drain() {
        if stalled.contains(&id) {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        let _ = conn.writer.send(WriterMsg::Close);
        if let Some(t) = conn.writer_thread.take() {
            let _ = t.join();
        }
    }
    report
}
