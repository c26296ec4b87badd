//! The one TCP server shell: a listener, a reader thread per connection,
//! an optional writer thread per connection, and one bounded channel into
//! the thread that owns the hub. The collector ([`crate::Collector`]) and
//! the subscription server (`pubsub::Server`) both run on it.
//!
//! ```text
//! accept thread ──spawns──▶ reader per connection ─┐ (conn, frame | bad frame | closed)
//!                           writer per connection ─┤ (conn, wrote)
//!                           Inbox (local messages) ─┤
//!                                                   ▼  one sync_channel, QUEUE_FRAMES deep
//!                           the owner's thread: Hub::recv ──▶ its sans-io core
//!                                                   │  Hub::write: try_send, never blocks
//!                           writer per connection ◀─┘  (its own queue, QUEUE_FRAMES deep)
//! ```
//!
//! Readers decode frames on their own threads (a [`FrameReader`] each),
//! so decoding runs in parallel across connections. Nothing polls: the
//! accept thread blocks in `accept`, readers in `read`, writers on their
//! queue and the owner in [`Hub::recv`]. Dropping the hub wakes each of
//! them: the input channel's receiver goes first (a reader blocked on a
//! full channel returns), a connection to the hub's own address wakes the
//! accept, writers finish the frames already queued, and every socket is
//! shut down under its reader. Every thread is joined before `drop`
//! returns.
//!
//! **Back-pressure.** The input channel holds [`QUEUE_FRAMES`] events.
//! When the owner falls behind, it fills, the readers block in `send`,
//! they stop reading, TCP fills, and the peer feels it: a `Sensor`'s
//! writer blocks and its 64-frame send buffer sheds, into its ledger. The
//! data path has no unbounded queue.
//!
//! **Sizing.** `obsbench`'s `steady_ingest` closes its loop at 65 536
//! transactions in flight between the generator and the fold. At 256
//! items per frame that is at most 256 whole frames plus one partial
//! frame per sensor: 258 frames over its two sensors. For a sensor to
//! shed, its 64-frame buffer must be full and its writer blocked, so its
//! reader must be blocked on a full input channel: 64 + 256 frames in
//! flight, more than 258, even if TCP buffered nothing. So no sensor can
//! shed there, and the zero-drop oracles hold by this arithmetic.
//!
//! **Errors.** One policy for every hub: a failed accept, socket clone or
//! thread spawn costs that one connection, never the listener. On the
//! accept side the connection is closed, the error goes to stderr
//! (rate-limited) and the accept thread pauses 10 ms, so that a
//! lasting error such as `EMFILE` cannot spin. A writer that cannot start
//! makes [`Hub::write`] return false, which the owner treats as the
//! connection being gone. A frame that fails its CRC or decode reaches
//! the owner as [`Event::BadFrame`] and the stream goes on; a bad length
//! prefix cannot be realigned, so the reader reports it and stops.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dnswire::framing::{FrameCodec, FrameReader};
use telemetry::{Clock, RateLimiter, SystemClock};

use crate::error::FeedError;

/// Depth of every hub queue, in frames: the input channel, each writer's
/// queue, and the collector's merged output (one message per frame).
pub const QUEUE_FRAMES: usize = 256;

/// How long the accept thread waits after an error before accepting
/// again.
const ERROR_PAUSE: Duration = Duration::from_millis(10);

/// How long one write may stall before the writer gives its connection
/// up, like any other departure.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// What the hub's owner receives.
#[derive(Debug)]
pub enum Event<F, M> {
    /// A decoded frame from `conn`, in the connection's order.
    Frame {
        /// Connection id, unique for the hub's life.
        conn: u64,
        /// The frame.
        frame: F,
    },
    /// A frame from `conn` failed its CRC, decode or length prefix.
    BadFrame {
        /// Connection id.
        conn: u64,
        /// Why.
        error: FeedError,
    },
    /// `conn` is gone; nothing more comes from it.
    Closed {
        /// Connection id.
        conn: u64,
    },
    /// `frames` more frames given to [`Hub::write`] reached `conn`'s
    /// socket.
    Wrote {
        /// Connection id.
        conn: u64,
        /// Frames written since the last report.
        frames: u64,
    },
    /// A message sent through an [`Inbox`].
    Local(M),
}

/// Spawn an io thread with the platform's small, bounded stack
/// ([`telemetry::IO_THREAD_STACK_BYTES`]): the one spawn helper of the
/// feed and serving edges.
pub fn spawn<T: Send + 'static>(
    name: impl Into<String>,
    f: impl FnOnce() -> T + Send + 'static,
) -> std::io::Result<JoinHandle<T>> {
    std::thread::Builder::new()
        .name(name.into())
        .stack_size(telemetry::IO_THREAD_STACK_BYTES)
        .spawn(f)
}

/// A sender of local messages into a hub's input channel.
pub struct Inbox<F, M>(SyncSender<Event<F, M>>);

impl<F, M> Inbox<F, M> {
    /// Queue `msg` unless the channel is full or the hub is gone. Never
    /// blocks.
    pub fn try_send(&self, msg: M) -> bool {
        self.0.try_send(Event::Local(msg)).is_ok()
    }

    /// Queue `msg`, waiting for room; false if the hub is gone.
    pub fn send(&self, msg: M) -> bool {
        self.0.send(Event::Local(msg)).is_ok()
    }
}

/// A listening hub for the framed format `C`, with local messages `M`.
/// Owned by one thread, which calls [`Hub::recv`] in a loop.
pub struct Hub<C: FrameCodec, M> {
    addr: SocketAddr,
    events: Option<Receiver<Event<C::Frame, M>>>,
    inbox: SyncSender<Event<C::Frame, M>>,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    writers: BTreeMap<u64, Writer>,
    /// Connections whose frames are no longer delivered.
    closing: BTreeSet<u64>,
    /// Threads of retired connections, joined on drop.
    retired: Vec<JoinHandle<()>>,
    name: String,
}

/// What the accept thread shares with the owner.
struct Shared {
    stop: AtomicBool,
    /// Each live connection's socket (a clone, to shut it down) and
    /// reader thread.
    conns: Mutex<BTreeMap<u64, (TcpStream, JoinHandle<()>)>>,
}

struct Writer {
    queue: SyncSender<Out>,
    /// Frames written and not yet reported.
    written: Arc<AtomicU64>,
    thread: JoinHandle<()>,
}

enum Out {
    Frame(Arc<Vec<u8>>),
    HangUp,
}

impl<C, M> Hub<C, M>
where
    C: FrameCodec<Error = FeedError> + 'static,
    C::Frame: Send + 'static,
    M: Send + 'static,
{
    /// Bind `addr` and start accepting. Threads are named after `name`
    /// (`NAME-accept`, `NAME-reader-N`, `NAME-writer-N`).
    pub fn bind(addr: &str, name: &str) -> std::io::Result<Hub<C, M>> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let (inbox, events) = sync_channel(QUEUE_FRAMES);
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            conns: Mutex::new(BTreeMap::new()),
        });
        let accept = {
            let (shared, inbox, name) = (Arc::clone(&shared), inbox.clone(), name.to_string());
            spawn(format!("{name}-accept"), move || {
                accept_loop::<C, M>(listener, &shared, &inbox, &name)
            })?
        };
        Ok(Hub {
            addr,
            events: Some(events),
            inbox,
            shared,
            accept: Some(accept),
            writers: BTreeMap::new(),
            closing: BTreeSet::new(),
            retired: Vec::new(),
            name: name.to_string(),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A sender of local messages into this hub (one per caller).
    pub fn inbox(&self) -> Inbox<C::Frame, M> {
        Inbox(self.inbox.clone())
    }

    /// The next event, blocking until there is one.
    pub fn recv(&mut self) -> Event<C::Frame, M> {
        self.recv_until(None).expect("the hub holds a sender")
    }

    /// The next event, or `None` once `deadline`, if given, has passed
    /// without one.
    pub fn recv_until(&mut self, deadline: Option<Instant>) -> Option<Event<C::Frame, M>> {
        loop {
            let events = self.events.as_ref().expect("receiver lives until drop");
            let event = match deadline {
                Some(at) => events.recv_timeout(at.saturating_duration_since(Instant::now())),
                None => events.recv().map_err(Into::into),
            };
            if let Some(event) = self.admit(event.ok()?) {
                return Some(event);
            }
        }
    }

    /// Queue `frame` for `conn`, starting its writer on the first write.
    /// Never blocks: false when the connection is closing or gone, its
    /// queue is full, or the writer cannot start.
    pub fn write(&mut self, conn: u64, frame: Arc<Vec<u8>>) -> bool {
        if self.closing.contains(&conn) {
            return false;
        }
        if !self.writers.contains_key(&conn) {
            let Ok(writer) = self.start_writer(conn) else {
                return false;
            };
            self.writers.insert(conn, writer);
        }
        self.writers[&conn]
            .queue
            .try_send(Out::Frame(frame))
            .is_ok()
    }

    /// Deliver no more of `conn`'s frames and hang up once the frames
    /// already queued for it are written. Its [`Event::Closed`] follows.
    pub fn hang_up(&mut self, conn: u64) {
        match self.writers.get(&conn) {
            Some(w) if !self.closing.contains(&conn) && w.queue.try_send(Out::HangUp).is_ok() => {
                self.closing.insert(conn);
            }
            _ => self.close(conn),
        }
    }

    /// Deliver no more of `conn`'s frames and shut its socket down now,
    /// dropping what is queued for it. Its [`Event::Closed`] follows.
    pub fn close(&mut self, conn: u64) {
        if let Some((stream, _)) = self.shared.conns.lock().unwrap().get(&conn) {
            let _ = stream.shutdown(Shutdown::Both);
            self.closing.insert(conn);
        }
    }

    /// Filter one raw event: frames of closing connections go, writers'
    /// reports become counts, and a closed connection is retired.
    fn admit(&mut self, event: Event<C::Frame, M>) -> Option<Event<C::Frame, M>> {
        match event {
            Event::Frame { conn, .. } | Event::BadFrame { conn, .. }
                if self.closing.contains(&conn) =>
            {
                None
            }
            Event::Wrote { conn, .. } => {
                let frames = self.writers.get(&conn)?.written.swap(0, Ordering::AcqRel);
                (frames > 0).then_some(Event::Wrote { conn, frames })
            }
            Event::Closed { conn } => {
                self.retire(conn);
                Some(event)
            }
            event => Some(event),
        }
    }

    /// `conn`'s reader has sent its last event: tear the connection down
    /// (its writer fails fast on the shut socket) and keep its threads to
    /// join on drop, dropping those already finished.
    fn retire(&mut self, conn: u64) {
        self.closing.remove(&conn);
        self.retired.retain(|t| !t.is_finished());
        if let Some((stream, reader)) = self.shared.conns.lock().unwrap().remove(&conn) {
            let _ = stream.shutdown(Shutdown::Both);
            self.retired.push(reader);
        }
        if let Some(writer) = self.writers.remove(&conn) {
            self.retired.push(writer.thread);
        }
    }

    fn start_writer(&self, conn: u64) -> std::io::Result<Writer> {
        let stream = match self.shared.conns.lock().unwrap().get(&conn) {
            Some((stream, _)) => stream.try_clone()?,
            None => return Err(std::io::ErrorKind::NotConnected.into()),
        };
        let (queue, rx) = sync_channel(QUEUE_FRAMES);
        let written = Arc::new(AtomicU64::new(0));
        let (events, count) = (self.inbox.clone(), Arc::clone(&written));
        let thread = spawn(format!("{}-writer-{conn}", self.name), move || {
            write_loop(stream, conn, &rx, &count, &events)
        })?;
        Ok(Writer {
            queue,
            written,
            thread,
        })
    }
}

impl<C: FrameCodec, M> Drop for Hub<C, M> {
    fn drop(&mut self) {
        drop(self.events.take());
        self.shared.stop.store(true, Ordering::SeqCst);
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
            });
        }
        // Without the wake-up the accept never returns: leave it be
        // rather than hang.
        if let (Ok(_), Some(accept)) = (TcpStream::connect(wake), self.accept.take()) {
            let _ = accept.join();
        }
        for (_, writer) in std::mem::take(&mut self.writers) {
            drop(writer.queue);
            let _ = writer.thread.join();
        }
        let conns = std::mem::take(&mut *self.shared.conns.lock().unwrap());
        for (_, (stream, reader)) in conns {
            let _ = stream.shutdown(Shutdown::Both);
            self.retired.push(reader);
        }
        for thread in self.retired.drain(..) {
            let _ = thread.join();
        }
    }
}

fn accept_loop<C, M>(
    listener: TcpListener,
    shared: &Shared,
    events: &SyncSender<Event<C::Frame, M>>,
    name: &str,
) where
    C: FrameCodec<Error = FeedError> + 'static,
    C::Frame: Send + 'static,
    M: Send + 'static,
{
    let clock = SystemClock::new();
    let mut warn_limit = RateLimiter::new(5_000_000);
    let mut next_conn = 0u64;
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let admitted = accepted.and_then(|(stream, _)| {
            let _ = stream.set_nodelay(true);
            let handle = stream.try_clone()?;
            let (conn, events) = (next_conn, events.clone());
            let mut conns = shared.conns.lock().unwrap();
            let reader = spawn(format!("{name}-reader-{conn}"), move || {
                read_loop::<C, M>(stream, conn, &events)
            })?;
            conns.insert(conn, (handle, reader));
            next_conn += 1;
            Ok(())
        });
        if let Err(e) = admitted {
            if let Some(suppressed) = warn_limit.allow(clock.now_us()) {
                eprintln!(
                    "{name}: dropped an incoming connection: {e} \
                     ({suppressed} earlier warnings suppressed)"
                );
            }
            std::thread::sleep(ERROR_PAUSE);
        }
    }
}

fn read_loop<C, M>(mut stream: TcpStream, conn: u64, events: &SyncSender<Event<C::Frame, M>>)
where
    C: FrameCodec<Error = FeedError>,
{
    let mut reader = FrameReader::<C>::new();
    let mut buf = [0u8; 16 * 1024];
    'conn: loop {
        let n = match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        reader.push(&buf[..n]);
        loop {
            let (event, fatal) = match reader.next_frame() {
                Ok(Some(frame)) => (Event::Frame { conn, frame }, false),
                Ok(None) => break,
                Err(error) => {
                    let fatal = matches!(error, FeedError::Framing(_));
                    (Event::BadFrame { conn, error }, fatal)
                }
            };
            if events.send(event).is_err() || fatal {
                break 'conn;
            }
        }
    }
    let _ = events.send(Event::Closed { conn });
}

/// Write queued frames until a hang-up, a failed write or the hub's
/// drop, then shut the socket down (which ends the reader too). The
/// count of written frames is reported with at most one event in the
/// input channel per writer: only the write that finds the count at zero
/// sends one, and [`Hub::recv`] resets the count.
fn write_loop<F, M>(
    mut stream: TcpStream,
    conn: u64,
    queue: &Receiver<Out>,
    written: &AtomicU64,
    events: &SyncSender<Event<F, M>>,
) {
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    while let Ok(Out::Frame(frame)) = queue.recv() {
        if stream.write_all(&frame).is_err() {
            break;
        }
        if written.fetch_add(1, Ordering::AcqRel) == 0 {
            // After the hub's drop nobody reads the count; the queue is
            // still written out.
            let _ = events.send(Event::Wrote { conn, frames: 0 });
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}
