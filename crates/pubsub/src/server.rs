//! Threaded std::net shell around [`BrokerCore`], on the one server shell
//! the feed's collector runs on too ([`feed::hub`]).
//!
//! ```text
//! seal path ── ServerHandle::publish_* (try_send: a full channel drops
//!              the batch and counts it, pubsub_ingest_dropped_total) ─┐
//! hub readers ── (client, frame | bad frame | closed) ────────────────┤
//! hub writers ── (client, frames written) ────────────────────────────┤
//!                                   one bounded channel (QUEUE_FRAMES) ▼
//!     broker thread: handshake state per client, BrokerCore, Actions
//!                                   │ Hub::write (try_send, never blocks)
//!     hub writer per client ◀───────┘ (bounded queue)
//! ```
//!
//! The broker thread blocks on the hub's channel; nothing polls. The
//! seal path never blocks on the serving tier: a publish that finds the
//! channel full is dropped and counted, and subscribers resync later.
//! Each client speaks `Hello` then `Subscribe`; the broker thread answers
//! with its own `Hello` and only then reports the client to the core, so
//! a broken handshake never reaches it. After the handshake any frame
//! ends the connection: `Bye` as a clean departure, anything else (or
//! damage) as a protocol violation. Every frame written to a client is
//! reported back as a drain, except the handshake `Hello`, so the core's
//! egress accounting stays authoritative. A writer's queue never fills
//! under the core: it holds [`feed::hub::QUEUE_FRAMES`] frames and the
//! core keeps at most its egress window (64) plus a terminal frame
//! outstanding per client.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use feed::hub::{self, Event, Hub, Inbox};
use feed::FeedItem;
use sketchwire::WindowState;
use telemetry::{Counter, Registry, TraceRing};

use crate::broker::{Action, BrokerConfig, BrokerCore, BrokerReport, SealedRecord};
use crate::codec::{encode_frame_vec, EvictReason, Frame, SubCodec, PROTOCOL_VERSION};

/// What the seal path and [`Server::finish`] send the broker thread.
enum Publish {
    /// A sealed window batch (all datasets, possibly chunked).
    Records(Vec<SealedRecord>),
    /// Meta TSV bytes for one window.
    Meta { start_us: u64, bytes: Vec<u8> },
    /// Drain egress, say `Bye` to every client and stop.
    Finish,
}

/// The seal path's non-blocking publish handle (take it once with
/// [`Server::take_handle`]).
pub struct ServerHandle {
    inbox: Inbox<Frame, Publish>,
    dropped: Counter,
}

impl ServerHandle {
    /// Offer a sealed window batch. Returns `false` (and counts the
    /// drop) if the broker's channel is full or the server is gone —
    /// never blocks.
    pub fn publish_windows(&mut self, windows: Vec<WindowState>) -> bool {
        self.publish_records(windows.into_iter().map(SealedRecord::from).collect())
    }

    /// Offer a sealed window batch the seal path shares with its other
    /// sinks (see [`BrokerCore::on_sealed_records`]). Same non-blocking
    /// contract.
    pub fn publish_records(&mut self, records: Vec<SealedRecord>) -> bool {
        self.offer(Publish::Records(records))
    }

    /// Offer one window's meta TSV bytes. Same non-blocking contract.
    pub fn publish_meta(&mut self, start_us: u64, bytes: Vec<u8>) -> bool {
        self.offer(Publish::Meta { start_us, bytes })
    }

    fn offer(&mut self, publish: Publish) -> bool {
        let sent = self.inbox.try_send(publish);
        if !sent {
            self.dropped.inc(1);
        }
        sent
    }
}

/// A running subscription server.
pub struct Server {
    local_addr: SocketAddr,
    producer: Option<ServerHandle>,
    inbox: Inbox<Frame, Publish>,
    broker_thread: Option<JoinHandle<BrokerReport>>,
}

impl Server {
    /// Bind `addr` and start the serving tier with the default broker
    /// knobs. Metrics register in `registry`; broker decisions trace into
    /// `trace`.
    pub fn bind(addr: &str, registry: &Registry, trace: TraceRing) -> std::io::Result<Server> {
        let hub = Hub::<SubCodec, Publish>::bind(addr, "pubsub")?;
        let (local_addr, inbox, publish) = (hub.local_addr(), hub.inbox(), hub.inbox());
        let hello = encode_frame_vec(&Frame::Hello {
            protocol: PROTOCOL_VERSION,
            item_version: WindowState::ITEM_VERSION,
        });
        let broker = Broker {
            hub,
            core: (BrokerCore::new(BrokerConfig::default()).with_registry(registry))
                .with_trace(trace),
            peers: HashMap::new(),
            actions: Vec::new(),
            seal_errors: registry.counter("pubsub_seal_errors_total"),
            hello: Arc::new(hello),
            epoch: Instant::now(),
        };
        let broker_thread = hub::spawn("pubsub-broker", move || broker.run())?;
        Ok(Server {
            local_addr,
            producer: Some(ServerHandle {
                inbox: publish,
                dropped: registry.counter("pubsub_ingest_dropped_total"),
            }),
            inbox,
            broker_thread: Some(broker_thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Take the seal path's publish handle. The first call wins, later
    /// calls return `None`.
    pub fn take_handle(&mut self) -> Option<ServerHandle> {
        self.producer.take()
    }

    /// Shut down: stop accepting, process everything published so far,
    /// `Bye` every client, and return the broker's report. Publishes made
    /// after this call are dropped and counted.
    pub fn finish(mut self) -> BrokerReport {
        drop(self.producer.take());
        self.inbox.send(Publish::Finish);
        self.broker_thread
            .take()
            .map(|t| t.join().unwrap_or_default())
            .unwrap_or_default()
    }
}

/// Where a client's handshake stands; a connection with no entry has
/// not said `Hello` yet.
enum Peer {
    /// `Hello` seen, waiting for `Subscribe`.
    Subscribing,
    /// Reported to the core; `hello` of the frames written to it next
    /// are our own handshake `Hello`, not the core's.
    Live { hello: u64 },
}

/// The broker thread's state: the hub, the core, and each client's
/// handshake.
struct Broker {
    hub: Hub<SubCodec, Publish>,
    core: BrokerCore,
    peers: HashMap<u64, Peer>,
    actions: Vec<Action>,
    seal_errors: Counter,
    hello: Arc<Vec<u8>>,
    epoch: Instant,
}

impl Broker {
    fn run(mut self) -> BrokerReport {
        loop {
            let event = self.hub.recv();
            if self.handle(event) {
                break;
            }
        }
        // Give queued egress a bounded chance to reach the wire before
        // the goodbye, so the final ledger's delivered/undelivered split
        // reflects what the sockets actually took, and ledger departures
        // that already happened with their true reason. Stalled clients
        // hit the deadline and keep their undelivered count.
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let until = match self.backed_up().next() {
                Some(_) => deadline,
                None => Instant::now(),
            };
            match self.hub.recv_until(Some(until)) {
                Some(event) => self.handle(event),
                None => break,
            };
        }
        // Anyone still backed up is stalled: shut their socket now so the
        // hub's drop does not wait on their writers.
        let stalled: Vec<u64> = self.backed_up().collect();
        for id in stalled {
            self.hub.close(id);
        }
        self.core
            .set_now_us(self.epoch.elapsed().as_micros() as u64);
        let report = self.core.finish(&mut self.actions);
        self.dispatch();
        // Dropping the hub writes out every queued `Bye`, then joins.
        report
    }

    /// Clients with frames the core counts as not yet written.
    fn backed_up(&self) -> impl Iterator<Item = u64> + '_ {
        let depth = |id: &u64| self.core.client_depth(*id).unwrap_or(0);
        self.peers.keys().filter(move |id| depth(id) > 0).copied()
    }

    /// Carry out one event; true on [`Publish::Finish`].
    fn handle(&mut self, event: Event<Frame, Publish>) -> bool {
        self.core
            .set_now_us(self.epoch.elapsed().as_micros() as u64);
        match event {
            Event::Local(Publish::Records(records)) => {
                if self
                    .core
                    .on_sealed_records(records, &mut self.actions)
                    .is_err()
                {
                    self.seal_errors.inc(1);
                }
            }
            Event::Local(Publish::Meta { start_us, bytes }) => {
                self.core.on_meta(start_us, bytes, &mut self.actions)
            }
            Event::Local(Publish::Finish) => return true,
            Event::Frame { conn, frame } => self.on_frame(conn, frame),
            Event::BadFrame { conn, .. } => self.depart(conn, EvictReason::Protocol),
            Event::Closed { conn } => {
                if let Some(Peer::Live { .. }) = self.peers.remove(&conn) {
                    self.core.on_client_gone(conn, EvictReason::Gone);
                }
            }
            Event::Wrote { conn, frames } => {
                if let Some(Peer::Live { hello }) = self.peers.get_mut(&conn) {
                    let ours = frames.min(*hello);
                    *hello -= ours;
                    self.core.on_drained(conn, frames - ours);
                }
            }
        }
        self.dispatch();
        false
    }

    fn on_frame(&mut self, conn: u64, frame: Frame) {
        match (self.peers.get(&conn), frame) {
            (None, Frame::Hello { .. }) => {
                self.peers.insert(conn, Peer::Subscribing);
            }
            (Some(Peer::Subscribing), Frame::Subscribe { topics }) => {
                if self.hub.write(conn, self.hello.clone()) {
                    self.peers.insert(conn, Peer::Live { hello: 1 });
                    self.core
                        .on_client_connect(conn, &topics, &mut self.actions);
                } else {
                    self.depart(conn, EvictReason::Gone);
                }
            }
            (Some(Peer::Live { .. }), Frame::Bye) => self.depart(conn, EvictReason::Gone),
            _ => self.depart(conn, EvictReason::Protocol),
        }
    }

    /// `conn` leaves: ledgered with `reason` if it was the core's client,
    /// and its socket is shut.
    fn depart(&mut self, conn: u64, reason: EvictReason) {
        if let Some(Peer::Live { .. }) = self.peers.remove(&conn) {
            self.core.on_client_gone(conn, reason);
        }
        self.hub.close(conn);
    }

    fn dispatch(&mut self) {
        let mut actions = std::mem::take(&mut self.actions);
        for action in actions.drain(..) {
            match action {
                Action::Send { client, frame } => {
                    if !self.hub.write(client, frame) {
                        self.depart(client, EvictReason::Gone);
                    }
                }
                Action::Evict { client, frame, .. } => {
                    // Already ledgered by the core: a best-effort notice,
                    // then the hang-up.
                    self.peers.remove(&client);
                    self.hub.write(client, frame);
                    self.hub.hang_up(client);
                }
            }
        }
        self.actions = actions;
    }
}
