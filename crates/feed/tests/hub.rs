//! The one server shell over real loopback sockets: what the owner of a
//! [`Hub`] sees of each connection, what dropping a hub leaves behind,
//! and the back-pressure a collector puts on its sensors.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use feed::frame::{encode_frame, FeedCodec};
use feed::hub::{Event, Hub, QUEUE_FRAMES};
use feed::{
    ByteReader, Collector, CollectorConfig, FeedError, FeedItem, Frame, Sensor, SensorConfig,
    MAX_FRAME,
};
use telemetry::Registry;

/// One `u64` value at a time, time-merged.
#[derive(Debug, Clone, PartialEq)]
struct Item(u64);

impl FeedItem for Item {
    const ITEM_VERSION: u8 = 9;

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0.to_le_bytes());
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, FeedError> {
        r.u64("item").map(Item)
    }

    fn order_time(&self) -> f64 {
        self.0 as f64
    }
}

fn batch(sensor: u64, seq: u64) -> Vec<u8> {
    let mut out = Vec::new();
    let items = vec![Item(seq); 3];
    encode_frame(&Frame::Batch { sensor, seq, items }, &mut out);
    out
}

/// What one connection's owner-side events looked like, in order.
#[derive(Debug, PartialEq)]
enum Seen {
    Batch(u64),
    Crc,
    Framing,
    Closed,
}

/// Two clients each send 300 batches in odd-sized pieces, with a damaged
/// frame after the 200th and a length prefix over `MAX_FRAME` at the end,
/// and keep their sockets open. Each connection's events reach the owner
/// in its own order, the damage is attributed to the connection that
/// sent it, and the bad prefix closes the connection from the hub's side.
#[test]
fn each_connections_frames_reach_the_owner_in_order() {
    let mut hub = Hub::<FeedCodec<Item>, ()>::bind("127.0.0.1:0", "hubord").unwrap();
    let addr = hub.local_addr();
    let clients: Vec<_> = [1u64, 2]
        .into_iter()
        .map(|sensor| {
            thread::spawn(move || {
                let mut bytes = Vec::new();
                for seq in 0..300 {
                    let mut frame = batch(sensor, seq);
                    if seq == 200 {
                        *frame.last_mut().unwrap() ^= 0xff;
                    }
                    bytes.extend(frame);
                }
                bytes.extend((MAX_FRAME as u32 + 1).to_be_bytes());
                let mut stream = TcpStream::connect(addr).unwrap();
                for piece in bytes.chunks(777 * sensor as usize) {
                    stream.write_all(piece).unwrap();
                }
                stream
            })
        })
        .collect();

    let mut seen: Vec<(u64, Vec<Seen>)> = Vec::new();
    let mut closed = 0;
    while closed < 2 {
        let (conn, what) = match hub.recv() {
            Event::Frame {
                conn,
                frame: Frame::Batch { sensor, seq, .. },
            } => (conn, Seen::Batch(sensor * 1000 + seq)),
            Event::BadFrame { conn, error } => match error {
                FeedError::Crc { .. } => (conn, Seen::Crc),
                FeedError::Framing(_) => (conn, Seen::Framing),
                other => panic!("unexpected error {other}"),
            },
            Event::Closed { conn } => {
                closed += 1;
                (conn, Seen::Closed)
            }
            other => panic!("unexpected event {other:?}"),
        };
        match seen.iter_mut().find(|(c, _)| *c == conn) {
            Some((_, events)) => events.push(what),
            None => seen.push((conn, vec![what])),
        }
    }
    let _streams: Vec<TcpStream> = clients.into_iter().map(|c| c.join().unwrap()).collect();

    assert_eq!(seen.len(), 2, "two connections");
    for (conn, events) in seen {
        let Seen::Batch(first) = events[0] else {
            panic!("connection {conn} began with {:?}", events[0]);
        };
        let sensor = first / 1000;
        let mut want: Vec<Seen> = (0..200)
            .map(|seq| Seen::Batch(sensor * 1000 + seq))
            .collect();
        want.push(Seen::Crc);
        want.extend((201..300).map(|seq| Seen::Batch(sensor * 1000 + seq)));
        want.extend([Seen::Framing, Seen::Closed]);
        assert_eq!(events, want, "connection {conn} (sensor {sensor})");
    }
}

/// The hub's threads, by the name prefix it was bound with (Linux).
fn threads_named(prefix: &str) -> Vec<String> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with(prefix))
        .collect()
}

/// A client that said one frame and then sits idle, with a writer
/// started for it, does not keep a dropped hub alive: the drop returns,
/// no hub thread is left, and the client reads what was written to it and
/// then the end of the stream.
#[test]
fn dropping_a_hub_with_an_idle_client_stops_every_thread() {
    let mut hub = Hub::<FeedCodec<Item>, ()>::bind("127.0.0.1:0", "hubidle").unwrap();
    let mut client = TcpStream::connect(hub.local_addr()).unwrap();
    client.write_all(&batch(7, 0)).unwrap();
    let Event::Frame { conn, .. } = hub.recv() else {
        panic!("the client's frame first");
    };
    assert!(hub.write(conn, Arc::new(b"bye".to_vec())));
    assert!(!threads_named("hubidle").is_empty(), "the hub runs threads");

    let (done, dropped) = mpsc::channel();
    thread::spawn(move || {
        drop(hub);
        let _ = done.send(());
    });
    dropped
        .recv_timeout(Duration::from_secs(30))
        .expect("dropping the hub returns");
    assert_eq!(threads_named("hubidle"), Vec::<String>::new());
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut got = Vec::new();
    client.read_to_end(&mut got).unwrap();
    assert_eq!(got, b"bye", "queued bytes, then the end of the stream");
}

/// A collector whose merged output nobody reads accepts at most
/// `QUEUE_FRAMES + 1` frames (the output's depth, plus the one its core
/// thread holds; the hub's input channel holds as many again), so its
/// sensor's send buffer fills and sheds, and the sensor's ledger still
/// accounts for every frame it sealed. With unbounded channels the
/// collector reads all that is sent and the sensor never sheds.
#[test]
fn an_unread_collector_stops_reading_and_its_sensor_sheds() {
    let accepted = Registry::global().counter("feed_collector_frames_total");
    let before = accepted.value();
    let mut collector = Collector::<Item>::bind("127.0.0.1:0", CollectorConfig::new(1)).unwrap();
    let output = collector.take_output();
    let registry = Registry::new();
    let mut config = SensorConfig::new(3);
    config.batch_items = 256;
    let sensor =
        Sensor::connect_with_registry(collector.local_addr().to_string(), config, &registry);
    let dropped = registry.counter_with(
        "feed_sensor_buffer_dropped_frames_total",
        &[("sensor", "3")],
    );

    // Paced well below what the socket takes, so that only a collector
    // that stops reading can fill the sensor's buffer.
    let mut value = 0u64;
    for _ in 0..10_000 {
        if dropped.value() > 0 {
            break;
        }
        for _ in 0..config.batch_items {
            sensor.send(Item(value));
            value += 1;
        }
        thread::sleep(Duration::from_micros(200));
    }
    assert!(dropped.value() > 0, "the sensor never shed");
    let held = accepted.value() - before;
    assert!(
        held <= QUEUE_FRAMES as u64 + 1,
        "an unread collector accepted {held} frames"
    );

    // Reading again drains the backlog and frees the sensor's writer.
    drop(output);
    let report = sensor.abort();
    assert!(report.dropped_frames > 0);
    assert_eq!(
        report.sent_frames + report.dropped_frames,
        report.next_seq,
        "every sealed frame is sent or dropped: {report:?}"
    );
    drop(collector);
}
