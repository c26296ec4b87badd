//! Live-serving integration: the acceptance bar for the subscription
//! tier is *render equivalence* — a subscriber following the broker's
//! snapshot-then-delta stream over real TCP must write, byte for byte,
//! the same TSV windows the server renders from its own sealed states.
//! A mid-stream joiner must converge through the connect-time snapshot
//! and then ride deltas to the same final bytes.
//!
//! The publisher and subscriber run lock-step over a channel (the
//! subscriber acks each rendered window before the next seal), so the
//! tests are race-free without a single sleep.

use chaos::storecrash::workload;
use dns_observatory::{render_state, tsv, Dataset, ObservatoryConfig, StateExporter};
use pubsub::{Server, SubEvent, SubscribeClient};
use simnet::{SimConfig, Simulation};
use sketchwire::WindowState;
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::thread;
use telemetry::{Registry, TraceRing};

/// Real per-window sketch exports from the federated tier: a seeded
/// simulation through a [`StateExporter`], grouped into one batch per
/// sealed window — exactly what `--serve` publishes on the seal path.
fn exported_batches(seed: u64) -> Vec<Vec<WindowState>> {
    let cfg = ObservatoryConfig {
        datasets: vec![
            (Dataset::SrvIp, 500),
            (Dataset::Esld, 500),
            (Dataset::Qtype, 64),
        ],
        window_secs: 1.0,
        ..ObservatoryConfig::default()
    };
    let mut sim = Simulation::from_config(SimConfig {
        seed,
        ..SimConfig::small()
    });
    let mut exporter = StateExporter::new(cfg, 1, 0);
    let mut states = Vec::new();
    sim.run(6.0, &mut |tx| exporter.ingest(tx, &mut states));
    exporter.finish(&mut states);

    let mut by_start: BTreeMap<u64, Vec<WindowState>> = BTreeMap::new();
    for ws in states {
        by_start
            .entry((ws.start * 1e6) as u64)
            .or_default()
            .push(ws);
    }
    let batches: Vec<Vec<WindowState>> = by_start.into_values().collect();
    assert!(batches.len() >= 4, "simulation sealed too few windows");
    batches
}

/// Render one window state exactly as `dnsobs` writes it locally.
fn render_bytes(state: &sketchwire::TopKState, start: f64, length: f64) -> Vec<u8> {
    let dump = render_state(state, start, length).expect("exported state renders");
    let mut buf = Vec::new();
    tsv::write_window(&mut buf, &dump).expect("in-memory write");
    buf
}

/// The reference output: every exported window rendered directly,
/// keyed by `(dataset, start-seconds)`.
fn reference(work: &[Vec<WindowState>]) -> BTreeMap<(String, u64), Vec<u8>> {
    let mut out = BTreeMap::new();
    for batch in work {
        for ws in batch {
            out.insert(
                (ws.topk.dataset.clone(), ws.start as u64),
                render_bytes(&ws.topk, ws.start, ws.length),
            );
        }
    }
    out
}

fn bind_server() -> Server {
    Server::bind("127.0.0.1:0", &Registry::new(), TraceRing::disabled()).expect("bind serving tier")
}

/// A subscriber thread that renders every window event and acks each
/// one over `acks`; returns its rendered files and core counters.
#[allow(clippy::type_complexity)]
fn spawn_subscriber(
    addr: String,
    acks: mpsc::Sender<(String, u64)>,
) -> thread::JoinHandle<(BTreeMap<(String, u64), Vec<u8>>, u64, u64)> {
    thread::spawn(move || {
        let mut client = SubscribeClient::connect(addr, &[]).expect("connect subscriber");
        let mut files = BTreeMap::new();
        while let Ok(Some(ev)) = client.next_event() {
            match ev {
                SubEvent::Window(h) => {
                    let key = (h.state.dataset.clone(), h.start as u64);
                    files.insert(key.clone(), render_bytes(&h.state, h.start, h.length));
                    let _ = acks.send(key);
                }
                SubEvent::End => break,
                other => panic!("unexpected event: {other:?}"),
            }
        }
        let snaps = client.core().snapshots_applied();
        let deltas = client.core().deltas_applied();
        (files, snaps, deltas)
    })
}

#[test]
fn live_stream_renders_byte_identical_tsv_windows() {
    let work = exported_batches(3);
    let expect = reference(&work);
    let total_states: usize = work.iter().map(|b| b.len()).sum();
    let datasets = work[0].len();

    let mut server = bind_server();
    let mut handle = server.take_handle().expect("first take wins");
    let (ack_tx, ack_rx) = mpsc::channel();
    let sub = spawn_subscriber(server.local_addr().to_string(), ack_tx);

    // Lock-step: the subscriber acks every dataset of window w before
    // window w+1 seals, so every window rides the wire (the first as a
    // snapshot, the rest as deltas) and none is coalesced away.
    for batch in &work {
        assert!(handle.publish_windows(batch.clone()), "ingest ring full");
        for _ in 0..batch.len() {
            ack_rx.recv().expect("subscriber ack");
        }
    }
    drop(handle);
    let report = server.finish();
    let (files, snaps, deltas) = sub.join().expect("subscriber thread");

    assert_eq!(files.len(), expect.len(), "window count differs");
    for (key, bytes) in &expect {
        assert_eq!(
            files.get(key).expect("window arrived"),
            bytes,
            "window {key:?} differs from the local render"
        );
    }
    // Steady state is deltas: one snapshot per dataset, then diffs.
    assert_eq!(snaps, datasets as u64);
    assert_eq!(deltas, (total_states - datasets) as u64);
    assert_eq!(report.clients_seen, 1);
    assert_eq!(report.undelivered, 0, "clean run must deliver everything");
}

#[test]
fn mid_stream_joiner_converges_via_snapshot_then_deltas() {
    let work = exported_batches(11);
    let expect = reference(&work);
    let half = work.len() / 2;
    let datasets = work[0].len();

    let mut server = bind_server();
    let mut handle = server.take_handle().expect("first take wins");

    // First half seals with no subscribers at all.
    for batch in &work[..half] {
        assert!(handle.publish_windows(batch.clone()), "ingest ring full");
    }

    // A late joiner connects, then the second half seals lock-step.
    let (ack_tx, ack_rx) = mpsc::channel();
    let sub = spawn_subscriber(server.local_addr().to_string(), ack_tx);
    // The connect-time snapshot (one per dataset) is the join barrier:
    // once acked, the broker has processed the handshake.
    for _ in 0..datasets {
        ack_rx.recv().expect("connect snapshot");
    }
    for batch in &work[half..] {
        assert!(handle.publish_windows(batch.clone()), "ingest ring full");
        for _ in 0..batch.len() {
            ack_rx.recv().expect("subscriber ack");
        }
    }
    drop(handle);
    server.finish();
    let (files, snaps, deltas) = sub.join().expect("subscriber thread");

    // Every window it held — the joined snapshot and everything after —
    // must be byte-identical to the direct render.
    assert!(
        files.len() >= (work.len() - half) * datasets,
        "joiner missed windows: got {}",
        files.len()
    );
    for (key, bytes) in &files {
        assert_eq!(
            bytes,
            expect.get(key).expect("known window"),
            "window {key:?} differs from the local render"
        );
    }
    // It must end on the final window of every dataset.
    let last_start = work[work.len() - 1][0].start as u64;
    for ws in &work[work.len() - 1] {
        assert!(
            files.contains_key(&(ws.topk.dataset.clone(), last_start)),
            "{} never reached the final window",
            ws.topk.dataset
        );
    }
    assert_eq!(snaps, datasets as u64, "exactly one snapshot per dataset");
    assert!(deltas >= ((work.len() - half - 1) * datasets) as u64);
}

#[test]
fn meta_payloads_ride_the_same_stream() {
    // Toy sketch states are fine here: meta bytes are opaque to the
    // broker and nothing is rendered.
    let work = workload(2, 6, &["esld", "qtype"]);
    let datasets = 2;
    let mut server = bind_server();
    let mut handle = server.take_handle().expect("first take wins");

    let (tx, rx) = mpsc::channel();
    let addr = server.local_addr().to_string();
    let sub = thread::spawn(move || {
        let mut client = SubscribeClient::connect(addr, &[]).expect("connect subscriber");
        let mut metas = Vec::new();
        while let Ok(Some(ev)) = client.next_event() {
            match ev {
                SubEvent::Window(h) => {
                    let _ = tx.send((h.state.dataset.clone(), h.start as u64));
                }
                SubEvent::Meta { start_us, bytes } => metas.push((start_us, bytes)),
                SubEvent::End => break,
                other => panic!("unexpected event: {other:?}"),
            }
        }
        metas
    });

    let payload = b"queries\t12345\nwindow\t0\n".to_vec();
    assert!(handle.publish_windows(work[0].clone()));
    for _ in 0..datasets {
        rx.recv().expect("window ack");
    }
    assert!(handle.publish_meta(0, payload.clone()));
    assert!(handle.publish_windows(work[1].clone()));
    for _ in 0..datasets {
        rx.recv().expect("window ack");
    }
    drop(handle);
    server.finish();

    let metas = sub.join().expect("subscriber thread");
    assert_eq!(
        metas,
        vec![(0, payload)],
        "meta bytes must survive verbatim"
    );
}
