//! End-to-end serving-tier test over a real loopback socket: server,
//! broker thread, reader/writer threads, blocking client — asserting the
//! subscriber's reassembled windows equal the published states exactly,
//! including a mid-stream reconnect.

use pubsub::{Server, SubEvent, SubscribeClient, Topic};
use sketchwire::{FeatureState, TopKEntry, TopKState, WindowState};
use telemetry::{Registry, TraceRing};

fn entry(key: &str, count: u64) -> TopKEntry {
    TopKEntry {
        key: key.to_string(),
        count,
        error: 0,
        inserted_at: 0.0,
        features: FeatureState {
            adds: vec![count],
            maxes: vec![count],
            hlls: Vec::new(),
            source_cap: 4,
            sources: vec![2],
            tops: Vec::new(),
            hists: Vec::new(),
        },
    }
}

fn sealed(window: u64, entries: Vec<TopKEntry>) -> Vec<WindowState> {
    let observed: u64 = entries.iter().map(|e| e.count).sum();
    vec![WindowState {
        upstream: 9,
        start: (window * 600) as f64,
        length: 600.0,
        topk: TopKState {
            dataset: "esld".to_string(),
            capacity: 16,
            observed,
            min_count: 0,
            error_bound: observed / 16,
            evictions: 0,
            kept: observed,
            dropped: 0,
            filtered: 0,
            chunk: 0,
            chunks: 1,
            entries,
            gate: None,
        },
    }]
}

fn expect_window(client: &mut SubscribeClient, want: &TopKState) {
    loop {
        match client.next_event().expect("stream healthy") {
            Some(SubEvent::Window(h)) => {
                assert_eq!(&h.state, want);
                return;
            }
            Some(SubEvent::Meta { .. }) => continue,
            other => panic!("expected a window event, got {other:?}"),
        }
    }
}

#[test]
fn live_snapshot_delta_and_reconnect() {
    let registry = Registry::new();
    let mut server =
        Server::bind("127.0.0.1:0", &registry, TraceRing::disabled()).expect("bind loopback");
    let addr = server.local_addr();
    let mut handle = server.take_handle().expect("first take");
    assert!(server.take_handle().is_none(), "single producer");

    let mut client = SubscribeClient::connect(addr, &[Topic::Features]).expect("connect");

    let w1 = sealed(1, vec![entry("a", 5), entry("b", 2)]);
    let want1 = pubsub::canonicalize(w1[0].topk.clone());
    assert!(handle.publish_windows(w1));
    expect_window(&mut client, &want1);

    let w2 = sealed(2, vec![entry("a", 9), entry("c", 4)]);
    let want2 = pubsub::canonicalize(w2[0].topk.clone());
    assert!(handle.publish_windows(w2));
    expect_window(&mut client, &want2);
    assert!(handle.publish_meta(600_000_000, b"meta\tline\n".to_vec()));

    // Mid-stream reconnect: a fresh client is consistent from its very
    // first frame, without waiting for the next seal.
    client.bye().expect("clean bye");
    let mut late = SubscribeClient::connect(addr, &[Topic::Features]).expect("reconnect");
    expect_window(&mut late, &want2);
    assert_eq!(late.core().snapshots_applied(), 1);
    assert_eq!(late.core().deltas_applied(), 0);

    let w3 = sealed(3, vec![entry("a", 9), entry("c", 4), entry("d", 1)]);
    let want3 = pubsub::canonicalize(w3[0].topk.clone());
    assert!(handle.publish_windows(w3));
    expect_window(&mut late, &want3);

    drop(handle);
    let report = server.finish();
    assert_eq!(report.clients_seen, 2);
    for rec in &report.departures {
        assert_eq!(
            rec.totals.pushed,
            rec.totals.delivered + rec.undelivered,
            "per-client conservation on {rec:?}"
        );
    }
    // The still-connected client ends with a Bye; events after the end
    // report the stream as over.
    loop {
        match late.next_event().expect("drain to end") {
            Some(SubEvent::End) | None => break,
            Some(_) => continue,
        }
    }
}

#[test]
fn topk_topic_over_the_wire_strips_features() {
    let registry = Registry::new();
    let mut server =
        Server::bind("127.0.0.1:0", &registry, TraceRing::disabled()).expect("bind loopback");
    let addr = server.local_addr();
    let mut handle = server.take_handle().expect("take");
    let mut client = SubscribeClient::connect(addr, &[Topic::Topk]).expect("connect");
    assert!(handle.publish_windows(sealed(1, vec![entry("a", 5)])));
    match client.next_event().expect("stream healthy") {
        Some(SubEvent::Window(h)) => {
            assert_eq!(h.state.entries[0].count, 5);
            assert!(h.state.entries[0].features.adds.is_empty());
        }
        other => panic!("expected a window, got {other:?}"),
    }
    drop(handle);
    let report = server.finish();
    assert_eq!(
        report.frames_pushed,
        report.frames_delivered + report.undelivered
    );
}
