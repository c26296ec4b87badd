//! `subscribe`: follow a `--serve` collector or aggregator live. The
//! first frame per dataset is a full snapshot; every later sealed window
//! arrives as a delta against the previous one, and the reassembled
//! state renders to the same TSV files the server writes locally. Meta
//! self-report windows land next to the data files.

use crate::flags::{self, Parsed};
use crate::sinks::TsvDir;
use crate::{fail, misuse, Done};
use dns_observatory::render_state;
use pubsub::{SubEvent, SubscribeClient, Topic};

pub fn subscribe(p: &Parsed) -> Done {
    let addr: String = p.req(&flags::CONNECT);
    let mut topics = Vec::new();
    for spec in p
        .opt::<String>(&flags::TOPICS)
        .iter()
        .flat_map(|v| v.split(','))
    {
        let topic = Topic::parse(spec.trim()).ok_or_else(|| {
            let flag = flags::TOPICS.name;
            misuse(format_args!(
                "subscribe: {flag} {spec:?}: expected topk, features, meta, or dataset=NAME"
            ))
        })?;
        topics.push(topic);
    }
    let mut out = TsvDir::create(p.opt(&flags::OUT))?;
    let mut client = SubscribeClient::connect(addr.as_str(), &topics)
        .map_err(|e| fail(format_args!("cannot subscribe to {addr}: {e}")))?;
    eprintln!("subscribed to {addr} -> {}", out.display());
    loop {
        let event = client
            .next_event()
            .map_err(|e| fail(format_args!("subscription failed: {e}")))?;
        match event {
            Some(SubEvent::Window(h)) => {
                let dump = render_state(&h.state, h.start, h.length).map_err(|e| {
                    fail(format_args!("window t={}s does not render: {e}", h.start))
                })?;
                out.write_dump("", &dump)?;
            }
            Some(SubEvent::Meta { bytes, .. }) => out.write_meta(&bytes),
            Some(SubEvent::Evicted {
                reason,
                undelivered,
            }) => {
                out.report();
                return Err(fail(format_args!(
                    "evicted by the server ({reason}): {undelivered} frame(s) were undelivered"
                )));
            }
            Some(SubEvent::End) | None => {
                let core = client.core();
                let (snapshots, deltas) = (core.snapshots_applied(), core.deltas_applied());
                eprintln!("stream over: {snapshots} snapshot(s) + {deltas} delta(s)");
                out.report();
                return Ok(());
            }
        }
    }
}
