//! `store`: admin verbs for a store directory.

use crate::flags::{self, Parsed};
use crate::session::open_store;
use crate::sinks;
use crate::{fail, misuse, Done};
use dns_observatory::synth::{renumber_truth, SynthConfig, SynthStream};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// `store expire`: drop whole segments older than the retention horizon.
/// `--retain DAYS` keeps the trailing span behind the frontier;
/// `--before SECS` names an absolute stream-time horizon. The manifest
/// swap is the commit point: a crash mid-unlink leaves only ledgered
/// orphans for the next open to sweep.
pub fn expire(p: &Parsed) -> Done {
    let dir: PathBuf = p.req(&flags::DIR);
    let mut store = open_store(&dir)?;
    let before_us = p
        .opt::<f64>(&flags::BEFORE)
        .map(|s| (s * 1e6).round() as u64);
    let horizon_us = match (sinks::retain_span_us(p), before_us) {
        (Some(span), None) => {
            let Some(frontier) = store.frontier_us() else {
                eprintln!("store expire: {} is empty, nothing to do", dir.display());
                return Ok(());
            };
            frontier.saturating_sub(span)
        }
        (None, Some(at)) => at,
        _ => {
            let (retain, before) = (flags::RETAIN.name, flags::BEFORE.name);
            return Err(misuse(format_args!(
                "store expire: exactly one of {retain} DAYS or {before} SECS is required"
            )));
        }
    };
    let expired = sinks::expire(&mut store, horizon_us)?;
    eprintln!(
        "expired {expired} segment(s) behind t={}s; {} live segment(s) remain",
        horizon_us as f64 / 1e6,
        store.segments().len()
    );
    Ok(())
}

/// `store synth`: fabricate months of seeded windows (with planted
/// renumbering events `dnsobs query renumber` can find, one per day) and
/// compact them up the hour/day/month hierarchy.
pub fn synth(p: &Parsed) -> Done {
    let dir: PathBuf = p.req(&flags::DIR);
    let days: usize = p.req(&flags::DAYS);
    let seed: u64 = p.req(&flags::SEED);
    let keys: usize = p.req(&flags::KEYS);
    let window: f64 = p.req(&flags::WINDOW);
    if window <= 0.0 {
        let flag = flags::WINDOW.name;
        return Err(misuse(format_args!("store synth: {flag} must be positive")));
    }
    let windows_per_day = (86_400.0 / window).round().max(1.0) as usize;
    let started = Instant::now();
    let mut store = open_store(&dir)?;
    if !store.segments().is_empty() {
        return Err(fail(format_args!(
            "store synth: {} already holds {} segment(s); refusing to mix",
            dir.display(),
            store.segments().len()
        )));
    }
    let cfg = SynthConfig {
        seed,
        start: 0.0,
        window_secs: window,
        windows: days * windows_per_day,
        keys,
        datasets: vec!["aafqdn".to_string(), "esld".to_string()],
        capacity: (keys as u64) * 4,
        renumber_every: windows_per_day,
    };
    let planted = renumber_truth(&cfg).len();
    let mut stream = SynthStream::new(cfg);
    // One level-0 segment per synthetic day keeps the append count (and
    // the manifest) proportional to days, not 10-min windows.
    for day in 0..days {
        let mut batch = Vec::new();
        for _ in 0..windows_per_day {
            batch.extend(stream.next_window().expect("stream sized to days"));
        }
        store
            .append(&batch)
            .map_err(|e| fail(format_args!("append failed on day {day}: {e}")))?;
    }
    let before = store.segments().len();
    sinks::compact(&mut store)?;
    eprintln!(
        "synthesized {days} day(s) = {} windows ({planted} planted renumbering event(s), seed {seed}) in {:.2}s; segments {before} -> {}",
        days * windows_per_day,
        started.elapsed().as_secs_f64(),
        store.segments().len()
    );
    Ok(())
}

/// `store info`: one-page manifest summary of a store directory.
pub fn info(p: &Parsed) -> Done {
    let store = open_store(&p.req::<PathBuf>(&flags::DIR))?;
    println!("generation: {}", store.generation());
    println!("segments:   {}", store.segments().len());
    let mut by_level: BTreeMap<u8, (usize, u64, u64)> = BTreeMap::new();
    for m in store.segments() {
        let e = by_level.entry(m.level).or_default();
        e.0 += 1;
        e.1 += m.windows as u64;
        e.2 += m.records as u64;
    }
    for (level, (segs, windows, records)) in by_level {
        println!("  level {level}: {segs} segment(s), {windows} window(s), {records} record(s)");
    }
    match store.frontier_us() {
        Some(f) => println!("frontier:   t={}s", f as f64 / 1e6),
        None => println!("frontier:   empty store"),
    }
    Ok(())
}
