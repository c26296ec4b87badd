//! The stall watchdog: notices when a stage stops making progress.
//!
//! A stage proves liveness by the counters it already increments — no
//! extra heartbeat plumbing. [`WatchdogCore`] is sans-io: it holds one
//! watch per counter, and `tick(now_us)` compares each counter against
//! its last observed value; a counter frozen for longer than its
//! threshold raises a [`StallEvent`], and movement after a stall raises
//! a recovery. The chaos tests drive `tick` with virtual time; the
//! threaded [`Watchdog`] drives it with a [`Clock`] and prints events to
//! stderr.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::clock::Clock;
use crate::counter::Counter;

/// What happened to a watched stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StallEvent {
    /// The counter has not moved for at least its threshold.
    Stalled {
        /// Watch name (e.g. `"collector_events"`).
        name: String,
        /// How long the counter has been frozen, µs.
        stalled_for_us: u64,
        /// The frozen counter value.
        at_value: u64,
    },
    /// A previously stalled counter moved again.
    Recovered {
        /// Watch name.
        name: String,
        /// How long the stall lasted, µs.
        stalled_for_us: u64,
    },
}

/// The one-line operator message (`collector_events stalled for 30.0s at 17`).
impl std::fmt::Display for StallEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StallEvent::Stalled {
                name,
                stalled_for_us,
                at_value,
            } => {
                let secs = *stalled_for_us as f64 / 1e6;
                write!(f, "{name} stalled for {secs:.1}s at {at_value}")
            }
            StallEvent::Recovered {
                name,
                stalled_for_us,
            } => write!(
                f,
                "{name} recovered after {:.1}s",
                *stalled_for_us as f64 / 1e6
            ),
        }
    }
}

#[derive(Debug)]
struct Watch {
    name: String,
    counter: Counter,
    threshold_us: u64,
    last_value: u64,
    last_progress_us: u64,
    stalled: bool,
}

/// Sans-io stall detection over a set of progress counters.
#[derive(Debug)]
pub struct WatchdogCore {
    watches: Vec<Watch>,
}

impl WatchdogCore {
    /// An empty watchdog.
    pub fn new() -> WatchdogCore {
        WatchdogCore {
            watches: Vec::new(),
        }
    }

    /// Watch `counter` under `name`: if it fails to move for
    /// `threshold_us`, `tick` reports a stall. `now_us` seeds the
    /// baseline so a stage that is legitimately idle at startup gets a
    /// full threshold before its first alarm.
    pub fn watch_counter(&mut self, name: &str, counter: Counter, threshold_us: u64, now_us: u64) {
        self.watches.push(Watch {
            name: name.to_string(),
            counter: counter.clone(),
            threshold_us,
            last_value: counter.value(),
            last_progress_us: now_us,
            stalled: false,
        });
    }

    /// Number of watches installed.
    pub fn len(&self) -> usize {
        self.watches.len()
    }

    /// True when nothing is being watched.
    pub fn is_empty(&self) -> bool {
        self.watches.is_empty()
    }

    /// Evaluate every watch at `now_us`; returns the state transitions
    /// (stall raised / stall cleared) since the previous tick. A watch
    /// already reported as stalled stays silent until it recovers.
    pub fn tick(&mut self, now_us: u64) -> Vec<StallEvent> {
        let mut events = Vec::new();
        for watch in &mut self.watches {
            let value = watch.counter.value();
            if value != watch.last_value {
                if watch.stalled {
                    events.push(StallEvent::Recovered {
                        name: watch.name.clone(),
                        stalled_for_us: now_us.saturating_sub(watch.last_progress_us),
                    });
                    watch.stalled = false;
                }
                watch.last_value = value;
                watch.last_progress_us = now_us;
            } else {
                let frozen_for = now_us.saturating_sub(watch.last_progress_us);
                if !watch.stalled && frozen_for >= watch.threshold_us {
                    watch.stalled = true;
                    events.push(StallEvent::Stalled {
                        name: watch.name.clone(),
                        stalled_for_us: frozen_for,
                        at_value: value,
                    });
                }
            }
        }
        events
    }

    /// Names of watches currently in the stalled state.
    pub fn stalled(&self) -> Vec<String> {
        self.watches
            .iter()
            .filter(|w| w.stalled)
            .map(|w| w.name.clone())
            .collect()
    }
}

impl Default for WatchdogCore {
    fn default() -> Self {
        WatchdogCore::new()
    }
}

/// A background thread that ticks a [`WatchdogCore`] against a [`Clock`]
/// and hands each event to a callback (default: one line on stderr).
#[derive(Debug)]
pub struct Watchdog {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Watchdog {
    /// Spawn the watchdog thread, ticking `core` every `interval`.
    pub fn spawn(
        core: WatchdogCore,
        clock: Arc<dyn Clock>,
        interval: Duration,
        on_event: impl Fn(&StallEvent) + Send + 'static,
    ) -> std::io::Result<Watchdog> {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let core = Mutex::new(core);
        let handle = std::thread::Builder::new()
            .name("stall-watchdog".to_string())
            .stack_size(crate::IO_THREAD_STACK_BYTES)
            .spawn(move || loop {
                // Parked, not asleep: `stop` unparks the thread, so an
                // exit never waits out the rest of the interval.
                let due = Instant::now() + interval;
                loop {
                    if stop_flag.load(Ordering::Acquire) {
                        return;
                    }
                    match due.checked_duration_since(Instant::now()) {
                        Some(left) if !left.is_zero() => std::thread::park_timeout(left),
                        _ => break,
                    }
                }
                let events = core.lock().expect("watchdog poisoned").tick(clock.now_us());
                for event in &events {
                    on_event(event);
                }
            })?;
        Ok(Watchdog {
            stop,
            handle: Some(handle),
        })
    }

    /// Spawn with the default stderr reporter.
    pub fn spawn_logging(
        core: WatchdogCore,
        clock: Arc<dyn Clock>,
        interval: Duration,
    ) -> std::io::Result<Watchdog> {
        Watchdog::spawn(core, clock, interval, |event| {
            eprintln!("watchdog: {event}")
        })
    }

    /// Ask the thread to stop and wait for it (dropping does the same).
    pub fn stop(self) {}
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        // Release pairs with the thread's Acquire load; the unpark token
        // makes a not-yet-parked thread's next park return at once.
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_counter_stalls_once_then_recovers() {
        let counter = Counter::new();
        let mut core = WatchdogCore::new();
        core.watch_counter("stage", counter.clone(), 1_000, 0);

        assert!(core.tick(500).is_empty());
        let events = core.tick(1_000);
        assert_eq!(events.len(), 1);
        assert!(
            matches!(&events[0], StallEvent::Stalled { name, at_value: 0, .. } if name == "stage")
        );
        // Still frozen: no repeat alarm.
        assert!(core.tick(5_000).is_empty());
        assert_eq!(core.stalled(), vec!["stage".to_string()]);

        counter.inc(1);
        let events = core.tick(6_000);
        assert_eq!(events.len(), 1);
        assert!(
            matches!(&events[0], StallEvent::Recovered { name, stalled_for_us: 6_000 } if name == "stage")
        );
        assert!(core.stalled().is_empty());
    }

    #[test]
    fn moving_counter_never_stalls() {
        let counter = Counter::new();
        let mut core = WatchdogCore::new();
        core.watch_counter("busy", counter.clone(), 100, 0);
        for t in 1..50 {
            counter.inc(1);
            assert!(core.tick(t * 90).is_empty());
        }
    }

    #[test]
    fn threaded_watchdog_fires_and_stops() {
        use crate::clock::ManualClock;

        let counter = Counter::new();
        let clock = ManualClock::new();
        let mut core = WatchdogCore::new();
        core.watch_counter("t", counter, 10, 0);
        let fired = Arc::new(AtomicBool::new(false));
        let fired_flag = fired.clone();
        clock.set(1_000);
        let dog = Watchdog::spawn(core, Arc::new(clock), Duration::from_millis(1), move |_| {
            fired_flag.store(true, Ordering::Relaxed)
        })
        .expect("spawn");
        for _ in 0..500 {
            if fired.load(Ordering::Relaxed) {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(fired.load(Ordering::Relaxed));
        dog.stop();
    }

    #[test]
    fn stop_does_not_wait_out_the_interval() {
        use crate::clock::ManualClock;

        let dog = Watchdog::spawn(
            WatchdogCore::new(),
            Arc::new(ManualClock::new()),
            Duration::from_secs(10),
            |_| {},
        )
        .expect("spawn");
        let started = Instant::now();
        dog.stop();
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "stop took {:?}",
            started.elapsed()
        );
    }
}
