//! The sans-io subscriber kernel: frames in, consistent windows out.
//!
//! [`SubscriberCore`] folds a broker's frame stream back into
//! per-dataset window states. A snapshot installs unconditionally; a
//! delta applies only when its basis matches the held window — anything
//! else is a desync, surfaced as a typed error rather than a silently
//! wrong window. The oracle the crate's tests (and the chaos axis) pin:
//! after any prefix of a well-behaved stream, the held state for a
//! dataset is byte-identical to the broker's published window.

use std::collections::BTreeMap;
use std::sync::Arc;

use feed::FeedError;
use sketchwire::TopKState;

use crate::codec::{EvictReason, Frame};
use crate::delta::{apply_delta_owned, window_id_us};

/// One held dataset window.
#[derive(Debug, Clone, PartialEq)]
pub struct HeldWindow {
    /// Window identity, microseconds.
    pub window_us: u64,
    /// Window start, seconds of virtual time.
    pub start: f64,
    /// Window length, seconds.
    pub length: f64,
    /// The reassembled canonical state.
    pub state: TopKState,
}

/// Something the stream produced for the application.
#[derive(Debug, Clone, PartialEq)]
pub enum SubEvent {
    /// A dataset advanced to a new consistent window (via snapshot or
    /// delta — the caller cannot tell, which is the point). The window is
    /// the one the subscriber now holds, shared: drop the event before the
    /// next frame and that frame's delta applies by move.
    Window(Arc<HeldWindow>),
    /// Meta TSV bytes for one window.
    Meta {
        /// Window start, microseconds.
        start_us: u64,
        /// Raw TSV bytes.
        bytes: Vec<u8>,
    },
    /// The broker ended the subscription.
    Evicted {
        /// Why.
        reason: EvictReason,
        /// Frames the broker had accepted but not delivered.
        undelivered: u64,
    },
    /// Clean end of stream.
    End,
}

/// A stream-level protocol violation (transport decode errors stay
/// [`FeedError`] and are raised by the frame reader, not here).
#[derive(Debug, Clone, PartialEq)]
pub enum SubError {
    /// A delta arrived whose basis does not match the held window.
    Desync {
        /// Dataset the delta was for.
        dataset: String,
        /// Window the subscriber holds (`None` = nothing yet).
        held_us: Option<u64>,
        /// Basis the delta requires.
        basis_us: u64,
    },
    /// A delta failed to apply (e.g. removes an unheld key).
    Apply(&'static str),
    /// A frame that has no business arriving mid-stream (second `Hello`,
    /// a client-only frame from the broker, ...).
    Unexpected(&'static str),
}

impl std::fmt::Display for SubError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubError::Desync {
                dataset,
                held_us,
                basis_us,
            } => write!(
                f,
                "delta desync on {dataset}: held {held_us:?}, basis {basis_us}"
            ),
            SubError::Apply(what) => write!(f, "delta apply failed: {what}"),
            SubError::Unexpected(what) => write!(f, "unexpected frame: {what}"),
        }
    }
}

impl std::error::Error for SubError {}

/// The sans-io subscriber. Feed it decoded frames; it yields events and
/// keeps the per-dataset current state queryable.
#[derive(Debug, Default)]
pub struct SubscriberCore {
    held: BTreeMap<String, Arc<HeldWindow>>,
    hello_seen: bool,
    snapshots_applied: u64,
    deltas_applied: u64,
}

impl SubscriberCore {
    /// Fresh subscriber (expects the broker's `Hello` first).
    pub fn new() -> SubscriberCore {
        SubscriberCore::default()
    }

    /// The held window for `dataset`, if any.
    pub fn held(&self, dataset: &str) -> Option<&HeldWindow> {
        self.held.get(dataset).map(|h| &**h)
    }

    /// All held windows, dataset-ascending.
    pub fn held_windows(&self) -> impl Iterator<Item = (&String, &HeldWindow)> {
        self.held.iter().map(|(ds, h)| (ds, &**h))
    }

    /// Snapshots installed so far.
    pub fn snapshots_applied(&self) -> u64 {
        self.snapshots_applied
    }

    /// Deltas applied so far.
    pub fn deltas_applied(&self) -> u64 {
        self.deltas_applied
    }

    /// Fold one decoded frame. `Ok(None)` means the frame carried no
    /// application-visible event (the handshake `Hello`).
    pub fn on_frame(&mut self, frame: Frame) -> Result<Option<SubEvent>, SubError> {
        match frame {
            Frame::Hello { .. } => {
                if self.hello_seen {
                    return Err(SubError::Unexpected("second hello"));
                }
                self.hello_seen = true;
                Ok(None)
            }
            Frame::Snapshot(ws) => {
                let held = Arc::new(HeldWindow {
                    window_us: window_id_us(ws.start),
                    start: ws.start,
                    length: ws.length,
                    state: ws.topk,
                });
                self.held.insert(held.state.dataset.clone(), held.clone());
                self.snapshots_applied += 1;
                Ok(Some(SubEvent::Window(held)))
            }
            Frame::Delta(d) => {
                match self.held.get(&d.dataset) {
                    Some(h) if h.window_us == d.prev_window_us => {}
                    other => {
                        return Err(SubError::Desync {
                            dataset: d.dataset.clone(),
                            held_us: other.map(|h| h.window_us),
                            basis_us: d.prev_window_us,
                        })
                    }
                }
                // The basis moves into the next window unless the
                // application still holds its event; then it is copied.
                let basis = self.held.remove(&d.dataset).expect("checked above");
                let basis = Arc::try_unwrap(basis).unwrap_or_else(|h| (*h).clone());
                let (window_us, start, length) = (d.window_us, d.start, d.length);
                let state = match apply_delta_owned(basis.state, *d) {
                    Ok(state) => state,
                    Err((state, what)) => {
                        // A rejected delta leaves the held window as it was.
                        let kept = Arc::new(HeldWindow { state, ..basis });
                        self.held.insert(kept.state.dataset.clone(), kept);
                        return Err(SubError::Apply(what));
                    }
                };
                let held = Arc::new(HeldWindow {
                    window_us,
                    start,
                    length,
                    state,
                });
                self.held.insert(held.state.dataset.clone(), held.clone());
                self.deltas_applied += 1;
                Ok(Some(SubEvent::Window(held)))
            }
            Frame::Meta { start_us, bytes } => Ok(Some(SubEvent::Meta { start_us, bytes })),
            Frame::Evict {
                reason,
                undelivered,
            } => Ok(Some(SubEvent::Evicted {
                reason,
                undelivered,
            })),
            Frame::Bye => Ok(Some(SubEvent::End)),
            Frame::Subscribe { .. } => Err(SubError::Unexpected("subscribe from broker")),
        }
    }
}

/// Convenience for tests and tools: raise decode errors and protocol
/// violations uniformly as `std::io::Error`.
pub(crate) fn io_err(e: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
}

/// Re-exported so shells can map transport errors consistently.
pub(crate) fn feed_io_err(e: FeedError) -> std::io::Error {
    io_err(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::{Action, BrokerConfig, BrokerCore};
    use crate::codec::{FrameReader, Topic};
    use sketchwire::{FeatureState, TopKEntry, WindowState};

    fn entry(key: &str, count: u64) -> TopKEntry {
        TopKEntry {
            key: key.to_string(),
            count,
            error: 0,
            inserted_at: 0.0,
            features: FeatureState {
                adds: vec![count],
                maxes: Vec::new(),
                hlls: Vec::new(),
                source_cap: 4,
                sources: vec![1],
                tops: Vec::new(),
                hists: Vec::new(),
            },
        }
    }

    fn sealed(window: u64, entries: Vec<TopKEntry>) -> Vec<WindowState> {
        let observed: u64 = entries.iter().map(|e| e.count).sum();
        vec![WindowState {
            upstream: 3,
            start: (window * 600) as f64,
            length: 600.0,
            topk: sketchwire::TopKState {
                dataset: "aafqdn".to_string(),
                capacity: 8,
                observed,
                min_count: 0,
                error_bound: observed / 8,
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

    /// Drive a broker and a subscriber end to end in memory: every frame
    /// the broker emits for client 1 is decoded and folded, and after
    /// each window the subscriber's held state must equal the broker's
    /// published window exactly.
    #[test]
    fn subscriber_tracks_broker_exactly() {
        let mut broker = BrokerCore::new(BrokerConfig::default());
        let mut sub = SubscriberCore::new();
        let mut actions = Vec::new();
        broker.on_client_connect(1, &[Topic::Features], &mut actions);

        let windows = [
            vec![entry("a", 5)],
            vec![entry("a", 7), entry("b", 2)],
            vec![entry("b", 9), entry("c", 1)],
            vec![entry("b", 9), entry("c", 1)],
            vec![entry("z", 100)],
        ];
        for (i, entries) in windows.iter().enumerate() {
            actions.clear();
            let states = sealed(i as u64 + 1, entries.clone());
            let expect = crate::delta::canonicalize(states[0].topk.clone());
            broker.on_sealed(states, &mut actions).unwrap();
            let mut rd = FrameReader::new();
            for a in &actions {
                if let Action::Send { client: 1, frame } = a {
                    rd.push(frame);
                }
            }
            let mut last = None;
            while let Some(f) = rd.next_frame().unwrap() {
                last = sub.on_frame(f).unwrap();
            }
            match last {
                Some(SubEvent::Window(h)) => assert_eq!(h.state, expect, "window {i}"),
                other => panic!("expected a window event, got {other:?}"),
            }
            broker.on_drained(1, 1);
        }
        assert_eq!(sub.snapshots_applied(), 1);
        assert_eq!(sub.deltas_applied(), 4);
    }

    #[test]
    fn delta_without_basis_is_a_desync() {
        let mut sub = SubscriberCore::new();
        let d = crate::delta::WindowDelta {
            dataset: "aafqdn".to_string(),
            prev_window_us: 600_000_000,
            window_us: 1_200_000_000,
            start: 1200.0,
            length: 600.0,
            capacity: 8,
            observed: 1,
            min_count: 0,
            error_bound: 0,
            evictions: 0,
            kept: 1,
            dropped: 0,
            filtered: 0,
            changed: vec![entry("a", 1)],
            removed: Vec::new(),
        };
        match sub.on_frame(Frame::Delta(Box::new(d))) {
            Err(SubError::Desync {
                held_us: None,
                basis_us: 600_000_000,
                ..
            }) => {}
            other => panic!("expected desync, got {other:?}"),
        }
    }

    /// A delta that fails to apply leaves the held window as it was,
    /// whether the basis moved into the walk or was copied because the
    /// application kept its event.
    #[test]
    fn rejected_delta_keeps_the_held_window() {
        for keep_event in [false, true] {
            let mut sub = SubscriberCore::new();
            let first = sealed(1, vec![entry("a", 5), entry("b", 2)]).remove(0);
            let event = sub.on_frame(Frame::Snapshot(Box::new(first))).unwrap();
            let kept = keep_event.then_some(event);
            let before = sub.held("aafqdn").unwrap().clone();
            let next = &sealed(2, vec![entry("b", 4)])[0].topk;
            let mut d = crate::delta::diff_states(
                before.window_us,
                &before.state,
                1_200_000_000,
                1200.0,
                600.0,
                next,
            );
            d.removed.push("zz-unheld".to_string());
            assert!(matches!(
                sub.on_frame(Frame::Delta(Box::new(d))),
                Err(SubError::Apply(_))
            ));
            assert_eq!(sub.held("aafqdn"), Some(&before), "keep_event {keep_event}");
            drop(kept);
        }
    }

    #[test]
    fn terminal_frames_surface_as_events() {
        let mut sub = SubscriberCore::new();
        assert_eq!(
            sub.on_frame(Frame::Evict {
                reason: EvictReason::TooSlow,
                undelivered: 3
            })
            .unwrap(),
            Some(SubEvent::Evicted {
                reason: EvictReason::TooSlow,
                undelivered: 3
            })
        );
        assert_eq!(sub.on_frame(Frame::Bye).unwrap(), Some(SubEvent::End));
    }
}
