//! The differential accounting oracle: every pushed item must be
//! delivered or *explicitly accounted for* — silence is a bug.
//!
//! A chaos run ends with two independent stories: the sensors' ground
//! truth (what was pushed, sealed, dropped at the buffer, written) and
//! the collector's final [`CollectorReport`] (what was accepted, merged,
//! late-dropped, gapped, deduplicated). The oracle cross-examines them:
//!
//! 1. **Frame classification** — every sealed frame that was never
//!    accepted must fall in a collector-visible loss category: inside a
//!    recorded sequence gap, beyond the final expected sequence of a
//!    stream whose BYE never arrived (tail loss), or before the first
//!    baseline of a stream with hard evidence of a poisoned connection
//!    (head loss). Anything else is a **silent divergence**.
//! 2. **Item conservation** — per sensor,
//!    `delivered + late = accepted items`, and the sealed frames
//!    partition the pushed stream exactly.
//! 3. **Value replay** — from the ground truth alone the oracle predicts
//!    the exact merged output (survivor items of accepted frames, merged
//!    by `(time, sensor)`), and requires the collector's delivered stream
//!    to match it element for element. An arrival-ordered item type
//!    ([`MergeOrder::Arrival`]) has no merged order to predict: there each
//!    sensor's share of the delivery must equal its predicted stream.
//! 4. **Ledger self-consistency** — gaps are sorted, disjoint, and sum
//!    to `gap_frames`; duplicate/hello/bye counters match the observed
//!    frame outcomes; the merged total matches `items_merged`.
//!
//! [`check`] returns a [`Divergence`] naming the first violated clause —
//! with the sensor, the sequence number, and both sides' numbers — so a
//! failing seed is debuggable before it is even minimized.

use std::collections::BTreeMap;
use std::fmt;

use feed::{FeedItem, MergeOrder, SensorStats};

use crate::harness::{ChaosOutcome, SensorRun};

/// Aggregate numbers for a passing run (smoke-runner display).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleSummary {
    /// Items pushed across all sensors.
    pub pushed: u64,
    /// Items delivered by the merge.
    pub delivered: u64,
    /// Items dropped at sensor send buffers.
    pub sensor_dropped: u64,
    /// Items lost on the wire but visible as ledger gaps / tail / head.
    pub wire_lost: u64,
    /// Items discarded behind the merge watermark.
    pub late: u64,
    /// Duplicate frames discarded.
    pub duplicate_frames: u64,
    /// CRC failures observed.
    pub crc_errors: u64,
    /// Reconnections across all sensors.
    pub connects: u64,
}

/// A violated accounting clause — the oracle's counterexample.
#[derive(Debug, Clone, PartialEq)]
pub enum Divergence {
    /// A sealed, never-accepted frame is in no loss category the
    /// collector can see: the items vanished silently.
    SilentLoss {
        /// Offending sensor.
        sensor: u64,
        /// Frame sequence number.
        seq: u64,
        /// Items the frame carried.
        items: u64,
        /// Why the frame was invisible.
        detail: String,
    },
    /// The collector accepted a frame the sensor never sealed (or with a
    /// different item count) — corruption slipped past the CRC.
    PhantomFrame {
        /// Claimed sensor.
        sensor: u64,
        /// Claimed sequence.
        seq: u64,
        /// What the two sides recorded.
        detail: String,
    },
    /// An accepted frame also appears inside a recorded gap, or before
    /// the ledger baseline — the ledger contradicts itself.
    LedgerInconsistent {
        /// Offending sensor (`u64::MAX` for collector-global clauses).
        sensor: u64,
        /// Violated clause.
        detail: String,
    },
    /// Per-sensor or global item counts do not add up.
    CountMismatch {
        /// Offending sensor (`u64::MAX` for global counts).
        sensor: u64,
        /// The two sides of the failed equation.
        detail: String,
    },
    /// The delivered stream differs from the predicted merge (wrong
    /// item, wrong order, or wrong length).
    ValueMismatch {
        /// First differing position in the merged stream.
        position: usize,
        /// Expected vs actual.
        detail: String,
    },
    /// The run itself wedged (virtual-time backstop fired).
    Truncated,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::SilentLoss {
                sensor,
                seq,
                items,
                detail,
            } => write!(
                f,
                "silent loss: sensor {sensor} frame seq={seq} ({items} items) \
                 was never accepted and is in no visible loss category ({detail})"
            ),
            Divergence::PhantomFrame {
                sensor,
                seq,
                detail,
            } => write!(
                f,
                "phantom frame: collector accepted sensor {sensor} seq={seq} \
                 which the sensor never sealed ({detail})"
            ),
            Divergence::LedgerInconsistent { sensor, detail } => {
                write!(f, "ledger inconsistent (sensor {sensor}): {detail}")
            }
            Divergence::CountMismatch { sensor, detail } => {
                write!(f, "count mismatch (sensor {sensor}): {detail}")
            }
            Divergence::ValueMismatch { position, detail } => {
                write!(f, "value mismatch at merged position {position}: {detail}")
            }
            Divergence::Truncated => write!(f, "run truncated by the virtual-time backstop"),
        }
    }
}

fn stats_for(outcome: &ChaosOutcome<impl FeedItem + Clone>, sensor: u64) -> Option<&SensorStats> {
    outcome.report.sensors.get(&sensor)
}

/// Evidence that a sensor's early frames could have been eaten by a
/// poisoned (never-heralded or corrupted) connection. An *anonymous
/// disconnect* — a connection that died before completing a HELLO —
/// counts too: the sensor may have written frames into it that never
/// surfaced, and after it reconnects with an advanced `next_seq` the
/// collector's only record of that possibility is the disconnect itself.
fn poisoning_evidence(outcome: &ChaosOutcome<impl FeedItem + Clone>, stats: &SensorStats) -> bool {
    outcome.report.unheralded_frames > 0
        || outcome.report.unattributed_errors > 0
        || outcome.report.anonymous_disconnects > 0
        || stats.crc_errors > 0
        || stats.decode_errors > 0
}

fn in_gaps(gaps: &[(u64, u64)], seq: u64) -> bool {
    gaps.iter().any(|&(a, b)| a <= seq && seq <= b)
}

/// Audit one sensor's frame story against the collector's ledger.
fn check_sensor<T: FeedItem + Clone>(
    outcome: &ChaosOutcome<T>,
    run: &SensorRun<T>,
) -> Result<(), Divergence> {
    let sensor = run.sensor_id;
    let empty = SensorStats::default();
    let stats = stats_for(outcome, sensor).unwrap_or(&empty);

    // Ledger self-consistency: gaps sorted, disjoint, summing to
    // gap_frames.
    let mut prev_end: Option<u64> = None;
    let mut gap_total = 0u64;
    for &(a, b) in &stats.gaps {
        if a > b || prev_end.map(|p| a <= p).unwrap_or(false) {
            return Err(Divergence::LedgerInconsistent {
                sensor,
                detail: format!("gap list not sorted/disjoint: {:?}", stats.gaps),
            });
        }
        prev_end = Some(b);
        gap_total += b - a + 1;
    }
    if gap_total != stats.gap_frames {
        return Err(Divergence::LedgerInconsistent {
            sensor,
            detail: format!(
                "gap_frames={} but gap ranges sum to {gap_total}",
                stats.gap_frames
            ),
        });
    }

    // The sealed frames must partition the pushed items exactly.
    let sealed_items: u64 = run.sealed.iter().map(|s| s.items).sum();
    if sealed_items != run.pushed.len() as u64 {
        return Err(Divergence::CountMismatch {
            sensor,
            detail: format!(
                "sealed frames hold {sealed_items} items but {} were pushed",
                run.pushed.len()
            ),
        });
    }

    let sealed_by_seq: BTreeMap<u64, &feed::SealEvent> =
        run.sealed.iter().map(|s| (s.seq, s)).collect();
    if sealed_by_seq.len() != run.sealed.len() {
        return Err(Divergence::CountMismatch {
            sensor,
            detail: "sensor sealed the same sequence twice".into(),
        });
    }

    // Every accepted frame must be one the sensor sealed (same item
    // count), must not sit inside a recorded gap, and must respect the
    // ledger baseline.
    let mut accepted_by_seq: BTreeMap<u64, &crate::harness::AcceptedFrame> = BTreeMap::new();
    for frame in &run.accepted {
        match sealed_by_seq.get(&frame.seq) {
            None => {
                return Err(Divergence::PhantomFrame {
                    sensor,
                    seq: frame.seq,
                    detail: format!("accepted {} items; no such sealed frame", frame.items),
                })
            }
            Some(seal) if seal.items != frame.items => {
                return Err(Divergence::PhantomFrame {
                    sensor,
                    seq: frame.seq,
                    detail: format!("accepted {} items, sealed {}", frame.items, seal.items),
                })
            }
            Some(seal) if seal.dropped => {
                return Err(Divergence::PhantomFrame {
                    sensor,
                    seq: frame.seq,
                    detail: "accepted a frame the sensor dropped at its buffer".into(),
                })
            }
            Some(_) => {}
        }
        if accepted_by_seq.insert(frame.seq, frame).is_some() {
            return Err(Divergence::LedgerInconsistent {
                sensor,
                detail: format!("frame seq={} accepted twice", frame.seq),
            });
        }
        if in_gaps(&stats.gaps, frame.seq) {
            return Err(Divergence::LedgerInconsistent {
                sensor,
                detail: format!(
                    "accepted frame seq={} sits inside a recorded gap",
                    frame.seq
                ),
            });
        }
    }

    // Frame classification: every sealed frame is accepted, or visibly
    // lost, or was never written at all.
    let sent_seqs: std::collections::BTreeSet<u64> =
        run.sent_batches.iter().map(|&(seq, _)| seq).collect();
    for seal in &run.sealed {
        if accepted_by_seq.contains_key(&seal.seq) {
            continue;
        }
        // Dropped at the sensor buffer: the sensor's own tally covers it,
        // and the consumed sequence number keeps it gap-visible.
        let visible = in_gaps(&stats.gaps, seal.seq)
            || match stats.final_expected_seq {
                // Tail loss is only invisible-but-accounted while no BYE
                // arrived; once a BYE lands the ledger must have advanced
                // past every lost frame.
                Some(fin) => seal.seq >= fin && stats.byes == 0,
                None => stats.byes == 0,
            }
            || match stats.first_expected_seq {
                Some(first) => seal.seq < first && poisoning_evidence(outcome, stats),
                None => poisoning_evidence(outcome, stats) || run.sent_batches.is_empty(),
            };
        if !visible {
            let detail = format!(
                "sent={} dropped_at_buffer={} gaps={:?} first_expected={:?} \
                 final_expected={:?} byes={} crc={} unheralded={} unattributed={}",
                sent_seqs.contains(&seal.seq),
                seal.dropped,
                stats.gaps,
                stats.first_expected_seq,
                stats.final_expected_seq,
                stats.byes,
                stats.crc_errors,
                outcome.report.unheralded_frames,
                outcome.report.unattributed_errors,
            );
            return Err(Divergence::SilentLoss {
                sensor,
                seq: seal.seq,
                items: seal.items,
                detail,
            });
        }
    }

    // Counter cross-checks between the observed outcomes and the ledger.
    let accepted_items: u64 = run.accepted.iter().map(|f| f.items).sum();
    let late_items: u64 = run.accepted.iter().map(|f| f.late).sum();
    let checks: [(&str, u64, u64); 6] = [
        ("accepted frames", stats.frames, run.accepted.len() as u64),
        ("accepted items", stats.items, accepted_items),
        ("late items", stats.late_items, late_items),
        ("duplicate frames", stats.duplicate_frames, run.duplicates),
        ("hellos", stats.connects, run.hellos),
        ("byes", stats.byes, run.byes),
    ];
    for (what, ledger, observed) in checks {
        if ledger != observed {
            return Err(Divergence::CountMismatch {
                sensor,
                detail: format!("{what}: ledger says {ledger}, harness observed {observed}"),
            });
        }
    }

    // The sensor's own drop tally must match its sealed-frame fates:
    // everything sealed but neither written nor still-queued was dropped
    // (at the buffer, or discarded by an abort).
    let sent_frames = run.sent_batches.len() as u64;
    let seal_dropped = run.sealed.iter().filter(|s| s.dropped).count() as u64;
    let unsent = run.sealed.len() as u64 - seal_dropped - sent_frames;
    if run.report.dropped_frames < seal_dropped || run.report.dropped_frames > seal_dropped + unsent
    {
        return Err(Divergence::CountMismatch {
            sensor,
            detail: format!(
                "sensor reports {} dropped frames; seal log implies between {seal_dropped} \
                 and {} ({} sealed, {sent_frames} written)",
                run.report.dropped_frames,
                seal_dropped + unsent,
                run.sealed.len(),
            ),
        });
    }

    Ok(())
}

/// Predict, per sensor, the exact items the collector releases from it:
/// survivor items of accepted frames (each frame loses its `late` leading
/// items), in the frames' arrival order.
///
/// Arrival order, not the sensor's sequence order: when a gap is
/// backfilled by retransmission, the later-seq frame that jumped the gap
/// was released first.
pub(crate) fn predicted_streams<T: FeedItem + Clone>(
    outcome: &ChaosOutcome<T>,
) -> BTreeMap<u64, Vec<T>> {
    let mut streams = BTreeMap::new();
    for run in &outcome.sensors {
        // Walk sealed frames in sequence order to slice the pushed
        // stream, then replay the slices in arrival order.
        let mut sealed: Vec<&feed::SealEvent> = run.sealed.iter().collect();
        sealed.sort_by_key(|s| s.seq);
        let mut slices: BTreeMap<u64, (usize, usize)> = BTreeMap::new();
        let mut cursor = 0usize;
        for seal in sealed {
            let end = cursor + seal.items as usize;
            slices.insert(seal.seq, (cursor, end));
            cursor = end;
        }
        let mut items = Vec::new();
        for frame in &run.accepted {
            let (start, end) = slices[&frame.seq];
            items.extend_from_slice(&run.pushed[start + frame.late as usize..end]);
        }
        streams.insert(run.sensor_id, items);
    }
    streams
}

/// Predict the exact merged output of a time-merged item type: the
/// `predicted_streams` merged by `(time, sensor, per-sensor order)`, so
/// items sharing a timestamp (e.g. chunks of one window) keep their
/// arrival order.
pub fn predicted_delivery<T: FeedItem + Clone>(outcome: &ChaosOutcome<T>) -> Vec<T> {
    let mut keyed: Vec<(f64, u64, usize, T)> = Vec::new();
    for (sensor, items) in predicted_streams(outcome) {
        let timed = items.into_iter().enumerate();
        keyed.extend(timed.map(|(order, item)| (item.order_time(), sensor, order, item)));
    }
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    keyed.into_iter().map(|(_, _, _, item)| item).collect()
}

/// Value replay of an arrival-ordered delivery: walk it against the
/// predicted streams, each delivered item being the next predicted item
/// of some sensor, until every stream is used up. Items of different
/// sensors carry their sensor, so at most one stream matches; the lowest
/// id is taken if several do.
fn check_arrival<T: PartialEq + fmt::Debug>(
    delivered: &[T],
    streams: &BTreeMap<u64, Vec<T>>,
) -> Result<(), Divergence> {
    let mut next: BTreeMap<u64, usize> = streams.keys().map(|&s| (s, 0)).collect();
    for (position, got) in delivered.iter().enumerate() {
        let sensor = (streams.iter()).find(|&(s, items)| items.get(next[s]) == Some(got));
        match sensor {
            Some((s, _)) => *next.get_mut(s).expect("every stream has a cursor") += 1,
            None => {
                return Err(Divergence::ValueMismatch {
                    position,
                    detail: format!("delivered {got:?}, no sensor's next predicted item"),
                })
            }
        }
    }
    for (sensor, items) in streams {
        if next[sensor] != items.len() {
            return Err(Divergence::ValueMismatch {
                position: delivered.len(),
                detail: format!(
                    "sensor {sensor}: predicted {} items, delivered {}",
                    items.len(),
                    next[sensor]
                ),
            });
        }
    }
    Ok(())
}

/// Full audit of a chaos run. `Ok` carries the aggregate numbers; `Err`
/// names the first violated clause.
pub fn check<T: FeedItem + Clone + PartialEq + fmt::Debug>(
    outcome: &ChaosOutcome<T>,
) -> Result<OracleSummary, Divergence> {
    if outcome.truncated {
        return Err(Divergence::Truncated);
    }

    for run in &outcome.sensors {
        check_sensor(outcome, run)?;
    }

    // Global item conservation.
    let merged: u64 = outcome
        .report
        .sensors
        .values()
        .map(|s| s.items - s.late_items)
        .sum();
    if merged != outcome.report.items_merged {
        return Err(Divergence::CountMismatch {
            sensor: u64::MAX,
            detail: format!(
                "per-sensor accepted-minus-late sums to {merged}, items_merged={}",
                outcome.report.items_merged
            ),
        });
    }
    if outcome.delivered.len() as u64 != outcome.report.items_merged {
        return Err(Divergence::CountMismatch {
            sensor: u64::MAX,
            detail: format!(
                "{} items delivered, report claims {}",
                outcome.delivered.len(),
                outcome.report.items_merged
            ),
        });
    }

    // Value replay: the delivered stream must equal the prediction.
    if T::MERGE == MergeOrder::Arrival {
        check_arrival(&outcome.delivered, &predicted_streams(outcome))?;
        return Ok(summary(outcome));
    }
    let predicted = predicted_delivery(outcome);
    if predicted.len() != outcome.delivered.len() {
        return Err(Divergence::ValueMismatch {
            position: predicted.len().min(outcome.delivered.len()),
            detail: format!(
                "predicted {} items, delivered {}",
                predicted.len(),
                outcome.delivered.len()
            ),
        });
    }
    for (i, (want, got)) in predicted.iter().zip(&outcome.delivered).enumerate() {
        if want != got {
            return Err(Divergence::ValueMismatch {
                position: i,
                detail: format!("expected {want:?}, delivered {got:?}"),
            });
        }
    }

    // Monotone merge order by (time, then stable within equal times).
    for (i, w) in outcome.delivered.windows(2).enumerate() {
        if w[1].order_time() < w[0].order_time() {
            return Err(Divergence::ValueMismatch {
                position: i + 1,
                detail: format!(
                    "merged stream goes back in time: {} after {}",
                    w[1].order_time(),
                    w[0].order_time()
                ),
            });
        }
    }

    Ok(summary(outcome))
}

/// The aggregate numbers of a run that passed.
fn summary<T: FeedItem + Clone>(outcome: &ChaosOutcome<T>) -> OracleSummary {
    OracleSummary {
        pushed: outcome.sensors.iter().map(|s| s.pushed.len() as u64).sum(),
        delivered: outcome.delivered.len() as u64,
        sensor_dropped: outcome.sensors.iter().map(|s| s.report.dropped_items).sum(),
        wire_lost: outcome
            .sensors
            .iter()
            .map(|s| {
                let accepted: std::collections::BTreeSet<u64> =
                    s.accepted.iter().map(|f| f.seq).collect();
                s.sealed
                    .iter()
                    .filter(|f| !f.dropped && !accepted.contains(&f.seq))
                    .map(|f| f.items)
                    .sum::<u64>()
            })
            .sum(),
        late: outcome.report.sensors.values().map(|s| s.late_items).sum(),
        duplicate_frames: outcome
            .report
            .sensors
            .values()
            .map(|s| s.duplicate_frames)
            .sum(),
        crc_errors: outcome.report.sensors.values().map(|s| s.crc_errors).sum(),
        connects: outcome.sensors.iter().map(|s| s.report.connects).sum(),
    }
}
