//! `spsc` — a lock-free single-producer/single-consumer ring for
//! hand-offs between two threads.
//!
//! A hand-off with exactly one producer and one consumer (the broker's
//! ingest ring in `pubsub`: the seal path → the broker thread) admits the
//! cheapest possible queue: a fixed-capacity ring where the producer
//! owns the tail index, the consumer owns the head index, and a transfer
//! costs one slot write plus one release store — no locks, no CAS, no
//! syscalls in the steady state. The workspace's `crossbeam-channel`
//! stand-in (a `Mutex` + `Condvar` MPMC queue, see `stubs/README.md`)
//! takes a lock and often a futex wake *per message*.
//!
//! Blocking is handled with a spin → yield → timed-park ladder
//! ([`Backoff`]): a few pipeline-friendly spins for the
//! producer-and-consumer-both-hot case, `yield_now` so a single-core host
//! schedules the peer instead of burning the quantum, and finally a
//! `Condvar` park with a 1 ms lease so a missed wakeup can only cost a
//! millisecond, never a deadlock. The park flag is checked by the fast
//! path with a single relaxed load, so an awake peer pays nothing.
//!
//! This crate is the only place in the workspace that uses `unsafe`; the
//! ring is the textbook Lamport SPSC queue (slot publication ordered by
//! the release store of the index), kept small enough to audit by hand
//! and stress-tested cross-thread in the unit tests below.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Pad hot atomics to their own cache line so the producer's tail and
/// the consumer's head never false-share.
#[repr(align(128))]
struct CachePadded<T>(T);

struct Shared<T> {
    /// Slot storage; length is a power of two.
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// `slots.len() - 1`, for index masking.
    mask: usize,
    /// Next position to write (monotonic, wraps at `usize::MAX`).
    tail: CachePadded<AtomicUsize>,
    /// Next position to read.
    head: CachePadded<AtomicUsize>,
    producer_alive: AtomicBool,
    consumer_alive: AtomicBool,
    /// Set by a side that is about to park; the peer `swap`s it back to
    /// false and notifies under the lock.
    consumer_parked: AtomicBool,
    producer_parked: AtomicBool,
    lock: Mutex<()>,
    not_empty: Condvar,
    not_full: Condvar,
}

// SAFETY: the ring transfers `T` values between exactly two threads; all
// slot accesses are ordered by the acquire/release pair on `tail`
// (publication) and `head` (reclamation), and each index is written by
// exactly one side.
unsafe impl<T: Send> Sync for Shared<T> {}
unsafe impl<T: Send> Send for Shared<T> {}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        // Both endpoints are gone (`Arc` refcount reached zero), so the
        // indices are stable and access is exclusive.
        let head = *self.head.0.get_mut();
        let tail = *self.tail.0.get_mut();
        let mut pos = head;
        while pos != tail {
            let slot = &self.slots[pos & self.mask];
            // SAFETY: positions in `head..tail` hold initialized values
            // that were never popped; we have `&mut self`.
            unsafe { slot.get().cast::<T>().drop_in_place() };
            pos = pos.wrapping_add(1);
        }
    }
}

/// Why a non-blocking push did not happen.
#[derive(Debug, PartialEq, Eq)]
pub enum TryPushError<T> {
    /// The ring is full; the value is handed back.
    Full(T),
    /// The consumer is gone; the value is handed back.
    Disconnected(T),
}

/// Why a non-blocking pop returned nothing.
#[derive(Debug, PartialEq, Eq)]
pub enum TryPopError {
    /// Nothing buffered right now; the producer is still alive.
    Empty,
    /// Nothing buffered and the producer is gone: the stream is over.
    Disconnected,
}

/// Spin → yield → timed-park backoff ladder shared by both endpoints.
#[derive(Debug, Default)]
struct Backoff {
    step: u32,
}

/// Busy-spin steps before the first yield.
const SPINS: u32 = 16;
/// `yield_now` steps before the first timed park. Generous because on a
/// loaded single-core host a yield is exactly the right thing to do.
const YIELDS: u32 = 64;
/// Park lease: an unlucky lost-wakeup race costs at most this long.
const PARK: Duration = Duration::from_millis(1);

impl Backoff {
    /// Returns `true` when the caller should park instead of retrying.
    fn snooze(&mut self) -> bool {
        if self.step < SPINS {
            std::hint::spin_loop();
        } else if self.step < SPINS + YIELDS {
            std::thread::yield_now();
        } else {
            return true;
        }
        self.step += 1;
        false
    }

    /// After a park the channel state may have changed wholesale; resume
    /// at the yield rung rather than the spin rung.
    fn after_park(&mut self) {
        self.step = SPINS;
    }
}

/// The sending half of a ring. Not cloneable — single producer.
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
    /// Producer-private copy of `tail` (only we advance it).
    tail: usize,
    /// Last observed `head`; refreshed only when the ring looks full.
    cached_head: usize,
}

/// The receiving half of a ring. Not cloneable — single consumer.
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
    /// Consumer-private copy of `head` (only we advance it).
    head: usize,
    /// Last observed `tail`; refreshed only when the ring looks empty.
    cached_tail: usize,
}

/// Create a ring with room for at least `capacity` in-flight values
/// (rounded up to a power of two, minimum 2).
pub fn ring<T: Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let cap = capacity.max(2).next_power_of_two();
    let slots = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let shared = Arc::new(Shared {
        slots,
        mask: cap - 1,
        tail: CachePadded(AtomicUsize::new(0)),
        head: CachePadded(AtomicUsize::new(0)),
        producer_alive: AtomicBool::new(true),
        consumer_alive: AtomicBool::new(true),
        consumer_parked: AtomicBool::new(false),
        producer_parked: AtomicBool::new(false),
        lock: Mutex::new(()),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        Producer {
            shared: Arc::clone(&shared),
            tail: 0,
            cached_head: 0,
        },
        Consumer {
            shared,
            head: 0,
            cached_tail: 0,
        },
    )
}

impl<T> Producer<T> {
    /// Ring capacity in values.
    pub fn capacity(&self) -> usize {
        self.shared.mask + 1
    }

    /// Values currently in flight (exact from the producer side).
    pub fn len(&self) -> usize {
        self.tail
            .wrapping_sub(self.shared.head.0.load(Ordering::Relaxed))
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking push.
    pub fn try_push(&mut self, value: T) -> Result<(), TryPushError<T>> {
        let cap = self.shared.mask + 1;
        if self.tail.wrapping_sub(self.cached_head) == cap {
            self.cached_head = self.shared.head.0.load(Ordering::Acquire);
            if self.tail.wrapping_sub(self.cached_head) == cap {
                return if self.shared.consumer_alive.load(Ordering::Acquire) {
                    Err(TryPushError::Full(value))
                } else {
                    Err(TryPushError::Disconnected(value))
                };
            }
        }
        if !self.shared.consumer_alive.load(Ordering::Relaxed) {
            return Err(TryPushError::Disconnected(value));
        }
        let slot = &self.shared.slots[self.tail & self.shared.mask];
        // SAFETY: `head..tail` never reaches this slot (checked above),
        // so the consumer is not reading it; the slot is empty (either
        // never used or already popped). Publication to the consumer is
        // ordered by the release store of `tail` below.
        unsafe { slot.get().write(MaybeUninit::new(value)) };
        self.tail = self.tail.wrapping_add(1);
        self.shared.tail.0.store(self.tail, Ordering::Release);
        if self.shared.consumer_parked.swap(false, Ordering::SeqCst) {
            let _guard = self.shared.lock.lock().unwrap();
            self.shared.not_empty.notify_all();
        }
        Ok(())
    }

    /// Blocking push. Returns the value back if the consumer is gone.
    pub fn push(&mut self, mut value: T) -> Result<(), T> {
        let mut backoff = Backoff::default();
        loop {
            match self.try_push(value) {
                Ok(()) => return Ok(()),
                Err(TryPushError::Disconnected(v)) => return Err(v),
                Err(TryPushError::Full(v)) => value = v,
            }
            if backoff.snooze() {
                self.shared.producer_parked.store(true, Ordering::SeqCst);
                // Re-check before sleeping: the consumer may have drained
                // the ring (or died) between the failed push and the flag.
                let head = self.shared.head.0.load(Ordering::Acquire);
                let full = self.tail.wrapping_sub(head) == self.shared.mask + 1;
                let alive = self.shared.consumer_alive.load(Ordering::Acquire);
                if full && alive {
                    let guard = self.shared.lock.lock().unwrap();
                    let _ = self.shared.not_full.wait_timeout(guard, PARK).unwrap();
                }
                self.shared.producer_parked.store(false, Ordering::SeqCst);
                backoff.after_park();
            }
        }
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        self.shared.producer_alive.store(false, Ordering::Release);
        let _guard = self.shared.lock.lock().unwrap();
        self.shared.not_empty.notify_all();
    }
}

impl<T> Consumer<T> {
    /// Ring capacity in values.
    pub fn capacity(&self) -> usize {
        self.shared.mask + 1
    }

    /// Values currently in flight (exact from the consumer side).
    pub fn len(&self) -> usize {
        self.shared
            .tail
            .0
            .load(Ordering::Relaxed)
            .wrapping_sub(self.head)
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking pop.
    pub fn try_pop(&mut self) -> Result<T, TryPopError> {
        if self.cached_tail == self.head {
            self.cached_tail = self.shared.tail.0.load(Ordering::Acquire);
            if self.cached_tail == self.head {
                // Order matters: read `producer_alive` first, then re-read
                // `tail`. The producer's last push happens-before its
                // alive=false store, so a dead flag with an unchanged tail
                // really means the stream is complete.
                let alive = self.shared.producer_alive.load(Ordering::Acquire);
                self.cached_tail = self.shared.tail.0.load(Ordering::Acquire);
                if self.cached_tail == self.head {
                    return if alive {
                        Err(TryPopError::Empty)
                    } else {
                        Err(TryPopError::Disconnected)
                    };
                }
            }
        }
        let slot = &self.shared.slots[self.head & self.shared.mask];
        // SAFETY: `head < tail` (acquire-loaded above), so this slot was
        // written and released by the producer and not yet consumed.
        let value = unsafe { slot.get().read().assume_init() };
        self.head = self.head.wrapping_add(1);
        self.shared.head.0.store(self.head, Ordering::Release);
        if self.shared.producer_parked.swap(false, Ordering::SeqCst) {
            let _guard = self.shared.lock.lock().unwrap();
            self.shared.not_full.notify_all();
        }
        Ok(value)
    }

    /// Blocking pop. `None` means the producer is gone and the ring is
    /// fully drained — the stream is over.
    pub fn pop(&mut self) -> Option<T> {
        let mut backoff = Backoff::default();
        loop {
            match self.try_pop() {
                Ok(v) => return Some(v),
                Err(TryPopError::Disconnected) => return None,
                Err(TryPopError::Empty) => {}
            }
            if backoff.snooze() {
                self.shared.consumer_parked.store(true, Ordering::SeqCst);
                let tail = self.shared.tail.0.load(Ordering::Acquire);
                let alive = self.shared.producer_alive.load(Ordering::Acquire);
                if tail == self.head && alive {
                    let guard = self.shared.lock.lock().unwrap();
                    let _ = self.shared.not_empty.wait_timeout(guard, PARK).unwrap();
                }
                self.shared.consumer_parked.store(false, Ordering::SeqCst);
                backoff.after_park();
            }
        }
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        self.shared.consumer_alive.store(false, Ordering::Release);
        let _guard = self.shared.lock.lock().unwrap();
        self.shared.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_single_thread() {
        let (mut tx, mut rx) = ring::<u32>(4);
        assert_eq!(tx.capacity(), 4);
        for v in 0..4 {
            tx.try_push(v).unwrap();
        }
        assert!(matches!(tx.try_push(9), Err(TryPushError::Full(9))));
        for v in 0..4 {
            assert_eq!(rx.try_pop().unwrap(), v);
        }
        assert_eq!(rx.try_pop(), Err(TryPopError::Empty));
    }

    #[test]
    fn wraps_many_times() {
        let (mut tx, mut rx) = ring::<u64>(2);
        for v in 0..10_000u64 {
            tx.push(v).unwrap();
            assert_eq!(rx.pop(), Some(v));
        }
    }

    #[test]
    fn cross_thread_stress_preserves_order() {
        const N: u64 = 200_000;
        let (mut tx, mut rx) = ring::<u64>(64);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for v in 0..N {
                    tx.push(v).unwrap();
                }
            });
            let mut expect = 0u64;
            while let Some(v) = rx.pop() {
                assert_eq!(v, expect);
                expect += 1;
            }
            assert_eq!(expect, N);
        });
    }

    #[test]
    fn backpressure_blocks_until_drained() {
        let (mut tx, mut rx) = ring::<u8>(2);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        let handle = std::thread::spawn(move || {
            tx.push(3).unwrap(); // blocks until a pop frees a slot
            tx
        });
        assert_eq!(rx.pop(), Some(1));
        let _tx = handle.join().unwrap();
        assert_eq!(rx.pop(), Some(2));
        assert_eq!(rx.pop(), Some(3));
    }

    #[test]
    fn push_fails_after_consumer_drop() {
        let (mut tx, rx) = ring::<u8>(4);
        drop(rx);
        assert_eq!(tx.push(7), Err(7));
        assert!(matches!(tx.try_push(8), Err(TryPushError::Disconnected(8))));
    }

    #[test]
    fn pop_drains_then_reports_disconnect() {
        let (mut tx, mut rx) = ring::<u8>(4);
        tx.try_push(1).unwrap();
        tx.try_push(2).unwrap();
        drop(tx);
        assert_eq!(rx.pop(), Some(1));
        assert_eq!(rx.pop(), Some(2));
        assert_eq!(rx.pop(), None);
        assert_eq!(rx.try_pop(), Err(TryPopError::Disconnected));
    }

    #[test]
    fn dropping_ring_drops_in_flight_values() {
        let marker = Arc::new(());
        let (mut tx, rx) = ring::<Arc<()>>(8);
        for _ in 0..5 {
            tx.try_push(Arc::clone(&marker)).unwrap();
        }
        assert_eq!(Arc::strong_count(&marker), 6);
        drop(tx);
        drop(rx);
        assert_eq!(Arc::strong_count(&marker), 1, "in-flight values leaked");
    }

    #[test]
    fn len_tracks_occupancy() {
        let (mut tx, mut rx) = ring::<u8>(4);
        assert!(tx.is_empty());
        tx.try_push(1).unwrap();
        tx.try_push(2).unwrap();
        assert_eq!(tx.len(), 2);
        assert_eq!(rx.len(), 2);
        rx.try_pop().unwrap();
        assert_eq!(rx.len(), 1);
    }

    #[test]
    fn ping_pong_through_two_rings() {
        // A miniature two-stage pipeline: values go out, doubled values
        // come back.
        let (mut task_tx, mut task_rx) = ring::<Vec<u32>>(2);
        let (mut done_tx, mut done_rx) = ring::<Vec<u32>>(2);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                while let Some(mut batch) = task_rx.pop() {
                    for v in &mut batch {
                        *v *= 2;
                    }
                    if done_tx.push(batch).is_err() {
                        return;
                    }
                }
            });
            let mut total = 0u64;
            for round in 0..1_000u32 {
                task_tx.push(vec![round, round + 1]).unwrap();
                let out = done_rx.pop().unwrap();
                total += u64::from(out[0]) + u64::from(out[1]);
            }
            drop(task_tx);
            assert_eq!(done_rx.pop(), None);
            assert_eq!(total, (0..1_000u64).map(|r| 2 * r + 2 * (r + 1)).sum());
        });
    }
}
