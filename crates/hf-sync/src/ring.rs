//! Bounded lock-free event ring for telemetry producers.
//!
//! Telemetry recording must never block a worker or a device engine: a
//! span is pushed with a couple of atomic operations, and when the buffer
//! is full the event is *dropped* (counted) rather than stalling the hot
//! path. The queue is the classic Vyukov bounded MPMC design — every slot
//! carries a sequence number, so any number of producers (workers, device
//! engines, submission threads) and consumers (the trace collector's
//! drain) can operate without locks.

use crate::atomic::{AtomicU64, Ordering};
use crate::pad::CachePadded;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;

struct Slot<T> {
    /// Sequence state: `pos` = empty and writable by the producer that
    /// claims `pos`; `pos + 1` = full and readable by the consumer that
    /// claims `pos`; `pos + cap` = consumed, writable one lap later.
    seq: AtomicU64,
    val: UnsafeCell<MaybeUninit<T>>,
}

/// A bounded lock-free MPMC ring that drops (and counts) events instead
/// of blocking when full.
pub struct EventRing<T> {
    slots: Box<[Slot<T>]>,
    mask: u64,
    head: CachePadded<AtomicU64>,
    tail: CachePadded<AtomicU64>,
    dropped: AtomicU64,
}

// SAFETY: values are transferred between threads through the slots with
// acquire/release sequence handshakes; `T: Send` is all that's required.
unsafe impl<T: Send> Send for EventRing<T> {}
// SAFETY: as above — each slot position is claimed by exactly one producer
// and one consumer per lap.
unsafe impl<T: Send> Sync for EventRing<T> {}

impl<T> EventRing<T> {
    /// Creates a ring holding at least `capacity` events (rounded up to a
    /// power of two, minimum 2).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let slots: Box<[Slot<T>]> = (0..cap)
            .map(|i| Slot {
                seq: AtomicU64::new(i as u64),
                val: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        Self {
            slots,
            mask: (cap - 1) as u64,
            head: CachePadded::new(AtomicU64::new(0)),
            tail: CachePadded::new(AtomicU64::new(0)),
            dropped: AtomicU64::new(0),
        }
    }

    /// Events discarded because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Pushes an event; returns `false` (incrementing the drop counter)
    /// when the ring is full. Lock-free and non-blocking.
    pub fn push(&self, value: T) -> bool {
        let mut pos = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[(pos & self.mask) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos {
                // Empty slot at our position: claim it.
                match self.head.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS gives this thread exclusive
                        // write access until the release store below.
                        unsafe { (*slot.val.get()).write(value) };
                        slot.seq.store(pos + 1, Ordering::Release);
                        return true;
                    }
                    Err(now) => pos = now,
                }
            } else if seq < pos {
                // A full lap behind: the ring is full.
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return false;
            } else {
                pos = self.head.load(Ordering::Relaxed);
            }
        }
    }

    /// Pops the oldest event, if any. Lock-free and non-blocking.
    pub fn pop(&self) -> Option<T> {
        let mut pos = self.tail.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[(pos & self.mask) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos + 1 {
                // Full slot at our position: claim it.
                match self.tail.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS gives this thread exclusive
                        // read access until the release store below.
                        let value = unsafe { (*slot.val.get()).assume_init_read() };
                        slot.seq
                            .store(pos + self.slots.len() as u64, Ordering::Release);
                        return Some(value);
                    }
                    Err(now) => pos = now,
                }
            } else if seq <= pos {
                // Empty (or a producer mid-write at an older position).
                return None;
            } else {
                pos = self.tail.load(Ordering::Relaxed);
            }
        }
    }

    /// Drains every currently-buffered event into `f`.
    pub fn drain(&self, mut f: impl FnMut(T)) -> usize {
        let mut n = 0;
        while let Some(v) = self.pop() {
            f(v);
            n += 1;
        }
        n
    }
}

impl<T> Drop for EventRing<T> {
    fn drop(&mut self) {
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_roundtrip() {
        let r = EventRing::new(8);
        for i in 0..8 {
            assert!(r.push(i));
        }
        for i in 0..8 {
            assert_eq!(r.pop(), Some(i));
        }
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn full_ring_drops_and_counts() {
        let r = EventRing::new(4);
        for i in 0..4 {
            assert!(r.push(i));
        }
        assert!(!r.push(99));
        assert!(!r.push(100));
        assert_eq!(r.dropped(), 2);
        // Draining frees capacity again.
        assert_eq!(r.pop(), Some(0));
        assert!(r.push(4));
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        // (requested, slots): rounded up to a power of two, minimum 2.
        for (requested, slots) in [(3, 4), (0, 2), (64, 64)] {
            let r = EventRing::new(requested);
            for i in 0..slots {
                assert!(r.push(i), "new({requested}) refused push {i}");
            }
            assert!(!r.push(slots), "new({requested}) took more than {slots}");
            assert_eq!(r.dropped(), 1);
        }
    }

    #[test]
    fn wraps_many_laps() {
        let r = EventRing::new(4);
        for i in 0..1000u64 {
            assert!(r.push(i));
            assert_eq!(r.pop(), Some(i));
        }
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn concurrent_producers_and_consumer() {
        let r = Arc::new(EventRing::new(1 << 12));
        let producers = 4;
        let per = 10_000u64;
        let handles: Vec<_> = (0..producers)
            .map(|p| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..per {
                        while !r.push(p as u64 * per + i) {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let consumer = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                while seen.len() < (producers as usize) * per as usize {
                    r.drain(|v| seen.push(v));
                }
                seen
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        let mut seen = consumer.join().unwrap();
        seen.sort_unstable();
        let expect: Vec<u64> = (0..producers as u64 * per).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn drop_releases_buffered_values() {
        let v = Arc::new(());
        {
            let r = EventRing::new(8);
            for _ in 0..5 {
                r.push(Arc::clone(&v));
            }
        }
        assert_eq!(Arc::strong_count(&v), 1);
    }
}
