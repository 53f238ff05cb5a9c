//! Lock-free MPMC injector queue for external and overflow task
//! submissions.
//!
//! The executor's shared inbox: `run_*` callers push ready root tasks here
//! and workers push overflow when releasing many successors at once; idle
//! workers (thieves) pop from it. The previous implementation was a
//! `Mutex<VecDeque>`, which serialized every submission and put a lock on
//! the steady-state steal path. This is a segmented Michael–Scott-style
//! queue in the spirit of crossbeam's `SegQueue` (Lê/Morrison lineage):
//! values live in fixed 31-slot blocks linked into a list, producers claim
//! slots by CAS on a monotone tail index, consumers by CAS on a monotone
//! head index, and block memory is reclaimed by a per-slot hand-off
//! protocol (no epochs, no hazard pointers) — safe because slots are
//! independent once claimed.
//!
//! Two extensions matter for the scheduler hot path (§III-C batching):
//!
//! * [`Injector::push_batch`] claims a *range* of slots with one CAS, so
//!   releasing `k` successors costs one atomic RMW instead of `k` lock
//!   round-trips.
//! * [`Injector::pop_batch`] symmetrically claims a range on the consumer
//!   side, letting a thief refill its local deque in one operation
//!   (analogous to crossbeam's `steal_batch_and_pop`).
//!
//! `T: Copy` (work items are packed `u64` tokens), which keeps slot reads
//! trivially safe: a value is bit-copied out exactly once because each
//! slot index is claimed by exactly one consumer.

use crate::atomic::{fence, AtomicPtr, AtomicUsize, Ordering};
use crate::backoff::Backoff;
use crate::pad::CachePadded;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::ptr;

/// Slots per block (one lap position is sacrificed as the "block full"
/// sentinel, so a lap of 32 index positions carries 31 values).
const BLOCK_CAP: usize = 31;
/// Index positions per block.
const LAP: usize = 32;
/// Indices advance in steps of `1 << SHIFT`; the low bit is `HAS_NEXT`.
const SHIFT: usize = 1;
/// Set on `head.index` when the head block is known not to be the tail
/// block, letting consumers skip the emptiness probe.
const HAS_NEXT: usize = 1;

/// Slot state bit: a value has been written.
const WRITE: usize = 1;
/// Slot state bit: the value has been read.
const READ: usize = 2;
/// Slot state bit: block destruction reached this slot before its reader.
const DESTROY: usize = 4;

struct Slot<T> {
    value: UnsafeCell<MaybeUninit<T>>,
    state: AtomicUsize,
}

impl<T> Slot<T> {
    /// Spins until the producer that claimed this slot finishes writing.
    fn wait_write(&self) {
        let mut backoff = Backoff::new();
        while self.state.load(Ordering::Acquire) & WRITE == 0 {
            backoff.snooze();
        }
    }
}

struct Block<T> {
    next: AtomicPtr<Block<T>>,
    slots: [Slot<T>; BLOCK_CAP],
}

impl<T> Block<T> {
    fn new() -> Box<Self> {
        // SAFETY: an all-zero Block is valid — null `next`, zeroed slot
        // states, and uninitialized (MaybeUninit) values.
        unsafe { Box::new(MaybeUninit::<Block<T>>::zeroed().assume_init()) }
    }

    /// Spins until the next block is installed by the producer that
    /// claimed this block's final slot.
    fn wait_next(&self) -> *mut Block<T> {
        let mut backoff = Backoff::new();
        loop {
            let next = self.next.load(Ordering::Acquire);
            if !next.is_null() {
                return next;
            }
            backoff.snooze();
        }
    }

    /// Frees the block once every slot in `start..` has been read.
    ///
    /// Walks the slots setting `DESTROY`; if a slot's reader has not
    /// finished (`READ` unset), responsibility transfers to that reader,
    /// which re-enters here from its own offset. The final slot needs no
    /// mark: its reader is the one that initiates destruction.
    ///
    /// # Safety
    /// `this` must point to a live block no producer will touch again, and
    /// each `(block, start)` pair is reached by exactly one thread under
    /// the hand-off protocol, so the `Box::from_raw` runs exactly once.
    unsafe fn destroy(this: *mut Block<T>, start: usize) {
        for i in start..BLOCK_CAP - 1 {
            let slot = (*this).slots.get_unchecked(i);
            if slot.state.load(Ordering::Acquire) & READ == 0
                && slot.state.fetch_or(DESTROY, Ordering::AcqRel) & READ == 0
            {
                // The reader of slot `i` will continue the destruction.
                return;
            }
        }
        drop(Box::from_raw(this));
    }
}

struct Position<T> {
    index: AtomicUsize,
    block: AtomicPtr<Block<T>>,
}

/// A lock-free unbounded MPMC queue with single-CAS batch operations.
pub struct Injector<T: Copy> {
    head: CachePadded<Position<T>>,
    tail: CachePadded<Position<T>>,
}

// SAFETY: values cross threads only through slots whose WRITE/READ state
// bits form acquire/release handshakes, and each slot index is claimed by
// exactly one producer and one consumer; `T: Send` is all that's required.
unsafe impl<T: Copy + Send> Send for Injector<T> {}
// SAFETY: as above — all shared mutation goes through atomics and
// uniquely-claimed slots.
unsafe impl<T: Copy + Send> Sync for Injector<T> {}

impl<T: Copy> Default for Injector<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> Injector<T> {
    /// Creates an empty injector. The first block is allocated lazily on
    /// first push.
    pub fn new() -> Self {
        Self {
            head: CachePadded::new(Position {
                index: AtomicUsize::new(0),
                block: AtomicPtr::new(ptr::null_mut()),
            }),
            tail: CachePadded::new(Position {
                index: AtomicUsize::new(0),
                block: AtomicPtr::new(ptr::null_mut()),
            }),
        }
    }

    /// Pushes one value.
    pub fn push(&self, value: T) {
        self.push_batch(&[value]);
    }

    /// Pushes a slice of values, claiming each block-contiguous range of
    /// tail slots with a single CAS. An empty slice is a no-op.
    pub fn push_batch(&self, values: &[T]) {
        let mut remaining = values;
        while !remaining.is_empty() {
            let n = self.push_range(remaining);
            remaining = &remaining[n..];
        }
    }

    /// Claims up to `values.len()` slots in the current tail block and
    /// writes them; returns how many were written (at least 1).
    fn push_range(&self, values: &[T]) -> usize {
        let mut backoff = Backoff::new();
        let mut tail = self.tail.index.load(Ordering::Acquire);
        let mut block = self.tail.block.load(Ordering::Acquire);
        let mut next_block = None;

        loop {
            let offset = (tail >> SHIFT) % LAP;
            if offset == BLOCK_CAP {
                // Another producer claimed the final slot and is installing
                // the next block.
                backoff.snooze();
                tail = self.tail.index.load(Ordering::Acquire);
                block = self.tail.block.load(Ordering::Acquire);
                continue;
            }

            let n = values.len().min(BLOCK_CAP - offset);

            // Pre-allocate the next block if this claim reaches the end of
            // the current one.
            if offset + n == BLOCK_CAP && next_block.is_none() {
                next_block = Some(Block::<T>::new());
            }

            // First-ever push installs the first block.
            if block.is_null() {
                let new = Box::into_raw(Block::<T>::new());
                match self.tail.block.compare_exchange(
                    block,
                    new,
                    Ordering::Release,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        self.head.block.store(new, Ordering::Release);
                        block = new;
                    }
                    Err(cur) => {
                        // Lost the race; reuse the allocation as a next
                        // block candidate and retry.
                        // SAFETY: `new` came from `Box::into_raw` above and
                        // the failed CAS means no other thread saw it.
                        next_block = Some(unsafe { Box::from_raw(new) });
                        tail = self.tail.index.load(Ordering::Acquire);
                        block = cur;
                        continue;
                    }
                }
            }

            let new_tail = tail + (n << SHIFT);
            match self.tail.index.compare_exchange_weak(
                tail,
                new_tail,
                Ordering::SeqCst,
                Ordering::Acquire,
            ) {
                // SAFETY: the successful CAS hands this thread exclusive
                // write ownership of slots [offset, offset + n) in `block`,
                // which stays alive until its final slot is read.
                Ok(_) => unsafe {
                    // Claimed slots [offset, offset + n). If the claim
                    // covers the final slot, install the next block before
                    // writing so stalled producers/consumers can proceed.
                    if offset + n == BLOCK_CAP {
                        let next = Box::into_raw(next_block.take().unwrap());
                        let next_index = new_tail.wrapping_add(1 << SHIFT);
                        self.tail.block.store(next, Ordering::Release);
                        self.tail.index.store(next_index, Ordering::Release);
                        (*block).next.store(next, Ordering::Release);
                    }
                    for (i, v) in values[..n].iter().enumerate() {
                        let slot = (*block).slots.get_unchecked(offset + i);
                        slot.value.get().write(MaybeUninit::new(*v));
                        slot.state.fetch_or(WRITE, Ordering::Release);
                    }
                    return n;
                },
                Err(t) => {
                    tail = t;
                    block = self.tail.block.load(Ordering::Acquire);
                    backoff.snooze();
                }
            }
        }
    }

    /// Pops one value, or `None` if the queue is observed empty.
    pub fn pop(&self) -> Option<T> {
        let mut out = None;
        self.pop_batch(1, |v| out = Some(v));
        out
    }

    /// Pops up to `max` values in one head-index CAS, feeding each to
    /// `sink` in FIFO order. Returns how many were popped (0 if empty).
    ///
    /// A thief uses this to refill its local deque in a single contended
    /// operation instead of `max` round-trips.
    pub fn pop_batch(&self, max: usize, mut sink: impl FnMut(T)) -> usize {
        if max == 0 {
            return 0;
        }
        let mut backoff = Backoff::new();
        let mut head = self.head.index.load(Ordering::Acquire);
        let mut block = self.head.block.load(Ordering::Acquire);

        loop {
            let offset = (head >> SHIFT) % LAP;
            if offset == BLOCK_CAP {
                // A consumer claimed the final slot and is installing the
                // next head block.
                backoff.snooze();
                head = self.head.index.load(Ordering::Acquire);
                block = self.head.block.load(Ordering::Acquire);
                continue;
            }

            let mut n = max.min(BLOCK_CAP - offset);
            let mut new_head = head + (n << SHIFT);

            if new_head & HAS_NEXT == 0 {
                // Head block might also be the tail block: probe the tail
                // to bound the claim (and detect emptiness).
                fence(Ordering::SeqCst);
                let tail = self.tail.index.load(Ordering::Relaxed);

                if head >> SHIFT == tail >> SHIFT {
                    return 0;
                }

                if (head >> SHIFT) / LAP == (tail >> SHIFT) / LAP {
                    // Same block: only slots below the tail offset exist.
                    n = n.min((tail >> SHIFT) % LAP - offset);
                    new_head = head + (n << SHIFT);
                } else {
                    // Tail has moved on; the rest of this block is fully
                    // claimed by producers. Remember that across retries.
                    new_head |= HAS_NEXT;
                }
            }

            if block.is_null() {
                // Non-empty but the first block is still being installed.
                backoff.snooze();
                head = self.head.index.load(Ordering::Acquire);
                block = self.head.block.load(Ordering::Acquire);
                continue;
            }

            match self.head.index.compare_exchange_weak(
                head,
                new_head,
                Ordering::SeqCst,
                Ordering::Acquire,
            ) {
                // SAFETY: the successful CAS hands this thread exclusive
                // read ownership of slots [offset, offset + n); each slot
                // is read only after its producer's WRITE release-store,
                // and the destroy hand-off frees the block exactly once.
                Ok(_) => unsafe {
                    // Claimed slots [offset, offset + n). If the claim
                    // covers the final slot, advance the head block first
                    // so other consumers stop spinning on offset 31.
                    if offset + n == BLOCK_CAP {
                        let next = (*block).wait_next();
                        let mut next_index = (new_head & !HAS_NEXT).wrapping_add(1 << SHIFT);
                        if !(*next).next.load(Ordering::Relaxed).is_null() {
                            next_index |= HAS_NEXT;
                        }
                        self.head.block.store(next, Ordering::Release);
                        self.head.index.store(next_index, Ordering::Release);
                    }
                    for i in 0..n {
                        let o = offset + i;
                        let slot = (*block).slots.get_unchecked(o);
                        slot.wait_write();
                        let value = slot.value.get().read().assume_init();
                        if o + 1 == BLOCK_CAP {
                            // Reader of the final slot initiates block
                            // destruction.
                            Block::destroy(block, 0);
                        } else if slot.state.fetch_or(READ, Ordering::AcqRel) & DESTROY != 0 {
                            // Destruction already reached this slot; we
                            // are responsible for continuing it.
                            Block::destroy(block, o + 1);
                        }
                        sink(value);
                    }
                    return n;
                },
                Err(h) => {
                    head = h;
                    block = self.head.block.load(Ordering::Acquire);
                    backoff.snooze();
                }
            }
        }
    }

    /// True if the queue is observed empty (racy; callers re-check via the
    /// notifier's two-phase wait protocol before sleeping).
    pub fn is_empty(&self) -> bool {
        let head = self.head.index.load(Ordering::SeqCst);
        let tail = self.tail.index.load(Ordering::SeqCst);
        head >> SHIFT == tail >> SHIFT
    }

    /// Number of values in the queue (consistent snapshot; diagnostic).
    pub fn len(&self) -> usize {
        loop {
            let mut tail = self.tail.index.load(Ordering::SeqCst);
            let mut head = self.head.index.load(Ordering::SeqCst);
            // Retry if the tail moved while reading the head.
            if self.tail.index.load(Ordering::SeqCst) == tail {
                tail &= !((1 << SHIFT) - 1);
                head &= !((1 << SHIFT) - 1);
                // Indices at the block-full sentinel belong to the next lap.
                if (tail >> SHIFT) & (LAP - 1) == LAP - 1 {
                    tail = tail.wrapping_add(1 << SHIFT);
                }
                if (head >> SHIFT) & (LAP - 1) == LAP - 1 {
                    head = head.wrapping_add(1 << SHIFT);
                }
                let lap = (head >> SHIFT) / LAP;
                tail = tail.wrapping_sub((lap * LAP) << SHIFT);
                head = head.wrapping_sub((lap * LAP) << SHIFT);
                let tail = tail >> SHIFT;
                let head = head >> SHIFT;
                // One position per lap is the sentinel, not a value.
                return tail - head - tail / LAP;
            }
        }
    }
}

impl<T: Copy> Drop for Injector<T> {
    fn drop(&mut self) {
        // Exclusive access: free the remaining block chain. Values are
        // `Copy`, so only the block boxes need reclaiming.
        let mut block = *self.head.block.get_mut();
        while !block.is_null() {
            // SAFETY: `&mut self` means no concurrent access; every block
            // reachable from head is a live `Box::into_raw` allocation not
            // yet reclaimed by the destroy hand-off.
            let next = unsafe { (*block).next.load(Ordering::Relaxed) };
            // SAFETY: as above; each block in the chain is freed once.
            drop(unsafe { Box::from_raw(block) });
            block = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn fifo_within_single_block() {
        let q = Injector::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        for i in 0..10u64 {
            q.push(i);
        }
        assert_eq!(q.len(), 10);
        for i in 0..10u64 {
            assert_eq!(q.pop(), Some(i));
        }
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_across_many_blocks() {
        let q = Injector::new();
        let n = 10 * BLOCK_CAP + 7;
        for i in 0..n {
            q.push(i as u64);
        }
        assert_eq!(q.len(), n);
        for i in 0..n {
            assert_eq!(q.pop(), Some(i as u64));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn batch_push_batch_pop_preserve_order() {
        let q = Injector::new();
        let items: Vec<u64> = (0..200).collect();
        q.push_batch(&items);
        assert_eq!(q.len(), 200);
        let mut got = Vec::new();
        while q.pop_batch(17, |v| got.push(v)) > 0 {}
        assert_eq!(got, items);
    }

    #[test]
    fn pop_batch_bounded_by_tail_in_same_block() {
        let q = Injector::new();
        q.push_batch(&[1u64, 2, 3]);
        let mut got = Vec::new();
        // Ask for more than is available.
        let n = q.pop_batch(100, |v| got.push(v));
        assert_eq!(n, 3);
        assert_eq!(got, vec![1, 2, 3]);
        assert_eq!(q.pop_batch(100, |_| panic!("empty")), 0);
    }

    #[test]
    fn interleaved_push_pop_never_duplicates() {
        let q = Injector::new();
        let mut next = 0u64;
        let mut expect = 0u64;
        for round in 0..100 {
            let k = (round % 7) + 1;
            let batch: Vec<u64> = (0..k).map(|i| next + i).collect();
            next += k;
            q.push_batch(&batch);
            let take = (round % 5) + 1;
            q.pop_batch(take as usize, |v| {
                assert_eq!(v, expect);
                expect += 1;
            });
        }
        while let Some(v) = q.pop() {
            assert_eq!(v, expect);
            expect += 1;
        }
        assert_eq!(expect, next);
    }

    #[test]
    fn concurrent_producers_consumers_deliver_exactly_once() {
        const PRODUCERS: u64 = 3;
        const CONSUMERS: usize = 3;
        const PER: u64 = 20_000;
        let q = Arc::new(Injector::new());
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut i = 0;
                    while i < PER {
                        // Mix singles and batches.
                        if i % 3 == 0 {
                            let hi = (i + 5).min(PER);
                            let batch: Vec<u64> = (i..hi).map(|j| p * PER + j).collect();
                            q.push_batch(&batch);
                            i = hi;
                        } else {
                            q.push(p * PER + i);
                            i += 1;
                        }
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|c| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    let mut dry = 0;
                    while dry < 1000 {
                        let before = got.len();
                        if c % 2 == 0 {
                            q.pop_batch(8, |v| got.push(v));
                        } else if let Some(v) = q.pop() {
                            got.push(v);
                        }
                        if got.len() == before {
                            dry += 1;
                            thread::yield_now();
                        } else {
                            dry = 0;
                        }
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let mut all = Vec::new();
        for c in consumers {
            all.extend(c.join().unwrap());
        }
        // Drain any leftovers the consumers gave up on.
        while let Some(v) = q.pop() {
            all.push(v);
        }
        assert_eq!(all.len() as u64, PRODUCERS * PER);
        let set: HashSet<u64> = all.iter().copied().collect();
        assert_eq!(set.len() as u64, PRODUCERS * PER, "duplicate delivery");
    }

    #[test]
    fn drop_frees_partially_consumed_queue() {
        let q = Injector::new();
        for i in 0..(3 * BLOCK_CAP as u64) {
            q.push(i);
        }
        for _ in 0..BLOCK_CAP {
            q.pop().unwrap();
        }
        drop(q); // must not leak or double-free (validated under the test allocator)
    }
}
