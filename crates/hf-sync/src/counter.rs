//! Cache-padded sharded counter for low-contention statistics.

use crate::pad::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// A counter sharded across cache lines.
///
/// Writers pick a shard (normally their worker id) and increment it with a
/// relaxed atomic add; readers sum all shards. Used for executor statistics
/// (steal attempts, wasted wakeups) where per-event precision matters but
/// cross-thread ordering does not.
#[derive(Debug)]
pub struct ShardedCounter {
    shards: Box<[CachePadded<AtomicU64>]>,
}

impl ShardedCounter {
    /// Creates a counter with `shards` independent cells, rounded up to a
    /// power of two so that [`add`](Self::add) picks a shard with a mask.
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        Self {
            shards: (0..n)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
        }
    }

    /// Adds `v` to the shard for `id` (wraps modulo the shard count).
    #[inline]
    pub fn add(&self, id: usize, v: u64) {
        self.shards[id & (self.shards.len() - 1)].fetch_add(v, Ordering::Relaxed);
    }

    /// Increments the shard for `id` by one.
    #[inline]
    pub fn incr(&self, id: usize) {
        self.add(id, 1);
    }

    /// Sums all shards. Not linearizable with respect to concurrent
    /// increments; intended for end-of-run statistics.
    pub fn sum(&self) -> u64 {
        self.shards.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }

    /// Resets every shard to zero.
    pub fn reset(&self) {
        for s in self.shards.iter() {
            s.store(0, Ordering::Relaxed);
        }
    }
}

/// A plain (unsharded) event counter for statistics that are incremented
/// from arbitrary threads with no natural shard id — e.g. rounds completed,
/// cache hits on the submission path, or batched injector sprays. Shares
/// the [`ShardedCounter`] read API (`sum`/`reset`) so call sites look
/// uniform.
#[derive(Debug, Default)]
pub struct GlobalCounter(AtomicU64);

impl GlobalCounter {
    /// Creates a zeroed counter.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds `v`.
    #[inline]
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// Increments by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn sum(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn global_counter_counts_and_resets() {
        let c = GlobalCounter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.sum(), 5);
        c.reset();
        assert_eq!(c.sum(), 0);
    }

    #[test]
    fn sums_across_shards() {
        let c = ShardedCounter::new(3); // rounded up to 4
        c.incr(0);
        c.incr(1);
        c.add(2, 10);
        c.incr(6); // wraps to shard 2
        assert_eq!(c.sum(), 13);
        c.reset();
        assert_eq!(c.sum(), 0);
    }

    #[test]
    fn zero_shards_clamped_to_one() {
        let c = ShardedCounter::new(0);
        c.incr(5);
        assert_eq!(c.sum(), 1);
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let c = Arc::new(ShardedCounter::new(8));
        let threads: Vec<_> = (0..4)
            .map(|id| {
                let c = Arc::clone(&c);
                thread::spawn(move || {
                    for _ in 0..1000 {
                        c.incr(id);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.sum(), 4000);
    }
}
