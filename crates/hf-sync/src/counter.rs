//! Cache-padded sharded counter for low-contention statistics.

use crate::pad::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// A counter sharded across cache lines, one writer per shard.
///
/// A worker adds to the shard of its own id and no other thread writes that
/// shard, so an add is a plain load and store, not a locked read-modify-write;
/// readers sum all shards (executor statistics: tasks executed, steal
/// attempts, sleeps). Two threads adding to one shard at once may lose
/// counts, never memory safety.
#[derive(Debug)]
pub struct ShardedCounter {
    shards: Box<[CachePadded<AtomicU64>]>,
}

impl ShardedCounter {
    /// Creates a counter with `shards` independent cells (at least one).
    pub fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards.max(1))
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
        }
    }

    /// Adds `v` to the shard for `id`, whose one writer the caller must be:
    /// a worker passes its own id, below the count given to [`new`](Self::new).
    /// Panics on an id past the shards rather than wrap onto another's.
    #[inline]
    pub fn add(&self, id: usize, v: u64) {
        let shard = &self.shards[id];
        shard.store(shard.load(Ordering::Relaxed) + v, Ordering::Relaxed);
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
}

/// A plain (unsharded) event counter for statistics that are incremented
/// from arbitrary threads with no natural shard id — e.g. rounds completed,
/// cache hits on the submission path, or batched injector sprays: any
/// thread may add, so an add is a relaxed atomic add. Shares the
/// [`ShardedCounter`] read API (`sum`) so call sites look uniform.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn global_counter_counts() {
        let c = GlobalCounter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.sum(), 5);
    }

    #[test]
    fn sums_across_shards() {
        let c = ShardedCounter::new(3);
        c.incr(0);
        c.incr(1);
        c.add(2, 10);
        assert!(std::panic::catch_unwind(|| c.incr(3)).is_err(), "no wrap");
        assert_eq!(c.sum(), 12);
        let one = ShardedCounter::new(0); // clamped to one shard
        one.incr(0);
        assert_eq!(one.sum(), 1);
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
