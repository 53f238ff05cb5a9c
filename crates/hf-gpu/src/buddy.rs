//! Knowlton buddy allocator.
//!
//! The paper's executor "keeps a memory pool for each GPU device to reduce
//! the scheduling overhead of frequent allocations by pull tasks. We
//! implement the famous Buddy allocator algorithm \[22\]" (§III-C). This is
//! that algorithm: power-of-two block sizes, split on demand, coalesce
//! buddies on free (K. C. Knowlton, *A Fast Storage Allocator*, CACM 1965).

use crate::error::GpuError;
use std::collections::{HashMap, HashSet};

/// Statistics maintained by a [`BuddyAllocator`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuddyStats {
    /// Successful allocations.
    pub(crate) allocs: u64,
    /// Frees.
    pub(crate) frees: u64,
    /// Block splits performed.
    pub(crate) splits: u64,
    /// Buddy coalesces performed.
    pub(crate) merges: u64,
    /// Bytes currently handed out (rounded block sizes).
    pub bytes_in_use: usize,
    /// High-water mark of `bytes_in_use`.
    pub(crate) peak_bytes: usize,
    /// Allocation failures (out of memory).
    pub(crate) failures: u64,
}

/// A buddy allocator over the byte range `0..capacity`.
///
/// `capacity` and `min_block` must be powers of two. Order-`k` blocks have
/// size `min_block << k`; the whole arena is the single block of maximum
/// order. All returned offsets are multiples of `min_block` and naturally
/// aligned to their block size.
#[derive(Debug)]
pub struct BuddyAllocator {
    capacity: usize,
    min_block: usize,
    max_order: usize,
    /// Free blocks per order, keyed by offset (set for O(1) buddy lookup).
    free: Vec<HashSet<u64>>,
    /// Live allocations: offset -> order.
    live: HashMap<u64, u8>,
    stats: BuddyStats,
}

impl BuddyAllocator {
    /// Creates an allocator managing `capacity` bytes with the given
    /// minimum block size.
    ///
    /// # Panics
    /// If either argument is not a power of two, or `min_block > capacity`.
    pub fn new(capacity: usize, min_block: usize) -> Self {
        assert!(
            capacity.is_power_of_two(),
            "capacity must be a power of two"
        );
        assert!(
            min_block.is_power_of_two(),
            "min_block must be a power of two"
        );
        assert!(min_block <= capacity, "min_block exceeds capacity");
        let max_order = (capacity / min_block).trailing_zeros() as usize;
        let mut free: Vec<HashSet<u64>> = (0..=max_order).map(|_| HashSet::new()).collect();
        free[max_order].insert(0);
        Self {
            capacity,
            min_block,
            max_order,
            free,
            live: HashMap::new(),
            stats: BuddyStats::default(),
        }
    }

    /// Total managed bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes not currently handed out (may be fragmented across orders).
    pub(crate) fn free_bytes(&self) -> usize {
        self.capacity - self.stats.bytes_in_use
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> BuddyStats {
        self.stats
    }

    fn order_for(&self, size: usize) -> Option<usize> {
        let size = size.max(1).max(self.min_block).next_power_of_two();
        if size > self.capacity {
            return None;
        }
        Some((size / self.min_block).trailing_zeros() as usize)
    }

    fn block_size(&self, order: usize) -> usize {
        self.min_block << order
    }

    /// Allocates at least `size` bytes; returns the byte offset.
    pub fn alloc(&mut self, size: usize) -> Result<u64, GpuError> {
        let want = match self.order_for(size) {
            Some(o) => o,
            None => {
                self.stats.failures += 1;
                return Err(GpuError::OutOfMemory {
                    requested: size,
                    free: self.free_bytes(),
                });
            }
        };
        // Find the smallest order >= want with a free block.
        let mut from = want;
        while from <= self.max_order && self.free[from].is_empty() {
            from += 1;
        }
        if from > self.max_order {
            self.stats.failures += 1;
            return Err(GpuError::OutOfMemory {
                requested: size,
                free: self.free_bytes(),
            });
        }
        // Take one block and split it down to the wanted order.
        let off = *self.free[from].iter().next().expect("non-empty free list");
        self.free[from].remove(&off);
        let mut order = from;
        while order > want {
            order -= 1;
            let buddy = off + self.block_size(order) as u64;
            self.free[order].insert(buddy);
            self.stats.splits += 1;
            // Keep the lower half (`off` unchanged).
        }
        self.live.insert(off, order as u8);
        self.stats.allocs += 1;
        self.stats.bytes_in_use += self.block_size(order);
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.stats.bytes_in_use);
        Ok(off)
    }

    /// Frees the allocation at `offset`, coalescing with free buddies.
    pub fn free(&mut self, offset: u64) -> Result<(), GpuError> {
        let order = self
            .live
            .remove(&offset)
            .ok_or(GpuError::InvalidFree(offset))? as usize;
        self.stats.frees += 1;
        self.stats.bytes_in_use -= self.block_size(order);

        let mut off = offset;
        let mut order = order;
        while order < self.max_order {
            let buddy = off ^ self.block_size(order) as u64;
            if self.free[order].remove(&buddy) {
                off = off.min(buddy);
                order += 1;
                self.stats.merges += 1;
            } else {
                break;
            }
        }
        self.free[order].insert(off);
        Ok(())
    }

    /// True when every byte is free again (fully coalesced back to one
    /// maximal block) — the key buddy invariant after balanced alloc/free.
    pub fn is_pristine(&self) -> bool {
        self.live.is_empty()
            && self.free[self.max_order].len() == 1
            && self.free[..self.max_order].iter().all(|s| s.is_empty())
    }

    /// Size in bytes of the live allocation at `offset`, if any.
    pub fn allocation_size(&self, offset: u64) -> Option<usize> {
        self.live.get(&offset).map(|&o| self.block_size(o as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_single() {
        let mut b = BuddyAllocator::new(1024, 64);
        let off = b.alloc(100).unwrap();
        assert_eq!(off % 128, 0, "aligned to rounded block size");
        assert_eq!(b.allocation_size(off), Some(128));
        b.free(off).unwrap();
        assert!(b.is_pristine());
    }

    #[test]
    fn splits_and_coalesces() {
        let mut b = BuddyAllocator::new(1024, 64);
        let a = b.alloc(64).unwrap();
        let c = b.alloc(64).unwrap();
        assert_ne!(a, c);
        assert!(b.stats().splits > 0);
        b.free(a).unwrap();
        b.free(c).unwrap();
        assert!(b.is_pristine());
        assert!(b.stats().merges >= b.stats().splits);
    }

    #[test]
    fn exhausts_and_recovers() {
        let mut b = BuddyAllocator::new(256, 64);
        let offs: Vec<u64> = (0..4).map(|_| b.alloc(64).unwrap()).collect();
        assert!(matches!(b.alloc(64), Err(GpuError::OutOfMemory { .. })));
        assert_eq!(b.stats().failures, 1);
        for o in offs {
            b.free(o).unwrap();
        }
        assert!(b.is_pristine());
        assert!(b.alloc(256).is_ok());
    }

    #[test]
    fn too_large_rejected_zero_size_min_block_double_free_rejected() {
        let mut b = BuddyAllocator::new(256, 64);
        assert!(b.alloc(512).is_err());
        let o = b.alloc(0).unwrap();
        assert_eq!(b.allocation_size(o), Some(64));
        b.free(o).unwrap();
        assert_eq!(b.free(o), Err(GpuError::InvalidFree(o)));
    }

    #[test]
    fn offsets_never_overlap() {
        let mut b = BuddyAllocator::new(4096, 64);
        let mut spans: Vec<(u64, usize)> = Vec::new();
        for sz in [64, 100, 256, 65, 512, 64, 128] {
            let o = b.alloc(sz).unwrap();
            let len = b.allocation_size(o).unwrap();
            for &(po, plen) in &spans {
                let disjoint = o + len as u64 <= po || po + plen as u64 <= o;
                assert!(disjoint, "overlap: ({o},{len}) vs ({po},{plen})");
            }
            spans.push((o, len));
        }
    }

    #[test]
    fn peak_tracking() {
        let mut b = BuddyAllocator::new(1024, 64);
        let a = b.alloc(512).unwrap();
        let c = b.alloc(256).unwrap();
        b.free(a).unwrap();
        b.free(c).unwrap();
        assert_eq!(b.stats().peak_bytes, 768);
        assert_eq!(b.stats().bytes_in_use, 0);
    }
}
