//! Per-device pooled memory allocator.
//!
//! Pull tasks allocate device memory on every execution; the paper
//! amortizes this with a per-GPU pool over a buddy allocator (§III-C).
//! `MemoryPool` is that pool: a buddy allocator fronted by per-size-class
//! *magazine* caches — bounded lock-free free lists (one
//! [`hf_sync::SlotCache`] per buddy order) that absorb the common repeated
//! same-size alloc/free pattern with one compare-exchange and one counter
//! bump, never touching the buddy mutex. Blocks parked in a magazine stay
//! "live" inside the buddy allocator, so their offsets and orders remain
//! consistent; they are flushed back (and coalesced) on memory pressure,
//! on a pool trim, and before pristine checks.

use crate::arena::DevicePtr;
use crate::buddy::BuddyAllocator;
use crate::error::GpuError;
use hf_sync::sync::Mutex;
use hf_sync::SlotCache;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cap on cached blocks per size class. Excess frees fall through to the
/// buddy allocator so one hot class cannot pin the whole arena.
const MAGAZINE_CAP: usize = 64;

/// Snapshot of pool health: the buddy allocator's counters plus the
/// magazine-cache layer in front of it.
///
/// `allocs`/`frees` count *pool-level* operations (magazine hits included);
/// `splits`/`merges` remain buddy-internal. `bytes_in_use` reports bytes
/// held by callers — blocks parked in magazines are counted separately in
/// `magazine_cached_bytes`, so a pool whose allocations were all returned
/// shows `bytes_in_use == 0` even while its magazines are warm.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Successful pool allocations (magazine hits + buddy allocations).
    pub allocs: u64,
    /// Pool frees (into a magazine or back to the buddy).
    pub frees: u64,
    /// Buddy block splits performed.
    pub splits: u64,
    /// Buddy coalesces performed.
    pub merges: u64,
    /// Allocation failures (out of memory after a magazine flush).
    pub failures: u64,
    /// Bytes currently held by callers (rounded block sizes), excluding
    /// blocks parked in magazines.
    pub bytes_in_use: usize,
    /// High-water mark of buddy bytes handed out (includes cached blocks).
    pub peak_bytes: usize,
    /// Allocations served lock-free from a magazine.
    pub magazine_hits: u64,
    /// Allocations that had to take the buddy mutex.
    pub magazine_misses: u64,
    /// Bytes currently parked in magazines awaiting reuse.
    pub magazine_cached_bytes: usize,
}

/// Thread-safe device memory pool: magazines over a buddy allocator.
///
/// The hot path is deliberately thin: a magazine hit costs one slot
/// compare-exchange plus one relaxed counter bump. Derived statistics
/// (total allocs, cached bytes) are computed in [`MemoryPool::stats`]
/// instead of being maintained by hot-path atomics.
pub(crate) struct MemoryPool {
    device: u32,
    buddy: Mutex<BuddyAllocator>,
    /// One magazine per buddy order (index = order).
    magazines: Vec<SlotCache>,
    min_block: usize,
    capacity: usize,
    /// Allocations served lock-free from a magazine.
    hits: AtomicU64,
    /// Allocation attempts that fell through to the buddy mutex.
    misses: AtomicU64,
    /// Pool-level frees (parked or returned to the buddy).
    pool_frees: AtomicU64,
}

impl MemoryPool {
    /// Creates a pool of `capacity` bytes for `device` with the given
    /// minimum block size.
    pub(crate) fn new(device: u32, capacity: usize, min_block: usize) -> Self {
        let buddy = BuddyAllocator::new(capacity, min_block);
        let orders = (capacity / min_block).trailing_zeros() as usize + 1;
        Self {
            device,
            buddy: Mutex::new(buddy),
            magazines: (0..orders).map(|_| SlotCache::new(MAGAZINE_CAP)).collect(),
            min_block,
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            pool_frees: AtomicU64::new(0),
        }
    }

    /// Rounded block size and order for a request, computed without any
    /// lock (mirrors the buddy's internal rounding).
    fn class_for(&self, bytes: usize) -> Option<(usize, usize)> {
        let size = bytes.max(1).max(self.min_block).next_power_of_two();
        if size > self.capacity {
            return None;
        }
        Some((size, (size / self.min_block).trailing_zeros() as usize))
    }

    /// Allocates `bytes` of device memory. The returned pointer's `len` is
    /// the *requested* length; `capacity` is the rounded buddy block the
    /// pool actually reserved.
    pub(crate) fn alloc(&self, bytes: usize) -> Result<DevicePtr, GpuError> {
        let (block, order) = self.class_for(bytes).ok_or(GpuError::OutOfMemory {
            requested: bytes,
            free: 0,
        })?;
        // Fast path: pop a parked block of the right class — no mutex.
        if let Some(offset) = self.magazines[order].try_take() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(DevicePtr {
                device: self.device,
                offset,
                len: bytes as u64,
                capacity: block as u64,
            });
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Bind before matching: a lock temporary in the scrutinee would
        // live across the flush-retry arm and self-deadlock.
        let first = self.buddy.lock().alloc(bytes);
        let offset = match first {
            Ok(o) => o,
            Err(GpuError::OutOfMemory { .. }) => {
                // Pressure: give cached blocks back for coalescing, retry.
                self.flush();
                self.buddy.lock().alloc(bytes)?
            }
            Err(e) => return Err(e),
        };
        Ok(DevicePtr {
            device: self.device,
            offset,
            len: bytes as u64,
            capacity: block as u64,
        })
    }

    /// Returns an allocation to the pool. Same-class re-allocation will
    /// reuse it lock-free; the block only rejoins the buddy allocator when
    /// its magazine is full or the pool is flushed.
    pub(crate) fn free(&self, ptr: DevicePtr) -> Result<(), GpuError> {
        if ptr.device != self.device {
            return Err(GpuError::WrongDevice {
                owner: ptr.device,
                used_on: self.device,
            });
        }
        let class = match self.class_for(ptr.capacity.max(1) as usize) {
            // Accept only pointers whose capacity is exactly a block size
            // this pool could have reserved; anything else goes straight to
            // the buddy, which still detects invalid frees.
            Some((block, order)) if block as u64 == ptr.capacity => Some((block, order)),
            _ => None,
        };
        if let Some((_block, order)) = class {
            if self.magazines[order].try_put(ptr.offset) {
                self.pool_frees.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
        }
        self.pool_frees.fetch_add(1, Ordering::Relaxed);
        self.buddy.lock().free(ptr.offset)
    }

    /// Drains every magazine back into the buddy allocator so blocks can
    /// coalesce. Called on allocation pressure, at topology completion, and
    /// before pristine checks.
    pub(crate) fn flush(&self) {
        let mut buddy = self.buddy.lock();
        for mag in &self.magazines {
            while let Some(offset) = mag.try_take() {
                // Offsets in a magazine are still live in the buddy; an
                // error here would mean pool-internal corruption.
                let _ = buddy.free(offset);
            }
        }
    }

    /// Bytes currently parked across all magazines (approximate while
    /// other threads allocate or free).
    fn cached_bytes(&self) -> usize {
        self.magazines
            .iter()
            .enumerate()
            .map(|(order, mag)| mag.len() * (self.min_block << order))
            .sum()
    }

    /// Current statistics.
    pub(crate) fn stats(&self) -> PoolStats {
        let b = self.buddy.lock().stats();
        let hits = self.hits.load(Ordering::Relaxed);
        let misses = self.misses.load(Ordering::Relaxed);
        let cached = self.cached_bytes();
        PoolStats {
            // Every successful allocation is either a magazine hit or a
            // successful buddy allocation — no hot-path counter needed.
            allocs: hits + b.allocs,
            frees: self.pool_frees.load(Ordering::Relaxed),
            splits: b.splits,
            merges: b.merges,
            failures: b.failures,
            bytes_in_use: b.bytes_in_use.saturating_sub(cached),
            peak_bytes: b.peak_bytes,
            magazine_hits: hits,
            magazine_misses: misses,
            magazine_cached_bytes: cached,
        }
    }

    /// True when no allocation is live and the arena is fully coalesced.
    /// Flushes the magazines first so cached blocks do not count as live.
    #[cfg(test)]
    pub(crate) fn is_pristine(&self) -> bool {
        self.flush();
        self.buddy.lock().is_pristine()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn alloc_carries_device_len_and_capacity() {
        let p = MemoryPool::new(2, 1 << 20, 256);
        let ptr = p.alloc(1000).unwrap();
        assert_eq!(ptr.device, 2);
        assert_eq!(ptr.len, 1000);
        assert_eq!(ptr.capacity, 1024, "capacity is the rounded buddy block");
        p.free(ptr).unwrap();
        assert!(p.is_pristine());
    }

    #[test]
    fn wrong_device_free_rejected() {
        let p = MemoryPool::new(0, 1 << 16, 256);
        let bad = DevicePtr {
            device: 1,
            ..p.alloc(16).unwrap()
        };
        assert!(matches!(p.free(bad), Err(GpuError::WrongDevice { .. })));
    }

    #[test]
    fn concurrent_alloc_free_no_overlap() {
        let p = Arc::new(MemoryPool::new(0, 1 << 22, 256));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let p = Arc::clone(&p);
                thread::spawn(move || {
                    let mut ptrs = Vec::new();
                    for i in 0..200 {
                        ptrs.push(p.alloc(256 + (i % 7) * 100).unwrap());
                        if i % 3 == 0 {
                            p.free(ptrs.swap_remove(0)).unwrap();
                        }
                    }
                    for ptr in ptrs {
                        p.free(ptr).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(p.is_pristine());
        assert_eq!(p.stats().allocs, 800);
    }

    #[test]
    fn magazine_reuses_same_class_without_buddy() {
        let p = MemoryPool::new(0, 1 << 20, 256);
        let a = p.alloc(512).unwrap();
        p.free(a).unwrap();
        let before = p.stats();
        for _ in 0..100 {
            let ptr = p.alloc(500).unwrap(); // same 512-byte class
            assert_eq!(ptr.offset, a.offset, "magazine hands back the parked block");
            p.free(ptr).unwrap();
        }
        let after = p.stats();
        assert_eq!(after.magazine_hits - before.magazine_hits, 100);
        assert_eq!(after.magazine_misses, before.magazine_misses);
        assert!(p.is_pristine());
    }

    #[test]
    fn pressure_flushes_magazines_and_retries() {
        // Arena of 4 KiB, min block 256: park four 1 KiB blocks in the
        // magazine, then ask for the full arena — the pool must flush the
        // cached blocks back, coalesce, and satisfy the request.
        let p = MemoryPool::new(0, 4096, 256);
        let ptrs: Vec<_> = (0..4).map(|_| p.alloc(1024).unwrap()).collect();
        for ptr in ptrs {
            p.free(ptr).unwrap();
        }
        assert!(p.stats().magazine_cached_bytes > 0);
        let big = p.alloc(4096).expect("flush-and-retry must satisfy this");
        p.free(big).unwrap();
        assert!(p.is_pristine());
    }

    #[test]
    fn bytes_in_use_excludes_cached_blocks() {
        let p = MemoryPool::new(0, 1 << 20, 256);
        let ptr = p.alloc(4096).unwrap();
        assert_eq!(p.stats().bytes_in_use, 4096);
        p.free(ptr).unwrap();
        let s = p.stats();
        assert_eq!(s.bytes_in_use, 0, "parked blocks are not caller-held");
        assert_eq!(s.magazine_cached_bytes, 4096);
    }
}
