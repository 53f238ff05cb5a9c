//! Property-based tests for the GPU substrate.

use hf_gpu::buddy::BuddyAllocator;
use hf_gpu::{GpuConfig, GpuRuntime, Stream};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    /// Random interleavings of alloc/free: live allocations never overlap,
    /// and freeing everything restores the pristine single-block state.
    #[test]
    fn buddy_never_overlaps_and_fully_coalesces(
        ops in proptest::collection::vec((any::<bool>(), 1usize..5000), 1..200)
    ) {
        let mut b = BuddyAllocator::new(1 << 16, 64);
        let mut live: Vec<(u64, usize)> = Vec::new();
        for (is_alloc, sz) in ops {
            if is_alloc || live.is_empty() {
                if let Ok(off) = b.alloc(sz) {
                    let len = b.allocation_size(off).unwrap();
                    for &(po, plen) in &live {
                        let disjoint = off + len as u64 <= po || po + plen as u64 <= off;
                        prop_assert!(disjoint, "overlap ({off},{len}) vs ({po},{plen})");
                    }
                    prop_assert!(off as usize + len <= b.capacity());
                    // Naturally aligned to its block size.
                    prop_assert_eq!(off as usize % len, 0);
                    live.push((off, len));
                }
            } else {
                let idx = sz % live.len();
                let (off, _) = live.swap_remove(idx);
                b.free(off).unwrap();
            }
        }
        let in_use: usize = live.iter().map(|&(_, l)| l).sum();
        prop_assert_eq!(b.stats().bytes_in_use, in_use);
        for (off, _) in live {
            b.free(off).unwrap();
        }
        prop_assert!(b.is_pristine(), "did not coalesce back to one block");
    }

    /// Rounded sizes are powers of two >= max(min_block, size).
    #[test]
    fn buddy_rounding_is_power_of_two(sz in 1usize..100_000) {
        let b = BuddyAllocator::new(1 << 20, 128);
        if let Some(r) = b.rounded_size(sz) {
            prop_assert!(r.is_power_of_two());
            prop_assert!(r >= sz);
            prop_assert!(r >= 128);
            prop_assert!(r < 2 * sz.max(128), "rounded more than 2x");
        } else {
            prop_assert!(sz.next_power_of_two() > 1 << 20);
        }
    }

    /// The splitter (and `slice2_mut`/`slice3_mut`, its two- and
    /// three-pointer callers) accepts a pointer list exactly when no two
    /// ranges share a byte and names a truly overlapping pair when it
    /// refuses; the parts alias nothing — what is written through the last
    /// and read through the others round-trips — and each is lent once.
    #[test]
    fn split_accepts_exactly_the_disjoint_lists(
        ranges in proptest::collection::vec((0u64..480, 1u64..33), 2..7),
    ) {
        use hf_gpu::arena::{Arena, DevicePtr};
        use hf_gpu::GpuError;
        let ptrs: Vec<DevicePtr> = ranges
            .iter()
            .map(|&(offset, len)| DevicePtr { device: 0, offset, len, capacity: len })
            .collect();
        let end = |i: usize| ptrs[i].offset + ptrs[i].len;
        let overlaps = |a: usize, b: usize| ptrs[a].offset < end(b) && ptrs[b].offset < end(a);
        let disjoint = |k: usize| (0..k).all(|a| (0..a).all(|b| !overlaps(a, b)));
        let (n, mut arena) = (ptrs.len(), Arena::new(0, 1024));
        let mut view = arena.view();
        // An aliasing pair is reported as that, not as a size mismatch.
        let named = |e| matches!(e, GpuError::Overlap { a, b } if a < b);
        let want = |k| (!disjoint(k)).then_some(true);
        prop_assert_eq!(view.slice2_mut::<u8, u8>(ptrs[0], ptrs[1]).err().map(named), want(2));
        if n > 2 {
            let three = view.slice3_mut::<u8, u8, u8>(ptrs[0], ptrs[1], ptrs[2]);
            prop_assert_eq!(three.err().map(named), want(3));
        }
        for (i, &p) in ptrs.iter().enumerate() {
            view.bytes_mut(p).unwrap().fill(i as u8);
        }
        match view.split(&ptrs) {
            Err(GpuError::Overlap { a, b }) => prop_assert!(a < b && overlaps(a, b), "{a}, {b}"),
            Err(e) => prop_assert!(false, "unexpected {e}"),
            Ok(mut s) => {
                prop_assert!(disjoint(n), "overlap accepted: {ptrs:?}");
                let out = s.write::<u8>(n - 1).unwrap();
                let ins: Vec<&[u8]> = (0..n - 1).map(|i| s.read(i).unwrap()).collect();
                prop_assert_eq!(s.read::<u8>(0).err(), Some(GpuError::Overlap { a: 0, b: 0 }));
                out.fill(0xFF);
                for (i, part) in ins.iter().enumerate() {
                    prop_assert_eq!(part.len() as u64, ranges[i].1);
                    prop_assert!(part.iter().all(|&x| x == i as u8), "part {i} was written to");
                }
            }
        }
        if disjoint(n) {
            prop_assert!(view.bytes(ptrs[n - 1]).unwrap().iter().all(|&x| x == 0xFF));
            // One bad pointer anywhere refuses the whole list: wrong
            // device, null, out of bounds; a length that is no whole
            // number of elements is refused when the part is typed.
            let mut bad = ptrs.clone();
            bad[0].device = 1;
            prop_assert!(matches!(view.split(&bad).err(), Some(GpuError::WrongDevice { .. })));
            bad[0] = DevicePtr::NULL;
            prop_assert!(matches!(view.split(&bad).err(), Some(GpuError::InvalidFree(_))));
            bad[0] = DevicePtr { offset: 1020, len: 8, ..ptrs[0] };
            prop_assert!(matches!(view.split(&bad).err(), Some(GpuError::SizeMismatch { .. })));
            bad[0] = DevicePtr { offset: 1000, len: 7, ..ptrs[0] };
            let mut s = view.split(&bad).unwrap();
            let odd = Some(GpuError::TypeMismatch { bytes: 7, elem: 4 });
            prop_assert_eq!(s.read::<u32>(0).err(), odd);
            // ... and still lent to a corrected retry.
            prop_assert_eq!(s.read::<u8>(0).map(|part| part.len()), Ok(7));
        }
    }

    /// Any sequence of H2D copies followed by D2H reads returns exactly
    /// the bytes written, for random sizes and devices.
    #[test]
    fn stream_copies_round_trip(
        chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..512), 1..8),
        dev_id in 0u32..2,
    ) {
        let rt = GpuRuntime::new(2, GpuConfig::default());
        let dev = rt.device(dev_id).unwrap();
        let s = Stream::new(&dev);
        let mut ptrs = Vec::new();
        for c in &chunks {
            let p = dev.alloc(c.len()).unwrap();
            s.h2d_async(p, c.clone());
            ptrs.push(p);
        }
        let results: Vec<Arc<parking_lot::Mutex<Vec<u8>>>> =
            (0..chunks.len()).map(|_| Arc::new(parking_lot::Mutex::new(Vec::new()))).collect();
        for (p, r) in ptrs.iter().zip(&results) {
            let r = Arc::clone(r);
            s.d2h_with(*p, move |b| r.lock().extend_from_slice(b));
        }
        s.synchronize();
        prop_assert!(dev.take_error().is_none());
        for (c, r) in chunks.iter().zip(&results) {
            prop_assert_eq!(&*r.lock(), c);
        }
        for p in ptrs {
            dev.free(p).unwrap();
        }
        prop_assert!(dev.pool_stats().bytes_in_use == 0);
    }
}

proptest! {
    /// Random interleavings of pool alloc/free across size classes: the
    /// magazine fast path and the buddy slow path together never hand out
    /// overlapping blocks, never leak, and never double-free. After
    /// freeing everything and flushing the magazines the pool is empty.
    #[test]
    fn pool_magazines_never_overlap_or_leak(
        ops in proptest::collection::vec((any::<bool>(), 1usize..3000), 1..300)
    ) {
        let rt = GpuRuntime::new(1, GpuConfig::default());
        let dev = rt.device(0).unwrap();
        let mut live: Vec<hf_gpu::arena::DevicePtr> = Vec::new();
        for (is_alloc, sz) in ops {
            if is_alloc || live.is_empty() {
                if let Ok(p) = dev.alloc(sz) {
                    prop_assert!(p.len as usize == sz);
                    prop_assert!(p.capacity >= p.len);
                    for q in &live {
                        let disjoint = p.offset + p.capacity <= q.offset
                            || q.offset + q.capacity <= p.offset;
                        prop_assert!(disjoint, "overlap {p:?} vs {q:?}");
                    }
                    live.push(p);
                }
            } else {
                let idx = sz % live.len();
                let p = live.swap_remove(idx);
                dev.free(p).unwrap();
            }
        }
        // Reported usage counts exactly the live blocks (magazine-parked
        // blocks are excluded).
        let in_use: usize = live.iter().map(|p| p.capacity as usize).sum();
        prop_assert_eq!(dev.pool_stats().bytes_in_use, in_use);
        for p in live.drain(..) {
            dev.free(p).unwrap();
        }
        dev.trim_pool();
        let s = dev.pool_stats();
        prop_assert_eq!(s.bytes_in_use, 0);
        prop_assert_eq!(s.magazine_cached_bytes, 0);
        prop_assert_eq!(s.allocs, s.frees, "every alloc freed exactly once");
    }
}
