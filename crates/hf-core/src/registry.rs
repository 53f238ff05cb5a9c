//! Work tokens and the slot registry that resolves them.

use crate::topology::Topology;
use hf_sync::atomic::{AtomicPtr, Ordering};
use hf_sync::sync::Mutex;
use std::sync::Arc;

/// A schedulable unit, packed into one integer: the topology's registry
/// slot in the high 32 bits, the node index in the low 32. Tokens are
/// `Copy` and carry no ownership, so pushing work touches no allocator.
pub(crate) type Token = u64;

#[inline]
pub(crate) fn pack(slot: u32, node: usize) -> Token {
    debug_assert!(node <= u32::MAX as usize);
    ((slot as u64) << 32) | node as u64
}

#[inline]
pub(crate) fn unpack(token: Token) -> (u32, usize) {
    ((token >> 32) as u32, (token & 0xFFFF_FFFF) as usize)
}

/// First registry segment size; segment `i` holds `SEG0 << i` slots.
const SEG0: usize = 64;
/// Segment count: `64 * (2^26 - 1)` slots covers every packable id.
const SEGS: usize = 26;

/// Lock-free registry mapping slot ids to in-flight topologies.
///
/// Registration/deregistration (once per submission) take a mutex; token
/// resolution on the execute path is two atomic loads plus a refcount
/// bump. Slots live in lazily-allocated, geometrically-growing segments
/// published through a fixed directory, so resolution never races a
/// reallocation.
///
/// Safety invariant: a slot's strong reference is released only in
/// `release`, which the executor calls after the topology's last round
/// fully drained — at that point no token referencing the slot exists in
/// any deque or the injector, so resolution never observes a freed slot.
pub(crate) struct TopoRegistry {
    /// Directory of segments; entry `i` points at `SEG0 << i` slots.
    segments: [AtomicPtr<AtomicPtr<Topology>>; SEGS],
    alloc: Mutex<RegistryAlloc>,
}

#[derive(Default)]
struct RegistryAlloc {
    free: Vec<u32>,
    next: u32,
}

/// Segment index, slot offset within it, and segment length for a slot id.
#[inline]
fn locate(slot: u32) -> (usize, usize, usize) {
    let x = slot / SEG0 as u32 + 1;
    let seg = (31 - x.leading_zeros()) as usize;
    let start = SEG0 * ((1usize << seg) - 1);
    (seg, slot as usize - start, SEG0 << seg)
}

impl TopoRegistry {
    pub(crate) fn new() -> Self {
        Self {
            segments: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            alloc: Mutex::new(RegistryAlloc::default()),
        }
    }

    /// Assigns a slot to `topo`, stores a strong reference in it, and
    /// records the slot id in `topo.slot`.
    pub(crate) fn register(&self, topo: &Arc<Topology>) -> u32 {
        let mut a = self.alloc.lock();
        let slot = a.free.pop().unwrap_or_else(|| {
            let s = a.next;
            a.next = a.next.checked_add(1).expect("registry slot ids exhausted");
            s
        });
        let (seg, off, len) = locate(slot);
        let mut seg_ptr = self.segments[seg].load(Ordering::Acquire);
        if seg_ptr.is_null() {
            let boxed: Box<[AtomicPtr<Topology>]> = (0..len)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect();
            seg_ptr = Box::into_raw(boxed) as *mut AtomicPtr<Topology>;
            self.segments[seg].store(seg_ptr, Ordering::Release);
        }
        let ptr = Arc::into_raw(Arc::clone(topo)) as *mut Topology;
        // SAFETY: `off < len` by construction and the segment was just
        // published (or already was); only this mutex-holding thread
        // writes a null slot.
        unsafe { (*seg_ptr.add(off)).store(ptr, Ordering::Release) };
        topo.slot.store(slot, Ordering::Release);
        slot
    }

    /// Resolves a token's slot to its topology. Lock-free.
    pub(crate) fn resolve(&self, slot: u32) -> Arc<Topology> {
        let (seg, off, _) = locate(slot);
        let seg_ptr = self.segments[seg].load(Ordering::Acquire);
        debug_assert!(!seg_ptr.is_null(), "token for unregistered segment");
        // SAFETY: tokens only exist between register and release (see
        // the struct invariant), so the segment exists and the slot holds
        // a live strong reference we can borrow a count from.
        unsafe {
            let ptr = (*seg_ptr.add(off)).load(Ordering::Acquire);
            debug_assert!(!ptr.is_null(), "token for unregistered topology");
            Arc::increment_strong_count(ptr);
            Arc::from_raw(ptr)
        }
    }

    /// Releases `topo`'s slot, if it holds one, and recycles the id.
    /// `topo.slot` is reset first: a worker still holding `topo` then never
    /// takes the slot's next owner's tokens for its own (`RunCtx::serves`).
    pub(crate) fn release(&self, topo: &Topology) {
        let slot = topo.slot.swap(u32::MAX, Ordering::AcqRel);
        if slot == u32::MAX {
            return;
        }
        let (seg, off, _) = locate(slot);
        let seg_ptr = self.segments[seg].load(Ordering::Acquire);
        // SAFETY: `slot` was handed out by `register`, which published
        // this segment first, and segments are freed only in `Drop`;
        // `off < len` by `locate`.
        let ptr = unsafe { (*seg_ptr.add(off)).swap(std::ptr::null_mut(), Ordering::AcqRel) };
        if !ptr.is_null() {
            // SAFETY: `ptr` is the `Arc::into_raw` of `register`, and the
            // swap above took it out of the slot, so ownership of the
            // registration count transfers here exactly once.
            unsafe { drop(Arc::from_raw(ptr)) };
        }
        self.alloc.lock().free.push(slot);
    }
}

impl Drop for TopoRegistry {
    fn drop(&mut self) {
        for (i, seg) in self.segments.iter().enumerate() {
            let seg_ptr = seg.load(Ordering::Acquire);
            if seg_ptr.is_null() {
                continue;
            }
            let len = SEG0 << i;
            // SAFETY: reconstructs the Box created in `register`; any
            // still-registered topology (defensive — normally none) drops
            // its strong count with the slots.
            unsafe {
                let slots = Box::from_raw(std::ptr::slice_from_raw_parts_mut(seg_ptr, len));
                for s in slots.iter() {
                    let p = s.load(Ordering::Acquire);
                    if !p.is_null() {
                        drop(Arc::from_raw(p));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_roundtrip() {
        let t = pack(7, 123);
        assert_eq!(unpack(t), (7, 123));
        let t = pack(u32::MAX - 1, u32::MAX as usize);
        assert_eq!(unpack(t), (u32::MAX - 1, u32::MAX as usize));
    }

    #[test]
    fn registry_locate_covers_segments() {
        // First ids of the first three segments, plus their last ids.
        assert_eq!(locate(0), (0, 0, 64));
        assert_eq!(locate(63), (0, 63, 64));
        assert_eq!(locate(64), (1, 0, 128));
        assert_eq!(locate(191), (1, 127, 128));
        assert_eq!(locate(192), (2, 0, 256));
    }
}
