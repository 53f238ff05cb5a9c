//! Chase–Lev work-stealing deque.
//!
//! The owner pushes and pops at the *bottom*; thieves steal from the *top*.
//! This is the queue behind every Heteroflow executor worker (paper §III-C:
//! "the scheduler enters a work-stealing loop where each worker thread
//! iteratively drains out tasks from its local queue and transitions to a
//! thief").
//!
//! The implementation follows the memory-ordering discipline of Lê et al.,
//! *Correct and Efficient Work-Stealing for Weak Memory Models* (PPoPP'13),
//! restricted to `T: Copy` elements. Heteroflow only ever stores node
//! indices in the deque, so `Copy` costs nothing and removes every
//! ownership question from the concurrent paths: a value read by a loser of
//! the top-CAS race is simply never used.

use std::cell::UnsafeCell;
use std::fmt;
use std::mem::MaybeUninit;
use crate::atomic::{fence, AtomicIsize, AtomicPtr, Ordering};
use std::sync::{Arc, Mutex};

const MIN_CAP: usize = 64;

/// Result of a steal attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steal<T> {
    /// The deque was observed empty.
    Empty,
    /// A concurrent operation interfered; the caller may retry.
    Retry,
    /// A value was stolen.
    Success(T),
}

impl<T> Steal<T> {
    /// Returns the stolen value, if any.
    pub fn success(self) -> Option<T> {
        match self {
            Steal::Success(v) => Some(v),
            _ => None,
        }
    }
}

/// Fixed-capacity ring buffer; grown by allocating a bigger one and keeping
/// the old buffer alive until the deque is dropped (so racing thieves can
/// still read from a stale buffer pointer without use-after-free).
struct Buffer<T> {
    cap: usize,
    mask: usize,
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
}

// SAFETY: the `UnsafeCell` slots only hold `T` values; moving the buffer
// between threads is sound whenever `T` itself is `Send`.
unsafe impl<T: Send> Send for Buffer<T> {}
// SAFETY: shared access is governed by the Chase–Lev protocol (owner-only
// writes, top-CAS-gated reads); any racy read is discarded by the loser,
// and `T: Copy` means such a read never observes partially-moved state.
unsafe impl<T: Send> Sync for Buffer<T> {}

impl<T: Copy> Buffer<T> {
    fn new(cap: usize) -> Self {
        debug_assert!(cap.is_power_of_two());
        Self {
            cap,
            mask: cap - 1,
            slots: (0..cap)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
        }
    }

    /// Writes `v` at logical index `i`.
    ///
    /// # Safety
    ///
    /// Caller must be the unique owner of that slot (only the deque owner
    /// writes, and only to slots outside the live `top..bottom` window).
    #[inline]
    unsafe fn write(&self, i: isize, v: T) {
        let slot = &self.slots[(i as usize) & self.mask];
        (*slot.get()).write(v);
    }

    /// Reads the value at logical index `i`.
    ///
    /// # Safety
    ///
    /// `i` must have been initialized by a prior `write`. The read may
    /// race with a writer on a *different* logical index mapping to the
    /// same slot only if the caller already lost the top-CAS; the
    /// returned value is then discarded. `T: Copy` makes the read itself
    /// harmless.
    #[inline]
    unsafe fn read(&self, i: isize) -> T {
        let slot = &self.slots[(i as usize) & self.mask];
        (*slot.get()).assume_init_read()
    }
}

struct Inner<T> {
    /// Next index thieves steal from.
    top: AtomicIsize,
    /// Next index the owner pushes to.
    bottom: AtomicIsize,
    buffer: AtomicPtr<Buffer<T>>,
    /// Buffers replaced by `grow`; freed on drop.
    retired: Mutex<Vec<*mut Buffer<T>>>,
}

// SAFETY: `Inner` owns its buffers through raw pointers; ownership moves
// with the struct, so `Send` needs only `T: Send`.
unsafe impl<T: Send> Send for Inner<T> {}
// SAFETY: concurrent access to the buffer pointers follows the Chase–Lev
// protocol — `grow` retires (never frees) replaced buffers, so a stale
// pointer held by a racing thief always stays dereferenceable until drop.
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // SAFETY: `&mut self` proves no owner or thief handle is alive, so
        // the current buffer and every retired buffer are exclusively ours;
        // each was created by `Box::into_raw` and is freed exactly once.
        unsafe {
            drop(Box::from_raw(self.buffer.load(Ordering::Relaxed)));
            for b in self.retired.lock().unwrap().drain(..) {
                drop(Box::from_raw(b));
            }
        }
    }
}

/// Owner handle of a Chase–Lev deque. Not `Clone`: exactly one thread may
/// push/pop. Create stealer handles with [`StealDeque::stealer`].
pub struct StealDeque<T: Copy + Send> {
    inner: Arc<Inner<T>>,
}

/// Thief handle; cheap to clone and share across threads.
pub struct Stealer<T: Copy + Send> {
    inner: Arc<Inner<T>>,
}

impl<T: Copy + Send> Clone for Stealer<T> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Copy + Send> fmt::Debug for StealDeque<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StealDeque").field("len", &self.len()).finish()
    }
}

impl<T: Copy + Send> fmt::Debug for Stealer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Stealer")
    }
}

impl<T: Copy + Send> Default for StealDeque<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Send> StealDeque<T> {
    /// Creates an empty deque.
    pub fn new() -> Self {
        Self::with_capacity(MIN_CAP)
    }

    /// Creates an empty deque whose first buffer holds `cap` elements
    /// (rounded up to a power of two); it still grows on demand. The
    /// model-checked tests start small so that a handful of pushes reaches
    /// the growth path.
    pub fn with_capacity(cap: usize) -> Self {
        let buf = Box::into_raw(Box::new(Buffer::<T>::new(cap.max(1).next_power_of_two())));
        Self {
            inner: Arc::new(Inner {
                top: AtomicIsize::new(0),
                bottom: AtomicIsize::new(0),
                buffer: AtomicPtr::new(buf),
                retired: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Creates a thief handle.
    pub fn stealer(&self) -> Stealer<T> {
        Stealer {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Number of elements currently visible (approximate under concurrency).
    pub fn len(&self) -> usize {
        let b = self.inner.bottom.load(Ordering::Relaxed);
        let t = self.inner.top.load(Ordering::Relaxed);
        b.saturating_sub(t).max(0) as usize
    }

    /// True when no element is visible.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pushes a value at the bottom (owner only).
    pub fn push(&self, v: T) {
        let inner = &*self.inner;
        let b = inner.bottom.load(Ordering::Relaxed);
        let t = inner.top.load(Ordering::Acquire);
        let mut buf = inner.buffer.load(Ordering::Relaxed);

        // SAFETY: we are the unique owner (StealDeque is not Clone), so
        // `buf` is the live buffer and slot `b` is outside the window
        // thieves may read (`top..bottom` excludes `b` until the release
        // store below publishes it).
        unsafe {
            if b - t >= (*buf).cap as isize {
                buf = self.grow(b, t, buf);
            }
            (*buf).write(b, v);
        }
        // Release the write to thieves that acquire `bottom`.
        inner.bottom.store(b + 1, Ordering::Release);
    }

    /// Grows the buffer to twice the capacity, copying the live window.
    /// Returns the new buffer pointer. The old buffer is retired, not
    /// freed, because a thief may still hold a pointer to it.
    ///
    /// # Safety
    ///
    /// Owner-only: `old` must be the current live buffer and `t..b` its
    /// initialized window.
    unsafe fn grow(&self, b: isize, t: isize, old: *mut Buffer<T>) -> *mut Buffer<T> {
        let new = Box::into_raw(Box::new(Buffer::<T>::new((*old).cap * 2)));
        for i in t..b {
            (*new).write(i, (*old).read(i));
        }
        self.inner.buffer.store(new, Ordering::Release);
        self.inner.retired.lock().unwrap().push(old);
        new
    }

    /// Pops a value from the bottom (owner only, LIFO).
    pub fn pop(&self) -> Option<T> {
        let inner = &*self.inner;
        let b = inner.bottom.load(Ordering::Relaxed) - 1;
        let buf = inner.buffer.load(Ordering::Relaxed);
        inner.bottom.store(b, Ordering::Relaxed);
        // SeqCst fence: order the bottom store before the top load, against
        // the thief's top-CAS / bottom-load pair (classic Chase–Lev race).
        fence(Ordering::SeqCst);
        let t = inner.top.load(Ordering::Relaxed);

        if t > b {
            // Already empty: restore bottom.
            inner.bottom.store(b + 1, Ordering::Relaxed);
            return None;
        }

        // SAFETY: `t <= b` here, so slot `b` is inside the initialized
        // window; we are the owner, so no writer can touch it.
        let v = unsafe { (*buf).read(b) };
        if t == b {
            // Last element: race with thieves via CAS on top.
            let won = inner
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok();
            inner.bottom.store(b + 1, Ordering::Relaxed);
            if won {
                Some(v)
            } else {
                None
            }
        } else {
            Some(v)
        }
    }
}

impl<T: Copy + Send> Stealer<T> {
    /// Attempts to steal one value from the top (FIFO relative to pushes).
    pub fn steal(&self) -> Steal<T> {
        let inner = &*self.inner;
        let t = inner.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = inner.bottom.load(Ordering::Acquire);

        if t >= b {
            return Steal::Empty;
        }

        // Read the value *before* the CAS; if we lose the race the value is
        // discarded (safe because T: Copy).
        let buf = inner.buffer.load(Ordering::Acquire);
        // SAFETY: `t < b` was observed, so slot `t` was initialized; `buf`
        // stays dereferenceable even if the owner grew concurrently (old
        // buffers are retired, not freed), and a lost CAS discards `v`.
        let v = unsafe { (*buf).read(t) };

        if inner
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
        {
            Steal::Success(v)
        } else {
            Steal::Retry
        }
    }

    /// Approximate number of visible elements.
    pub fn len(&self) -> usize {
        let b = self.inner.bottom.load(Ordering::Relaxed);
        let t = self.inner.top.load(Ordering::Relaxed);
        b.saturating_sub(t).max(0) as usize
    }

    /// True when no element is visible.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread;

    #[test]
    fn push_pop_lifo() {
        let d = StealDeque::new();
        for i in 0..10 {
            d.push(i);
        }
        for i in (0..10).rev() {
            assert_eq!(d.pop(), Some(i));
        }
        assert_eq!(d.pop(), None);
    }

    #[test]
    fn steal_fifo() {
        let d = StealDeque::new();
        let s = d.stealer();
        for i in 0..5 {
            d.push(i);
        }
        assert_eq!(s.steal(), Steal::Success(0));
        assert_eq!(s.steal(), Steal::Success(1));
        assert_eq!(d.pop(), Some(4));
        assert_eq!(s.steal(), Steal::Success(2));
    }

    #[test]
    fn steal_empty() {
        let d: StealDeque<u32> = StealDeque::new();
        assert_eq!(d.stealer().steal(), Steal::Empty);
    }

    #[test]
    fn grows_past_min_capacity() {
        let d = StealDeque::new();
        let n = MIN_CAP * 4 + 3;
        for i in 0..n {
            d.push(i);
        }
        assert_eq!(d.len(), n);
        for i in (0..n).rev() {
            assert_eq!(d.pop(), Some(i));
        }
    }

    #[test]
    fn len_tracks_both_ends() {
        let d = StealDeque::new();
        let s = d.stealer();
        for i in 0..8 {
            d.push(i);
        }
        assert_eq!(d.len(), 8);
        d.pop();
        s.steal();
        assert_eq!(d.len(), 6);
        assert_eq!(s.len(), 6);
    }

    /// Every pushed element is received exactly once across the owner and
    /// many thieves — no loss, no duplication.
    #[test]
    fn concurrent_no_loss_no_duplication() {
        const N: usize = 20_000;
        const THIEVES: usize = 4;
        let d = StealDeque::new();
        let stealers: Vec<_> = (0..THIEVES).map(|_| d.stealer()).collect();
        let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));

        let handles: Vec<_> = stealers
            .into_iter()
            .map(|s| {
                let done = std::sync::Arc::clone(&done);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        match s.steal() {
                            Steal::Success(v) => got.push(v),
                            Steal::Retry => {}
                            Steal::Empty => {
                                if done.load(Ordering::Acquire) && s.is_empty() {
                                    break;
                                }
                                thread::yield_now();
                            }
                        }
                    }
                    got
                })
            })
            .collect();

        let mut owner_got = Vec::new();
        for i in 0..N {
            d.push(i);
            if i % 3 == 0 {
                if let Some(v) = d.pop() {
                    owner_got.push(v);
                }
            }
        }
        while let Some(v) = d.pop() {
            owner_got.push(v);
        }
        done.store(true, Ordering::Release);

        let mut all: Vec<usize> = owner_got;
        for h in handles {
            all.extend(h.join().unwrap());
        }
        assert_eq!(all.len(), N, "lost or duplicated elements");
        let set: HashSet<usize> = all.iter().copied().collect();
        assert_eq!(set.len(), N, "duplicated elements");
    }
}
