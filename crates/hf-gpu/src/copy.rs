//! Host↔device byte copies, on two cores when they are large.
//!
//! A device's engine thread runs its ops one at a time (crate docs), so a
//! pull or push of many MiB would move through one core's `memcpy` while
//! another core idles. [`copy_bytes`] splits every copy of at least
//! [`SPLIT`] bytes in two: the calling thread copies the lower half and
//! one persistent helper thread per process, `hf-gpu-copy`, copies the
//! upper half, standing in for the DMA engine that runs a real
//! `cudaMemcpyAsync` beside the caller. The helper is claimed with one CAS
//! and never queued for: a caller that finds it claimed (by another
//! device's engine, say) copies everything itself.

use hf_sync::sync::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Copies of at least this many bytes are split with the helper.
///
/// A half must outlast one wake of the parked helper for the split to
/// pay: the ladder's `hf-sync.notifier_wake_us` rung (a condvar
/// park/unpark) reads about 7 µs, and a 512 KiB half copies in about
/// 50 µs at one core's 8-10 GiB/s. At this size `xfer_recopy` ran at 2.4x
/// its single-core op rate (DESIGN.md "Data movement").
pub const SPLIT: usize = 1 << 20;

/// The halves are cut at a cache-line boundary of `dst`, so the two cores
/// never write the same line.
const LINE: usize = 64;

/// Copies `src` into `dst`, which must have the same length (as
/// `copy_from_slice`, which is what a copy below [`SPLIT`] is). A larger
/// copy is split with the helper when it is free.
pub fn copy_bytes(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "copy_bytes: lengths differ");
    if src.len() >= SPLIT {
        if let Some(helper) = helper().filter(|h| h.claim()) {
            return helper.split(dst, src);
        }
    }
    dst.copy_from_slice(src);
}

/// The helper, started by the first call; `None` on a one-core host or
/// when the thread cannot be spawned.
fn helper() -> Option<&'static Helper> {
    static HELPER: OnceLock<Option<&'static Helper>> = OnceLock::new();
    *HELPER.get_or_init(|| {
        if std::thread::available_parallelism().map_or(true, |n| n.get() < 2) {
            return None;
        }
        let helper: &'static Helper = Box::leak(Box::default());
        std::thread::Builder::new()
            .name("hf-gpu-copy".into())
            .spawn(move || helper.serve())
            .ok()
            .map(|_| helper)
    })
}

/// The upper half of one split copy, as raw parts.
struct Job {
    dst: *mut u8,
    src: *const u8,
    len: usize,
}

// SAFETY: a `Job` points into slices borrowed by the `copy_bytes` call
// that made it, which does not return, not even by unwinding, until the
// helper has reported the job done (the `Pending` guard); meanwhile that
// caller touches only the other half.
unsafe impl Send for Job {}

#[derive(Default)]
struct Slot {
    /// Posted by the claimant, taken by the helper.
    job: Option<Job>,
    /// Set by the helper when the taken job is copied.
    done: bool,
}

#[derive(Default)]
struct Helper {
    /// Held by the one caller the helper is serving.
    claimed: AtomicBool,
    slot: Mutex<Slot>,
    /// At most one other party ever waits: the helper for a job, or the
    /// claimant for `done`.
    cv: Condvar,
}

impl Helper {
    /// Acquire pairs with the Release in `Pending::drop`; the slot itself
    /// is published under its mutex.
    fn claim(&self) -> bool {
        self.claimed
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Copies the lower half of `src` while the helper copies the upper,
    /// then releases the claim.
    fn split(&self, dst: &mut [u8], src: &[u8]) {
        let base = dst.as_ptr() as usize;
        let mid = ((base + src.len() / 2) & !(LINE - 1)) - base;
        let (lo, hi) = dst.split_at_mut(mid);
        let job = Job {
            dst: hi.as_mut_ptr(),
            src: src[mid..].as_ptr(),
            len: hi.len(),
        };
        *self.slot.lock() = Slot {
            job: Some(job),
            done: false,
        };
        let _pending = Pending(self);
        self.cv.notify_one();
        lo.copy_from_slice(&src[..mid]);
    }

    fn serve(&self) {
        let mut slot = self.slot.lock();
        loop {
            let Some(job) = slot.job.take() else {
                slot = self.cv.wait(slot);
                continue;
            };
            drop(slot);
            // SAFETY: the claimant made `job` from two live, disjoint
            // slices of `len` bytes and waits (`Pending`) until `done`.
            unsafe { std::ptr::copy_nonoverlapping(job.src, job.dst, job.len) };
            slot = self.slot.lock();
            slot.done = true;
            self.cv.notify_one();
        }
    }
}

/// Waits, when dropped, until the helper has copied the posted job, then
/// releases the claim: the borrow of the job's slices ends here at the
/// earliest, however `split` is left.
struct Pending<'h>(&'h Helper);

impl Drop for Pending<'_> {
    fn drop(&mut self) {
        let mut slot = self.0.slot.lock();
        while !slot.done {
            slot = self.0.cv.wait(slot);
        }
        drop(slot);
        self.0.claimed.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` bytes that differ from their neighbours and from `seed`'s.
    fn pattern(n: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn exact_at_and_around_the_split_on_misaligned_slices() {
        for n in [0, 1, SPLIT - 1, SPLIT, SPLIT + 1, 3 * SPLIT + 7] {
            let src = pattern(n + 3, n as u64);
            let mut dst = vec![0xAA; n + 8];
            copy_bytes(&mut dst[5..5 + n], &src[3..]);
            assert!(dst[5..5 + n] == src[3..], "length {n}");
            assert!(dst[..5].iter().chain(&dst[5 + n..]).all(|&b| b == 0xAA));
        }
    }

    #[test]
    fn concurrent_callers_all_exact() {
        let start = std::sync::Arc::new(std::sync::Barrier::new(4));
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let start = std::sync::Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    let src = pattern(SPLIT + (1 << 16), t + 1);
                    let mut rand = pattern(200, t + 100).into_iter().map(usize::from);
                    for i in 0..100 {
                        // Lengths from SPLIT - 16 KiB to SPLIT + 48 KiB, at
                        // odd offsets.
                        let n = SPLIT - (1 << 14) + (rand.next().unwrap() << 8) + i;
                        let off = rand.next().unwrap();
                        let mut dst = vec![0; n];
                        copy_bytes(&mut dst, &src[off..off + n]);
                        assert!(dst == src[off..off + n], "thread {t} copy {i} of {n} bytes");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }

    /// A caller that finds the helper claimed copies alone instead of
    /// waiting for it: with the claim held here, this copy would otherwise
    /// never return.
    #[test]
    fn a_claimed_helper_is_not_waited_for() {
        let Some(helper) = helper() else {
            return; // one core: every copy is inline anyway
        };
        while !helper.claim() {
            std::thread::yield_now(); // another test's copy holds it
        }
        let src = pattern(SPLIT + 1, 7);
        let mut dst = vec![0; SPLIT + 1];
        copy_bytes(&mut dst, &src);
        helper.claimed.store(false, Ordering::Release);
        assert!(dst == src);
    }

    #[test]
    #[should_panic(expected = "lengths differ")]
    fn unequal_lengths_panic() {
        copy_bytes(&mut [0; 4], &[1; 3]);
    }
}
