//! Host↔device byte copies, on two cores when they are large.
//!
//! A device's engine thread runs its ops one at a time (crate docs), so a
//! pull or push would move through one core's `memcpy` while
//! another core idles. [`copy_bytes`] splits every copy of at least
//! [`SPLIT`] bytes in two: the calling thread copies the lower half and
//! one persistent helper thread per process, `hf-gpu-copy`, copies the
//! upper half, standing in for the DMA engine that runs a real
//! `cudaMemcpyAsync` beside the caller. The helper is claimed with one CAS
//! and never queued for: a caller that finds it claimed (by another
//! device's engine, say) copies everything itself. Both sides spin for
//! `SPIN` (50 µs) before they park on a [`Notifier`], so the chunks of one
//! pipelined pull reach a helper that is still awake: a hand-off is a cache
//! line, not a wake.

use hf_sync::Notifier;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release, SeqCst};
use std::sync::atomic::{AtomicPtr, AtomicU8, AtomicUsize};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Copies of at least this many bytes are split with the helper.
///
/// A half must outlast the hand-off to an awake helper (a cache line,
/// well under 1 µs); a 32 KiB half copies in about 3-6 µs on one core.
/// At 64 KiB the chunks of a pipelined pull split too (`stream_serving`'s
/// are 64 KiB): 16 MiB in 64 KiB pieces went from 5.5-8.7 to 14.2-15.5
/// GiB/s on 2 cores. A helper woken from a park for every half
/// would not pay at this size: one wake (`hf-sync.notifier_wake_us`,
/// ≈ 7 µs) costs as much as the half.
pub const SPLIT: usize = 1 << 16;

/// How long the helper spins for its next job, and a claimant for the
/// helper's half, before either parks. Sized against a
/// pipelined pull's chunk train on 2 cores: at 50 µs the helper parked
/// two to three times per 256-chunk `stream_serving` epoch, mostly
/// between trains, and 200 µs about once with no steady gain; an idle
/// helper burns at most this much of a core after its last job.
const SPIN: Duration = Duration::from_micros(50);

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

// `Helper::state`, in the order one split copy moves it: a claimant takes
// FREE to CLAIMED, posts the upper half (POSTED), and frees the slot once
// the helper has copied it (DONE).
const FREE: u8 = 0;
const CLAIMED: u8 = 1;
const POSTED: u8 = 2;
const DONE: u8 = 3;

#[derive(Default)]
struct Helper {
    state: AtomicU8,
    /// The posted upper half, stored Relaxed by the claimant and published
    /// by its SeqCst store of `POSTED` to the helper's SeqCst load of it.
    dst: AtomicPtr<u8>,
    src: AtomicPtr<u8>,
    len: AtomicUsize,
    /// Where the helper and the claimant park; each side notifies the
    /// other's after its SeqCst store of the state, which a parking side
    /// re-checks after it prepares, so a wake is never lost.
    helper_wake: Notifier,
    claimant_wake: Notifier,
}

impl Helper {
    /// Takes a free helper. Acquire pairs with the Release that freed it.
    fn claim(&self) -> bool {
        self.state
            .compare_exchange(FREE, CLAIMED, Acquire, Relaxed)
            .is_ok()
    }

    /// Copies the lower half of `src` while the helper copies the upper,
    /// then releases the claim.
    fn split(&self, dst: &mut [u8], src: &[u8]) {
        let base = dst.as_ptr() as usize;
        let mid = ((base + src.len() / 2) & !(LINE - 1)) - base;
        let (lo, hi) = dst.split_at_mut(mid);
        self.dst.store(hi.as_mut_ptr(), Relaxed);
        self.src.store(src[mid..].as_ptr().cast_mut(), Relaxed);
        self.len.store(hi.len(), Relaxed);
        let _pending = Pending(self);
        self.set(POSTED, &self.helper_wake);
        lo.copy_from_slice(&src[..mid]);
    }

    fn serve(&self) {
        loop {
            self.wait_for(&self.helper_wake, |s| s == POSTED);
            let (dst, src) = (self.dst.load(Relaxed), self.src.load(Relaxed));
            // SAFETY: the claimant made the job from two live, disjoint
            // slices of `len` bytes, and waits (`Pending`) until `DONE`
            // before it touches them again.
            unsafe { std::ptr::copy_nonoverlapping(src, dst, self.len.load(Relaxed)) };
            self.set(DONE, &self.claimant_wake);
        }
    }

    /// Stores `state` and wakes the other side if it sleeps on `peer`.
    fn set(&self, state: u8, peer: &Notifier) {
        self.state.store(state, SeqCst);
        peer.notify_one();
    }

    /// Returns once `ready(state)`: spins for [`SPIN`], then parks on `wake`.
    fn wait_for(&self, wake: &Notifier, ready: impl Fn(u8) -> bool) {
        let ready = || ready(self.state.load(SeqCst));
        let start = Instant::now();
        while !ready() {
            if start.elapsed() < SPIN {
                std::hint::spin_loop();
                continue;
            }
            let t = wake.prepare_wait();
            if ready() {
                return wake.cancel_wait(t);
            }
            wake.commit_wait(t);
        }
    }
}

/// Frees the slot when dropped, once the helper has copied the posted job:
/// the borrow of the job's slices ends here at the earliest, however
/// `split` is left.
struct Pending<'h>(&'h Helper);

impl Drop for Pending<'_> {
    fn drop(&mut self) {
        let helper = self.0;
        helper.wait_for(&helper.claimant_wake, |s| s == DONE);
        helper.state.store(FREE, Release);
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

    /// Four threads race for the helper, each sleeping past [`SPIN`] before
    /// every eighth copy: the hot hand-off and the parked wakes both run.
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
                        if i % 8 == t as usize {
                            std::thread::sleep(2 * SPIN);
                        }
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
    /// waiting for it; an idle helper parks, and a job posted to it then
    /// wakes it.
    #[test]
    fn a_claimed_helper_is_not_waited_for_and_a_parked_one_wakes() {
        let Some(helper) = helper() else {
            return; // one core: every copy is inline anyway
        };
        while !helper.claim() {
            std::thread::yield_now(); // another test's copy holds it
        }
        let (src, mut dst) = (pattern(SPLIT + 1, 7), vec![0; SPLIT + 1]);
        copy_bytes(&mut dst, &src); // returns only because it does not wait
        assert!(dst == src);
        let since = Instant::now();
        while helper.helper_wake.num_waiters() == 0 {
            assert!(since.elapsed().as_secs() < 10, "the helper never parked");
            std::thread::sleep(SPIN);
        }
        dst.fill(0);
        helper.dst.store(dst.as_mut_ptr(), Relaxed);
        helper.src.store(src.as_ptr().cast_mut(), Relaxed);
        helper.len.store(src.len(), Relaxed);
        helper.set(POSTED, &helper.helper_wake);
        while helper.state.load(SeqCst) != DONE {
            assert!(
                since.elapsed().as_secs() < 20,
                "the parked helper never woke"
            );
            std::thread::sleep(SPIN);
        }
        helper.state.store(FREE, Release);
        assert!(dst == src);
    }

    #[test]
    #[should_panic(expected = "lengths differ")]
    fn unequal_lengths_panic() {
        copy_bytes(&mut [0; 4], &[1; 3]);
    }
}
