//! Eventcount-style notifier for the adaptive wake/sleep strategy.
//!
//! Workers that fail to find work repeatedly must eventually sleep, but a
//! sleeping worker must not miss a task pushed concurrently with its
//! decision to sleep. The eventcount protocol solves this with a two-phase
//! wait: the waiter first *prepares* (announcing itself and capturing the
//! current epoch), then re-checks its predicate (is there work?), and only
//! then *commits* the wait. A notifier that bumps the epoch between prepare
//! and commit causes the commit to return immediately.
//!
//! It is the workspace's one way to park a thread. Its four users: the
//! Heteroflow executor's workers, which implement the paper's adaptive
//! strategy with it ("ensure one thief exists as long as an active worker
//! is running a task", §III-C); each `hf-gpu` device engine, woken by an
//! enqueue or by the fire of an event it waits on; the callers of a
//! device's `synchronize*`, woken by a completion; and the `hf-gpu` copy
//! helper and its claimant, woken by each other's hand-off.

use crate::atomic::{AtomicU64, Ordering};
use crate::sync::{Condvar, Mutex};

/// Opaque token returned by [`Notifier::prepare_wait`]; pass it back to
/// [`Notifier::commit_wait`] or [`Notifier::cancel_wait`].
#[derive(Debug, Clone, Copy)]
pub struct WaitToken {
    epoch: u64,
}

#[derive(Debug, Default)]
struct State {
    /// Number of committed (actually sleeping) waiters.
    sleepers: usize,
}

/// A Dekker-style eventcount.
#[derive(Debug, Default)]
pub struct Notifier {
    /// Epoch counter; even the fast path (no sleepers) bumps it so that a
    /// prepared-but-uncommitted waiter observes the notification.
    epoch: AtomicU64,
    /// Number of prepared waiters (may or may not commit).
    waiters: AtomicU64,
    state: Mutex<State>,
    cv: Condvar,
}

impl Notifier {
    /// Creates a notifier with no waiters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Phase 1 of waiting: announce intent and capture the epoch.
    ///
    /// After this call the caller must re-check its wait predicate; if the
    /// predicate turned true, call [`cancel_wait`](Self::cancel_wait),
    /// otherwise [`commit_wait`](Self::commit_wait).
    pub fn prepare_wait(&self) -> WaitToken {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        // SeqCst: the waiter-count increment must be visible to notifiers
        // before we read the epoch (Dekker pattern with notify()).
        let epoch = self.epoch.load(Ordering::SeqCst);
        WaitToken { epoch }
    }

    /// Aborts a prepared wait (the predicate turned true on re-check).
    pub fn cancel_wait(&self, _t: WaitToken) {
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// Phase 2: blocks until a notification arrives that is newer than the
    /// token's epoch. Returns immediately if one already did.
    pub fn commit_wait(&self, t: WaitToken) {
        let mut st = self.state.lock();
        if self.epoch.load(Ordering::SeqCst) != t.epoch {
            // A notification raced in between prepare and commit.
            drop(st);
            self.waiters.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        st.sleepers += 1;
        while self.epoch.load(Ordering::SeqCst) == t.epoch {
            st = self.cv.wait(st);
        }
        st.sleepers -= 1;
        drop(st);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// Wakes at least one waiter (prepared or committed). Cheap when no
    /// one is waiting: a single load, which has to be `SeqCst` — it is the
    /// notifier's half of the Dekker pairing with
    /// [`prepare_wait`](Self::prepare_wait)'s increment-then-load.
    pub fn notify_one(&self) {
        // SeqCst: pair with prepare_wait's increment-then-load.
        if self.waiters.load(Ordering::SeqCst) == 0 {
            return;
        }
        let _st = self.state.lock();
        self.epoch.fetch_add(1, Ordering::SeqCst);
        self.cv.notify_one();
    }

    /// Wakes up to `n` waiters with a single epoch bump and one lock
    /// acquisition — the batched-release path uses this instead of `n`
    /// separate [`notify_one`](Self::notify_one) calls, which would take
    /// the lock and bump the epoch `n` times.
    ///
    /// When `n` covers everyone sleeping, a single `notify_all` is issued
    /// (one futex broadcast beats `n` sequential wakes).
    pub fn notify_n(&self, n: usize) {
        if n == 0 || self.waiters.load(Ordering::SeqCst) == 0 {
            return;
        }
        let st = self.state.lock();
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if n >= st.sleepers {
            self.cv.notify_all();
        } else {
            for _ in 0..n {
                self.cv.notify_one();
            }
        }
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        if self.waiters.load(Ordering::SeqCst) == 0 {
            return;
        }
        let _st = self.state.lock();
        self.epoch.fetch_add(1, Ordering::SeqCst);
        self.cv.notify_all();
    }

    /// Number of prepared waiters (racy; for tests and models that wait
    /// for a thread to park).
    pub fn num_waiters(&self) -> u64 {
        self.waiters.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn cancel_leaves_no_waiters() {
        let n = Notifier::new();
        let t = n.prepare_wait();
        assert_eq!(n.num_waiters(), 1);
        n.cancel_wait(t);
        assert_eq!(n.num_waiters(), 0);
    }

    #[test]
    fn notify_between_prepare_and_commit_is_not_lost() {
        let n = Notifier::new();
        let t = n.prepare_wait();
        n.notify_one();
        // Must return immediately, not deadlock.
        n.commit_wait(t);
        assert_eq!(n.num_waiters(), 0);
    }

    #[test]
    fn sleeping_waiter_is_woken() {
        let n = Arc::new(Notifier::new());
        let woke = Arc::new(AtomicBool::new(false));
        let (n2, w2) = (Arc::clone(&n), Arc::clone(&woke));
        let h = thread::spawn(move || {
            let t = n2.prepare_wait();
            n2.commit_wait(t);
            w2.store(true, Ordering::SeqCst);
        });
        // Give the waiter time to commit, then notify.
        while n.num_waiters() == 0 {
            thread::yield_now();
        }
        thread::sleep(Duration::from_millis(10));
        n.notify_one();
        h.join().unwrap();
        assert!(woke.load(Ordering::SeqCst));
    }

    #[test]
    fn notify_all_wakes_everyone() {
        let n = Arc::new(Notifier::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let n = Arc::clone(&n);
                thread::spawn(move || {
                    let t = n.prepare_wait();
                    n.commit_wait(t);
                })
            })
            .collect();
        while n.num_waiters() < 4 {
            thread::yield_now();
        }
        thread::sleep(Duration::from_millis(10));
        n.notify_all();
        for h in handles {
            h.join().unwrap();
        }
    }

    /// Producer/consumer over a shared flag never deadlocks: the consumer
    /// uses the full prepare / re-check / commit protocol.
    #[test]
    fn no_lost_wakeup_under_racing_producer() {
        for _ in 0..50 {
            let n = Arc::new(Notifier::new());
            let flag = Arc::new(AtomicBool::new(false));
            let (nc, fc) = (Arc::clone(&n), Arc::clone(&flag));
            let consumer = thread::spawn(move || loop {
                if fc.load(Ordering::SeqCst) {
                    break;
                }
                let t = nc.prepare_wait();
                if fc.load(Ordering::SeqCst) {
                    nc.cancel_wait(t);
                    break;
                }
                nc.commit_wait(t);
            });
            flag.store(true, Ordering::SeqCst);
            n.notify_one();
            consumer.join().unwrap();
        }
    }
}
