//! Events: the synchronization primitive between streams and the host.
//!
//! Mirrors `cudaEvent_t`: an event is *recorded* into a stream
//! ([`crate::Stream::record_event`]); it fires when the stream's engine
//! reaches that point. Other streams can be made to wait on it
//! ([`crate::Stream::wait_event`]), and the host can block on it
//! ([`Event::synchronize`]) — the pattern in the paper's Listing 13.

use hf_sync::sync::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Debug, Default)]
struct Inner {
    /// Number of times the event has fired. A waiter waits for this to
    /// reach its captured target, so events are safely re-recordable
    /// (CUDA allows re-recording an event).
    fired: AtomicU64,
    /// Number of times the event has been recorded into a stream.
    recorded: AtomicU64,
    lock: Mutex<()>,
    cv: Condvar,
}

/// A recordable, awaitable completion marker. Cheap to clone (Arc inside).
#[derive(Debug, Clone, Default)]
pub struct Event {
    inner: Arc<Inner>,
}

impl Event {
    /// Creates an event that has never fired.
    pub fn new() -> Self {
        Self::default()
    }

    /// Called by a stream when the event is enqueued; returns the
    /// generation this recording will fire as.
    pub(crate) fn mark_recorded(&self) -> u64 {
        self.inner.recorded.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Called by the engine thread when execution reaches the record op.
    pub(crate) fn fire(&self) {
        let _g = self.inner.lock.lock();
        self.inner.fired.fetch_add(1, Ordering::SeqCst);
        self.inner.cv.notify_all();
    }

    /// Number of recordings made so far.
    pub(crate) fn recorded_count(&self) -> u64 {
        self.inner.recorded.load(Ordering::SeqCst)
    }

    /// Generation counter of firings so far.
    pub fn generation(&self) -> u64 {
        self.inner.fired.load(Ordering::SeqCst)
    }

    /// True once the most recent recording has fired (or if the event was
    /// never recorded — CUDA's `cudaEventQuery` returns success for an
    /// unrecorded event).
    pub fn is_ready(&self) -> bool {
        self.inner.fired.load(Ordering::SeqCst) >= self.inner.recorded.load(Ordering::SeqCst)
    }

    /// True once at least `generation` firings have happened.
    pub fn reached(&self, generation: u64) -> bool {
        self.inner.fired.load(Ordering::SeqCst) >= generation
    }

    /// Blocks the calling (host) thread until the latest recording fires.
    pub fn synchronize(&self) {
        let target = self.inner.recorded.load(Ordering::SeqCst);
        self.wait_for(target);
    }

    /// Blocks until at least `generation` firings have happened.
    pub fn wait_for(&self, generation: u64) {
        if self.reached(generation) {
            return;
        }
        let mut g = self.inner.lock.lock();
        while !self.reached(generation) {
            g = self.inner.cv.wait(g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn unrecorded_event_is_ready() {
        let e = Event::new();
        assert!(e.is_ready());
        e.synchronize(); // must not block
    }

    #[test]
    fn recorded_then_fired() {
        let e = Event::new();
        let gen = e.mark_recorded();
        assert!(!e.is_ready());
        e.fire();
        assert!(e.is_ready());
        assert!(e.reached(gen));
    }

    #[test]
    fn synchronize_blocks_until_fire() {
        let e = Event::new();
        e.mark_recorded();
        let e2 = e.clone();
        let h = thread::spawn(move || {
            e2.synchronize();
            true
        });
        thread::sleep(Duration::from_millis(20));
        assert!(!h.is_finished(), "synchronize returned before fire");
        e.fire();
        assert!(h.join().unwrap());
    }

    #[test]
    fn re_recording_works() {
        let e = Event::new();
        e.mark_recorded();
        e.fire();
        let gen2 = e.mark_recorded();
        assert!(!e.is_ready());
        assert!(!e.reached(gen2));
        e.fire();
        assert!(e.reached(gen2));
    }
}
