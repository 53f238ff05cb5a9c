//! Events: the synchronization primitive between streams and the host.
//!
//! Mirrors `cudaEvent_t`: an event is *recorded* into a stream
//! ([`crate::Stream::record_event`]); it fires when the stream's engine
//! reaches that point. Other streams can be made to wait on it
//! ([`crate::Stream::wait_event`]); a device engine blocked on it sleeps
//! until the fire wakes it.

use hf_sync::sync::Mutex;
use hf_sync::Notifier;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Debug, Default)]
pub(crate) struct Inner {
    /// Number of times the event has fired. A waiter waits for this to
    /// reach its captured target, so events are safely re-recordable
    /// (CUDA allows re-recording an event).
    fired: AtomicU64,
    /// Number of times the event has been recorded into a stream.
    recorded: AtomicU64,
    /// Wake notifiers of the engines waiting for the next fire.
    pub(crate) wakes: Mutex<Vec<Arc<Notifier>>>,
}

/// A recordable, awaitable completion marker. Cheap to clone (Arc inside).
#[derive(Debug, Clone, Default)]
pub struct Event {
    pub(crate) inner: Arc<Inner>,
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

    /// Called by the engine thread when execution reaches the record op:
    /// counts the firing, then wakes the engines subscribed before it.
    pub(crate) fn fire(&self) {
        self.inner.fired.fetch_add(1, Ordering::SeqCst);
        let wakes = std::mem::take(&mut *self.inner.wakes.lock());
        wakes.iter().for_each(|wake| wake.notify_one());
    }

    /// Number of recordings made so far.
    pub(crate) fn recorded_count(&self) -> u64 {
        self.inner.recorded.load(Ordering::SeqCst)
    }

    /// True once at least `generation` firings have happened. If not, and
    /// given `wake`, the next fire notifies `wake`: checked again after
    /// subscribing, so a fire in between is seen here or wakes `wake`.
    pub(crate) fn reached(&self, generation: u64, wake: Option<&Arc<Notifier>>) -> bool {
        let reached = || self.inner.fired.load(Ordering::SeqCst) >= generation;
        match wake {
            Some(wake) if !reached() => {
                let mut wakes = self.inner.wakes.lock();
                if !wakes.iter().any(|w| Arc::ptr_eq(w, wake)) {
                    wakes.push(Arc::clone(wake));
                }
                drop(wakes);
                reached()
            }
            _ => reached(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_then_fired() {
        let e = Event::new();
        let gen = e.mark_recorded();
        assert!(!e.reached(gen, None));
        e.fire();
        assert!(e.reached(gen, None));
    }

    #[test]
    fn re_recording_works() {
        let e = Event::new();
        e.mark_recorded();
        e.fire();
        let gen2 = e.mark_recorded();
        assert!(!e.reached(gen2, None));
        e.fire();
        assert!(e.reached(gen2, None));
    }
}
