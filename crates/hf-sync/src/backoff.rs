//! Exponential backoff for contended spin loops.

#[cfg_attr(feature = "loom", allow(dead_code))]
const SPIN_LIMIT: u32 = 6;
const YIELD_LIMIT: u32 = 10;

/// Exponential backoff helper.
///
/// Starts with busy spinning (`core::hint::spin_loop`), doubling the spin
/// count each step, then transitions to `thread::yield_now` once the spin
/// budget is exhausted. Mirrors the behaviour of
/// `crossbeam_utils::Backoff`, reimplemented here so the deque and the
/// executor have no behavioural dependency on external scheduling choices.
#[derive(Debug, Default)]
pub struct Backoff {
    step: u32,
}

impl Backoff {
    /// Creates a fresh backoff in the spinning state.
    #[inline]
    pub fn new() -> Self {
        Self { step: 0 }
    }

    /// Backs off one step: spins for `2^step` iterations while in the spin
    /// phase, otherwise yields the thread.
    ///
    /// Under the `loom` feature every snooze is a single model-scheduler
    /// yield: the exponential spin would only multiply scheduling points
    /// without exploring any additional behavior.
    #[inline]
    pub fn snooze(&mut self) {
        #[cfg(not(feature = "loom"))]
        if self.step <= SPIN_LIMIT {
            for _ in 0..1u32 << self.step {
                std::hint::spin_loop();
            }
        } else {
            crate::atomic::yield_now();
        }
        #[cfg(feature = "loom")]
        crate::atomic::yield_now();
        if self.step <= YIELD_LIMIT {
            self.step += 1;
        }
    }

    /// True once spinning is no longer productive and the caller should
    /// park on a [`crate::Notifier`] instead.
    #[inline]
    pub fn is_completed(&self) -> bool {
        self.step > YIELD_LIMIT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completes_after_bounded_steps() {
        let mut b = Backoff::new();
        let mut steps = 0;
        while !b.is_completed() {
            b.snooze();
            steps += 1;
            assert!(steps < 64, "backoff never completed");
        }
        assert_eq!(steps, (YIELD_LIMIT + 1) as usize);
    }
}
