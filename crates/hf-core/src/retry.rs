//! Retry and device-failover policies for the executor.
//!
//! A [`RetryPolicy`] tells the executor what to do when a task body fails:
//! how many attempts a task gets, how long to back off between
//! attempts, and whether a whole-device loss triggers failover (re-placing
//! the lost device's placement groups onto the surviving GPUs) or fails
//! the run.
//!
//! Retries are only attempted for *transient* failures whose effect never
//! happened: injected faults and device allocation exhaustion fire before
//! the operation mutates any state, and a panicking task body is treated
//! as transient as well. Structural errors (missing dependency, cycle,
//! empty task) never retry.

use std::time::Duration;

/// What the executor does when a device is lost mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OnDeviceLoss {
    /// Re-place the lost device's placement groups onto the surviving
    /// GPUs and replay the unfinished part of the round (the default).
    #[default]
    Failover,
    /// Fail the run with the device-loss error.
    Fail,
}

/// Per-task retry budget, backoff, and device-loss behavior.
///
/// The default policy is one attempt (no retries), zero backoff, failover
/// on device loss with a budget of three failovers per submission.
///
/// ```
/// use hf_core::retry::{OnDeviceLoss, RetryPolicy};
/// use std::time::Duration;
///
/// let policy = RetryPolicy::new(3)
///     .backoff(Duration::from_millis(1))
///     .on_device_loss(OnDeviceLoss::Failover)
///     .max_failovers(2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    attempts: u32,
    backoff: Duration,
    on_device_loss: OnDeviceLoss,
    max_failovers: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::new(1)
    }
}

impl RetryPolicy {
    /// A policy giving every task `max_attempts` attempts
    /// (`1` means no retries; `0` is clamped to `1`).
    pub fn new(max_attempts: u32) -> Self {
        Self {
            attempts: max_attempts.max(1),
            backoff: Duration::ZERO,
            on_device_loss: OnDeviceLoss::default(),
            max_failovers: 3,
        }
    }

    /// Base delay between attempts; attempt `n` waits `n * backoff`
    /// (linear, capped at one second). Served inline on the retrying
    /// thread, so keep it small.
    pub fn backoff(mut self, d: Duration) -> Self {
        self.backoff = d;
        self
    }

    /// What a whole-device loss does (default: [`OnDeviceLoss::Failover`]).
    pub fn on_device_loss(mut self, behavior: OnDeviceLoss) -> Self {
        self.on_device_loss = behavior;
        self
    }

    /// Failovers allowed per submission before the run fails with the
    /// loss error (default 3).
    pub fn max_failovers(mut self, n: u32) -> Self {
        self.max_failovers = n;
        self
    }

    /// Attempt budget of every task.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Delay before retrying after `attempt` failed attempts.
    pub(crate) fn backoff_for(&self, attempt: u32) -> Duration {
        (self.backoff * attempt).min(Duration::from_secs(1))
    }

    pub(crate) fn loss_behavior(&self) -> OnDeviceLoss {
        self.on_device_loss
    }

    pub(crate) fn failover_budget(&self) -> u32 {
        self.max_failovers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_single_attempt_failover() {
        let p = RetryPolicy::default();
        assert_eq!(p.attempts(), 1);
        assert_eq!(p.loss_behavior(), OnDeviceLoss::Failover);
        assert_eq!(p.failover_budget(), 3);
        assert_eq!(p.backoff_for(5), Duration::ZERO);
    }

    #[test]
    fn backoff_is_linear_and_capped() {
        let p = RetryPolicy::new(3).backoff(Duration::from_millis(400));
        assert_eq!(p.backoff_for(1), Duration::from_millis(400));
        assert_eq!(p.backoff_for(2), Duration::from_millis(800));
        assert_eq!(p.backoff_for(9), Duration::from_secs(1));
    }

    #[test]
    fn zero_attempts_clamps_to_one() {
        let p = RetryPolicy::new(0);
        assert_eq!(p.attempts(), 1);
    }
}
