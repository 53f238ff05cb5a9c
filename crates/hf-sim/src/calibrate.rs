//! Calibration helpers: measure real single-thread execution to obtain
//! host-task costs for the model.

use hf_gpu::SimDuration;
use std::time::Instant;

/// Times one execution of `f` and returns it as a [`SimDuration`].
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, SimDuration) {
    let t0 = Instant::now();
    let r = f();
    let el = t0.elapsed();
    (r, SimDuration::from_nanos(el.as_nanos() as u64))
}

/// Times `f` warm, as the figures calibrate: one untimed call, then five
/// timed calls. Returns the median call's value and time.
pub fn measure_warm<R>(mut f: impl FnMut() -> R) -> (R, SimDuration) {
    f();
    let mut runs: Vec<(R, SimDuration)> = (0..5).map(|_| measure(&mut f)).collect();
    runs.sort_by_key(|run| run.1);
    runs.swap_remove(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_value_and_positive_time() {
        let (v, d) = measure(|| {
            let mut s = 0u64;
            for i in 0..10_000 {
                s = s.wrapping_add(i);
            }
            s
        });
        assert_eq!(v, (0..10_000u64).sum::<u64>());
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn measure_warm_times_five_calls_after_a_warm_up() {
        let mut calls = 0u64;
        let (v, d) = measure_warm(|| {
            calls += 1;
            (0..10_000u64).fold(calls, u64::wrapping_add)
        });
        assert_eq!(calls, 6);
        let timed: Vec<u64> = (2..=6)
            .map(|c| (0..10_000u64).fold(c, u64::wrapping_add))
            .collect();
        assert!(
            timed.contains(&v),
            "the value of a timed call, not the warm-up's"
        );
        assert!(d.as_nanos() > 0);
    }
}
