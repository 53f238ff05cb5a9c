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
}
