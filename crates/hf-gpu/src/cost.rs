//! Modeled durations for device operations.
//!
//! Every simulated op reports how long it *would* take on the paper's
//! hardware (RTX 2080-class devices over PCIe 3.0). These durations drive
//! two things: the per-device busy-time counters used in tests/stats, and
//! the calibration inputs to the `hf-sim` discrete-event model that
//! regenerates the paper's scaling figures.

/// Virtual duration in nanoseconds. A plain newtype (not `std::time::
/// Duration`) so the discrete-event simulator can do exact integer math.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Hash)]
pub struct SimDuration(pub u64);

impl SimDuration {
    /// Zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Self(ns)
    }

    /// From microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Self(us * 1_000)
    }

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms * 1_000_000)
    }

    /// From (fractional) seconds.
    pub fn from_secs_f64(s: f64) -> Self {
        Self((s * 1e9).round().max(0.0) as u64)
    }

    /// As fractional seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// As nanoseconds.
    pub const fn as_nanos(&self) -> u64 {
        self.0
    }
}

impl std::ops::Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: Self) -> Self {
        SimDuration(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl std::ops::Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: Self) -> Self {
        SimDuration(self.0 - rhs.0)
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

/// Cost model for device operations, in paper-hardware terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Host-to-device bandwidth in bytes/second (PCIe 3.0 x16 ≈ 12 GB/s
    /// effective).
    pub h2d_bytes_per_sec: f64,
    /// Device-to-host bandwidth in bytes/second.
    pub d2h_bytes_per_sec: f64,
    /// Fixed per-transfer latency (driver + DMA setup).
    pub copy_latency: SimDuration,
    /// Fixed kernel launch latency.
    pub launch_latency: SimDuration,
    /// Device throughput for kernel work, in "work units" per second. A
    /// kernel declares its work in abstract units (e.g. flops or thread
    /// iterations); duration = latency + work / throughput.
    pub kernel_units_per_sec: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            h2d_bytes_per_sec: 12.0e9,
            d2h_bytes_per_sec: 12.0e9,
            copy_latency: SimDuration::from_micros(10),
            launch_latency: SimDuration::from_micros(5),
            kernel_units_per_sec: 1.0e9,
        }
    }
}

impl CostModel {
    /// Modeled duration of a host-to-device copy of `bytes`.
    pub fn h2d(&self, bytes: usize) -> SimDuration {
        self.copy_latency + SimDuration::from_secs_f64(bytes as f64 / self.h2d_bytes_per_sec)
    }

    /// Modeled duration of a device-to-host copy of `bytes`.
    pub fn d2h(&self, bytes: usize) -> SimDuration {
        self.copy_latency + SimDuration::from_secs_f64(bytes as f64 / self.d2h_bytes_per_sec)
    }

    /// Modeled duration of a kernel declaring `work_units` of work.
    pub fn kernel(&self, work_units: f64) -> SimDuration {
        self.launch_latency + SimDuration::from_secs_f64(work_units / self.kernel_units_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_conversions_and_arithmetic() {
        assert_eq!(SimDuration::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimDuration::from_millis(2).as_nanos(), 2_000_000);
        let d = SimDuration::from_secs_f64(1.5);
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-9);
        let a = SimDuration::from_nanos(10);
        let b = SimDuration::from_nanos(5);
        assert_eq!(a + b, SimDuration::from_nanos(15));
        assert_eq!(a - b, SimDuration::from_nanos(5));
        let s: SimDuration = [a, b, b].into_iter().sum();
        assert_eq!(s, SimDuration::from_nanos(20));
    }

    #[test]
    fn copy_cost_scales_with_bytes() {
        let m = CostModel::default();
        let small = m.h2d(1024);
        let big = m.h2d(1024 * 1024 * 100);
        assert!(big > small);
        // 1.2 GB at 12 GB/s ≈ 100 ms.
        let d = m.h2d(1_200_000_000);
        assert!((d.as_secs_f64() - 0.1).abs() < 0.01);
    }

    #[test]
    fn kernel_cost_has_launch_floor() {
        let m = CostModel::default();
        assert!(m.kernel(0.0) >= m.launch_latency);
        assert!(m.kernel(1e9).as_secs_f64() > 0.9);
    }
}
