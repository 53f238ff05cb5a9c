//! Simulation results.

use hf_gpu::SimDuration;
use serde::Serialize;

/// Outcome of one simulated execution.
#[derive(Debug, Clone, Serialize)]
pub struct SimResult {
    /// End-to-end makespan in seconds.
    pub makespan_secs: f64,
    /// Sum of busy time across all workers, in seconds.
    pub cpu_busy_secs: f64,
    /// Busy time per GPU device, in seconds.
    pub(crate) gpu_busy_secs: Vec<f64>,
    /// Tasks executed.
    pub tasks: usize,
    /// `cpu_busy / (makespan * cores)` — average worker utilization.
    pub cpu_utilization: f64,
    /// `sum(gpu_busy) / (makespan * gpus)` — average device utilization.
    pub(crate) gpu_utilization: f64,
    /// Cores simulated.
    pub(crate) cores: usize,
    /// GPUs simulated.
    pub(crate) gpus: u32,
}

impl SimResult {
    pub(crate) fn new(
        makespan: SimDuration,
        cpu_busy: SimDuration,
        gpu_busy: Vec<SimDuration>,
        tasks: usize,
        cores: usize,
        gpus: u32,
    ) -> Self {
        let ms = makespan.as_secs_f64();
        let cb = cpu_busy.as_secs_f64();
        let gb: Vec<f64> = gpu_busy.iter().map(|d| d.as_secs_f64()).collect();
        let gpu_total: f64 = gb.iter().sum();
        Self {
            makespan_secs: ms,
            cpu_busy_secs: cb,
            gpu_busy_secs: gb,
            tasks,
            cpu_utilization: if ms > 0.0 {
                cb / (ms * cores as f64)
            } else {
                0.0
            },
            gpu_utilization: if ms > 0.0 && gpus > 0 {
                gpu_total / (ms * gpus as f64)
            } else {
                0.0
            },
            cores,
            gpus,
        }
    }

    /// Makespan as a [`SimDuration`].
    pub fn makespan(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.makespan_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_math() {
        let r = SimResult::new(
            SimDuration::from_millis(100),
            SimDuration::from_millis(200),
            vec![SimDuration::from_millis(50), SimDuration::from_millis(30)],
            10,
            4,
            2,
        );
        assert!((r.cpu_utilization - 0.5).abs() < 1e-9);
        assert!((r.gpu_utilization - 0.4).abs() < 1e-9);
        assert_eq!(r.tasks, 10);
    }

    #[test]
    fn zero_makespan_is_safe() {
        let r = SimResult::new(SimDuration::ZERO, SimDuration::ZERO, vec![], 0, 1, 0);
        assert_eq!(r.cpu_utilization, 0.0);
        assert_eq!(r.gpu_utilization, 0.0);
    }
}
