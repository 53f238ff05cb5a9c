//! Virtual machine description.

use hf_gpu::CostModel;

/// How workers relate to GPUs in the simulated scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerMode {
    /// The paper's design: every worker runs every task kind; GPU ops are
    /// scoped to the assigned device through per-worker streams ("we do
    /// not dedicate a worker to manage a target GPU", §III-C).
    Unified,
    /// The baseline of prior systems (StarPU-style, paper refs \[8\], \[19\]):
    /// one worker per GPU runs only that device's tasks; the remaining
    /// workers run only CPU tasks. The A2 ablation.
    DedicatedGpuWorkers,
}

/// A virtual CPU-GPU machine for the discrete-event model.
#[derive(Debug, Clone, Copy)]
pub struct Machine {
    /// CPU worker threads (the paper sweeps 1..40).
    pub(crate) cores: usize,
    /// GPU devices (the paper sweeps 1..4).
    pub gpus: u32,
    /// Device-op cost model (copies, kernel throughput).
    pub cost: CostModel,
    /// Scheduler style.
    pub(crate) mode: SchedulerMode,
    /// Worker-side cost of dispatching one GPU chain, a lone op or a
    /// fused run of them (enqueue + completion-callback bookkeeping). A
    /// chain occupies a worker only this long; its ops run on the device
    /// and release successors on completion, as in the real executor.
    pub dispatch_overhead: hf_gpu::SimDuration,
}

impl Machine {
    /// A unified-scheduler machine with the default cost model.
    pub fn new(cores: usize, gpus: u32) -> Self {
        Self {
            cores: cores.max(1),
            gpus,
            cost: CostModel::default(),
            mode: SchedulerMode::Unified,
            dispatch_overhead: hf_gpu::SimDuration::from_micros(5),
        }
    }

    /// Sets the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Sets the scheduler mode.
    pub fn with_mode(mut self, mode: SchedulerMode) -> Self {
        self.mode = mode;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_cores_clamped() {
        let m = Machine::new(0, 1);
        assert_eq!(m.cores, 1);
        assert_eq!(m.mode, SchedulerMode::Unified);
    }
}
