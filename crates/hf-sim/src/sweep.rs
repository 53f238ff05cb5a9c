//! Parameter sweeps over (cores, gpus) grids — the shape of the paper's
//! Figure 6 and Figure 9 experiments.

use crate::des::simulate;
use crate::machine::{Machine, SchedulerMode};
use crate::result::SimResult;
use hf_core::{GraphInfo, HfError};
use hf_gpu::{CostModel, SimDuration};
use serde::Serialize;

/// One point of a hardware sweep.
#[derive(Debug, Clone, Serialize)]
pub struct SweepPoint {
    /// Cores simulated.
    pub cores: usize,
    /// GPUs simulated.
    pub gpus: u32,
    /// The simulated execution.
    pub result: SimResult,
}

/// Simulates `info` at every `(cores, gpus)` combination.
pub fn sweep(
    info: &GraphInfo,
    cores: &[usize],
    gpus: &[u32],
    cost: CostModel,
    mode: SchedulerMode,
    host_cost: impl Fn(usize) -> SimDuration + Copy,
) -> Result<Vec<SweepPoint>, HfError> {
    let mut out = Vec::with_capacity(cores.len() * gpus.len());
    for &g in gpus {
        for &c in cores {
            let m = Machine::new(c, g).with_cost(cost).with_mode(mode);
            let result = simulate(info, &m, host_cost)?;
            out.push(SweepPoint {
                cores: c,
                gpus: g,
                result,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_core::Heteroflow;

    #[test]
    fn sweep_covers_grid_monotonically() {
        let g = Heteroflow::new("fan");
        for i in 0..32 {
            g.host(&format!("t{i}"), || {});
        }
        let info = g.info().unwrap();
        let pts = sweep(
            &info,
            &[1, 2, 4, 8],
            &[0],
            CostModel::default(),
            SchedulerMode::Unified,
            |_| SimDuration::from_millis(1),
        )
        .unwrap();
        assert_eq!(pts.len(), 4);
        // More cores never increases makespan for independent tasks.
        for w in pts.windows(2) {
            assert!(w[1].result.makespan_secs <= w[0].result.makespan_secs + 1e-12);
        }
    }
}
