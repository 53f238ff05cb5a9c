//! The A1 ablation's packing baselines, written over the core's pluggable
//! interface ([`groups`] + [`Placement::from_bins`]) — the core itself
//! knows only the paper's packing.

use hf_core::placement::{device_placement, groups, Placement, PlacementView};
use hf_core::HfError;
use hf_gpu::CostModel;

/// How the A1 ablation assigns kernel/pull groups to GPU bins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Packer {
    /// The paper's default (`hf_core`'s own routine).
    Balanced,
    /// Groups assigned cyclically in group order, ignoring weight.
    RoundRobin,
    /// Uniformly random bin per group (deterministic given the seed).
    Random {
        /// PRNG seed.
        seed: u64,
    },
}

impl Packer {
    /// Places `graph` on `gpus` idle devices. With no device the core
    /// routine answers (`NoGpus`, or nothing to place).
    pub fn place<G: PlacementView + ?Sized>(
        self,
        graph: &G,
        gpus: u32,
        cost: &CostModel,
    ) -> Result<Placement, HfError> {
        if gpus == 0 || self == Packer::Balanced {
            return device_placement(graph, gpus, cost);
        }
        let groups = groups(graph, cost, None);
        // The seed feeds a splitmix64 stream (the draws A1's recorded
        // figures were made with); round-robin ignores it.
        let mut state = match self {
            Packer::Random { seed } => seed.wrapping_add(0x9E3779B97F4A7C15),
            _ => 0,
        };
        let mut draw = || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let bin_of: Vec<u32> = match self {
            Packer::Random { .. } => groups.iter().map(|_| (draw() % gpus as u64) as u32).collect(),
            _ => (0..groups.len() as u32).map(|gi| gi % gpus).collect(),
        };
        Ok(Placement::from_bins(graph, &groups, &bin_of, gpus as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_core::data::HostVec;
    use hf_core::Heteroflow;

    /// Random placement is deterministic for a fixed seed.
    #[test]
    fn random_policy_deterministic() {
        let g = Heteroflow::new("rand");
        let x: HostVec<u8> = HostVec::from_vec(vec![0; 64]);
        for i in 0..8 {
            let p = g.pull(&format!("p{i}"), &x);
            let k = g.kernel(&format!("k{i}"), &[&p], |_, _| {});
            p.precede(&k);
        }
        let f = g.freeze().unwrap();
        let a = Packer::Random { seed: 7 }
            .place(&*f, 4, &CostModel::default())
            .unwrap();
        let b = Packer::Random { seed: 7 }
            .place(&*f, 4, &CostModel::default())
            .unwrap();
        assert_eq!(a.device_of, b.device_of);
    }

    #[test]
    fn round_robin_cycles() {
        let g = Heteroflow::new("rr");
        let x: HostVec<u8> = HostVec::from_vec(vec![0; 64]);
        let mut pulls = Vec::new();
        for i in 0..6 {
            pulls.push(g.pull(&format!("p{i}"), &x));
        }
        let f = g.freeze().unwrap();
        let p = Packer::RoundRobin
            .place(&*f, 3, &CostModel::default())
            .unwrap();
        let devs: Vec<u32> = pulls.iter().map(|t| p.device_of[t.id()].unwrap()).collect();
        assert_eq!(devs, vec![0, 1, 2, 0, 1, 2]);
    }
}
