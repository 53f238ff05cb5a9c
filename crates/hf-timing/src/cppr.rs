//! Common path pessimism removal (CPPR).
//!
//! Under on-chip variation a timing check assumes the launch clock is
//! *late* and the capture clock is *early*. Where the two clock paths
//! share a common prefix through the clock tree, that pessimism is
//! physically impossible — the same buffer cannot be simultaneously fast
//! and slow — and must be credited back (paper refs \[29\]\[30\]\[31\]). This
//! module builds a synthetic balanced clock tree over path endpoints and
//! computes per-path CPPR credits.

use crate::netlist::Circuit;
use crate::paths::TimingPath;
use crate::views::View;

/// A complete binary clock tree of `levels` levels. Leaves are numbered
/// `0..2^levels`; every path endpoint (launch/capture point) maps to a
/// leaf. Each tree segment has a nominal delay and an early/late spread
/// controlled by the view's OCV factor.
#[derive(Debug, Clone)]
pub struct ClockTree {
    /// Tree depth (segments from root to a leaf).
    pub(crate) levels: u32,
    /// Nominal delay per tree segment (ns).
    pub(crate) seg_delay: f32,
    /// Leaf assignment per gate id (only endpoints are mapped).
    leaf_of: Vec<u32>,
}

impl ClockTree {
    /// Builds a clock tree over the circuit's primary inputs (launch
    /// points) and outputs (capture points). Endpoints are assigned
    /// leaves round-robin, so nearby gates share deep common prefixes.
    pub fn build(c: &Circuit, seg_delay: f32) -> ClockTree {
        let endpoints = c.primary_inputs.len() + c.primary_outputs.len();
        let levels = (endpoints.max(2) as f64).log2().ceil() as u32;
        let mut leaf_of = vec![u32::MAX; c.num_gates()];
        for (i, &g) in c
            .primary_inputs
            .iter()
            .chain(c.primary_outputs.iter())
            .enumerate()
        {
            leaf_of[g as usize] = (i as u32) % (1u32 << levels);
        }
        ClockTree {
            levels,
            seg_delay,
            leaf_of,
        }
    }

    /// Leaf index of a mapped endpoint gate.
    pub(crate) fn leaf(&self, gate: u32) -> Option<u32> {
        let l = self.leaf_of[gate as usize];
        (l != u32::MAX).then_some(l)
    }

    /// Number of tree segments shared by the root-to-leaf paths of two
    /// leaves (leading common bits of their leaf indices).
    pub(crate) fn common_depth(&self, a: u32, b: u32) -> u32 {
        // Bits are consumed root-first from the most significant of
        // `levels` bits; the common prefix ends at the first differing bit.
        self.levels - (32 - (a ^ b).leading_zeros()).min(self.levels)
    }

    /// CPPR credit between a launch gate and a capture gate: the
    /// impossible pessimism accumulated along their common clock prefix,
    /// the late-minus-early spread `2 * ocv * seg_delay` per shared segment.
    pub(crate) fn cppr_credit(&self, launch: u32, capture: u32, ocv: f32) -> f32 {
        match (self.leaf(launch), self.leaf(capture)) {
            (Some(a), Some(b)) => self.common_depth(a, b) as f32 * (2.0 * ocv * self.seg_delay),
            _ => 0.0,
        }
    }
}

/// Slack after CPPR credit for each path: `slack + credit(launch,
/// capture)`. Returns the credits applied.
pub(crate) fn apply_cppr(paths: &mut [TimingPath], tree: &ClockTree, view: &View) -> Vec<f32> {
    let ocv = view.corner.ocv;
    paths
        .iter_mut()
        .map(|p| {
            let launch = p.gates[0];
            let capture = *p.gates.last().expect("paths are non-empty");
            let credit = tree.cppr_credit(launch, capture, ocv);
            p.slack += credit;
            credit
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::CircuitConfig;
    use crate::views::{Corner, Mode};

    fn view(ocv: f32) -> View {
        View {
            corner: Corner {
                name: "t".into(),
                delay_scale: 1.0,
                ocv,
            },
            mode: Mode {
                name: "m".into(),
                clock_period: 1.0,
            },
            seed: 0,
        }
    }

    #[test]
    fn common_depth_by_leading_bits() {
        let t = ClockTree {
            levels: 4,
            seg_delay: 0.05,
            leaf_of: vec![],
        };
        assert_eq!(t.common_depth(0b0000, 0b0000), 4);
        assert_eq!(t.common_depth(0b0000, 0b0001), 3);
        assert_eq!(t.common_depth(0b0000, 0b1000), 0);
        assert_eq!(t.common_depth(0b0101, 0b0111), 2);
    }

    #[test]
    fn credit_scales_with_ocv_and_depth() {
        let c = Circuit::synthesize(&CircuitConfig {
            num_gates: 200,
            ..Default::default()
        });
        let t = ClockTree::build(&c, 0.05);
        let a = c.primary_inputs[0];
        // Identical leaves (self-correlation) give maximum credit.
        let full = t.cppr_credit(a, a, 0.1);
        assert!((full - t.levels as f32 * 0.05 * 0.2).abs() < 1e-6);
        // Zero OCV gives zero credit.
        assert_eq!(t.cppr_credit(a, a, 0.0), 0.0);
    }

    #[test]
    fn apply_cppr_never_decreases_slack() {
        let c = Circuit::synthesize(&CircuitConfig {
            num_gates: 400,
            ..Default::default()
        });
        let v = view(0.08);
        let tree = ClockTree::build(&c, 0.04);
        let mut paths = crate::paths::k_critical_paths(&c, &v, 25);
        let before: Vec<f32> = paths.iter().map(|p| p.slack).collect();
        let credits = apply_cppr(&mut paths, &tree, &v);
        assert_eq!(credits.len(), paths.len());
        for ((p, b), cr) in paths.iter().zip(&before).zip(&credits) {
            assert!(*cr >= 0.0);
            assert!((p.slack - (b + cr)).abs() < 1e-6);
        }
    }

    #[test]
    fn unmapped_gate_gets_no_credit() {
        let c = Circuit::synthesize(&CircuitConfig {
            num_gates: 100,
            ..Default::default()
        });
        let t = ClockTree::build(&c, 0.05);
        // A logic gate in the middle is not an endpoint.
        let mid = (c.primary_inputs.len() + 1) as u32;
        assert_eq!(t.leaf(mid), None);
        assert_eq!(t.cppr_credit(mid, c.primary_outputs[0], 0.1), 0.0);
    }
}
