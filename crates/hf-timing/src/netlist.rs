//! Gate-level circuit model and synthetic benchmark generator.
//!
//! The paper analyzes `netcard` (1.5M gates, 1.5M nets). That proprietary
//! ISPD benchmark is not available here, so [`Circuit::synthesize`]
//! produces circuits with the same structural statistics that matter for
//! the experiment: a deep combinational DAG between registers/IOs with a
//! skewed fanout distribution (most nets drive 1–4 sinks, a few drive
//! many) and realistic logic depth. Sizes are parameterized so the full
//! 1.5M-gate scale is reachable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Logic function of a gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Primary input / register output (path start).
    Input,
    /// Primary output / register input (path end).
    Output,
    /// 2-input NAND.
    Nand,
    /// 2-input NOR.
    Nor,
    /// Inverter.
    Inv,
    /// Buffer.
    Buf,
    /// 2-input AND.
    And,
    /// 2-input OR.
    Or,
    /// 2-input XOR.
    Xor,
}

impl GateKind {
    /// Nominal propagation delay in nanoseconds at the typical corner.
    pub fn base_delay(self) -> f32 {
        match self {
            GateKind::Input | GateKind::Output => 0.0,
            GateKind::Inv => 0.010,
            GateKind::Buf => 0.012,
            GateKind::Nand => 0.015,
            GateKind::Nor => 0.017,
            GateKind::And => 0.020,
            GateKind::Or => 0.022,
            GateKind::Xor => 0.030,
        }
    }
}

/// One gate instance.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// Logic function.
    pub kind: GateKind,
    /// Per-instance delay variation multiplier (process variation),
    /// sampled at synthesis time.
    pub delay_factor: f32,
}

/// Parameters for [`Circuit::synthesize`].
#[derive(Debug, Clone, Copy)]
pub struct CircuitConfig {
    /// Total gates (including IOs). The paper's netcard is 1.5M.
    pub num_gates: usize,
    /// Fraction of gates that are primary inputs (path starts).
    pub input_fraction: f64,
    /// Fraction of gates that are primary outputs (path ends).
    pub output_fraction: f64,
    /// Target mean fanin for logic gates (1..=2 realistic).
    pub mean_fanin: f64,
    /// Locality window: a gate draws fanins from the previous `window`
    /// gates, bounding logic depth like physical locality does.
    pub window: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CircuitConfig {
    fn default() -> Self {
        Self {
            num_gates: 10_000,
            input_fraction: 0.08,
            output_fraction: 0.08,
            mean_fanin: 1.8,
            window: 512,
            seed: 0x5EED,
        }
    }
}

/// A combinational gate-level netlist as a DAG.
#[derive(Debug, Clone)]
pub struct Circuit {
    /// Gates, topologically ordered by construction.
    pub gates: Vec<Gate>,
    /// Fanin edges per gate (driver gate ids).
    pub fanin: Vec<Vec<u32>>,
    /// Fanout edges per gate (sink gate ids).
    pub fanout: Vec<Vec<u32>>,
    /// Primary inputs (no fanin).
    pub primary_inputs: Vec<u32>,
    /// Primary outputs (no fanout).
    pub primary_outputs: Vec<u32>,
    /// Gates grouped by logic level (levelization).
    pub levels: Vec<Vec<u32>>,
}

impl Circuit {
    /// Generates a synthetic circuit per `cfg`. Deterministic for a given
    /// seed.
    pub fn synthesize(cfg: &CircuitConfig) -> Circuit {
        assert!(cfg.num_gates >= 4, "need at least 4 gates");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let n = cfg.num_gates;
        let n_in = ((n as f64 * cfg.input_fraction) as usize).max(2);
        let n_out = ((n as f64 * cfg.output_fraction) as usize).max(2);
        let n_logic = n.saturating_sub(n_in + n_out);

        let mut gates = Vec::with_capacity(n);
        let mut fanin: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut fanout: Vec<Vec<u32>> = vec![Vec::new(); n];

        // 1) Primary inputs.
        for _ in 0..n_in {
            gates.push(Gate {
                kind: GateKind::Input,
                delay_factor: 1.0,
            });
        }

        // 2) Logic gates, each drawing 1-3 fanins from a trailing window
        // (keeps the graph a DAG and bounds depth).
        let logic_kinds = [
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Inv,
            GateKind::Buf,
            GateKind::And,
            GateKind::Or,
            GateKind::Xor,
        ];
        for _ in 0..n_logic {
            let id = gates.len();
            let kind = logic_kinds[rng.gen_range(0..logic_kinds.len())];
            let nf = match kind {
                GateKind::Inv | GateKind::Buf => 1,
                _ => {
                    // Mean around cfg.mean_fanin, clipped to [1, 3].
                    let f = cfg.mean_fanin + rng.gen_range(-0.8..0.8);
                    (f.round() as usize).clamp(1, 3)
                }
            };
            let lo = id.saturating_sub(cfg.window);
            for _ in 0..nf {
                // Skewed driver selection: prefer recent gates (locality)
                // but occasionally reach far back (global nets).
                let src = if rng.gen_bool(0.9) {
                    rng.gen_range(lo..id)
                } else {
                    rng.gen_range(0..id)
                } as u32;
                if !fanin[id].contains(&src) {
                    fanin[id].push(src);
                    fanout[src as usize].push(id as u32);
                }
            }
            gates.push(Gate {
                kind,
                delay_factor: 1.0 + rng.gen_range(-0.1f32..0.1),
            });
        }

        // 3) Primary outputs tap the most recent *logic* region (never
        // another output).
        let logic_end = n_in + n_logic;
        for _ in 0..n_out {
            let id = gates.len();
            let lo = logic_end.saturating_sub(cfg.window.max(8));
            let src = rng.gen_range(lo..logic_end) as u32;
            fanin.resize(id + 1, Vec::new());
            fanout.resize(id + 1, Vec::new());
            fanin[id].push(src);
            fanout[src as usize].push(id as u32);
            gates.push(Gate {
                kind: GateKind::Output,
                delay_factor: 1.0,
            });
        }

        let primary_inputs: Vec<u32> = (0..n_in as u32).collect();
        let primary_outputs: Vec<u32> =
            ((n_in + n_logic) as u32..gates.len() as u32).collect();

        let levels = levelize(&gates, &fanin, &fanout);
        Circuit {
            gates,
            fanin,
            fanout,
            primary_inputs,
            primary_outputs,
            levels,
        }
    }

    /// Number of gates.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Number of (collapsed) nets = edges.
    pub fn num_edges(&self) -> usize {
        self.fanin.iter().map(|f| f.len()).sum()
    }

    /// Maximum logic depth.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }
}

/// Groups gates by logic level (Kahn order).
fn levelize(gates: &[Gate], fanin: &[Vec<u32>], fanout: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let n = gates.len();
    let mut indeg: Vec<usize> = fanin.iter().map(|f| f.len()).collect();
    let mut level_of = vec![0usize; n];
    let mut queue: std::collections::VecDeque<u32> = (0..n as u32)
        .filter(|&i| indeg[i as usize] == 0)
        .collect();
    let mut max_level = 0;
    let mut seen = 0usize;
    while let Some(u) = queue.pop_front() {
        seen += 1;
        for &v in &fanout[u as usize] {
            let lv = level_of[u as usize] + 1;
            if lv > level_of[v as usize] {
                level_of[v as usize] = lv;
                max_level = max_level.max(lv);
            }
            indeg[v as usize] -= 1;
            if indeg[v as usize] == 0 {
                queue.push_back(v);
            }
        }
    }
    assert_eq!(seen, n, "netlist contains a combinational cycle");
    let mut levels = vec![Vec::new(); max_level + 1];
    for (g, &lv) in level_of.iter().enumerate() {
        levels[lv].push(g as u32);
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesis_is_deterministic() {
        let cfg = CircuitConfig {
            num_gates: 500,
            ..Default::default()
        };
        let a = Circuit::synthesize(&cfg);
        let b = Circuit::synthesize(&cfg);
        assert_eq!(a.num_gates(), b.num_gates());
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.fanin, b.fanin);
    }

    #[test]
    fn structure_is_a_dag_with_io() {
        let c = Circuit::synthesize(&CircuitConfig {
            num_gates: 1000,
            ..Default::default()
        });
        assert_eq!(c.num_gates(), 1000);
        assert!(!c.primary_inputs.is_empty());
        assert!(!c.primary_outputs.is_empty());
        for &pi in &c.primary_inputs {
            assert!(c.fanin[pi as usize].is_empty());
        }
        for &po in &c.primary_outputs {
            assert!(c.fanout[po as usize].is_empty(), "PO has fanout");
            assert_eq!(c.fanin[po as usize].len(), 1);
        }
        // Every edge goes to a strictly later-created gate (DAG witness).
        for (g, fi) in c.fanin.iter().enumerate() {
            for &src in fi {
                assert!((src as usize) < g);
            }
        }
    }

    #[test]
    fn levelization_respects_edges() {
        let c = Circuit::synthesize(&CircuitConfig {
            num_gates: 800,
            ..Default::default()
        });
        let mut level_of = vec![0usize; c.num_gates()];
        for (lv, gs) in c.levels.iter().enumerate() {
            for &g in gs {
                level_of[g as usize] = lv;
            }
        }
        for (g, fi) in c.fanin.iter().enumerate() {
            for &src in fi {
                assert!(level_of[src as usize] < level_of[g]);
            }
        }
        let total: usize = c.levels.iter().map(|l| l.len()).sum();
        assert_eq!(total, c.num_gates());
    }

    #[test]
    fn fanout_distribution_is_skewed() {
        let c = Circuit::synthesize(&CircuitConfig {
            num_gates: 5000,
            ..Default::default()
        });
        let fanouts: Vec<usize> = c.fanout.iter().map(|f| f.len()).collect();
        let small = fanouts.iter().filter(|&&f| f <= 4).count();
        let max = fanouts.iter().max().copied().unwrap_or(0);
        // Most nets are small, but some high-fanout nets exist.
        assert!(small as f64 / fanouts.len() as f64 > 0.8);
        assert!(max >= 5, "no high-fanout nets at all");
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn tiny_config_rejected() {
        Circuit::synthesize(&CircuitConfig {
            num_gates: 2,
            ..Default::default()
        });
    }
}
