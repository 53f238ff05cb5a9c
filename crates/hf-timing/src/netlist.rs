//! Gate-level circuit model and synthetic benchmark generator.
//!
//! The paper analyzes `netcard` (1.5M gates, 1.5M nets). That proprietary
//! ISPD benchmark is not available here, so [`Circuit::synthesize`]
//! produces circuits with the same structural statistics that matter for
//! the experiment: a deep combinational DAG between registers/IOs with a
//! skewed fanout distribution (most nets drive 1–4 sinks, a few drive
//! many) and realistic logic depth. Sizes are parameterized so the full
//! 1.5M-gate scale is reachable.
//!
//! A [`Circuit`] is flat (CSR) with ids in topological order: a forward
//! sweep is a loop over ids, a backward sweep the same loop reversed.

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
    pub(crate) fn base_delay(self) -> f32 {
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
    pub(crate) kind: GateKind,
    /// Per-instance delay variation multiplier (process variation),
    /// sampled at synthesis time.
    pub(crate) delay_factor: f32,
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

/// One adjacency direction: row `g` is `to[off[g]..off[g + 1]]`.
#[derive(Debug, Clone)]
struct Csr {
    off: Vec<u32>,
    to: Vec<u32>,
}

impl Csr {
    fn from_rows(rows: &[Vec<u32>]) -> Csr {
        let mut off = vec![0];
        for r in rows {
            off.push(off[off.len() - 1] + r.len() as u32);
        }
        let to = rows.concat();
        Csr { off, to }
    }

    fn row(&self, g: usize) -> &[u32] {
        &self.to[self.off[g] as usize..self.off[g + 1] as usize]
    }
}

/// A combinational gate-level netlist as a DAG, ids in topological order.
#[derive(Debug, Clone)]
pub struct Circuit {
    /// Per gate, `base_delay() * delay_factor`; views scale it.
    pub(crate) nominal: Vec<f32>,
    /// Primary inputs (no fanin).
    pub primary_inputs: Vec<u32>,
    /// Primary outputs (no fanout).
    pub primary_outputs: Vec<u32>,
    fanin: Csr,
    fanout: Csr,
    fanout_driver: Vec<u32>,
}

impl Circuit {
    /// Builds a circuit from one fanin list (driver ids) per gate; each
    /// fanout row lists its sinks in ascending id. Panics unless every edge
    /// runs from a lower id to a higher one (ids are a topological order).
    pub(crate) fn new(
        gates: Vec<Gate>,
        fanin: &[Vec<u32>],
        primary_inputs: Vec<u32>,
        primary_outputs: Vec<u32>,
    ) -> Circuit {
        assert_eq!(fanin.len(), gates.len(), "one fanin list per gate");
        let mut fanout = vec![Vec::new(); gates.len()];
        for (g, row) in fanin.iter().enumerate() {
            for &src in row {
                assert!((src as usize) < g, "edge {src} -> {g} is not forward");
                fanout[src as usize].push(g as u32);
            }
        }
        let fanout_driver = (0..fanout.len() as u32)
            .flat_map(|g| std::iter::repeat_n(g, fanout[g as usize].len()))
            .collect();
        Circuit {
            nominal: gates
                .iter()
                .map(|g| g.kind.base_delay() * g.delay_factor)
                .collect(),
            primary_inputs,
            primary_outputs,
            fanin: Csr::from_rows(fanin),
            fanout: Csr::from_rows(&fanout),
            fanout_driver,
        }
    }

    /// Generates a synthetic circuit per `cfg`. Deterministic for a given
    /// seed.
    pub fn synthesize(cfg: &CircuitConfig) -> Circuit {
        assert!(cfg.num_gates >= 4, "need at least 4 gates");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let n = cfg.num_gates;
        let n_in = ((n as f64 * cfg.input_fraction) as usize).max(2);
        let n_out = ((n as f64 * cfg.output_fraction) as usize).max(2);
        let n_logic = n.saturating_sub(n_in + n_out);

        // 1) Primary inputs.
        let input = Gate {
            kind: GateKind::Input,
            delay_factor: 1.0,
        };
        let mut gates = vec![input; n_in];
        let mut fanin: Vec<Vec<u32>> = vec![Vec::new(); n_in];

        // 2) Logic gates, each drawing 1-3 fanins from a trailing window
        // (keeps the graph a DAG and bounds depth).
        use GateKind::{And, Buf, Inv, Nand, Nor, Or, Xor};
        let logic_kinds = [Nand, Nor, Inv, Buf, And, Or, Xor];
        for _ in 0..n_logic {
            let id = gates.len();
            let kind = logic_kinds[rng.gen_range(0..logic_kinds.len())];
            let nf = match kind {
                Inv | Buf => 1,
                _ => {
                    // Mean around cfg.mean_fanin, clipped to [1, 3].
                    let f = cfg.mean_fanin + rng.gen_range(-0.8..0.8);
                    (f.round() as usize).clamp(1, 3)
                }
            };
            let lo = id.saturating_sub(cfg.window);
            let mut row = Vec::with_capacity(nf);
            for _ in 0..nf {
                // Skewed driver selection: prefer recent gates (locality)
                // but occasionally reach far back (global nets).
                let src = if rng.gen_bool(0.9) {
                    rng.gen_range(lo..id)
                } else {
                    rng.gen_range(0..id)
                } as u32;
                if !row.contains(&src) {
                    row.push(src);
                }
            }
            fanin.push(row);
            gates.push(Gate {
                kind,
                delay_factor: 1.0 + rng.gen_range(-0.1f32..0.1),
            });
        }

        // 3) Primary outputs tap the most recent *logic* region (never
        // another output).
        let logic_end = n_in + n_logic;
        for _ in 0..n_out {
            let lo = logic_end.saturating_sub(cfg.window.max(8));
            fanin.push(vec![rng.gen_range(lo..logic_end) as u32]);
            gates.push(Gate {
                kind: GateKind::Output,
                delay_factor: 1.0,
            });
        }

        let primary_inputs: Vec<u32> = (0..n_in as u32).collect();
        let primary_outputs: Vec<u32> = (logic_end as u32..gates.len() as u32).collect();
        Circuit::new(gates, &fanin, primary_inputs, primary_outputs)
    }

    /// Number of gates.
    pub fn num_gates(&self) -> usize {
        self.nominal.len()
    }

    /// Number of (collapsed) nets = edges.
    pub fn num_edges(&self) -> usize {
        self.fanin.to.len()
    }

    /// Drivers of gate `g`.
    pub fn fanin(&self, g: usize) -> &[u32] {
        self.fanin.row(g)
    }

    /// Sinks of gate `g`, in ascending id.
    pub fn fanout(&self, g: usize) -> &[u32] {
        self.fanout.row(g)
    }

    /// Every fanout edge as (drivers, sinks), in CSR order.
    pub(crate) fn fanout_edges(&self) -> (&[u32], &[u32]) {
        (&self.fanout_driver, &self.fanout.to)
    }

    /// Maximum logic depth: the number of gates on the longest chain.
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.num_gates()];
        for g in 0..self.num_gates() {
            let below = self.fanin(g).iter().map(|&f| level[f as usize]);
            level[g] = 1 + below.max().unwrap_or(0);
        }
        level.into_iter().max().unwrap_or(0)
    }
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
        for g in 0..a.num_gates() {
            assert_eq!(a.fanin(g), b.fanin(g));
        }
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
            assert!(c.fanin(pi as usize).is_empty());
        }
        for &po in &c.primary_outputs {
            assert!(c.fanout(po as usize).is_empty(), "PO has fanout");
            assert_eq!(c.fanin(po as usize).len(), 1);
        }
        // Every edge goes to a strictly later-created gate (DAG witness),
        // and fanout is fanin transposed.
        let mut edges = 0;
        for g in 0..c.num_gates() {
            for &src in c.fanin(g) {
                assert!((src as usize) < g);
                assert!(c.fanout(src as usize).contains(&(g as u32)));
            }
            assert!(c.fanout(g).windows(2).all(|w| w[0] < w[1]));
            edges += c.fanout(g).len();
        }
        assert_eq!(edges, c.num_edges());
    }

    #[test]
    fn depth_counts_the_longest_chain() {
        use GateKind::{And, Input, Inv, Output};
        let gates = [Input, Input, Inv, And, Output].map(|kind| Gate {
            kind,
            delay_factor: 1.0,
        });
        // 0 -> 2 -> 3 -> 4, and 1 -> 3: four gates on the longest chain.
        let fanin = [vec![], vec![], vec![0], vec![2, 1], vec![3]];
        let c = Circuit::new(gates.to_vec(), &fanin, vec![0, 1], vec![4]);
        assert_eq!(c.depth(), 4);
        assert_eq!(c.fanout(0), &[2]);
        assert_eq!(c.fanout(1), &[3]);
        assert_eq!(c.num_edges(), 4);
    }

    #[test]
    #[should_panic(expected = "not forward")]
    fn backward_edge_rejected() {
        let g = Gate {
            kind: GateKind::Buf,
            delay_factor: 1.0,
        };
        Circuit::new(vec![g, g], &[vec![1], vec![]], vec![], vec![]);
    }

    #[test]
    fn fanout_distribution_is_skewed() {
        let c = Circuit::synthesize(&CircuitConfig {
            num_gates: 5000,
            ..Default::default()
        });
        let fanouts: Vec<usize> = (0..c.num_gates()).map(|g| c.fanout(g).len()).collect();
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
