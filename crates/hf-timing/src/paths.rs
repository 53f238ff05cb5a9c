//! Critical path extraction: the k longest register-to-register /
//! IO-to-IO paths of a view.
//!
//! Implements a best-first deviation search (the strategy behind
//! UI-Timer-class path engines, paper refs \[27\]\[28\]\[30\]): states carry an
//! exact completion estimate (prefix delay + precomputed max downstream
//! delay), so paths are produced in exactly descending total-delay order —
//! an A* search with a perfect heuristic.

use crate::netlist::Circuit;
use crate::sta::gate_delay;
use crate::views::View;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One extracted timing path.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingPath {
    /// Gate ids from a primary input to a primary output.
    pub gates: Vec<u32>,
    /// Total path delay (ns).
    pub delay: f32,
    /// Endpoint slack under the view's clock period (ns).
    pub slack: f32,
}

impl TimingPath {
    /// Number of gates on the path.
    pub fn depth(&self) -> usize {
        self.gates.len()
    }
}

#[derive(Debug)]
struct State {
    /// Exact total delay of the best completion of this prefix.
    est: f32,
    /// Delay of the prefix (up to and including `node`).
    prefix: f32,
    /// Current gate.
    node: u32,
    /// Index of the parent state in the search arena.
    parent: usize,
}

impl PartialEq for State {
    fn eq(&self, other: &Self) -> bool {
        self.est == other.est
    }
}
impl Eq for State {}
impl PartialOrd for State {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for State {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap by estimate; ties by node id for determinism.
        self.est
            .partial_cmp(&other.est)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.node.cmp(&other.node))
    }
}

/// Extracts the `k` longest complete paths under `view`, in descending
/// delay order.
pub fn k_critical_paths(c: &Circuit, view: &View, k: usize) -> Vec<TimingPath> {
    if k == 0 || c.num_gates() == 0 {
        return Vec::new();
    }

    // Max downstream remaining delay from each gate to any PO.
    let mut down = vec![f32::NEG_INFINITY; c.num_gates()];
    for &po in &c.primary_outputs {
        down[po as usize] = 0.0;
    }
    for level in c.levels.iter().rev() {
        for &g in level {
            let g = g as usize;
            for &s in &c.fanout[g] {
                let s = s as usize;
                let cand = gate_delay(c, s, view) + down[s];
                if cand > down[g] {
                    down[g] = cand;
                }
            }
        }
    }

    // Arena of search-tree states for path reconstruction.
    let mut arena: Vec<(u32, usize)> = Vec::new(); // (node, parent)
    let mut heap: BinaryHeap<State> = BinaryHeap::new();
    for &pi in &c.primary_inputs {
        if down[pi as usize].is_finite() {
            let prefix = gate_delay(c, pi as usize, view);
            arena.push((pi, usize::MAX));
            heap.push(State {
                est: prefix + down[pi as usize],
                prefix,
                node: pi,
                parent: arena.len() - 1,
            });
        }
    }

    let mut out = Vec::with_capacity(k);
    // Expansion cap guards against pathological fan-out explosions.
    let cap = 200_000usize.max(k * 64);
    let mut expansions = 0usize;

    while let Some(st) = heap.pop() {
        expansions += 1;
        if expansions > cap {
            break;
        }
        let node = st.node as usize;
        if c.fanout[node].is_empty() {
            // Complete path; reconstruct from parent links.
            let mut gates = Vec::new();
            let mut cur = st.parent;
            while cur != usize::MAX {
                gates.push(arena[cur].0);
                cur = arena[cur].1;
            }
            gates.reverse();
            out.push(TimingPath {
                gates,
                delay: st.prefix,
                slack: view.mode.clock_period - st.prefix,
            });
            if out.len() >= k {
                break;
            }
            continue;
        }
        for &s in &c.fanout[node] {
            let sd = down[s as usize];
            if !sd.is_finite() {
                continue;
            }
            let prefix = st.prefix + gate_delay(c, s as usize, view);
            arena.push((s, st.parent));
            heap.push(State {
                est: prefix + sd,
                prefix,
                node: s,
                parent: arena.len() - 1,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{CircuitConfig, Gate, GateKind};
    use crate::views::{Corner, Mode};

    fn test_view(period: f32) -> View {
        View {
            corner: Corner {
                name: "t".into(),
                delay_scale: 1.0,
                ocv: 0.05,
            },
            mode: Mode {
                name: "m".into(),
                clock_period: period,
            },
            seed: 0,
        }
    }

    /// Exhaustive path enumeration for small circuits.
    fn brute_force(c: &Circuit, view: &View) -> Vec<(Vec<u32>, f32)> {
        let mut all = Vec::new();
        fn dfs(
            c: &Circuit,
            view: &View,
            g: usize,
            path: &mut Vec<u32>,
            delay: f32,
            all: &mut Vec<(Vec<u32>, f32)>,
        ) {
            let d = delay + gate_delay(c, g, view);
            path.push(g as u32);
            if c.fanout[g].is_empty() {
                all.push((path.clone(), d));
            } else {
                for &s in &c.fanout[g] {
                    dfs(c, view, s as usize, path, d, all);
                }
            }
            path.pop();
        }
        for &pi in &c.primary_inputs {
            dfs(c, view, pi as usize, &mut Vec::new(), 0.0, &mut all);
        }
        // Only paths ending at primary outputs are timing paths; logic
        // dead-ends are not endpoints.
        all.retain(|(p, _)| c.primary_outputs.contains(p.last().unwrap()));
        all.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        all
    }

    #[test]
    fn matches_brute_force_on_random_circuits() {
        for seed in 0..5 {
            let c = Circuit::synthesize(&CircuitConfig {
                num_gates: 60,
                window: 16,
                seed,
                ..Default::default()
            });
            let v = test_view(1.0);
            let truth = brute_force(&c, &v);
            let k = truth.len().min(12);
            let got = k_critical_paths(&c, &v, k);
            assert_eq!(got.len(), k, "seed {seed}");
            for (i, p) in got.iter().enumerate() {
                assert!(
                    (p.delay - truth[i].1).abs() < 1e-5,
                    "seed {seed} rank {i}: {} vs {}",
                    p.delay,
                    truth[i].1
                );
            }
        }
    }

    #[test]
    fn descending_order_and_valid_paths() {
        let c = Circuit::synthesize(&CircuitConfig {
            num_gates: 500,
            ..Default::default()
        });
        let v = test_view(0.5);
        let ps = k_critical_paths(&c, &v, 20);
        assert!(!ps.is_empty());
        for w in ps.windows(2) {
            assert!(w[0].delay >= w[1].delay - 1e-6);
        }
        for p in &ps {
            // Path starts at a PI, ends at a PO, edges exist.
            assert!(c.primary_inputs.contains(&p.gates[0]));
            assert!(c.primary_outputs.contains(p.gates.last().unwrap()));
            for e in p.gates.windows(2) {
                assert!(c.fanout[e[0] as usize].contains(&e[1]));
            }
            assert!((p.slack - (0.5 - p.delay)).abs() < 1e-6);
        }
    }

    #[test]
    fn k_zero_and_k_larger_than_paths() {
        let gates = vec![
            Gate { kind: GateKind::Input, delay_factor: 1.0 },
            Gate { kind: GateKind::Output, delay_factor: 1.0 },
        ];
        let fanin = vec![vec![], vec![0]];
        let fanout = vec![vec![1], vec![]];
        let c = Circuit {
            gates,
            fanin,
            fanout,
            primary_inputs: vec![0],
            primary_outputs: vec![1],
            levels: vec![vec![0], vec![1]],
        };
        let v = test_view(1.0);
        assert!(k_critical_paths(&c, &v, 0).is_empty());
        let ps = k_critical_paths(&c, &v, 10);
        assert_eq!(ps.len(), 1, "only one path exists");
    }
}
