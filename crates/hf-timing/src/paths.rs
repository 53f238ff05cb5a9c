//! Critical path extraction: the k longest register-to-register /
//! IO-to-IO paths of a view.
//!
//! Implements a best-first deviation search (the strategy behind
//! UI-Timer-class path engines, paper refs \[27\]\[28\]\[30\]): states carry an
//! exact completion estimate (prefix delay + precomputed max downstream
//! delay), so paths are produced in exactly descending total-delay order —
//! an A* search with a perfect heuristic. An expanded state's best child
//! carries its parent's estimate, so it is kept as the next state when it
//! beats the heap top (exactly what a pop would return) instead of making
//! a heap round trip per gate. The downstream half of the estimate is one
//! flat loop over the fanout edges.
//!
//! A state's arena link carries its depth, so a complete path is allocated
//! at its exact length and filled back to front along the parent links,
//! down to the first link an earlier path holds, whose prefix it copies.

use crate::netlist::Circuit;
use crate::sta::gate_delays;
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
    pub(crate) fn depth(&self) -> usize {
        self.gates.len()
    }
}

/// A search state in the arena: its gate, its depth (gates from the launch
/// input), its parent and the first output path through it (or `MAX`).
struct Link {
    node: u32,
    depth: u32,
    parent: usize,
    path: usize,
}

#[derive(Debug)]
struct State {
    /// Exact total delay of the best completion of this prefix.
    est: f32,
    /// Delay of the prefix (up to and including `node`).
    prefix: f32,
    /// Current gate.
    node: u32,
    /// This state's index in the search arena.
    idx: usize,
}

impl PartialEq for State {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
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
        // Max-heap by estimate, then by node id, then the earlier-created
        // state first: a total order, so ties never depend on heap layout.
        self.est
            .partial_cmp(&other.est)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.node.cmp(&other.node))
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

/// Extracts the `k` longest complete paths under `view`, in descending
/// delay order.
///
/// Exact ties come out largest gate id first, then earliest-created state
/// first: paths that differ only in their (zero-delay) launch input come
/// out higher input id first.
pub fn k_critical_paths(c: &Circuit, view: &View, k: usize) -> Vec<TimingPath> {
    let n = c.num_gates();
    if k == 0 || n == 0 {
        return Vec::new();
    }
    let delay = gate_delays(c, view);
    let down = downstream(c, &delay);

    let mut arena: Vec<Link> = Vec::new();
    let state = |arena: &mut Vec<Link>, node: u32, parent: usize, prefix: f32| {
        let depth = arena.get(parent).map_or(1, |p| p.depth + 1);
        arena.push(Link {
            node,
            depth,
            parent,
            path: usize::MAX,
        });
        State {
            est: prefix + down[node as usize],
            prefix,
            node,
            idx: arena.len() - 1,
        }
    };
    let mut heap: BinaryHeap<State> = BinaryHeap::new();
    for &pi in &c.primary_inputs {
        if down[pi as usize].is_finite() {
            heap.push(state(&mut arena, pi, usize::MAX, delay[pi as usize]));
        }
    }

    let mut out: Vec<TimingPath> = Vec::with_capacity(k);
    // Expansion cap guards against pathological fan-out explosions.
    let cap = 200_000usize.max(k * 64);
    let mut expansions = 0usize;

    let mut next = heap.pop();
    while let Some(st) = next {
        expansions += 1;
        if expansions > cap {
            break;
        }
        let fanout = c.fanout(st.node as usize);
        if fanout.is_empty() {
            // Complete path: filled back to front, down to the first link
            // an earlier path holds, whose prefix is the rest.
            let mut gates = vec![0u32; arena[st.idx].depth as usize];
            let (mut cur, mut end) = (st.idx, gates.len());
            while end > 0 {
                let link = &mut arena[cur];
                if link.path != usize::MAX {
                    gates[..end].copy_from_slice(&out[link.path].gates[..end]);
                    break;
                }
                link.path = out.len();
                end -= 1;
                gates[end] = link.node;
                cur = link.parent;
            }
            debug_assert!(cur == usize::MAX || arena[cur].depth as usize == end);
            out.push(TimingPath {
                gates,
                delay: st.prefix,
                slack: view.mode.clock_period - st.prefix,
            });
            if out.len() >= k {
                break;
            }
        }
        let mut best: Option<State> = None;
        for &s in fanout {
            if !down[s as usize].is_finite() {
                continue;
            }
            let child = state(&mut arena, s, st.idx, st.prefix + delay[s as usize]);
            match &best {
                Some(b) if *b > child => heap.push(child),
                _ => heap.extend(best.replace(child)),
            }
        }
        // Continue with the best child unless the heap top beats it: then the
        // top is next and the child takes its place. A leaf pops the top.
        next = match best {
            None => heap.pop(),
            Some(b) => match heap.peek_mut() {
                Some(mut top) if *top > b => Some(std::mem::replace(&mut *top, b)),
                _ => Some(b),
            },
        };
    }
    out
}

/// Max remaining delay from each gate to any primary output (`-inf` if
/// none), in one flat loop over the fanout edges, last first: `down[s]` is
/// final when read, and the result is the per-row recurrence's bit for bit.
fn downstream(c: &Circuit, delay: &[f32]) -> Vec<f32> {
    let mut down = vec![f32::NEG_INFINITY; c.num_gates()];
    for &po in &c.primary_outputs {
        down[po as usize] = 0.0;
    }
    let (drivers, sinks) = c.fanout_edges();
    for (&g, &s) in drivers.iter().zip(sinks).rev() {
        let (g, s) = (g as usize, s as usize);
        down[g] = down[g].max(delay[s] + down[s]);
    }
    down
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{CircuitConfig, Gate, GateKind};
    use crate::sta::gate_delay;
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
            if c.fanout(g).is_empty() {
                all.push((path.clone(), d));
            } else {
                for &s in c.fanout(g) {
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
            // The DFS sums delays in the search's order, so the bits match.
            for (i, p) in got.iter().enumerate() {
                assert_eq!(
                    p.delay.to_bits(),
                    truth[i].1.to_bits(),
                    "seed {seed} rank {i}: {} vs {}",
                    p.delay,
                    truth[i].1
                );
            }
        }
    }

    /// The per-row recurrence the flat sweep replaces.
    fn downstream_by_rows(c: &Circuit, delay: &[f32]) -> Vec<f32> {
        let mut down = vec![f32::NEG_INFINITY; c.num_gates()];
        for &po in &c.primary_outputs {
            down[po as usize] = 0.0;
        }
        for g in (0..c.num_gates()).rev() {
            for &s in c.fanout(g) {
                down[g] = down[g].max(delay[s as usize] + down[s as usize]);
            }
        }
        down
    }

    #[test]
    fn flat_sweep_equals_the_per_row_recurrence_bit_for_bit() {
        let mut dead_ends = 0;
        for seed in 0..20u64 {
            // Random fanins, and outputs drawn from a random subset of the
            // gates: the rest of the sinks are dead ends (`down` = -inf).
            let mut rng = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            let mut rand = |m: u64| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng % m
            };
            let n = 50 + rand(400) as usize;
            let n_in = 1 + rand(8) as usize;
            let fanin: Vec<Vec<u32>> = (0..n)
                .map(|g| {
                    let k = if g < n_in { 0 } else { rand(4) };
                    (0..k).map(|_| rand(g as u64) as u32).collect()
                })
                .collect();
            let gates = (0..n)
                .map(|_| Gate {
                    kind: GateKind::Nand,
                    delay_factor: 1.0,
                })
                .collect();
            let pos = (n_in as u32..n as u32).filter(|_| rand(3) == 0).collect();
            let c = Circuit::new(gates, &fanin, (0..n_in as u32).collect(), pos);
            let delay: Vec<f32> = (0..n).map(|_| rand(1 << 20) as f32 / 7.0).collect();
            let (flat, rows) = (downstream(&c, &delay), downstream_by_rows(&c, &delay));
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&flat), bits(&rows), "seed {seed}");
            dead_ends += flat.iter().filter(|d| d.is_infinite()).count();
        }
        assert!(dead_ends > 0, "the circuits have dead-end gates");
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
                assert!(c.fanout(e[0] as usize).contains(&e[1]));
            }
            assert!((p.slack - (0.5 - p.delay)).abs() < 1e-6);
        }
    }

    #[test]
    fn k_zero_and_k_larger_than_paths() {
        let gates = [GateKind::Input, GateKind::Output].map(|kind| Gate {
            kind,
            delay_factor: 1.0,
        });
        let c = Circuit::new(gates.to_vec(), &[vec![], vec![0]], vec![0], vec![1]);
        let v = test_view(1.0);
        assert!(k_critical_paths(&c, &v, 0).is_empty());
        let ps = k_critical_paths(&c, &v, 10);
        assert_eq!(ps.len(), 1, "only one path exists");
    }

    /// `m` inputs feed one gate, then a chain that forks into a slow and a
    /// fast branch, each ending at an output: two groups of `m` paths whose
    /// delays tie exactly within the group.
    #[test]
    fn exact_ties_come_out_in_the_documented_order() {
        let m = 5u32;
        let gate = |kind| Gate {
            kind,
            delay_factor: 1.0,
        };
        let mut gates = vec![gate(GateKind::Input); m as usize];
        let mut fanin = vec![vec![]; m as usize];
        for (kind, src) in [
            (GateKind::Nand, (0..m).collect()),
            (GateKind::Buf, vec![m]),
            (GateKind::Buf, vec![m + 1]),
            (GateKind::Xor, vec![m + 2]),
            (GateKind::Inv, vec![m + 2]),
            (GateKind::Output, vec![m + 3]),
            (GateKind::Output, vec![m + 4]),
        ] {
            gates.push(gate(kind));
            fanin.push(src);
        }
        let c = Circuit::new(gates, &fanin, (0..m).collect(), vec![m + 5, m + 6]);
        let v = test_view(1.0);

        let all = k_critical_paths(&c, &v, 3 * m as usize);
        assert_eq!(all.len(), 2 * m as usize);
        let (slow, fast) = all.split_at(m as usize);
        assert!(slow[0].delay > fast[0].delay);
        for group in [slow, fast] {
            for p in group {
                assert_eq!(p.delay.to_bits(), group[0].delay.to_bits());
                assert_eq!(p.gates[1..], group[0].gates[1..]);
            }
            // Higher launch input first; on the fast branch the tied
            // states share a node, and the earlier-created one goes first.
            let launch: Vec<u32> = group.iter().map(|p| p.gates[0]).collect();
            assert_eq!(launch, (0..m).rev().collect::<Vec<_>>());
        }

        for k in [m as usize - 2, m as usize + 2] {
            assert_eq!(k_critical_paths(&c, &v, k), all[..k]);
        }
        assert_eq!(k_critical_paths(&c, &v, 3 * m as usize), all);
    }
}
