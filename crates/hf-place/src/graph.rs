//! The flattened K-iteration detailed-placement task graph — Fig 8.
//!
//! "To enable task overlaps between iterations, we flatten the task graph
//! for a given iteration number" (§IV-B). Each iteration contributes:
//! a CPU *prepare* task (new random priorities, reset states), pulls of
//! the per-iteration arrays, a chain of two-phase MIS kernel rounds on
//! the GPU, a push of the decided states, a sequential CPU *partition*
//! task, `matchers` parallel CPU *matching* tasks, and a CPU *apply*
//! task. The CSR adjacency is pulled once and read by every iteration's
//! kernels (the data reuse pattern of Listing 10).
//!
//! Where the iterations are cut is what lets them overlap. The MIS of
//! iteration `i` reads only the static adjacency and the seeded priority
//! stream — nothing a move changes — so its whole device chain is free
//! of `apply[i-1]`: each iteration owns its priority/state host buffers,
//! `apply[i]` precedes `partition[i+1]` (the first task that reads cell
//! positions), and `pull_pri[i], pull_st[i] -> prepare[i+1]` queues chain
//! `i+1` on the device right behind chain `i`, so the device computes the
//! next independent set while the workers partition and match this one.

use crate::db::PlacementDb;
use crate::matching::match_window;
use crate::mis::{self, make_priorities, UNDECIDED};
use crate::partition::partition_windows;
use hf_core::data::HostVec;
use hf_core::Heteroflow;
use parking_lot::{Mutex, RwLock};
use std::sync::Arc;

/// Tuning knobs for the placement graph.
#[derive(Debug, Clone, Copy)]
pub struct GraphConfig {
    /// Flattened iterations (the paper sweeps 5..50; converges in 10-50).
    pub iterations: usize,
    /// Max cells per matching window.
    pub window_cap: usize,
    /// Parallel matching tasks per iteration.
    pub matchers: usize,
    /// MIS select/commit rounds per iteration (O(log n) suffices).
    pub mis_rounds: usize,
    /// Priority stream seed.
    pub seed: u64,
}

impl Default for GraphConfig {
    fn default() -> Self {
        Self {
            iterations: 2,
            window_cap: 6,
            matchers: 4,
            mis_rounds: 0, // 0 = auto from cell count
            seed: 0xD1CE,
        }
    }
}

/// Shared mutable state threaded through the host tasks.
pub struct PlaceRun {
    /// The evolving placement.
    pub db: Arc<RwLock<PlacementDb>>,
    /// HPWL recorded by each iteration's apply task.
    pub hpwl_trace: Arc<Mutex<Vec<u64>>>,
}

/// Builds the Fig 8 graph over `db`. Returns the graph and the shared
/// run state (read the final placement from `PlaceRun::db` after the run).
pub fn build_placement_graph(
    db: PlacementDb,
    cfg: GraphConfig,
) -> (Heteroflow, PlaceRun) {
    let n = db.num_cells();
    let rounds = if cfg.mis_rounds > 0 {
        cfg.mis_rounds
    } else {
        (usize::BITS - n.leading_zeros()) as usize + 4
    };
    let (offsets, neighbors) = db.conflict_adjacency();

    let g = Heteroflow::new("detailed-placement");
    let db = Arc::new(RwLock::new(db));
    let hpwl_trace = Arc::new(Mutex::new(Vec::new()));

    // Static CSR arrays: pulled once, reused every iteration.
    let h_off: HostVec<u32> = HostVec::from_vec(offsets);
    let h_nbr: HostVec<u32> = HostVec::from_vec(if neighbors.is_empty() {
        vec![u32::MAX]
    } else {
        neighbors
    });
    let pull_off = g.pull("pull_adj_off", &h_off);
    let pull_nbr = g.pull("pull_adj_nbr", &h_nbr);

    // What iteration `it + 1` waits for: the pulls that put chain `it` on
    // the device queue, and the apply that moved the cells.
    let mut prev: Option<([hf_core::PullTask; 2], hf_core::HostTask)> = None;
    for it in 0..cfg.iterations {
        // 1) CPU: fresh priorities + undecided states, in buffers of this
        // iteration's own (iteration `it - 1` may still be reading its).
        let h_pri: HostVec<u32> = HostVec::from_vec(vec![0; n]);
        let h_st: HostVec<u32> = HostVec::from_vec(vec![UNDECIDED; n]);
        let prepare = g.host(&format!("prepare[{it}]"), {
            let (h_pri, h_st) = (h_pri.clone(), h_st.clone());
            let seed = cfg.seed.wrapping_add(it as u64);
            move || {
                *h_pri.write() = make_priorities(n, seed);
                h_st.write().iter_mut().for_each(|s| *s = UNDECIDED);
            }
        });
        if let Some(([pri, st], _)) = &prev {
            prepare.succeed_all(&[pri, st]);
        }

        // 2) H2D pulls of the per-iteration arrays.
        let pull_pri = g.pull(&format!("pull_pri[{it}]"), &h_pri);
        let pull_st = g.pull(&format!("pull_st[{it}]"), &h_st);
        prepare.precede_all(&[&pull_pri, &pull_st]);

        // 3) GPU: MIS select/commit rounds.
        let sources = [&pull_off, &pull_nbr, &pull_pri, &pull_st];
        let mut prev_kernel: Option<hf_core::KernelTask> = None;
        for r in 0..rounds {
            let sel = g.kernel(
                &format!("mis_select[{it}][{r}]"),
                &sources,
                mis::select_kernel(),
            );
            sel.cover(n, 256).work_units(n as f64);
            let com = g.kernel(
                &format!("mis_commit[{it}][{r}]"),
                &sources,
                mis::commit_kernel(),
            );
            com.cover(n, 256).work_units(n as f64);
            match &prev_kernel {
                // First round of the iteration: wait for its four inputs.
                None => {
                    sel.succeed_all(&[&pull_off, &pull_nbr, &pull_pri, &pull_st]);
                }
                Some(p) => {
                    sel.succeed(p);
                }
            }
            sel.precede(&com);
            prev_kernel = Some(com);
        }

        // 4) D2H push of the decided states.
        let push_st = g.push(&format!("push_st[{it}]"), &pull_st, &h_st);
        push_st.succeed(prev_kernel.as_ref().expect("rounds >= 1"));

        // 5) CPU (sequential): partition into windows.
        let windows: Arc<RwLock<Vec<Vec<u32>>>> = Arc::new(RwLock::new(Vec::new()));
        let partition = g.host(&format!("partition[{it}]"), {
            let (db, h_st, windows) = (Arc::clone(&db), h_st.clone(), Arc::clone(&windows));
            let cap = cfg.window_cap;
            move || *windows.write() = partition_windows(&db.read(), &h_st.read(), cap)
        });
        push_st.precede(&partition);
        if let Some((_, apply)) = &prev {
            partition.succeed(apply);
        }

        // 6) CPU (parallel): per-window bipartite matching. Matcher m
        // handles windows m, m+M, m+2M, ...
        let moves: Arc<Mutex<Vec<(u32, u32, u32)>>> = Arc::new(Mutex::new(Vec::new()));
        let mut match_tasks = Vec::with_capacity(cfg.matchers);
        for m in 0..cfg.matchers.max(1) {
            let t = g.host(&format!("match[{it}][{m}]"), {
                let (db, windows, moves) = (
                    Arc::clone(&db),
                    Arc::clone(&windows),
                    Arc::clone(&moves),
                );
                let stride = cfg.matchers.max(1);
                move || {
                    let (windows, db) = (windows.read(), db.read());
                    let mut local_moves = Vec::new();
                    for w in windows.iter().skip(m).step_by(stride) {
                        match_window(&db, w, &mut local_moves);
                    }
                    moves.lock().extend(local_moves);
                }
            });
            partition.precede(&t);
            match_tasks.push(t);
        }

        // 7) CPU: apply the permutations and record HPWL.
        let apply = g.host(&format!("apply[{it}]"), {
            let (db, moves, hpwl_trace) =
                (Arc::clone(&db), Arc::clone(&moves), Arc::clone(&hpwl_trace));
            move || {
                let mut db = db.write();
                for &(cell, x, y) in moves.lock().iter() {
                    db.cells[cell as usize].x = x;
                    db.cells[cell as usize].y = y;
                }
                moves.lock().clear();
                let hpwl = db.total_hpwl();
                hpwl_trace.lock().push(hpwl);
            }
        });
        for t in &match_tasks {
            t.precede(&apply);
        }
        prev = Some(([pull_pri, pull_st], apply));
    }

    (
        g,
        PlaceRun {
            db,
            hpwl_trace,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::PlacementConfig;
    use hf_core::TaskKind;

    #[test]
    fn graph_has_fig8_structure() {
        let db = PlacementDb::synthesize(&PlacementConfig {
            num_cells: 200,
            num_nets: 250,
            ..Default::default()
        });
        let cfg = GraphConfig {
            iterations: 2,
            matchers: 3,
            mis_rounds: 5,
            ..Default::default()
        };
        let (g, _run) = build_placement_graph(db, cfg);
        let info = g.info().unwrap();
        // 2 adjacency pulls + per-iter (1 prepare + 2 pulls + 2*5 kernels
        // + 1 push + 1 partition + 3 matchers + 1 apply) = 2 + 2*19.
        assert_eq!(info.num_tasks(), 2 + 2 * 19);
        assert_eq!(info.count_kind(TaskKind::Kernel), 2 * 10);
        assert_eq!(info.count_kind(TaskKind::Pull), 2 + 2 * 2);
        assert_eq!(info.count_kind(TaskKind::Push), 2);
        // The cut, as reachability: apply[0] orders the first reader of
        // cell positions and nothing of MIS chain 1, which iteration 0's
        // pulls order on the device queue.
        let id = |name: &str| info.nodes.iter().position(|n| n.name == name).expect(name);
        let reaches = |from: &str, to: &str| {
            let (mut seen, mut stack) = (vec![false; info.num_tasks()], vec![id(from)]);
            while let Some(v) = stack.pop() {
                if !std::mem::replace(&mut seen[v], true) {
                    stack.extend(&info.nodes[v].successors);
                }
            }
            seen[id(to)]
        };
        assert!(!reaches("apply[0]", "mis_select[1][0]"));
        assert!(reaches("apply[0]", "partition[1]"));
        assert!(reaches("pull_st[0]", "prepare[1]"));
        assert!(reaches("pull_pri[0]", "prepare[1]"));
        // Every kernel still runs behind all four of its pulls.
        assert!(g.analyze().is_clean(), "lint:\n{}", g.analyze().render_text());
    }

    #[test]
    fn single_iteration_runs_and_preserves_legality() {
        let db = PlacementDb::synthesize(&PlacementConfig {
            num_cells: 300,
            num_nets: 350,
            ..Default::default()
        });
        let before = db.total_hpwl();
        let cfg = GraphConfig {
            iterations: 1,
            ..Default::default()
        };
        let (g, run) = build_placement_graph(db, cfg);
        let ex = hf_core::Executor::new(2, 1);
        ex.run(&g).wait().unwrap();
        let db = run.db.read();
        db.check_legal().unwrap();
        let trace = run.hpwl_trace.lock();
        assert_eq!(trace.len(), 1);
        assert!(trace[0] <= before, "HPWL increased: {} -> {}", before, trace[0]);
    }
}
