//! The discrete-event schedule simulator.
//!
//! Replays a [`FrozenGraph`] on a [`Machine`]: a work-conserving list
//! schedule in which every task occupies one worker for its duration, and
//! GPU tasks additionally serialize on their assigned device — exactly the
//! execution style of the real executor, where a worker enqueues the op on
//! its per-device stream and blocks on a completion event (Listing 13).

use crate::machine::{Machine, SchedulerMode};
use crate::result::SimResult;
use hf_core::placement::{device_placement, Placement, PlacementView};
use hf_core::{FrozenGraph, HfError, TaskKind};
use hf_gpu::SimDuration;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Duration of node `id` on the machine, given the per-host-task cost
/// function. Pulls and kernels take the weight Algorithm 1 packs them
/// with; a push copies its pull's bytes back.
fn node_duration(
    graph: &FrozenGraph,
    id: usize,
    machine: &Machine,
    host_cost: &dyn Fn(usize) -> SimDuration,
) -> SimDuration {
    match graph.kind(id) {
        TaskKind::Host => host_cost(id),
        TaskKind::Push => machine.cost.d2h(graph.bytes_of(id)),
        _ => SimDuration::from_nanos(graph.weight_of(id, &machine.cost) as u64),
    }
}

/// One scheduled task in a simulated execution (for Gantt export and
/// schedule validation).
#[derive(Debug, Clone, serde::Serialize)]
pub struct SimSpan {
    /// Node id in the graph.
    pub node: usize,
    /// Task name.
    pub name: String,
    /// Device the op ran on (GPU tasks).
    pub device: Option<u32>,
    /// Start time (ns) of the op (device-side for GPU tasks).
    pub start_ns: u64,
    /// Finish time (ns).
    pub finish_ns: u64,
    /// Worker that ran (host) or dispatched (GPU, unified mode) the task;
    /// `None` for GPU ops on a dedicated bound worker.
    pub worker: Option<usize>,
}

/// Simulates one execution of `graph` on `machine`.
///
/// `host_cost` supplies the modeled duration of each host task (GPU ops
/// are costed by the machine's [`hf_gpu::CostModel`]). Placement is the
/// real Algorithm 1 with no seeds, crediting whatever residency the
/// frozen graph holds (none until it has run); [`simulate_placed`] takes
/// any other.
pub fn simulate(
    graph: &FrozenGraph,
    machine: &Machine,
    host_cost: impl Fn(usize) -> SimDuration,
) -> Result<SimResult, HfError> {
    let placement = device_placement(graph, machine.gpus, &machine.cost)?;
    Ok(simulate_placed(graph, machine, &placement, host_cost))
}

/// [`simulate`] that also returns the full schedule as spans.
pub fn simulate_traced(
    graph: &FrozenGraph,
    machine: &Machine,
    host_cost: impl Fn(usize) -> SimDuration,
) -> Result<(SimResult, Vec<SimSpan>), HfError> {
    let mut spans = Vec::with_capacity(graph.num_tasks());
    let placement = device_placement(graph, machine.gpus, &machine.cost)?;
    let r = simulate_impl(graph, machine, &placement, &host_cost, Some(&mut spans));
    Ok((r, spans))
}

/// [`simulate`] under a placement the caller computed — the seam through
/// which packing strategies other than the executor's are evaluated.
///
/// # Panics
/// If `placement` was not computed for `graph` on `machine.gpus` devices.
pub fn simulate_placed(
    graph: &FrozenGraph,
    machine: &Machine,
    placement: &Placement,
    host_cost: impl Fn(usize) -> SimDuration,
) -> SimResult {
    simulate_impl(graph, machine, placement, &host_cost, None)
}

fn simulate_impl(
    graph: &FrozenGraph,
    machine: &Machine,
    placement: &Placement,
    host_cost: &dyn Fn(usize) -> SimDuration,
    mut trace: Option<&mut Vec<SimSpan>>,
) -> SimResult {
    let n = graph.num_tasks();
    assert!(
        placement.device_of.len() == n
            && placement.device_of.iter().flatten().all(|&d| d < machine.gpus),
        "placement does not fit the graph and machine"
    );

    if n == 0 {
        return SimResult::new(
            SimDuration::ZERO,
            SimDuration::ZERO,
            vec![SimDuration::ZERO; machine.gpus as usize],
            0,
            machine.cores,
            machine.gpus,
        );
    }

    // In dedicated mode, one worker is bound to each GPU; CPU tasks use
    // the rest. Unified mode: all workers do everything.
    let (cpu_workers, dedicated) = match machine.mode {
        SchedulerMode::Unified => (machine.cores, false),
        SchedulerMode::DedicatedGpuWorkers => {
            let g = machine.gpus as usize;
            (machine.cores.saturating_sub(g).max(1), true)
        }
    };

    // Worker pool: (free_time, worker_id) min-heap.
    let mut workers: BinaryHeap<Reverse<(u64, usize)>> =
        (0..cpu_workers).map(|w| Reverse((0u64, w))).collect();
    // Per-device next-free time; in dedicated mode the device's bound
    // worker and the device itself are the same resource.
    let mut dev_free = vec![0u64; machine.gpus as usize];
    let mut dev_busy = vec![SimDuration::ZERO; machine.gpus as usize];
    let mut cpu_busy = SimDuration::ZERO;

    // Dependency bookkeeping.
    let mut indeg: Vec<usize> = (0..n).map(|i| graph.num_deps(i)).collect();
    // Ready FIFO (ids became ready at `ready_at`).
    let mut ready: VecDeque<(usize, u64)> = graph.sources().iter().map(|&i| (i, 0u64)).collect();
    // Completion events: (finish_time, node) min-heap.
    let mut completions: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();

    let mut makespan = 0u64;
    let mut executed = 0usize;

    loop {
        // Assign every currently ready task.
        while let Some((id, ready_at)) = ready.pop_front() {
            let dur = node_duration(graph, id, machine, &host_cost).as_nanos();
            let dev = placement.device_of[id];
            let is_gpu = dev.is_some();

            let (span_start, finish, ran_on) = if dedicated && is_gpu {
                // GPU ops run on the device's bound worker: serialize on
                // the device timeline only.
                let d = dev.expect("is_gpu") as usize;
                let start = ready_at.max(dev_free[d]);
                let fin = start + dur;
                dev_free[d] = fin;
                dev_busy[d] += SimDuration::from_nanos(dur);
                (start, fin, None)
            } else {
                // Occupy the earliest-free worker...
                let Reverse((wt, w)) = workers.pop().expect("worker pool non-empty");
                let start = ready_at.max(wt);
                match dev {
                    Some(d) => {
                        // Asynchronous dispatch: the worker only pays the
                        // enqueue overhead; the op serializes on the
                        // device and its completion callback releases the
                        // successors (the real executor's Listing 13
                        // pattern).
                        let overhead = machine.dispatch_overhead.as_nanos();
                        let d = d as usize;
                        let op_start = (start + overhead).max(dev_free[d]);
                        let fin = op_start + dur;
                        dev_free[d] = fin;
                        dev_busy[d] += SimDuration::from_nanos(dur);
                        cpu_busy += SimDuration::from_nanos(overhead);
                        workers.push(Reverse((start + overhead, w)));
                        (op_start, fin, Some(w))
                    }
                    None => {
                        let fin = start + dur;
                        cpu_busy += SimDuration::from_nanos(dur);
                        workers.push(Reverse((fin, w)));
                        (start, fin, Some(w))
                    }
                }
            };

            if let Some(spans) = trace.as_deref_mut() {
                spans.push(SimSpan {
                    node: id,
                    name: graph.task_name(id).to_owned(),
                    device: dev,
                    start_ns: span_start,
                    finish_ns: finish,
                    worker: ran_on,
                });
            }
            completions.push(Reverse((finish, id)));
            makespan = makespan.max(finish);
            executed += 1;
        }

        // Advance to the next completion and release its successors.
        match completions.pop() {
            None => break,
            Some(Reverse((t, id))) => {
                for &s in graph.successors(id) {
                    let s = s as usize;
                    indeg[s] -= 1;
                    if indeg[s] == 0 {
                        ready.push_back((s, t));
                    }
                }
            }
        }
    }

    SimResult::new(
        SimDuration::from_nanos(makespan),
        cpu_busy,
        dev_busy,
        executed,
        machine.cores,
        machine.gpus,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_core::data::HostVec;
    use hf_core::Heteroflow;
    use std::sync::Arc;

    const MS: u64 = 1_000_000;

    fn host_chain(n: usize) -> Arc<FrozenGraph> {
        let g = Heteroflow::new("chain");
        let mut prev = None;
        for i in 0..n {
            let t = g.host(&format!("t{i}"), || {});
            if let Some(p) = &prev {
                t.succeed(p);
            }
            prev = Some(t);
        }
        g.freeze().unwrap()
    }

    fn host_fanout(n: usize) -> Arc<FrozenGraph> {
        let g = Heteroflow::new("fan");
        for i in 0..n {
            g.host(&format!("t{i}"), || {});
        }
        g.freeze().unwrap()
    }

    #[test]
    fn chain_is_sequential_regardless_of_cores() {
        let graph = host_chain(10);
        for cores in [1, 4, 40] {
            let m = Machine::new(cores, 0);
            let r = simulate(&graph, &m, |_| {
                SimDuration::from_millis(1)
            })
            .unwrap();
            assert_eq!(r.makespan().as_nanos(), 10 * MS, "cores={cores}");
        }
    }

    #[test]
    fn fanout_scales_linearly() {
        let graph = host_fanout(40);
        let t1 = simulate(&graph, &Machine::new(1, 0), |_| {
            SimDuration::from_millis(1)
        })
        .unwrap();
        let t4 = simulate(&graph, &Machine::new(4, 0), |_| {
            SimDuration::from_millis(1)
        })
        .unwrap();
        let t40 =
            simulate(&graph, &Machine::new(40, 0), |_| {
                SimDuration::from_millis(1)
            })
            .unwrap();
        assert_eq!(t1.makespan().as_nanos(), 40 * MS);
        assert_eq!(t4.makespan().as_nanos(), 10 * MS);
        assert_eq!(t40.makespan().as_nanos(), MS);
        assert!((t40.cpu_utilization - 1.0).abs() < 1e-9);
    }

    /// Independent kernel groups serialize on one GPU, parallelize on
    /// many — the Fig 6 "GPU scaling" mechanism.
    fn kernel_groups(k: usize) -> Arc<FrozenGraph> {
        let g = Heteroflow::new("kg");
        let x: HostVec<u8> = HostVec::from_vec(vec![0; 1024]);
        for i in 0..k {
            let p = g.pull(&format!("p{i}"), &x);
            let kn = g.kernel(&format!("k{i}"), &[&p], |_, _| {});
            kn.work_units(1e6); // 1 ms at default 1e9 units/s
            p.precede(&kn);
        }
        g.freeze().unwrap()
    }

    #[test]
    fn gpu_bound_work_scales_with_gpus() {
        let graph = kernel_groups(8);
        let r1 = simulate(&graph, &Machine::new(16, 1), |_| {
            SimDuration::ZERO
        })
        .unwrap();
        let r4 = simulate(&graph, &Machine::new(16, 4), |_| {
            SimDuration::ZERO
        })
        .unwrap();
        let speedup = r1.makespan_secs / r4.makespan_secs;
        assert!(speedup > 3.0, "expected ~4x GPU scaling, got {speedup:.2}");
    }

    #[test]
    fn dedicated_mode_starves_cpu_heavy_workloads() {
        // Heavy CPU fan-out + one light kernel group: reserving workers
        // for GPUs (the prior-art baseline) starves the CPU side, which is
        // the inefficiency the paper's unified design removes (§III-C).
        let g = Heteroflow::new("cpu-heavy");
        let x: HostVec<u8> = HostVec::from_vec(vec![0; 1024]);
        let p = g.pull("p", &x);
        let kn = g.kernel("k", &[&p], |_, _| {});
        kn.work_units(1e5); // 0.1 ms
        p.precede(&kn);
        for i in 0..32 {
            g.host(&format!("h{i}"), || {});
        }
        let graph = g.freeze().unwrap();
        let unified = simulate(
            &graph,
            &Machine::new(4, 2),
            |_| SimDuration::from_millis(1),
        )
        .unwrap();
        let dedicated = simulate(
            &graph,
            &Machine::new(4, 2).with_mode(SchedulerMode::DedicatedGpuWorkers),
            |_| SimDuration::from_millis(1),
        )
        .unwrap();
        // 32 ms of CPU work over 4 vs 2 usable workers: ~8 ms vs ~16 ms.
        assert!(
            dedicated.makespan_secs > 1.5 * unified.makespan_secs,
            "dedicated {:.4} vs unified {:.4}",
            dedicated.makespan_secs,
            unified.makespan_secs
        );
    }

    #[test]
    fn empty_graph() {
        let g = Heteroflow::new("e");
        let graph = g.freeze().unwrap();
        let r = simulate(&graph, &Machine::new(2, 1), |_| {
            SimDuration::ZERO
        })
        .unwrap();
        assert_eq!(r.tasks, 0);
        assert_eq!(r.makespan_secs, 0.0);
    }

    #[test]
    fn gpu_graph_no_gpus_errors() {
        let graph = kernel_groups(1);
        assert!(simulate(&graph, &Machine::new(2, 0), |_| {
            SimDuration::ZERO
        })
        .is_err());
    }

    /// Makespan is never below the critical-path bound nor below the
    /// total-work/cores bound, and never above total work.
    #[test]
    fn respects_classic_bounds() {
        let graph = host_chain(5);
        let per = SimDuration::from_millis(2);
        let m = Machine::new(3, 0);
        let r = simulate(&graph, &m, |_| per).unwrap();
        let total = 5 * per.as_nanos();
        let cp = 5 * per.as_nanos();
        assert!(r.makespan().as_nanos() >= cp);
        assert!(r.makespan().as_nanos() <= total);
    }
}
