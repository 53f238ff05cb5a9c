//! The discrete-event schedule simulator.
//!
//! Replays a [`FrozenGraph`] under the executor's [`Plan`] on a
//! [`Machine`]: a work-conserving list schedule in which every host task
//! occupies one worker for its duration and GPU work serializes on its
//! assigned device, the execution style of the real executor. A ready
//! chain head (§III-C "task fusing"; a lone GPU task is a chain of one)
//! takes one worker for one dispatch, its ops run back to back on the
//! device, and one completion callback releases the successors of every
//! chain node when the last op finishes (Listing 13). Fused members never
//! enter the ready queue.

use crate::machine::{Machine, SchedulerMode};
use crate::result::SimResult;
use hf_core::{FrozenGraph, Plan, TaskKind};
use hf_gpu::SimDuration;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Duration of node `id` on the machine, given the per-host-task cost
/// function. Every other node takes the price Algorithm 1 packs with.
fn node_duration(
    graph: &FrozenGraph,
    id: usize,
    machine: &Machine,
    host_cost: &dyn Fn(usize) -> SimDuration,
) -> SimDuration {
    match graph.kind(id) {
        TaskKind::Host => host_cost(id),
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
    /// Worker that ran the task (host) or dispatched its chain (GPU,
    /// unified mode); `None` for GPU ops on a dedicated bound worker.
    pub worker: Option<usize>,
}

/// Simulates one execution of `graph` under `plan` on `machine`, and
/// returns its result with the schedule: one span per node, in dispatch
/// order.
///
/// `host_cost` supplies the modeled duration of each host task (GPU ops
/// are costed by the machine's [`hf_gpu::CostModel`]). The plan is the
/// caller's: [`Plan::from_placement`] over Algorithm 1's placement for
/// an idle machine is the executor's own decision, fused or not as its
/// `task_fusion` setting; a plan over any other placement replays the
/// same way.
///
/// # Panics
/// If `plan` does not fit `graph` on `machine.gpus` devices.
pub fn simulate(
    graph: &FrozenGraph,
    plan: &Plan,
    machine: &Machine,
    host_cost: impl Fn(usize) -> SimDuration,
) -> (SimResult, Vec<SimSpan>) {
    let n = graph.num_tasks();
    let device_of = &plan.placement().device_of;
    assert!(
        device_of.len() == n && device_of.iter().flatten().all(|&d| d < machine.gpus),
        "plan does not fit the graph and machine"
    );

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
    // Ready FIFO of host tasks and chain heads (ids became ready at
    // `ready_at`).
    let mut ready: VecDeque<(usize, u64)> = graph.sources().iter().map(|&i| (i, 0u64)).collect();
    // Completion events: (finish_time, host task or chain head) min-heap.
    let mut completions: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();

    let mut spans = Vec::with_capacity(n);
    let span = |id: usize, device, start_ns, finish_ns, worker| SimSpan {
        node: id,
        name: graph.task_name(id).to_owned(),
        device,
        start_ns,
        finish_ns,
        worker,
    };
    let mut makespan = 0u64;

    loop {
        // Assign every currently ready task.
        while let Some((head, ready_at)) = ready.pop_front() {
            let finish = match device_of[head] {
                None => {
                    // Occupy the earliest-free worker for the whole task.
                    let dur = node_duration(graph, head, machine, &host_cost);
                    let Reverse((wt, w)) = workers.pop().expect("worker pool non-empty");
                    let start = ready_at.max(wt);
                    let fin = start + dur.as_nanos();
                    cpu_busy += dur;
                    workers.push(Reverse((fin, w)));
                    spans.push(span(head, None, start, fin, Some(w)));
                    fin
                }
                Some(d) => {
                    // Dedicated mode: the device's bound worker dispatches,
                    // so the chain serializes on the device timeline only.
                    // Unified mode: the earliest-free worker pays one
                    // enqueue overhead for the whole chain.
                    let (mut t, worker) = if dedicated {
                        (ready_at, None)
                    } else {
                        let overhead = machine.dispatch_overhead;
                        let Reverse((wt, w)) = workers.pop().expect("worker pool non-empty");
                        let dispatched = ready_at.max(wt) + overhead.as_nanos();
                        cpu_busy += overhead;
                        workers.push(Reverse((dispatched, w)));
                        (dispatched, Some(w))
                    };
                    let d = d as usize;
                    for id in plan.chain(head) {
                        let dur = node_duration(graph, id, machine, &host_cost);
                        let start = t.max(dev_free[d]);
                        t = start + dur.as_nanos();
                        dev_free[d] = t;
                        dev_busy[d] += dur;
                        spans.push(span(id, Some(d as u32), start, t, worker));
                    }
                    t
                }
            };
            completions.push(Reverse((finish, head)));
            makespan = makespan.max(finish);
        }

        // Advance to the next completion and release the successors of
        // every node it finished; a fused member is released by its
        // chain, never by the queue.
        let Some(Reverse((t, head))) = completions.pop() else {
            break;
        };
        for id in plan.chain(head) {
            for &s in graph.successors(id) {
                let s = s as usize;
                indeg[s] -= 1;
                if indeg[s] == 0 && !plan.is_member(s) {
                    ready.push_back((s, t));
                }
            }
        }
    }

    let result = SimResult::new(
        SimDuration::from_nanos(makespan),
        cpu_busy,
        dev_busy,
        spans.len(),
        machine.cores,
        machine.gpus,
    );
    (result, spans)
}
