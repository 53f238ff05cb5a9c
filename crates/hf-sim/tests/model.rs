//! The model's scaling behaviour on small graphs under the executor's
//! default plan: host chains and fan-outs, GPU scaling, the dedicated-
//! worker baseline and the classic makespan bounds.

use hf_core::data::HostVec;
use hf_core::placement::device_placement;
use hf_core::{FrozenGraph, Heteroflow, Plan};
use hf_gpu::SimDuration;
use hf_sim::{Machine, SchedulerMode, SimResult};
use std::sync::Arc;

const MS: u64 = 1_000_000;

/// `graph` under the executor's default plan for an idle `machine`.
fn simulate(
    graph: &FrozenGraph,
    machine: &Machine,
    host_cost: impl Fn(usize) -> SimDuration,
) -> SimResult {
    let placement = device_placement(graph, machine.gpus, &machine.cost).expect("placeable");
    let plan = Plan::from_placement(graph, placement, true);
    hf_sim::simulate(graph, &plan, machine, host_cost).0
}

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
        let r = simulate(&graph, &m, |_| SimDuration::from_millis(1));
        assert_eq!(r.makespan().as_nanos(), 10 * MS, "cores={cores}");
    }
}

#[test]
fn fanout_scales_linearly() {
    let graph = host_fanout(40);
    let t1 = simulate(&graph, &Machine::new(1, 0), |_| SimDuration::from_millis(1));
    let t4 = simulate(&graph, &Machine::new(4, 0), |_| SimDuration::from_millis(1));
    let t40 = simulate(&graph, &Machine::new(40, 0), |_| {
        SimDuration::from_millis(1)
    });
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
    let r1 = simulate(&graph, &Machine::new(16, 1), |_| SimDuration::ZERO);
    let r4 = simulate(&graph, &Machine::new(16, 4), |_| SimDuration::ZERO);
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
    let unified = simulate(&graph, &Machine::new(4, 2), |_| SimDuration::from_millis(1));
    let dedicated = simulate(
        &graph,
        &Machine::new(4, 2).with_mode(SchedulerMode::DedicatedGpuWorkers),
        |_| SimDuration::from_millis(1),
    );
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
    let r = simulate(&graph, &Machine::new(2, 1), |_| SimDuration::ZERO);
    assert_eq!(r.tasks, 0);
    assert_eq!(r.makespan_secs, 0.0);
}

/// Makespan is never below the critical-path bound nor below the
/// total-work/cores bound, and never above total work.
#[test]
fn respects_classic_bounds() {
    let graph = host_chain(5);
    let per = SimDuration::from_millis(2);
    let m = Machine::new(3, 0);
    let r = simulate(&graph, &m, |_| per);
    let total = 5 * per.as_nanos();
    let cp = 5 * per.as_nanos();
    assert!(r.makespan().as_nanos() >= cp);
    assert!(r.makespan().as_nanos() <= total);
}
