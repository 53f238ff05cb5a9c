//! One-shot ablation summary: runs A1–A5 at small scale and prints a
//! consolidated table (the `bench/` ladder gives numbers with variance;
//! this binary gives the narrative in seconds).
//!
//! Usage: `cargo run --release -p hf-bench --bin ablations`

use hf_bench::Packer;
use hf_core::data::HostVec;
use hf_core::{device_placement, AsTask, Executor, FrozenGraph, Heteroflow, Plan};
use hf_gpu::{BuddyAllocator, CostModel, SimDuration};
use hf_sim::{simulate, Machine, SchedulerMode};
use std::time::Instant;

fn main() {
    println!("=== Heteroflow ablation summary ===\n");
    a1_placement_policies();
    a2_dedicated_workers();
    a3_memory_pool();
    a4_adaptive_sleep();
    a5_task_fusion();
}

/// `graph` simulated on `m` under the executor's plan for it, fused or
/// not, with every host task costing `host`.
fn modeled(graph: &FrozenGraph, m: &Machine, fusion: bool, host: SimDuration) -> hf_sim::SimResult {
    let placement = device_placement(graph, m.gpus, &m.cost).expect("placeable");
    let plan = Plan::from_placement(graph, placement, fusion);
    simulate(graph, &plan, m, |_| host).0
}

/// A1: packing policy load balance on heterogeneous groups.
fn a1_placement_policies() {
    let g = Heteroflow::new("a1");
    for i in 0..400 {
        let x: HostVec<u8> = HostVec::from_vec(vec![0; 1024 * (1 + i % 37)]);
        let p = g.pull(&format!("p{i}"), &x);
        let k = g.kernel(&format!("k{i}"), &[&p], |_, _| {});
        k.work_units(((i % 11) + 1) as f64 * 1e5);
        p.precede(&k);
    }
    let graph = g.freeze().expect("acyclic");
    println!("A1  device placement policy (400 skewed groups, 4 GPUs):");
    let cost = CostModel::default();
    for (name, packer) in [
        ("balanced (paper)", Packer::Balanced),
        ("round-robin", Packer::RoundRobin),
        ("random", Packer::Random { seed: 3 }),
    ] {
        let p = packer.place(&graph, 4, &cost).expect("placeable");
        let plan = Plan::from_placement(&graph, p, true);
        let (r, _) = simulate(&graph, &plan, &Machine::new(8, 4), |_| SimDuration::ZERO);
        println!(
            "      {name:<18} imbalance {:>6.3}   modeled makespan {:>8.2} ms",
            plan.placement().imbalance(),
            r.makespan_secs * 1e3
        );
    }
    println!();
}

/// A2: dedicated GPU workers vs unified, CPU-heavy mix.
fn a2_dedicated_workers() {
    let g = Heteroflow::new("a2");
    let x: HostVec<u8> = HostVec::from_vec(vec![0; 4096]);
    for i in 0..4 {
        let p = g.pull(&format!("p{i}"), &x);
        let k = g.kernel(&format!("k{i}"), &[&p], |_, _| {});
        k.work_units(1e5);
        p.precede(&k);
    }
    for i in 0..64 {
        g.host(&format!("h{i}"), || {});
    }
    let graph = g.freeze().expect("acyclic");
    println!("A2  worker organization (64 CPU tasks + 4 light kernels, 8 cores, 2 GPUs):");
    for (name, mode) in [
        ("unified (paper)", SchedulerMode::Unified),
        ("dedicated/GPU", SchedulerMode::DedicatedGpuWorkers),
    ] {
        let m = Machine::new(8, 2).with_mode(mode);
        let r = modeled(&graph, &m, true, SimDuration::from_millis(1));
        println!(
            "      {name:<18} makespan {:>8.2} ms   cpu util {:>5.2}",
            r.makespan_secs * 1e3,
            r.cpu_utilization
        );
    }
    println!();
}

/// A3: buddy pool vs raw allocation for pull-sized buffers.
fn a3_memory_pool() {
    let sizes: Vec<usize> = (0..2000).map(|i| 256 + (i * 977) % 65536).collect();
    let t0 = Instant::now();
    let mut b = BuddyAllocator::new(1 << 28, 256);
    for _ in 0..20 {
        let offs: Vec<u64> = sizes.iter().map(|&s| b.alloc(s).expect("fits")).collect();
        for o in offs {
            b.free(o).expect("valid");
        }
    }
    let pool = t0.elapsed();
    let t1 = Instant::now();
    let mut total = 0usize;
    for _ in 0..20 {
        let bufs: Vec<Vec<u8>> = sizes.iter().map(|&s| vec![0u8; s]).collect();
        total += bufs.iter().map(|x| x.len()).sum::<usize>();
    }
    std::hint::black_box(total);
    let raw = t1.elapsed();
    println!("A3  memory pool (40k pull-sized alloc/free cycles):");
    println!("      buddy pool (paper)  {pool:>10.2?}");
    println!(
        "      raw zeroed buffers  {raw:>10.2?}   ({:.1}x slower)",
        raw.as_secs_f64() / pool.as_secs_f64()
    );
    println!();
}

/// A4: adaptive sleep vs always-spin on a bursty workload.
fn a4_adaptive_sleep() {
    let build = || {
        let g = Heteroflow::new("a4");
        let root = g.host("root", || {});
        for i in 0..200 {
            let t = g.host(&format!("t{i}"), || {});
            root.precede(&t);
        }
        g
    };
    println!("A4  idle-worker strategy (200-task bursts, 4 workers):");
    for (name, adaptive) in [("adaptive (paper)", true), ("always-spin", false)] {
        let ex = Executor::builder(4, 0).adaptive_sleep(adaptive).build();
        let g = build();
        let t0 = Instant::now();
        for _ in 0..50 {
            ex.run(&g).wait().expect("runs");
            // Idle gap between bursts: spinning burns CPU here.
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        let el = t0.elapsed();
        let s = ex.snapshot();
        println!(
            "      {name:<18} wall {el:>9.2?}   sleeps {:>6}   steal success {:>5.3}",
            s.sleeps, s.steal_success_rate
        );
    }
    println!();
}

/// A5: task fusion on chain-heavy graphs.
fn a5_task_fusion() {
    let build = || {
        let g = Heteroflow::new("a5");
        for lane in 0..4 {
            let d: HostVec<u64> = HostVec::from_vec(vec![1; 256]);
            let p = g.pull(&format!("p{lane}"), &d);
            let mut prev = p.as_task();
            for i in 0..24 {
                let k = g.kernel(&format!("k{lane}_{i}"), &[&p], |cfg, args| {
                    let v = args.slice_mut::<u64>(0).expect("data");
                    for t in cfg.threads() {
                        if t < v.len() {
                            v[t] = v[t].wrapping_add(1);
                        }
                    }
                });
                k.cover(256, 128);
                k.succeed(&prev);
                prev = k.as_task();
            }
            let s = g.push(&format!("s{lane}"), &p, &d);
            s.succeed(&prev);
        }
        g
    };
    println!("A5  task fusion (4 lanes x 24-kernel chains, 4 workers, 2 GPUs):");
    for (name, fusion) in [("fused (default)", true), ("per-task dispatch", false)] {
        let ex = Executor::builder(4, 2).task_fusion(fusion).build();
        let g = build();
        let t0 = Instant::now();
        for _ in 0..20 {
            ex.run(&g).wait().expect("runs");
        }
        let el = t0.elapsed();
        // The model replays the plan the executor just ran under.
        let plan = ex.plan(&g).expect("placeable");
        let graph = g.freeze().expect("acyclic");
        let (r, _) = simulate(&graph, &plan, &Machine::new(4, 2), |_| SimDuration::ZERO);
        println!(
            "      {name:<18} wall {el:>9.2?}   fused members {:>5}   modeled run {:>5.3} ms, dispatch {:>5.3} ms",
            ex.snapshot().fused,
            r.makespan_secs * 1e3,
            r.cpu_busy_secs * 1e3
        );
    }
    println!();
}
