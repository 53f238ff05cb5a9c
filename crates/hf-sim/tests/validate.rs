//! Cross-validation: the discrete-event model must agree with the real
//! executor where they are comparable (single worker, known task costs).

use hf_core::placement::Placement;
use hf_core::{Executor, FrozenGraph, Heteroflow, Plan};
use hf_gpu::SimDuration;
use hf_sim::{simulate, Machine};

/// The plan of a host-only graph: nothing placed, nothing fused.
fn host_plan(graph: &FrozenGraph) -> Plan {
    Plan::from_placement(graph, Placement::from_bins(graph, &[], &[], 0), true)
}
use std::time::{Duration, Instant};

/// A chain and a fan of spin-wait tasks, executed for real on one worker
/// and simulated on one core: makespans must agree within 50%.
#[test]
fn sim_matches_real_single_core_makespan() {
    const TASK_MS: u64 = 5;
    const N: usize = 8;

    let g = Heteroflow::new("validate");
    let mut prev = None;
    for i in 0..N {
        let t = g.host(&format!("chain{i}"), move || {
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_millis(TASK_MS) {
                std::hint::spin_loop();
            }
        });
        if let Some(p) = &prev {
            t.succeed(p);
        }
        prev = Some(t);
    }

    // Real execution on one worker.
    let ex = Executor::new(1, 0);
    let t0 = Instant::now();
    ex.run(&g).wait().unwrap();
    let real = t0.elapsed().as_secs_f64();

    // Simulated execution with the known per-task cost.
    let graph = g.freeze().unwrap();
    let (r, _) = simulate(&graph, &host_plan(&graph), &Machine::new(1, 0), |_| {
        SimDuration::from_millis(TASK_MS)
    });

    let modeled = r.makespan_secs;
    let expected = (N as u64 * TASK_MS) as f64 / 1e3;
    assert!((modeled - expected).abs() < 1e-9, "model should be exact");
    let ratio = real / modeled;
    assert!(
        (0.5..2.0).contains(&ratio),
        "real {real:.4}s vs modeled {modeled:.4}s (ratio {ratio:.2})"
    );
}

/// The model's total busy time equals the sum of task durations — work is
/// conserved for any topology.
#[test]
fn sim_conserves_work() {
    let g = Heteroflow::new("work");
    let a = g.host("a", || {});
    let b = g.host("b", || {});
    let c = g.host("c", || {});
    let d = g.host("d", || {});
    a.precede(&b).precede(&c);
    d.succeed(&b).succeed(&c);
    let graph = g.freeze().unwrap();
    for cores in [1, 2, 3, 8] {
        let (r, _) = simulate(&graph, &host_plan(&graph), &Machine::new(cores, 0), |i| {
            SimDuration::from_millis((i as u64 + 1) * 2)
        });
        let total: f64 = (0..4).map(|i| ((i + 1) * 2) as f64 / 1e3).sum();
        assert!(
            (r.cpu_busy_secs - total).abs() < 1e-9,
            "cores={cores}: busy {} != total {}",
            r.cpu_busy_secs,
            total
        );
    }
}
