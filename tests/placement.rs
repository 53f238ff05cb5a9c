//! Placement against cost estimates that arrive from outside the program:
//! `Executor::seed_task_cost` is the entry point for durations a caller
//! measured or persisted elsewhere, so a NaN there must neither panic the
//! submitter nor a worker mid-failover.

use heteroflow::core::device_placement;
use heteroflow::gpu::FaultPlan;
use heteroflow::prelude::*;
use std::sync::mpsc;
use std::time::Duration;

const DEADLINE: Duration = Duration::from_secs(30);

/// `lanes` independent pull → doubling kernel → push lanes behind one
/// host task `gate`; returns the buffers.
fn doubling_lanes(
    g: &Heteroflow,
    lanes: usize,
    gate: impl FnMut() + Send + 'static,
) -> Vec<HostVec<i32>> {
    let bufs: Vec<HostVec<i32>> = (0..lanes).map(|_| HostVec::from_vec(vec![3; 64])).collect();
    let gate = g.host("gate", gate);
    for (i, b) in bufs.iter().enumerate() {
        let p = g.pull(&format!("p{i}"), b);
        let k = g.kernel(&format!("k{i}"), &[&p], |cfg, args| {
            let xs = args.slice_mut::<i32>(0).unwrap();
            for t in cfg.threads() {
                if t < xs.len() {
                    xs[t] *= 2;
                }
            }
        });
        k.block_x(64);
        let s = g.push(&format!("s{i}"), &p, b);
        gate.precede(&p);
        p.precede(&k);
        k.precede(&s);
    }
    bufs
}

#[test]
fn non_finite_seed_does_not_panic_the_submitter() {
    for bad in [f64::NAN, f64::INFINITY, -1.0] {
        let ex = Executor::new(2, 2);
        let g = Heteroflow::new("g");
        let bufs = doubling_lanes(&g, 2, || {});
        ex.seed_task_cost("g", "p0", bad);
        let res = ex.run(&g).wait_timeout(DEADLINE).expect("run hung");
        assert_eq!(res, Ok(()), "{bad}");
        assert!(bufs.iter().all(|b| b.read().iter().all(|&v| v == 6)));
    }
}

/// The same seed reaching a failover re-placement, which runs on a worker
/// or device-engine thread. The estimate has to arrive after the run was
/// placed (or the submitter meets it first), so the lanes wait behind a
/// gate while the main thread seeds; four lanes on two devices strand two
/// groups, which is what it takes for the packer to compare weights.
#[test]
fn non_finite_seed_does_not_break_failover() {
    let ex = Executor::builder(2, 2)
        .retry_policy(RetryPolicy::new(3))
        .build();
    ex.gpu_runtime()
        .set_fault_plan(Some(FaultPlan::seeded(7).lose_device(1, 1)));
    let (open, gate) = mpsc::channel::<()>();
    let g = Heteroflow::new("g");
    let bufs = doubling_lanes(&g, 4, move || {
        gate.recv().expect("main thread opens the gate")
    });
    let fut = ex.run(&g);
    for i in 0..4 {
        ex.seed_task_cost("g", &format!("k{i}"), f64::NAN);
    }
    open.send(()).expect("gate task is waiting");
    assert_eq!(fut.wait_timeout(DEADLINE).expect("failover hung"), Ok(()));
    assert!(bufs.iter().all(|b| b.read().iter().all(|&v| v == 6)));
    assert!(ex.snapshot().devices_lost >= 1);
}

/// A kernel is priced once: what Algorithm 1 weighs in the executor, what
/// it weighs over the structural snapshot (`hf-sim`'s input) and what the
/// device charges when the kernel runs are the same number, also for a
/// kernel declaring fewer work units than it launches threads. The lanes
/// differ only in those units, so the heavier one (lane 1) packs first.
#[test]
fn executor_snapshot_and_device_price_a_kernel_alike() {
    let ex = Executor::new(1, 2);
    let g = Heteroflow::new("priced");
    let bufs: Vec<HostVec<i32>> = (0..2).map(|_| HostVec::from_vec(vec![1; 256])).collect();
    for (i, (b, units)) in bufs.iter().zip([100.0, 500.0]).enumerate() {
        let p = g.pull(&format!("p{i}"), b);
        let k = g.kernel(&format!("k{i}"), &[&p], |_, _| {});
        k.cover(1024, 128).work_units(units);
        p.precede(&k);
    }
    let devices = ex.gpu_runtime().devices();
    let modeled = device_placement(&g.info().unwrap(), 2, &devices[0].cost_model()).unwrap();
    assert!(modeled.loads[0] > modeled.loads[1], "lane 1 is the heavier: {:?}", modeled.loads);

    ex.run(&g).wait_timeout(DEADLINE).expect("run hung").expect("runs");
    assert_eq!(ex.device_loads(), modeled.loads);
    let busy: Vec<f64> = devices.iter().map(|d| d.busy_time().as_nanos() as f64).collect();
    assert_eq!(busy, modeled.loads);
}
