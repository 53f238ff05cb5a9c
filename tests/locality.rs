//! End-to-end tests for placement's residency credit: warm residency
//! steering re-placements to elide copies across mutated-graph epochs,
//! stale residency losing its pull (and never serving stale bytes), and
//! chaos runs combining warm re-placement with device loss.

use heteroflow::prelude::*;
use std::time::Duration;

const DEADLINE: Duration = Duration::from_secs(30);

/// Warm residency survives graph mutation: each epoch bumps the builder
/// epoch (cache miss, full re-placement), yet the packer keeps every lane
/// on the device already holding its bytes, so all copies after the first
/// epoch elide.
#[test]
fn warm_residency_elides_across_mutated_epochs() {
    const LANES: usize = 4;
    let ex = Executor::new(2, 2);
    let g = Heteroflow::new("warm_epochs");
    let bufs: Vec<HostVec<i64>> = (0..LANES)
        .map(|i| HostVec::from_vec(vec![i as i64; (i + 1) * 1024]))
        .collect();
    for (i, b) in bufs.iter().enumerate() {
        g.pull(&format!("lane{i}"), b);
    }

    let total_bytes: u64 = (1..=LANES as u64).map(|k| k * 1024 * 8).sum();
    for epoch in 0..3 {
        ex.run(&g)
            .wait_timeout(DEADLINE)
            .expect("epoch hung")
            .expect("epoch runs");
        g.host(&format!("tick{epoch}"), || {});
    }

    let s = ex.snapshot();
    assert_eq!(
        s.bytes_h2d, total_bytes,
        "every epoch after the first should elide all lane copies"
    );
    assert_eq!(s.transfers_elided, (LANES * 2) as u64);
    // Epochs 1 and 2 re-place with all four lanes warm.
    assert_eq!(s.placement_warm_hits, (LANES * 2) as u64);
    assert_eq!(s.placement_est_bytes_saved, total_bytes * 2);
}

/// Four unequal pull-only lanes re-placed every epoch (a mutation bumps
/// the builder epoch) while two single-pull interference graphs, run on
/// alternating epochs, swing the cross-graph device-load bias from one
/// device to the other. Packing on load alone would chase the bias and
/// recopy a lane at every flip; the residency credit keeps each lane
/// where its bytes already are, so over six epochs every lane and noise
/// buffer crosses the bus exactly once.
#[test]
fn locality_moves_no_more_bytes_than_balanced_under_seesawing_bias() {
    const LANES: usize = 4;
    const LANE_UNIT: usize = 8 << 10;
    let ex = Executor::new(4, 2);
    let g = Heteroflow::new("lanes");
    // Unequal lanes make the LPT order, and so any bias-driven flip,
    // deterministic.
    let _bufs: Vec<HostVec<i64>> = (0..LANES)
        .map(|lane| {
            let data = HostVec::from_vec(vec![lane as i64; (lane + 1) * LANE_UNIT]);
            g.pull(&format!("lane{lane}"), &data);
            data
        })
        .collect();
    let noise: Vec<(Heteroflow, HostVec<i64>)> = (0..2)
        .map(|i| {
            let buf = HostVec::from_vec(vec![i as i64 + 1; LANE_UNIT / 2]);
            let ng = Heteroflow::new(&format!("noise{i}"));
            ng.pull("n", &buf);
            (ng, buf)
        })
        .collect();
    for epoch in 0..6 {
        ex.run(&g).wait_timeout(DEADLINE).expect("lanes hung").expect("lanes run");
        let (ng, _) = &noise[epoch % 2];
        ex.run(ng).wait_timeout(DEADLINE).expect("noise hung").expect("noise runs");
        g.host(&format!("tick{epoch}"), || {});
    }
    let once = ((1..=LANES).sum::<usize>() * LANE_UNIT + 2 * (LANE_UNIT / 2)) * 8;
    assert_eq!(ex.snapshot().bytes_h2d, once as u64);
}

/// Mutating the host buffer invalidates residency: the next re-placement
/// draws no warm credit for it, the copy really happens, and the pushed-
/// back bytes are the new ones — never a stale device copy.
#[test]
fn stale_residency_recopies_new_bytes() {
    const N: usize = 2048;
    let ex = Executor::new(2, 2);
    let data: HostVec<i32> = HostVec::from_vec(vec![7; N]);
    let g = Heteroflow::new("stale");
    let p = g.pull("pull", &data);
    let s = g.push("push", &p, &data);
    p.precede(&s);

    // Epoch 0: real copy up and back.
    ex.run(&g).wait_timeout(DEADLINE).expect("hung").expect("runs");
    // Epoch 1 (graph mutated, data untouched): pull elides.
    g.host("tick0", || {});
    ex.run(&g).wait_timeout(DEADLINE).expect("hung").expect("runs");
    let mid = ex.snapshot();
    assert_eq!(mid.bytes_h2d, (N * 4) as u64, "warm epoch must elide");
    assert!(mid.placement_warm_hits >= 1);

    // Epoch 2: new host bytes. Residency is stale, so placement takes no
    // warm credit and the copy happens again.
    data.write().iter_mut().for_each(|v| *v = 42);
    g.host("tick1", || {});
    ex.run(&g).wait_timeout(DEADLINE).expect("hung").expect("runs");

    let end = ex.snapshot();
    assert_eq!(
        end.bytes_h2d,
        2 * (N * 4) as u64,
        "stale residency must not suppress the copy"
    );
    assert_eq!(
        end.placement_warm_hits, mid.placement_warm_hits,
        "stale residency must not attract placement"
    );
    assert!(
        data.read().iter().all(|&v| v == 42),
        "push returned stale device bytes"
    );
}

/// Two-lane pull->kernel->push graph used by the chaos runs below, with a
/// known expected output.
fn run_two_lanes(ex: &Executor, seed: u64) -> bool {
    let bufs: Vec<HostVec<i32>> = (0..2).map(|_| HostVec::from_vec(vec![3; 64])).collect();
    let g = Heteroflow::new("loc_chaos");
    for (i, b) in bufs.iter().enumerate() {
        let p = g.pull(&format!("pull_{i}"), b);
        let k = g.kernel(&format!("double_{i}"), &[&p], |cfg, args| {
            let xs = args.slice_mut::<i32>(0).unwrap();
            for t in cfg.threads() {
                if t < xs.len() {
                    xs[t] *= 2;
                }
            }
        });
        k.block_x(64);
        let s = g.push(&format!("push_{i}"), &p, b);
        p.precede(&k);
        k.precede(&s);
    }
    match ex.run(&g).wait_timeout(DEADLINE) {
        None => panic!("locality chaos run hung (seed {seed})"),
        Some(Ok(())) => {
            for b in &bufs {
                assert!(
                    b.read().iter().all(|&v| v == 6),
                    "locality chaos run corrupted data (seed {seed})"
                );
            }
            true
        }
        Some(Err(e)) => {
            assert!(
                !matches!(e, HfError::Cancelled),
                "uncancelled run ended Cancelled (seed {seed}): {e}"
            );
            false
        }
    }
}

/// Warm re-placement + seeded device loss and transfer faults: every run
/// settles within the deadline with a correct result or a structured
/// error, and the clean-loss case must succeed on the survivors.
#[test]
fn chaos_locality_survives_device_loss() {
    // Deterministic half: device 1 dies after one op; the run must still
    // complete correctly via failover placement.
    let ex = Executor::new(2, 2);
    ex.gpu_runtime()
        .set_fault_plan(Some(FaultPlan::seeded(0x10ca_beef).lose_device(1, 1)));
    assert!(run_two_lanes(&ex, 0), "clean device-loss run must succeed");
    assert!(ex.snapshot().devices_lost >= 1);

    // Randomized half: 16 seeded plans mixing H2D/kernel faults with
    // occasional device loss, two epochs each so failover re-placement
    // sees warm residency from the first epoch.
    let mut ok = 0u32;
    for i in 0..16u64 {
        let seed = 0x10ca_11fe_0000 + i;
        let mut plan = FaultPlan::seeded(seed)
            .fail(FaultSite::H2d, (i % 4) as f64 / 16.0)
            .fail(FaultSite::Kernel, (i % 3) as f64 / 12.0)
            .max_faults(1 + i % 4);
        if i % 2 == 0 {
            plan = plan.lose_device(((i / 2) % 2) as u32, i % 5);
        }
        let ex = Executor::builder(2, 2)
            .retry_policy(RetryPolicy::new(3))
            .build();
        ex.gpu_runtime().set_fault_plan(Some(plan));
        for _ in 0..2 {
            if run_two_lanes(&ex, seed) {
                ok += 1;
            }
        }
    }
    assert!(ok > 0, "no locality chaos run ever succeeded");
}
