//! Chaos stress test: drive many seeded fault plans through real graphs
//! and assert every run ends in a correct result or a structured error —
//! never a hang, never silent corruption.
//!
//! The base seed comes from `HF_CHAOS_SEED` (decimal) when set, so CI can
//! run one fixed and one time-derived pass; every assertion message
//! carries the seed needed to reproduce the failure locally.

use heteroflow::prelude::*;
use std::time::Duration;

const DEFAULT_SEED: u64 = 0x5eed_cafe_f00d_0001;
const PLANS: usize = 100;
const DEADLINE: Duration = Duration::from_secs(30);

fn base_seed() -> u64 {
    std::env::var("HF_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

/// splitmix64: cheap, well-mixed stream for deriving per-plan randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Build a randomized fault plan from one seed: per-site failure
/// probabilities, an optional fault budget, and an occasional whole-device
/// loss.
fn plan_for(seed: u64) -> FaultPlan {
    let mut rng = Rng(seed);
    let mut plan = FaultPlan::seeded(seed);
    for site in [
        FaultSite::Alloc,
        FaultSite::H2d,
        FaultSite::D2h,
        FaultSite::Kernel,
    ] {
        // 0.0 ..= 0.24 per site; often 0 so plenty of runs stay clean.
        let p = (rng.next() % 100) as f64 / 400.0;
        if rng.next().is_multiple_of(2) {
            plan = plan.fail(site, p);
        }
    }
    if !rng.next().is_multiple_of(3) {
        // Bound the storm so most faulty runs can still retry to success.
        plan = plan.max_faults(1 + rng.next() % 6);
    }
    if rng.next().is_multiple_of(4) {
        let dev = (rng.next() % 2) as u32;
        let after = rng.next() % 8;
        plan = plan.lose_device(dev, after);
    }
    plan
}

fn chaos_executor(plan: FaultPlan) -> Executor {
    let ex = Executor::builder(2, 2)
        .retry_policy(RetryPolicy::new(3))
        .build();
    ex.gpu_runtime().set_fault_plan(Some(plan));
    ex
}

/// Pre-filled saxpy (Listing 1 without the host fill tasks): y += a*x.
fn run_saxpy(ex: &Executor, seed: u64) -> bool {
    const N: usize = 256;
    let x: HostVec<i32> = HostVec::from_vec(vec![1; N]);
    let y: HostVec<i32> = HostVec::from_vec(vec![2; N]);
    let g = Heteroflow::new("chaos_saxpy");
    let pull_x = g.pull("pull_x", &x);
    let pull_y = g.pull("pull_y", &y);
    let kernel = g.kernel("saxpy", &[&pull_x, &pull_y], |cfg, args| {
        let mut parts = args.split().unwrap();
        let xs = parts.read::<i32>(0).unwrap();
        let ys = parts.write::<i32>(1).unwrap();
        for i in cfg.threads() {
            if i < ys.len() {
                ys[i] += 2 * xs[i];
            }
        }
    });
    kernel.cover(N, 64);
    let push_y = g.push("push_y", &pull_y, &y);
    kernel.succeed_all(&[&pull_x, &pull_y]);
    kernel.precede(&push_y);

    let fut = ex.run(&g);
    match fut.wait_timeout(DEADLINE) {
        None => panic!("saxpy hung under fault plan (seed {seed})"),
        Some(Ok(())) => {
            assert!(
                y.read().iter().all(|&v| v == 4),
                "saxpy reported success with wrong data (seed {seed}): {:?}...",
                &y.read()[..8]
            );
            true
        }
        Some(Err(e)) => {
            // Structured failure is acceptable; silent corruption is not.
            assert!(
                !matches!(e, HfError::Cancelled),
                "uncancelled saxpy ended Cancelled (seed {seed}): {e}"
            );
            false
        }
    }
}

/// Miniature wavefront (examples/wavefront.rs): a grid of tiles where each
/// kernel reads its own pull plus the upper and left neighbors' pulls, with
/// a CPU reference recurrence for validation.
fn run_wavefront(ex: &Executor, seed: u64) -> bool {
    const GRID: usize = 3;
    const TILE: usize = 8;
    let tiles: Vec<HostVec<f32>> = (0..GRID * GRID)
        .map(|idx| HostVec::from_vec(vec![(idx % 7) as f32; TILE * TILE]))
        .collect();

    let g = Heteroflow::new("chaos_wavefront");
    let pulls: Vec<PullTask> = (0..GRID * GRID)
        .map(|idx| g.pull(&format!("pull_{idx}"), &tiles[idx]))
        .collect();
    let mut kernels: Vec<KernelTask> = Vec::with_capacity(GRID * GRID);
    for i in 0..GRID {
        for j in 0..GRID {
            let mut sources: Vec<&PullTask> = vec![&pulls[i * GRID + j]];
            if i > 0 {
                sources.push(&pulls[(i - 1) * GRID + j]);
            }
            if j > 0 {
                sources.push(&pulls[i * GRID + j - 1]);
            }
            let n_src = sources.len();
            let k = g.kernel(&format!("block_{i}_{j}"), &sources, move |cfg, args| {
                let mut incoming = 0.0f32;
                for s in 1..n_src {
                    let nb = args.slice::<f32>(s).unwrap();
                    incoming += nb.iter().sum::<f32>() / nb.len() as f32;
                }
                let own = args.slice_mut::<f32>(0).unwrap();
                for t in cfg.threads() {
                    if t < own.len() {
                        own[t] = 0.5 * own[t] + incoming;
                    }
                }
            });
            k.cover(TILE * TILE, 64);
            k.succeed(&pulls[i * GRID + j]);
            if i > 0 {
                k.succeed(&kernels[(i - 1) * GRID + j]);
            }
            if j > 0 {
                k.succeed(&kernels[i * GRID + j - 1]);
            }
            kernels.push(k);
        }
    }
    let corner = GRID * GRID - 1;
    let push = g.push("push_corner", &pulls[corner], &tiles[corner]);
    push.succeed(&kernels[corner]);

    // CPU reference for the corner tile's uniform value.
    let mut reference = vec![vec![0.0f32; GRID]; GRID];
    for i in 0..GRID {
        for j in 0..GRID {
            let idx = i * GRID + j;
            let up = if i > 0 { reference[i - 1][j] } else { 0.0 };
            let left = if j > 0 { reference[i][j - 1] } else { 0.0 };
            reference[i][j] = 0.5 * (idx % 7) as f32 + up + left;
        }
    }
    let expect = reference[GRID - 1][GRID - 1];

    let fut = ex.run(&g);
    match fut.wait_timeout(DEADLINE) {
        None => panic!("wavefront hung under fault plan (seed {seed})"),
        Some(Ok(())) => {
            let got = tiles[corner].read()[0];
            assert!(
                (got - expect).abs() < 1e-3,
                "wavefront reported success with wrong data (seed {seed}): got {got}, want {expect}"
            );
            true
        }
        Some(Err(e)) => {
            assert!(
                !matches!(e, HfError::Cancelled),
                "uncancelled wavefront ended Cancelled (seed {seed}): {e}"
            );
            false
        }
    }
}

/// 100 randomized fault plans over both workloads: every run must settle
/// within the deadline with either a correct result or a structured error.
#[test]
fn chaos_fault_plans_never_hang_or_corrupt() {
    let base = base_seed();
    eprintln!("chaos base seed: {base} (set HF_CHAOS_SEED={base} to reproduce)");
    let mut rng = Rng(base);
    let (mut ok, mut failed) = (0u32, 0u32);
    let (mut faults, mut retries, mut losses) = (0u64, 0u64, 0u64);
    for iter in 0..PLANS {
        let seed = rng.next();
        eprintln!("iteration {iter}: plan seed {seed}");
        for (workload, plan_seed) in [("saxpy", seed), ("wavefront", seed ^ 0xabcd)] {
            let ex = chaos_executor(plan_for(plan_seed));
            let succeeded = match workload {
                "saxpy" => run_saxpy(&ex, seed),
                _ => run_wavefront(&ex, seed),
            };
            if succeeded {
                ok += 1;
            } else {
                failed += 1;
            }
            let snap = ex.snapshot();
            faults += snap.faults_injected;
            retries += snap.retries;
            losses += snap.devices_lost;
        }
    }
    eprintln!(
        "chaos summary (base seed {base}): {ok} ok, {failed} structured failures, \
         {faults} faults injected, {retries} retries, {losses} device losses"
    );
    // The campaign must actually exercise the fault paths: some runs keep
    // succeeding, and faults/retries fire somewhere across 200 runs.
    assert!(ok > 0, "no run succeeded under chaos (base seed {base})");
    assert!(
        faults > 0 || losses > 0,
        "no fault ever fired across {PLANS} plans (base seed {base})"
    );
}

/// Acceptance criterion: a run that loses a device mid-flight completes on
/// the survivors, and the loss is visible in the stats snapshot.
#[test]
fn device_loss_completes_on_survivors() {
    let seed = base_seed();
    let ex = Executor::builder(2, 2)
        .retry_policy(RetryPolicy::new(3))
        .build();
    ex.gpu_runtime()
        .set_fault_plan(Some(FaultPlan::seeded(seed).lose_device(1, 1)));

    // Two independent lanes => two placement groups => both devices used,
    // so device 1 is guaranteed to host live work when it dies.
    let bufs: Vec<HostVec<i32>> = (0..2).map(|_| HostVec::from_vec(vec![3; 64])).collect();
    let g = Heteroflow::new("lose_one");
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

    let res = ex
        .run(&g)
        .wait_timeout(DEADLINE)
        .unwrap_or_else(|| panic!("device-loss run hung (seed {seed})"));
    assert_eq!(res, Ok(()), "device-loss run failed (seed {seed})");
    for b in &bufs {
        assert!(
            b.read().iter().all(|&v| v == 6),
            "device-loss run corrupted data (seed {seed})"
        );
    }
    let snap = ex.snapshot();
    assert!(
        snap.devices_lost >= 1,
        "expected devices_lost >= 1 in stats (seed {seed}), got {}",
        snap.devices_lost
    );
}

/// The failover case again, with a host chain before and after the GPU
/// lanes and one worker: the tail tasks are skipped while the failover is
/// pending, so the worker itself finishes the pass, performs the failover
/// and runs the first replayed task in the same burst. It must dispatch it
/// by the re-placed plan, not by the one its burst started with, and every
/// host task's body runs exactly once.
#[test]
fn device_loss_replays_on_the_new_plan_within_one_burst() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    let seed = base_seed();
    let ex = Executor::builder(1, 2)
        .retry_policy(RetryPolicy::new(3))
        .build();
    ex.gpu_runtime()
        .set_fault_plan(Some(FaultPlan::seeded(seed).lose_device(1, 1)));

    let bufs: Vec<HostVec<i32>> = (0..2).map(|_| HostVec::from_vec(vec![3; 64])).collect();
    let g = Heteroflow::new("lose_one_between_host_chains");
    let bodies: Vec<Arc<AtomicUsize>> = (0..6).map(|_| Arc::new(AtomicUsize::new(0))).collect();
    let host = |i: usize| {
        let c = Arc::clone(&bodies[i]);
        g.host(&format!("host_{i}"), move || {
            c.fetch_add(1, Ordering::SeqCst);
        })
    };
    let chain: Vec<HostTask> = (0..6).map(host).collect();
    chain[0].precede(&chain[1]);
    chain[1].precede(&chain[2]);
    chain[3].precede(&chain[4]);
    chain[4].precede(&chain[5]);
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
        chain[2].precede(&p);
        p.precede(&k);
        k.precede(&s);
        s.precede(&chain[3]);
    }

    let res = ex
        .run(&g)
        .wait_timeout(DEADLINE)
        .unwrap_or_else(|| panic!("device-loss run hung (seed {seed})"));
    assert_eq!(res, Ok(()), "device-loss run failed (seed {seed})");
    for b in &bufs {
        assert!(
            b.read().iter().all(|&v| v == 6),
            "device-loss run corrupted data (seed {seed})"
        );
    }
    for (i, c) in bodies.iter().enumerate() {
        assert_eq!(
            c.load(Ordering::SeqCst),
            1,
            "host_{i} body count (seed {seed})"
        );
    }
    assert!(ex.snapshot().devices_lost >= 1);
}

/// Chaos with two tenants sharing a fleet: seeded fault plans fire under
/// concurrent multi-tenant submission, and every future still settles
/// within the deadline as success-with-correct-data or a structured
/// error — admission bookkeeping never wedges or leaks an in-flight slot.
#[test]
fn fleet_chaos_two_tenants_never_hang() {
    let base = base_seed() ^ 0xf1ee;
    let mut rng = Rng(base);
    let (mut ok, mut failed) = (0u32, 0u32);
    for iter in 0..10 {
        let seed = rng.next();
        eprintln!("fleet chaos iteration {iter}: plan seed {seed}");
        let ex = chaos_executor(plan_for(seed));
        let fleet = Fleet::new(
            ex,
            FleetConfig {
                max_inflight: 2,
                ..FleetConfig::default()
            },
        );
        let alpha = fleet.register(
            "alpha",
            TenantConfig {
                weight: 4,
                ..TenantConfig::default()
            },
        );
        let beta = fleet.register("beta", TenantConfig::default());

        const N: usize = 128;
        let mut lanes = Vec::new();
        for (tenant, runs) in [(&alpha, 3usize), (&beta, 2usize)] {
            for r in 0..runs {
                let x: HostVec<i32> = HostVec::from_vec(vec![1; N]);
                let g = Heteroflow::new(&format!("chaos_{}_{r}", tenant.as_str()));
                let p = g.pull("pull", &x);
                let k = g.kernel("double", &[&p], |cfg, args| {
                    let xs = args.slice_mut::<i32>(0).unwrap();
                    for t in cfg.threads() {
                        if t < xs.len() {
                            xs[t] *= 2;
                        }
                    }
                });
                k.cover(N, 64);
                let s = g.push("push", &p, &x);
                p.precede(&k);
                k.precede(&s);
                let fut = fleet.submit(tenant, &g).expect("no quotas configured");
                lanes.push((x, fut));
            }
        }
        for (x, fut) in lanes {
            match fut.wait_timeout(DEADLINE) {
                None => panic!("fleet run hung under fault plan (seed {seed})"),
                Some(Ok(())) => {
                    assert!(
                        x.read().iter().all(|&v| v == 2),
                        "fleet run reported success with wrong data (seed {seed})"
                    );
                    ok += 1;
                }
                Some(Err(e)) => {
                    assert!(
                        !matches!(e, HfError::Cancelled),
                        "uncancelled fleet run ended Cancelled (seed {seed}): {e}"
                    );
                    failed += 1;
                }
            }
        }
        fleet.wait_idle();
        let snap = fleet.snapshot();
        assert_eq!(snap.inflight, 0, "slot leak after drain (seed {seed})");
        assert_eq!(snap.queued, 0, "queue leak after drain (seed {seed})");
        let settled: u64 = snap
            .tenants
            .iter()
            .map(|t| t.completed + t.failed + t.cancelled)
            .sum();
        assert_eq!(
            settled, 5,
            "every submission settles exactly once (seed {seed})"
        );
    }
    eprintln!("fleet chaos summary (base seed {base}): {ok} ok, {failed} structured failures");
    assert!(
        ok > 0,
        "no fleet run succeeded under chaos (base seed {base})"
    );
}

/// H2D faults aimed at the transfer-elision path: a graph whose pull has
/// valid residency is mutated and re-run under an H2D fault budget. The
/// retried copy must deliver the *new* host bytes — a bug that left stale
/// residency valid across the fault would surface as the old values.
/// Exercises both the single-op and the chunked (pipelined) copy paths.
#[test]
fn h2d_faults_never_serve_stale_residency() {
    const N: usize = 256;
    let seed = base_seed() ^ 0xe11d;
    for threshold in [usize::MAX, 128] {
        let ex = Executor::builder(2, 1)
            .retry_policy(RetryPolicy::new(4))
            .copy_chunk_threshold(threshold)
            .build();
        let data: HostVec<i32> = HostVec::from_vec(vec![0; N]);
        let g = Heteroflow::new("elide_chaos");
        let p = g.pull("pull", &data);
        let k = g.kernel("incr", &[&p], |cfg, args| {
            let v = args.slice_mut::<i32>(0).unwrap();
            for t in cfg.threads() {
                if t < v.len() {
                    v[t] += 1;
                }
            }
        });
        k.cover(N, 64);
        let s = g.push("push", &p, &data);
        p.precede(&k);
        k.precede(&s);

        // Clean run establishes residency (push revalidates it).
        ex.run(&g)
            .wait_timeout(DEADLINE)
            .unwrap_or_else(|| panic!("clean run hung (seed {seed})"))
            .expect("clean run");
        assert!(data.read().iter().all(|&v| v == 1));

        // Every H2D draw faults until the budget runs out.
        ex.gpu_runtime().set_fault_plan(Some(
            FaultPlan::seeded(seed)
                .fail(FaultSite::H2d, 1.0)
                .max_faults(2),
        ));

        // Unchanged rerun: the copy elides, drawing no fault, so the run
        // succeeds without touching the budget-limited fault stream.
        ex.run(&g)
            .wait_timeout(DEADLINE)
            .unwrap_or_else(|| panic!("elided rerun hung (seed {seed})"))
            .unwrap_or_else(|e| panic!("elided rerun failed (seed {seed}): {e}"));
        assert!(
            data.read().iter().all(|&v| v == 2),
            "elided rerun corrupted data (seed {seed}, threshold {threshold})"
        );
        assert!(ex.snapshot().transfers_elided >= 1);

        // Mutated rerun: the copy must really happen; the first attempts
        // fault and the retry re-copies. Stale residency would read 3.
        data.write().iter_mut().for_each(|v| *v = 10);
        ex.run(&g)
            .wait_timeout(DEADLINE)
            .unwrap_or_else(|| panic!("faulted rerun hung (seed {seed})"))
            .unwrap_or_else(|e| panic!("faulted rerun failed (seed {seed}): {e}"));
        assert!(
            data.read().iter().all(|&v| v == 11),
            "stale bytes served across H2D fault (seed {seed}, threshold \
             {threshold}): {:?}...",
            &data.read()[..4]
        );
    }
}

/// The chunked form of the case above, with the fault landing between
/// chunks: by then earlier chunks have overwritten part of a buffer that
/// was resident at the previous version. Without retries the run fails
/// and the buffer must be left non-resident — an unchanged rerun copies
/// every byte and elides nothing, where a stale residency would push the
/// half-old, half-new buffer back into the host vector. With retries the
/// run succeeds with the new bytes.
#[test]
fn mid_chunk_h2d_fault_drops_residency() {
    const N: usize = 256; // 1 KiB: 16 chunks of 64 bytes
    let base = base_seed() ^ 0xc4a2;
    let mut mid_chunk = 0;
    for i in 0..16 {
        let seed = base.wrapping_add(i);
        for attempts in [1, 4] {
            let ex = Executor::builder(2, 1)
                .retry_policy(RetryPolicy::new(attempts))
                .copy_chunk_threshold(64)
                .build();
            let data: HostVec<i32> = HostVec::from_vec(vec![1; N]);
            let g = Heteroflow::new("chunk_chaos");
            let p = g.pull("pull", &data);
            g.push("push", &p, &data).succeed(&p);
            let run = |what: &str| {
                ex.run(&g)
                    .wait_timeout(DEADLINE)
                    .unwrap_or_else(|| panic!("{what} run hung (seed {seed})"))
            };

            // Clean run: resident at the version the push produced.
            run("clean").expect("clean run");
            data.write().iter_mut().for_each(|v| *v = 2);

            let dev = ex.gpu_runtime().device(0).expect("device 0");
            let h2d = || {
                dev.stats()
                    .h2d_bytes
                    .load(std::sync::atomic::Ordering::Relaxed)
            };
            let before = h2d();
            ex.gpu_runtime().set_fault_plan(Some(
                FaultPlan::seeded(seed)
                    .fail(FaultSite::H2d, 0.3)
                    .max_faults(1),
            ));
            let faulted = run("faulted");
            ex.gpu_runtime().set_fault_plan(None);
            dev.synchronize();
            let copied = (h2d() - before) as usize;

            if ex.snapshot().faults_injected == 0 {
                faulted.expect("no fault fired");
            } else if attempts == 1 {
                let e = faulted.expect_err("a fault without retries fails the run");
                assert!(
                    matches!(e.gpu_cause(), Some(GpuError::FaultInjected { .. })),
                    "{e}"
                );
                mid_chunk += usize::from(copied > 0);
                let s0 = ex.snapshot();
                run("rerun").expect("rerun after the fault");
                let s1 = ex.snapshot();
                assert_eq!(
                    s1.transfers_elided, s0.transfers_elided,
                    "rerun elided against a half-written buffer (seed {seed})"
                );
                assert_eq!(s1.bytes_h2d - s0.bytes_h2d, (N * 4) as u64, "seed {seed}");
            } else {
                faulted.unwrap_or_else(|e| panic!("retry failed (seed {seed}): {e}"));
                assert!(
                    copied >= N * 4,
                    "the retry copies the whole span again (seed {seed})"
                );
            }
            assert!(
                data.read().iter().all(|&v| v == 2),
                "stale bytes pushed back (seed {seed}, attempts {attempts}): {:?}...",
                &data.read()[..4]
            );
        }
    }
    assert!(
        mid_chunk > 0,
        "no plan faulted past the first chunk (base seed {base})"
    );
}

/// Run-level and task-level events in emission order: phase, task, `ok`.
#[derive(Default)]
struct Capture(std::sync::Mutex<Vec<(LifecyclePhase, Option<u32>, bool)>>);

impl heteroflow::core::ExecutorObserver for Capture {
    fn on_lifecycle(&self, ev: &LifecycleEvent) {
        self.0.lock().unwrap().push((ev.phase, ev.task, ev.ok));
    }
}

/// `lanes` pull → double → push lanes over `bufs`; with `serial`, lane
/// `i + 1` starts only after a host task behind lane `i`'s push.
fn doubling_lanes(g: &Heteroflow, bufs: &[HostVec<i32>], serial: bool) {
    let mut prev: Option<HostTask> = None;
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
        if let Some(h) = prev.take() {
            h.precede(&p);
        }
        if serial {
            let h = g.host(&format!("after_{i}"), || {});
            s.precede(&h);
            prev = Some(h);
        }
    }
}

/// Three devices, two of which die on their first op, under three lanes
/// that run one after the other: whichever dying device is touched first
/// requests a failover that skips the rest of the pass, so the second one
/// is only met by a *replay* pass. The failover budget is the
/// submission's, not the pass's: two failovers fit `max_failovers(2)`,
/// and under `max_failovers(1)` the second one fails the run structured.
#[test]
fn failover_budget_survives_the_replay_hand_over() {
    for (budget, survives) in [(2, true), (1, false)] {
        let capture = std::sync::Arc::new(Capture::default());
        let ex = Executor::builder(2, 3)
            .retry_policy(RetryPolicy::new(3).max_failovers(budget))
            .observer(capture.clone())
            .build();
        ex.gpu_runtime().set_fault_plan(Some(
            FaultPlan::seeded(base_seed())
                .lose_device(0, 0)
                .lose_device(1, 0),
        ));
        let bufs: Vec<HostVec<i32>> = (0..3).map(|_| HostVec::from_vec(vec![3; 64])).collect();
        let g = Heteroflow::new("lose_two_in_sequence");
        doubling_lanes(&g, &bufs, true);

        let res = ex
            .run(&g)
            .wait_timeout(DEADLINE)
            .unwrap_or_else(|| panic!("run hung with a failover budget of {budget}"));
        let failovers = (capture.0.lock().unwrap().iter())
            .filter(|e| e.0 == LifecyclePhase::Failover)
            .count();
        if survives {
            assert_eq!(res, Ok(()));
            assert_eq!(failovers, 2, "each dying device costs one failover");
            assert!(bufs.iter().all(|b| b.read().iter().all(|&v| v == 6)));
            assert_eq!(ex.snapshot().devices_lost, 2);
        } else {
            let err = res.expect_err("the second failover exceeds the budget");
            assert!(
                matches!(err.gpu_cause(), Some(GpuError::DeviceLost(_))),
                "{err}"
            );
            assert_eq!(failovers, 1);
        }
    }
}

/// The lifecycle stream of a failed-over run. Device 0 dies on its first
/// op, so nothing ever completes on it: there is one `Failover`; a task
/// that finished before it is never heard of again; a replayed task
/// becomes `Ready` (a fused member: `Dispatched`) only after it; and over
/// both passes every task has exactly one successful `Finished`.
#[test]
fn failed_over_run_finishes_every_task_once() {
    use LifecyclePhase::{Dispatched, Failover, Finished, Ready};
    let capture = std::sync::Arc::new(Capture::default());
    let ex = Executor::builder(2, 2).observer(capture.clone()).build();
    ex.gpu_runtime()
        .set_fault_plan(Some(FaultPlan::seeded(base_seed()).lose_device(0, 0)));
    let bufs: Vec<HostVec<i32>> = (0..2).map(|_| HostVec::from_vec(vec![3; 64])).collect();
    let g = Heteroflow::new("one_failover");
    doubling_lanes(&g, &bufs, false);
    let tasks = g.num_tasks() as u32;
    assert_eq!(ex.run(&g).wait_timeout(DEADLINE), Some(Ok(())));
    assert!(bufs.iter().all(|b| b.read().iter().all(|&v| v == 6)));

    let events = capture.0.lock().unwrap();
    let at = |want: LifecyclePhase, task: Option<u32>| -> Vec<usize> {
        (0..events.len())
            .filter(|&i| events[i].0 == want && events[i].1 == task && events[i].2)
            .collect()
    };
    let failover = match at(Failover, None)[..] {
        [i] => i,
        ref other => panic!("expected one Failover, found {}", other.len()),
    };
    let mut replayed = 0;
    for t in (0..tasks).map(Some) {
        let finished = match at(Finished, t)[..] {
            [i] => i,
            ref other => panic!("task {t:?}: {} successful Finished events", other.len()),
        };
        let last_seen = (0..events.len()).rfind(|&i| events[i].1 == t).unwrap();
        if finished < failover {
            assert_eq!(last_seen, finished, "task {t:?} finished, then reappeared");
        } else {
            replayed += 1;
            let heads = at(Ready, t);
            let made_runnable = if heads.is_empty() {
                at(Dispatched, t)
            } else {
                heads
            };
            let last = *made_runnable
                .last()
                .expect("a replayed task is made runnable");
            assert!(
                failover < last && last < finished,
                "task {t:?} replayed out of order"
            );
        }
    }
    assert!(replayed >= 3, "the lost device's lane replays");
}
