//! The executor's public contract, one behaviour per test: run/run_n/
//! run_until, error reporting, the scheduling cache, the retry policy and
//! device loss, and the locality cost feedback.

use heteroflow::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

#[test]
fn empty_graph_completes_immediately() {
    let ex = Executor::new(2, 1);
    let g = Heteroflow::new("empty");
    assert!(ex.run(&g).wait().is_ok());
}

#[test]
fn host_only_chain_runs_in_order() {
    let ex = Executor::new(4, 0);
    let g = Heteroflow::new("chain");
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut prev: Option<HostTask> = None;
    for i in 0..10 {
        let log = Arc::clone(&log);
        let t = g.host(&format!("t{i}"), move || log.lock().unwrap().push(i));
        if let Some(p) = &prev {
            p.precede(&t);
        }
        prev = Some(t);
    }
    ex.run(&g).wait().unwrap();
    assert_eq!(&*log.lock().unwrap(), &(0..10).collect::<Vec<_>>());
}

#[test]
fn diamond_respects_dependencies() {
    let ex = Executor::new(4, 0);
    let g = Heteroflow::new("diamond");
    let counter = Arc::new(AtomicUsize::new(0));
    let snap = Arc::new(Mutex::new((0usize, 0usize)));
    let (c1, c2, c3) = (
        Arc::clone(&counter),
        Arc::clone(&counter),
        Arc::clone(&counter),
    );
    let s1 = Arc::clone(&snap);
    let a = g.host("a", move || {
        c1.fetch_add(1, Ordering::SeqCst);
    });
    let b = g.host("b", {
        let c = Arc::clone(&counter);
        move || {
            c.fetch_add(1, Ordering::SeqCst);
        }
    });
    let c = g.host("c", move || {
        c2.fetch_add(1, Ordering::SeqCst);
    });
    let d = g.host("d", move || {
        let v = c3.load(Ordering::SeqCst);
        *s1.lock().unwrap() = (v, 3);
    });
    a.precede(&b).precede(&c);
    d.succeed(&b).succeed(&c);
    ex.run(&g).wait().unwrap();
    assert_eq!(
        *snap.lock().unwrap(),
        (3, 3),
        "d saw all three predecessors"
    );
}

#[test]
fn run_n_repeats() {
    let ex = Executor::new(2, 0);
    let g = Heteroflow::new("rep");
    let counter = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&counter);
    g.host("inc", move || {
        c.fetch_add(1, Ordering::SeqCst);
    });
    ex.run_n(&g, 100).wait().unwrap();
    assert_eq!(counter.load(Ordering::SeqCst), 100);
}

#[test]
fn run_n_zero_is_noop() {
    let ex = Executor::new(2, 0);
    let g = Heteroflow::new("zero");
    let counter = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&counter);
    g.host("inc", move || {
        c.fetch_add(1, Ordering::SeqCst);
    });
    ex.run_n(&g, 0).wait().unwrap();
    assert_eq!(counter.load(Ordering::SeqCst), 0);
}

#[test]
fn run_until_stops_on_predicate() {
    let ex = Executor::new(2, 0);
    let g = Heteroflow::new("until");
    let counter = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&counter);
    g.host("inc", move || {
        c.fetch_add(1, Ordering::SeqCst);
    });
    let c2 = Arc::clone(&counter);
    ex.run_until(&g, move || c2.load(Ordering::SeqCst) >= 7)
        .wait()
        .unwrap();
    assert_eq!(counter.load(Ordering::SeqCst), 7);
}

#[test]
fn panicking_host_task_reports_error() {
    let ex = Executor::new(2, 0);
    let g = Heteroflow::new("boom");
    g.host("boom", || panic!("intentional"));
    let res = ex.run(&g).wait();
    assert_eq!(
        res,
        Err(HfError::TaskPanicked {
            task: "boom".into()
        })
    );
    // Executor still works afterwards.
    let g2 = Heteroflow::new("ok");
    let ran = Arc::new(AtomicUsize::new(0));
    let r = Arc::clone(&ran);
    g2.host("fine", move || {
        r.store(1, Ordering::SeqCst);
    });
    ex.run(&g2).wait().unwrap();
    assert_eq!(ran.load(Ordering::SeqCst), 1);
}

/// A host task that panics while holding a `HostVec` write guard leaves
/// that lock and its own body lock poisoned. The *same* graph must run
/// again: both locks are recovered, and the task reads and writes the
/// `HostVec` it panicked over.
#[test]
fn same_graph_reruns_after_panicking_host_task() {
    let ex = Executor::new(2, 0);
    let g = Heteroflow::new("rerun");
    let data: HostVec<i32> = HostVec::from_vec(vec![1, 2, 3]);
    let fail = Arc::new(AtomicBool::new(true));
    let (d, f) = (data.clone(), Arc::clone(&fail));
    g.host("touch", move || {
        let mut v = d.write();
        v[0] += 10;
        if f.load(Ordering::SeqCst) {
            panic!("intentional, with the write guard held");
        }
        let sum: i32 = v.iter().sum();
        v.push(sum);
    });
    let res = ex.run(&g).wait();
    assert_eq!(
        res,
        Err(HfError::TaskPanicked {
            task: "touch".into()
        })
    );
    fail.store(false, Ordering::SeqCst);
    ex.run(&g).wait().unwrap();
    assert_eq!(data.to_vec(), vec![21, 2, 3, 26]);
}

#[test]
fn concurrent_runs_of_same_graph_queue_up() {
    let ex = Executor::new(4, 0);
    let g = Heteroflow::new("queued");
    let counter = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&counter);
    g.host("inc", move || {
        c.fetch_add(1, Ordering::SeqCst);
    });
    let futs: Vec<_> = (0..8).map(|_| ex.run(&g)).collect();
    for f in futs {
        f.wait().unwrap();
    }
    assert_eq!(counter.load(Ordering::SeqCst), 8);
}

#[test]
fn wait_for_all_drains_everything() {
    let ex = Executor::new(4, 0);
    let counter = Arc::new(AtomicUsize::new(0));
    let graphs: Vec<Heteroflow> = (0..5)
        .map(|i| {
            let g = Heteroflow::new(&format!("g{i}"));
            let c = Arc::clone(&counter);
            g.host("inc", move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
            g
        })
        .collect();
    for g in &graphs {
        ex.run_n(g, 3);
    }
    ex.wait_for_all();
    assert_eq!(counter.load(Ordering::SeqCst), 15);
}

#[test]
fn wide_fanout_exercises_stealing() {
    let ex = Executor::new(4, 0);
    let g = Heteroflow::new("fan");
    let counter = Arc::new(AtomicUsize::new(0));
    let root = g.host("root", || {});
    for i in 0..200 {
        let c = Arc::clone(&counter);
        let t = g.host(&format!("leaf{i}"), move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
        root.precede(&t);
    }
    ex.run(&g).wait().unwrap();
    assert_eq!(counter.load(Ordering::SeqCst), 200);
    assert!(ex.snapshot().tasks_executed >= 201);
    // 200 successors released at once must have been sprayed across
    // the injector in batched pushes, not item-by-item.
    assert!(ex.snapshot().injector_batches >= 1);
    assert!(ex.snapshot().notify_coalesced >= 1);
}

#[test]
fn placeholder_execution_is_an_error() {
    let ex = Executor::new(2, 0);
    let g = Heteroflow::new("ph");
    g.placeholder("nothing");
    assert!(matches!(ex.run(&g).wait(), Err(HfError::EmptyTask { .. })));
}

#[test]
fn late_assigned_placeholder_runs_its_work() {
    let ex = Executor::new(2, 0);
    let g = Heteroflow::new("late");
    let log = Arc::new(Mutex::new(Vec::new()));
    let l = Arc::clone(&log);
    let before = g.host("before", move || l.lock().unwrap().push("before"));
    let later = g.placeholder("later");
    before.precede(&later);
    // Wired into the graph first, given its work afterwards.
    let l = Arc::clone(&log);
    later.assign_host(move || l.lock().unwrap().push("later"));
    ex.run(&g).wait().unwrap();
    assert_eq!(*log.lock().unwrap(), ["before", "later"]);
}

#[test]
fn gpu_graph_without_gpus_errors() {
    let ex = Executor::new(2, 0);
    let g = Heteroflow::new("gpu");
    let x: HostVec<i32> = HostVec::from_vec(vec![1, 2, 3]);
    g.pull("px", &x);
    assert!(matches!(ex.run(&g).wait(), Err(HfError::NoGpus { .. })));
}

#[test]
fn non_adaptive_mode_still_works() {
    let ex = Executor::builder(3, 0).adaptive_sleep(false).build();
    let g = Heteroflow::new("spin");
    let counter = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&counter);
    g.host("inc", move || {
        c.fetch_add(1, Ordering::SeqCst);
    });
    ex.run_n(&g, 10).wait().unwrap();
    assert_eq!(counter.load(Ordering::SeqCst), 10);
}

/// `Executor::snapshot` carries the live gauges: with the only worker
/// held inside one host task and its sibling waiting behind it, one
/// worker is in a burst and the sibling's token is queued.
#[test]
fn snapshot_reports_live_gauges_mid_run() {
    let ex = Executor::new(1, 0);
    let g = Heteroflow::new("gauges");
    let release = Arc::new(AtomicBool::new(false));
    let (started, first_started) = std::sync::mpsc::channel();
    for name in ["a", "b"] {
        let (release, started) = (Arc::clone(&release), started.clone());
        g.host(name, move || {
            let _ = started.send(());
            while !release.load(Ordering::Acquire) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
    }
    let fut = ex.run(&g);
    first_started
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("one task started");
    let live = ex.snapshot();
    release.store(true, Ordering::Release);
    fut.wait().unwrap();
    assert_eq!(live.inflight_tasks, 1, "{live:?}");
    assert!(live.queue_depth >= 1, "{live:?}");
}

#[test]
fn unchanged_graph_reuses_cached_placement() {
    let ex = Executor::new(2, 1);
    let g = Heteroflow::new("cached");
    let x: HostVec<i32> = HostVec::from_vec(vec![1; 64]);
    let p = g.pull("p", &x);
    let k = g.kernel("k", &[&p], |_, _| {});
    let s = g.push("s", &p, &x);
    p.precede(&k);
    k.precede(&s);

    for _ in 0..10 {
        ex.run(&g).wait().unwrap();
    }
    // Exactly one freeze + placement for the unchanged graph.
    assert_eq!(ex.snapshot().topo_cache_misses, 1);
    assert_eq!(ex.snapshot().topo_cache_hits, 9);

    // Mutating the graph invalidates the cache.
    g.host("extra", || {});
    ex.run(&g).wait().unwrap();
    assert_eq!(ex.snapshot().topo_cache_misses, 2);
    assert_eq!(ex.snapshot().topo_cache_hits, 9);
    // And the new epoch caches again.
    ex.run(&g).wait().unwrap();
    assert_eq!(ex.snapshot().topo_cache_misses, 2);
    assert_eq!(ex.snapshot().topo_cache_hits, 10);
}

#[test]
fn run_n_of_unchanged_graph_is_one_placement() {
    let ex = Executor::new(2, 0);
    let g = Heteroflow::new("repeat");
    let counter = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&counter);
    g.host("inc", move || {
        c.fetch_add(1, Ordering::SeqCst);
    });
    ex.run_n(&g, 50).wait().unwrap();
    ex.run_n(&g, 50).wait().unwrap();
    assert_eq!(counter.load(Ordering::SeqCst), 100);
    assert_eq!(ex.snapshot().rounds, 100);
    // Two submissions, one graph version: one miss, one hit.
    assert_eq!(ex.snapshot().topo_cache_misses, 1);
    assert_eq!(ex.snapshot().topo_cache_hits, 1);
}

#[test]
fn plan_then_run_is_one_placement() {
    let ex = Executor::new(2, 0);
    let g = Heteroflow::new("planned");
    let a = g.host("a", || {});
    let cache = |misses, hits| {
        let s = ex.snapshot();
        assert_eq!((s.topo_cache_misses, s.topo_cache_hits), (misses, hits));
    };
    let first = ex.plan(&g).unwrap();
    cache(1, 0);
    ex.run(&g).wait().unwrap();
    cache(1, 1);
    assert!(Arc::ptr_eq(&first, &ex.plan(&g).unwrap()));
    cache(1, 2);
    // A mutation is a new graph version, and a seed a new cost table.
    g.host("b", || {}).succeed(&a);
    let mutated = ex.plan(&g).unwrap();
    assert!(!Arc::ptr_eq(&first, &mutated));
    assert_eq!(mutated.placement().device_of.len(), 2);
    ex.seed_task_cost("planned", "a", 1e3);
    assert!(!Arc::ptr_eq(&mutated, &ex.plan(&g).unwrap()));
    cache(3, 2);
}

/// pull→kernel(double)→push lane over `data`; expect every element
/// doubled after a successful run.
fn gpu_lane(g: &Heteroflow, name: &str, data: &HostVec<i32>) {
    let p = g.pull(&format!("{name}_pull"), data);
    let k = g.kernel(&format!("{name}_k"), &[&p], |cfg, args| {
        let xs = args.slice_mut::<i32>(0).unwrap();
        for i in cfg.threads() {
            if i < xs.len() {
                xs[i] *= 2;
            }
        }
    });
    k.block_x(64);
    let s = g.push(&format!("{name}_push"), &p, data);
    p.precede(&k);
    k.precede(&s);
}

#[test]
fn injected_fault_retries_to_success() {
    let ex = Executor::builder(2, 1)
        .retry_policy(RetryPolicy::new(3))
        .build();
    ex.gpu_runtime().set_fault_plan(Some(
        FaultPlan::seeded(42)
            .fail(FaultSite::Kernel, 1.0)
            .max_faults(1),
    ));
    let g = Heteroflow::new("retry");
    let x: HostVec<i32> = HostVec::from_vec(vec![1; 64]);
    gpu_lane(&g, "lane", &x);
    ex.run(&g).wait().unwrap();
    assert!(x.read().iter().all(|&v| v == 2));
    let snap = ex.snapshot();
    assert!(snap.retries >= 1, "retries: {}", snap.retries);
    assert!(snap.faults_injected >= 1);
}

#[test]
fn exhausted_retries_fail_with_structured_error() {
    let ex = Executor::builder(2, 1)
        .retry_policy(RetryPolicy::new(2))
        .build();
    // Every h2d copy faults, forever: two attempts then a hard fail.
    ex.gpu_runtime()
        .set_fault_plan(Some(FaultPlan::seeded(7).fail(FaultSite::H2d, 1.0)));
    let g = Heteroflow::new("exhaust");
    let x: HostVec<i32> = HostVec::from_vec(vec![1; 16]);
    g.pull("p", &x);
    let err = ex.run(&g).wait().unwrap_err();
    assert_eq!(err.task(), Some("p"));
    assert!(matches!(
        err.gpu_cause(),
        Some(GpuError::FaultInjected { .. })
    ));
    assert!(ex.snapshot().retries >= 1);
}

#[test]
fn device_loss_with_fail_policy_errors() {
    let ex = Executor::builder(2, 1)
        .retry_policy(RetryPolicy::default().on_device_loss(OnDeviceLoss::Fail))
        .build();
    ex.gpu_runtime()
        .set_fault_plan(Some(FaultPlan::seeded(3).lose_device(0, 0)));
    let g = Heteroflow::new("lossfail");
    let x: HostVec<i32> = HostVec::from_vec(vec![1; 16]);
    gpu_lane(&g, "lane", &x);
    let err = ex.run(&g).wait().unwrap_err();
    assert!(matches!(err.gpu_cause(), Some(GpuError::DeviceLost(0))));
}

#[test]
fn losing_the_only_device_fails_structured() {
    let ex = Executor::new(2, 1);
    ex.gpu_runtime()
        .set_fault_plan(Some(FaultPlan::seeded(5).lose_device(0, 0)));
    let g = Heteroflow::new("lastgpu");
    let x: HostVec<i32> = HostVec::from_vec(vec![1; 16]);
    gpu_lane(&g, "lane", &x);
    // Failover has no survivors: the run must fail (never hang) with
    // a structured error.
    let err = ex.run(&g).wait().unwrap_err();
    assert!(matches!(err, HfError::NoGpus { .. }));
}

#[test]
fn submission_after_device_loss_uses_survivors() {
    let ex = Executor::new(2, 2);
    ex.gpu_runtime().device(0).unwrap().mark_lost();
    let g = Heteroflow::new("degraded");
    let x: HostVec<i32> = HostVec::from_vec(vec![1; 64]);
    let y: HostVec<i32> = HostVec::from_vec(vec![3; 64]);
    gpu_lane(&g, "lx", &x);
    gpu_lane(&g, "ly", &y);
    ex.run(&g).wait().unwrap();
    assert!(x.read().iter().all(|&v| v == 2));
    assert!(y.read().iter().all(|&v| v == 6));
    assert_eq!(ex.snapshot().devices_lost, 1);
}

#[test]
fn second_executor_evicts_cache_entry() {
    let g = Heteroflow::new("two-ex");
    g.host("t", || {});
    let ex1 = Executor::new(1, 0);
    let ex2 = Executor::new(1, 0);
    ex1.run(&g).wait().unwrap();
    ex1.run(&g).wait().unwrap();
    assert_eq!(ex1.snapshot().topo_cache_misses, 1);
    assert_eq!(ex1.snapshot().topo_cache_hits, 1);
    // A different executor must not reuse ex1's plan.
    ex2.run(&g).wait().unwrap();
    assert_eq!(ex2.snapshot().topo_cache_misses, 1);
    assert_eq!(ex2.snapshot().topo_cache_hits, 0);
}

/// Resubmitting an unchanged graph: the placement cache hits and the
/// transfers elide via residency.
#[test]
fn resubmission_caches_plan_and_elides_copies() {
    let ex = Executor::new(2, 2);
    let g = Heteroflow::new("loc");
    let x: HostVec<i32> = HostVec::from_vec(vec![1; 256]);
    let y: HostVec<i32> = HostVec::from_vec(vec![2; 256]);
    let px = g.pull("px", &x);
    let py = g.pull("py", &y);
    let _ = (px, py);
    ex.run(&g).wait().unwrap();
    ex.run(&g).wait().unwrap();
    let snap = ex.snapshot();
    assert_eq!(snap.topo_cache_misses, 1);
    assert_eq!(snap.topo_cache_hits, 1);
    // Second submission found both buffers warm.
    assert_eq!(snap.transfers_elided, 2);
    assert_eq!(snap.bytes_h2d, 2048, "each buffer copied exactly once");
    // The one placement made saw nothing resident yet.
    assert_eq!(snap.placement_warm_hits, 0);
}

/// Nothing inside the runtime writes to the seed table: a run neither
/// adds entries nor replaces a seed with its own modeled duration.
#[test]
fn seeded_costs_survive_a_run() {
    let ex = Executor::new(1, 1);
    ex.seed_task_cost("g", "t", 1234.0);
    assert_eq!(ex.cost_db().get("g", "t"), Some(1234.0));
    let g = Heteroflow::new("g");
    let x: HostVec<i32> = HostVec::from_vec(vec![1; 32]);
    g.pull("t", &x);
    g.pull("u", &x);
    ex.run(&g).wait().unwrap();
    assert_eq!(ex.cost_db().get("g", "t"), Some(1234.0));
    assert_eq!(ex.cost_db().len(), 1);
}

/// A seed takes effect on a plain `Executor::new`: three equal pulls pack
/// as {p0, p2} | {p1} by the analytic model, and as {p2} | {p0, p1} once
/// p2 is seeded ten times heavier (heaviest first, onto the lighter bin).
#[test]
fn seed_on_default_executor_reorders_next_placement() {
    const BYTES: u64 = 1024;
    let ex = Executor::new(1, 2);
    let g = Heteroflow::new("seeded");
    let bufs: Vec<HostVec<u8>> = (0..3)
        .map(|_| HostVec::from_vec(vec![0; BYTES as usize]))
        .collect();
    for (i, b) in bufs.iter().enumerate() {
        g.pull(&format!("p{i}"), b);
    }
    let devices = ex.gpu_runtime().devices();
    let analytic = devices[0].cost_model().h2d(BYTES as usize).as_nanos() as f64;
    ex.seed_task_cost("seeded", "p2", analytic * 10.0);
    ex.run(&g).wait().unwrap();
    assert_eq!(ex.device_loads(), vec![analytic * 10.0, analytic * 2.0]);
    let copied: Vec<u64> = devices
        .iter()
        .map(|d| d.stats().h2d_bytes.load(Ordering::Relaxed))
        .collect();
    assert_eq!(copied, vec![BYTES, 2 * BYTES]);
}

/// A plan is a function of the graph version, the executor and the seeds:
/// a seed given after the graph's plan was cached retires that plan. The
/// inputs are rewritten between the runs, so no pull is warm anywhere and
/// p2, seeded ten times heavier, is packed alone against the decayed
/// load [a, a/2] of the first placement.
#[test]
fn seed_after_cached_plan_replans() {
    const BYTES: usize = 1024;
    let ex = Executor::new(1, 2);
    let g = Heteroflow::new("late_seed");
    let bufs: Vec<HostVec<u8>> = (0..3).map(|_| HostVec::from_vec(vec![0; BYTES])).collect();
    for (i, b) in bufs.iter().enumerate() {
        g.pull(&format!("p{i}"), b);
    }
    let analytic = ex.gpu_runtime().devices()[0]
        .cost_model()
        .h2d(BYTES)
        .as_nanos() as f64;
    ex.run(&g).wait().unwrap();
    assert_eq!(ex.device_loads(), vec![analytic * 2.0, analytic]);

    let seed = analytic * 10.0;
    ex.seed_task_cost("late_seed", "p2", seed);
    bufs.iter().for_each(|b| drop(b.write()));
    ex.run(&g).wait().unwrap();
    assert_eq!(
        ex.snapshot().topo_cache_misses,
        2,
        "the seed re-made the plan"
    );
    assert!(
        ex.device_loads().iter().any(|&l| l >= seed),
        "{:?}",
        ex.device_loads()
    );
}

/// The cross-graph load bias, to the bit: a first placement decays the
/// estimate and stores its loads, a cache hit decays it and re-applies
/// the graph's own load, and another graph's miss packs against the
/// decayed estimate.
#[test]
fn device_load_bias_on_hit_and_miss() {
    let ex = Executor::new(1, 2);
    let lane = |name: &str| {
        let g = Heteroflow::new(name);
        gpu_lane(&g, "lane", &HostVec::from_vec(vec![1; 64]));
        g
    };
    let g = lane("first");
    ex.run(&g).wait().unwrap();
    let l1 = ex.device_loads();
    let w = l1[0];
    assert!(w > 0.0);
    assert_eq!(l1, vec![w, 0.0]);

    ex.run(&g).wait().unwrap();
    let l2 = ex.device_loads();
    assert_eq!(
        l2,
        l1.iter().map(|l| l * 0.5 + l).collect::<Vec<_>>(),
        "hit"
    );

    let on_dev1 = || {
        ex.gpu_runtime().devices()[1]
            .stats()
            .h2d_bytes
            .load(Ordering::Relaxed)
    };
    assert_eq!(on_dev1(), 0);
    ex.run(&lane("second")).wait().unwrap();
    assert_eq!(ex.device_loads(), vec![l2[0] * 0.5, w], "miss");
    assert!(on_dev1() > 0, "the second graph went to the idle device");
    let snap = ex.snapshot();
    assert_eq!((snap.topo_cache_hits, snap.topo_cache_misses), (1, 2));
}

#[test]
fn device_loads_tracks_gpu_count() {
    let ex = Executor::new(1, 3);
    assert_eq!(ex.device_loads().len(), 3);
    let g = Heteroflow::new("dl");
    let x: HostVec<i32> = HostVec::from_vec(vec![1; 128]);
    gpu_lane(&g, "lane", &x);
    ex.run(&g).wait().unwrap();
    assert!(ex.device_loads().iter().any(|&l| l > 0.0));
}
