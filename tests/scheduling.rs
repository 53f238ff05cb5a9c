//! Integration tests of the scheduler: device placement end-to-end,
//! error propagation, graph queuing, and the Fig 3 reuse pattern.

use heteroflow::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Many independent kernel groups must spread across all devices
/// (balanced packing) and still compute correctly.
#[test]
fn groups_spread_across_devices_and_compute() {
    const GROUPS: usize = 12;
    const N: usize = 512;
    let ex = Executor::new(4, 4);
    let g = Heteroflow::new("spread");
    let datas: Vec<HostVec<u32>> = (0..GROUPS)
        .map(|i| HostVec::from_vec(vec![i as u32; N]))
        .collect();
    for (i, d) in datas.iter().enumerate() {
        let p = g.pull(&format!("p{i}"), d);
        let k = g.kernel(&format!("k{i}"), &[&p], move |cfg, args| {
            let v = args.slice_mut::<u32>(0).expect("data");
            for t in cfg.threads() {
                if t < v.len() {
                    v[t] += 100;
                }
            }
        });
        k.cover(N, 128);
        let s = g.push(&format!("s{i}"), &p, d);
        p.precede(&k);
        k.precede(&s);
    }
    ex.run(&g).wait().expect("runs");
    for (i, d) in datas.iter().enumerate() {
        assert!(d.read().iter().all(|&v| v == i as u32 + 100));
    }
    // Every device got some kernels (12 groups over 4 GPUs, balanced).
    for dev in ex.gpu_runtime().devices() {
        let k = dev.stats().kernels.load(Ordering::Relaxed);
        assert!(k >= 1, "device {} ran no kernels", dev.id());
    }
}

/// The Fig 3 pattern: kernel2 reads pull1's device data through a
/// transitive dependency only.
#[test]
fn transitive_data_reuse() {
    let ex = Executor::new(2, 3);
    let g = Heteroflow::new("fig3");
    let v1: HostVec<i32> = HostVec::from_vec(vec![5; 64]);
    let v2: HostVec<i32> = HostVec::from_vec(vec![7; 64]);
    let p1 = g.pull("p1", &v1);
    let p2 = g.pull("p2", &v2);
    let k1 = g.kernel("k1", &[&p1], |cfg, args| {
        let v = args.slice_mut::<i32>(0).expect("p1");
        for t in cfg.threads() {
            if t < v.len() {
                v[t] *= 2;
            }
        }
    });
    k1.cover(64, 32);
    let k2 = g.kernel("k2", &[&p1, &p2], |cfg, args| {
        let mut parts = args.split().expect("disjoint");
        let a = parts.read::<i32>(0).expect("a");
        let b = parts.write::<i32>(1).expect("b");
        for t in cfg.threads() {
            if t < b.len() {
                b[t] += a[t];
            }
        }
    });
    k2.cover(64, 32);
    let s1 = g.push("s1", &p1, &v1);
    let s2 = g.push("s2", &p2, &v2);
    // No direct p1 -> k2 edge: ordering flows through k1, which also
    // precedes the push of p1 (Listing 10's edges).
    p1.precede(&k1);
    p2.precede(&k2);
    k1.precede_all(&[&s1, &k2]);
    k2.precede(&s2);
    assert!(g.analyze().is_clean(), "{}", g.analyze().render_text());
    ex.run(&g).wait().expect("runs");
    assert!(v1.read().iter().all(|&v| v == 10), "a = 2*5");
    assert!(v2.read().iter().all(|&v| v == 7 + 10), "b = 7 + 2*5");
}

/// A kernel whose pull dependency was omitted must fail with
/// SourceNotPulled, not compute garbage.
#[test]
fn missing_pull_dependency_is_reported() {
    let ex = Executor::new(2, 1);
    let g = Heteroflow::new("missing");
    let d: HostVec<i32> = HostVec::from_vec(vec![1; 16]);
    let p = g.pull("pull", &d);
    let k = g.kernel("kernel", &[&p], |_, _| {});
    k.cover(16, 16);
    // Deliberately force kernel BEFORE pull.
    k.precede(&p);
    let err = ex.run(&g).wait().expect_err("must fail");
    assert!(
        matches!(err, HfError::SourceNotPulled { .. }),
        "got {err:?}"
    );
}

/// A panicking kernel surfaces as TaskPanicked and the executor (and the
/// device engine) survive to run the next graph.
#[test]
fn kernel_panic_is_contained() {
    let ex = Executor::new(2, 1);
    let g = Heteroflow::new("boom");
    let d: HostVec<i32> = HostVec::from_vec(vec![1; 16]);
    let p = g.pull("pull", &d);
    let k = g.kernel("kernel", &[&p], |_, _| panic!("kernel bug"));
    k.cover(16, 16);
    p.precede(&k);
    let err = ex.run(&g).wait().expect_err("must fail");
    assert!(matches!(err, HfError::TaskPanicked { .. }), "got {err:?}");

    // Executor and device still work.
    let g2 = Heteroflow::new("after");
    let d2: HostVec<i32> = HostVec::from_vec(vec![3; 16]);
    let p2 = g2.pull("pull", &d2);
    let k2 = g2.kernel("kernel", &[&p2], |cfg, args| {
        let v = args.slice_mut::<i32>(0).expect("data");
        for t in cfg.threads() {
            if t < v.len() {
                v[t] += 1;
            }
        }
    });
    k2.cover(16, 16);
    let s2 = g2.push("push", &p2, &d2);
    p2.precede(&k2);
    k2.precede(&s2);
    ex.run(&g2).wait().expect("recovered");
    assert!(d2.read().iter().all(|&v| v == 4));
}

/// Cycles are rejected at submission, through the public run API.
#[test]
fn cycle_rejected_at_run() {
    let ex = Executor::new(1, 0);
    let g = Heteroflow::new("cycle");
    let a = g.host("a", || {});
    let b = g.host("b", || {});
    a.precede(&b);
    b.precede(&a);
    assert!(matches!(
        ex.run(&g).wait(),
        Err(HfError::CycleDetected { .. })
    ));
}

/// Futures from interleaved graphs all complete; wait_for_all drains.
#[test]
fn many_graphs_interleaved() {
    let ex = Executor::new(4, 2);
    let counter = Arc::new(AtomicUsize::new(0));
    let mut futures = Vec::new();
    let graphs: Vec<Heteroflow> = (0..10)
        .map(|i| {
            let g = Heteroflow::new(&format!("g{i}"));
            let c = Arc::clone(&counter);
            let d: HostVec<u8> = HostVec::from_vec(vec![0; 128]);
            let h = g.host("h", move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
            let p = g.pull("p", &d);
            let k = g.kernel("k", &[&p], |_, _| {});
            k.cover(128, 64);
            h.precede(&p);
            p.precede(&k);
            g
        })
        .collect();
    for g in &graphs {
        futures.push(ex.run_n(g, 3));
    }
    ex.wait_for_all();
    for f in &futures {
        assert!(f.is_done());
        f.wait().expect("each run succeeds");
    }
    assert_eq!(counter.load(Ordering::SeqCst), 30);
}

/// Structurally modifying a graph while a topology is running is caught:
/// the next `run` reports `GraphBusy` instead of racing the executor.
#[test]
fn mutation_while_running_is_rejected() {
    let ex = Executor::new(2, 0);
    let g = Heteroflow::new("busy");
    let gate = Arc::new(std::sync::Barrier::new(2));
    let first_run = Arc::new(std::sync::atomic::AtomicBool::new(true));
    let (g2, fr) = (Arc::clone(&gate), Arc::clone(&first_run));
    g.host("slow", move || {
        // Hold the topology active only on the first run; re-runs of the
        // (re-frozen) graph must not block on the used-up barrier.
        if fr.swap(false, Ordering::SeqCst) {
            g2.wait();
        }
    });
    let fut = ex.run(&g);
    // The graph is active; mutate it and try to run again.
    g.host("added-mid-run", || {});
    let second = ex.run(&g);
    assert_eq!(second.wait(), Err(HfError::GraphBusy));
    gate.wait();
    fut.wait().expect("first run completes");
    // Once idle, the modified graph runs fine.
    ex.run(&g).wait().expect("re-freeze after idle");
}

/// Two executors can share one GPU runtime: both see the same devices,
/// memory pools, and counters.
#[test]
fn executors_share_a_gpu_runtime() {
    use heteroflow::gpu::{GpuConfig, GpuRuntime};
    let rt = Arc::new(GpuRuntime::new(2, GpuConfig::default()));
    let ex1 = Executor::builder(2, 0).gpu_runtime(Arc::clone(&rt)).build();
    let ex2 = Executor::builder(2, 0).gpu_runtime(Arc::clone(&rt)).build();
    assert_eq!(ex1.num_gpus(), 2);
    assert_eq!(ex2.num_gpus(), 2);

    let make = |tag: u32| {
        let g = Heteroflow::new(&format!("shared{tag}"));
        let d: HostVec<u32> = HostVec::from_vec(vec![tag; 64]);
        let p = g.pull("p", &d);
        let k = g.kernel("k", &[&p], |cfg, args| {
            let v = args.slice_mut::<u32>(0).expect("data");
            for t in cfg.threads() {
                if t < v.len() {
                    v[t] += 1;
                }
            }
        });
        k.cover(64, 32);
        let s = g.push("s", &p, &d);
        p.precede(&k);
        k.precede(&s);
        (g, d)
    };
    let (g1, d1) = make(10);
    let (g2, d2) = make(20);
    let f1 = ex1.run(&g1);
    let f2 = ex2.run(&g2);
    f1.wait().expect("ex1 runs");
    f2.wait().expect("ex2 runs");
    assert!(d1.read().iter().all(|&v| v == 11));
    assert!(d2.read().iter().all(|&v| v == 21));
    let total_kernels: u64 = rt
        .devices()
        .iter()
        .map(|d| d.stats().kernels.load(Ordering::Relaxed))
        .sum();
    assert_eq!(total_kernels, 2);
}

/// RunFuture implements std Future: graphs can be awaited from async
/// code.
#[test]
fn run_future_is_awaitable() {
    let ex = Executor::new(2, 0);
    let g = Heteroflow::new("awaited");
    let hits = Arc::new(AtomicUsize::new(0));
    let h = Arc::clone(&hits);
    g.host("work", move || {
        h.fetch_add(1, Ordering::SeqCst);
    });

    // Minimal block_on (no async runtime dependency).
    fn block_on<F: std::future::Future>(fut: F) -> F::Output {
        use std::sync::mpsc;
        use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};
        let (tx, rx) = mpsc::channel::<()>();
        unsafe fn clone(p: *const ()) -> RawWaker {
            let tx = &*(p as *const mpsc::Sender<()>);
            RawWaker::new(Box::into_raw(Box::new(tx.clone())) as *const (), &VT)
        }
        unsafe fn wake(p: *const ()) {
            let tx = Box::from_raw(p as *mut mpsc::Sender<()>);
            let _ = tx.send(());
        }
        unsafe fn wake_ref(p: *const ()) {
            let tx = &*(p as *const mpsc::Sender<()>);
            let _ = tx.send(());
        }
        unsafe fn drop_w(p: *const ()) {
            drop(Box::from_raw(p as *mut mpsc::Sender<()>));
        }
        static VT: RawWakerVTable = RawWakerVTable::new(clone, wake, wake_ref, drop_w);
        let waker = unsafe {
            Waker::from_raw(RawWaker::new(Box::into_raw(Box::new(tx)) as *const (), &VT))
        };
        let mut cx = Context::from_waker(&waker);
        let mut fut = std::pin::pin!(fut);
        loop {
            match fut.as_mut().poll(&mut cx) {
                Poll::Ready(v) => return v,
                Poll::Pending => {
                    let _ = rx.recv();
                }
            }
        }
    }

    let fut = ex.run_n(&g, 3);
    block_on(fut).expect("await succeeds");
    assert_eq!(hits.load(Ordering::SeqCst), 3);
}

/// Task fusion must be a pure optimization: identical results with the
/// chain-heavy MIS-style pattern, and the fused counter reflects it.
#[test]
fn fusion_is_transparent() {
    let run = |fusion: bool| -> (Vec<u64>, u64) {
        let ex = Executor::builder(2, 2).task_fusion(fusion).build();
        let g = Heteroflow::new("chainy");
        let d: HostVec<u64> = HostVec::from_vec((0..256).collect());
        let p = g.pull("p", &d);
        let mut prev: TaskRef = p.as_task();
        for i in 0..12 {
            let k = g.kernel(&format!("k{i}"), &[&p], |cfg, args| {
                let v = args.slice_mut::<u64>(0).expect("data");
                for t in cfg.threads() {
                    if t < v.len() {
                        v[t] = v[t].wrapping_mul(3).wrapping_add(1);
                    }
                }
            });
            k.cover(256, 64);
            k.succeed(&prev);
            prev = k.as_task();
        }
        let s = g.push("s", &p, &d);
        s.succeed(&prev);
        ex.run(&g).wait().expect("runs");
        (d.to_vec(), ex.snapshot().fused)
    };
    let (with_fusion, fused) = run(true);
    let (without_fusion, not_fused) = run(false);
    assert_eq!(with_fusion, without_fusion, "fusion changed results");
    assert!(fused >= 12, "chain did not fuse: {fused}");
    assert_eq!(not_fused, 0);
}

/// The executor's placement spreads load across devices even for
/// *separate single-group graphs* submitted back-to-back (cross-topology
/// load bias).
#[test]
fn cross_topology_device_balancing() {
    let ex = Executor::new(2, 4);
    let mut futures = Vec::new();
    for i in 0..8 {
        let g = Heteroflow::new(&format!("solo{i}"));
        let d: HostVec<u64> = HostVec::from_vec(vec![1; 4096]);
        let p = g.pull("p", &d);
        let k = g.kernel("k", &[&p], |_, _| {});
        k.cover(4096, 256).work_units(1e6);
        p.precede(&k);
        futures.push((d, ex.run(&g)));
    }
    for (_, f) in &futures {
        f.wait().expect("runs");
    }
    let devices_used = ex
        .gpu_runtime()
        .devices()
        .iter()
        .filter(|d| d.stats().kernels.load(Ordering::Relaxed) > 0)
        .count();
    assert!(
        devices_used >= 2,
        "8 single-group graphs all packed onto {devices_used} device(s)"
    );
}

/// `tasks_executed` is exact the moment `wait()` returns: every task of
/// the run — the head of an asynchronous GPU chain included — is counted
/// before anything that can resolve the run's future is dispatched.
#[test]
fn tasks_executed_is_exact_after_wait() {
    let ex = Executor::new(2, 1);
    let data = HostVec::from_vec(vec![0i32; 64]);
    let g = Heteroflow::new("count");
    let p = g.pull("pull", &data);
    let k = g.kernel("touch", &[&p], |_, args| {
        args.slice_mut::<i32>(0).expect("arg")[0] += 1;
    });
    let s = g.push("push", &p, &data);
    p.precede(&k);
    k.precede(&s);
    for run in 1..=200u64 {
        ex.run(&g).wait().expect("runs");
        assert_eq!(ex.snapshot().tasks_executed, 3 * run, "after run {run}");
    }
}

/// Join counters under contention: a 64-way fan-out/fan-in diamond and a
/// 16×16 wavefront in one graph, 200 runs on four workers. Every task
/// writes the run number into its own slot; every successor checks the
/// slots of all its predecessors, so a node released before its last
/// predecessor finished (or released twice) fails the run. Each body runs
/// once per run and `tasks_executed` counts every task exactly.
#[test]
fn every_join_releases_once_after_all_predecessors() {
    use std::sync::atomic::AtomicU64;
    const FAN: usize = 64;
    const SIDE: usize = 16;
    const RUNS: u64 = 200;
    let ex = Executor::new(4, 0);
    let g = Heteroflow::new("joins");
    let run = Arc::new(AtomicU64::new(0));
    // Slot 0 the diamond's source, 1..=FAN its middle, then the grid.
    let tasks = 2 + FAN + SIDE * SIDE;
    let slots: Arc<Vec<AtomicU64>> = Arc::new((0..tasks).map(|_| AtomicU64::new(0)).collect());
    let bodies: Arc<Vec<AtomicU64>> = Arc::new((0..tasks).map(|_| AtomicU64::new(0)).collect());
    let task = |me: usize, preds: Vec<usize>| {
        let (run, slots, bodies) = (Arc::clone(&run), Arc::clone(&slots), Arc::clone(&bodies));
        g.host(&format!("t{me}"), move || {
            let r = run.load(Ordering::Relaxed);
            for &p in &preds {
                assert_eq!(slots[p].load(Ordering::Relaxed), r, "t{me} before t{p}");
            }
            bodies[me].fetch_add(1, Ordering::Relaxed);
            slots[me].store(r, Ordering::Relaxed);
        })
    };
    let source = task(0, vec![]);
    let sink = task(FAN + 1, (1..=FAN).collect());
    for m in 1..=FAN {
        let mid = task(m, vec![0]);
        source.precede(&mid);
        mid.precede(&sink);
    }
    let cell = |i: usize, j: usize| FAN + 2 + i * SIDE + j;
    let mut grid: Vec<HostTask> = Vec::with_capacity(SIDE * SIDE);
    for i in 0..SIDE {
        for j in 0..SIDE {
            let mut preds = vec![];
            if i > 0 {
                preds.push(cell(i - 1, j));
            }
            if j > 0 {
                preds.push(cell(i, j - 1));
            }
            let t = task(cell(i, j), preds);
            if i > 0 {
                grid[(i - 1) * SIDE + j].precede(&t);
            }
            if j > 0 {
                grid[i * SIDE + j - 1].precede(&t);
            }
            grid.push(t);
        }
    }
    for r in 1..=RUNS {
        run.store(r, Ordering::Relaxed);
        ex.run(&g)
            .wait()
            .expect("every successor saw its predecessors");
        for (t, b) in bodies.iter().enumerate() {
            assert_eq!(b.load(Ordering::Relaxed), r, "t{t} ran once per run");
        }
    }
    assert_eq!(ex.snapshot().tasks_executed, RUNS * tasks as u64);
}

/// Queued runs that settle the moment the claim reaches them (cancelled
/// while queued, or zero rounds) are drained by a loop when the blocking
/// run releases the graph, not by one nest of stack frames per run: any
/// number of them may sit behind one blocked run.
#[test]
fn queued_runs_that_settle_immediately_do_not_recurse() {
    const QUEUED: usize = 20_000;
    let ex = Executor::new(2, 0);
    let g = Heteroflow::new("promote");
    let gate = Arc::new(std::sync::Barrier::new(2));
    let first_run = Arc::new(std::sync::atomic::AtomicBool::new(true));
    let executed = Arc::new(AtomicUsize::new(0));
    let (g2, fr, ex2) = (
        Arc::clone(&gate),
        Arc::clone(&first_run),
        Arc::clone(&executed),
    );
    g.host("blocker", move || {
        if fr.swap(false, Ordering::SeqCst) {
            g2.wait();
        }
        ex2.fetch_add(1, Ordering::SeqCst);
    });
    let blocked = ex.run(&g);
    let cancelled: Vec<RunFuture> = (0..QUEUED)
        .map(|_| {
            let f = ex.run(&g);
            f.cancel();
            f
        })
        .collect();
    let zero_rounds: Vec<RunFuture> = (0..QUEUED).map(|_| ex.run_n(&g, 0)).collect();
    assert!(!cancelled[0].is_done() && !zero_rounds[0].is_done());

    gate.wait();
    blocked.wait().expect("blocked run completes");
    for f in &cancelled {
        assert_eq!(f.wait(), Err(HfError::Cancelled));
    }
    for f in &zero_rounds {
        assert_eq!(f.wait(), Ok(()));
    }
    assert_eq!(
        executed.load(Ordering::SeqCst),
        1,
        "no queued run executed a task"
    );
    ex.run(&g).wait().expect("graph is runnable afterwards");
    assert_eq!(executed.load(Ordering::SeqCst), 2);
}

/// A host task may submit to *another* executor: the inner run's tokens
/// belong to that executor's queues, whichever thread submits them.
#[test]
fn host_task_submits_to_another_executor() {
    use std::time::Duration;
    let a = Executor::new(1, 0);
    let b = Arc::new(Executor::new(1, 0));
    let inner_runs = Arc::new(AtomicUsize::new(0));
    let inner = Heteroflow::new("inner");
    let c = Arc::clone(&inner_runs);
    inner.host("count", move || {
        c.fetch_add(1, Ordering::SeqCst);
    });

    let outer_runs = Arc::new(AtomicUsize::new(0));
    let inner_settled = Arc::new(AtomicUsize::new(0));
    let outer = Heteroflow::new("outer");
    let (b2, inner2) = (Arc::clone(&b), inner.clone());
    let (o, s) = (Arc::clone(&outer_runs), Arc::clone(&inner_settled));
    let submit = outer.host("submit_to_b", move || {
        o.fetch_add(1, Ordering::SeqCst);
        if b2.run(&inner2).wait_timeout(Duration::from_millis(500)) == Some(Ok(())) {
            s.fetch_add(1, Ordering::SeqCst);
        }
    });
    let o = Arc::clone(&outer_runs);
    let after = outer.host("after", move || {
        o.fetch_add(1, Ordering::SeqCst);
    });
    submit.precede(&after);

    for round in 1..=3 {
        let res = a.run(&outer).wait_timeout(Duration::from_secs(20));
        assert_eq!(res, Some(Ok(())), "outer run {round} on a");
        assert_eq!(
            inner_settled.load(Ordering::SeqCst),
            round,
            "b ran the inner graph"
        );
        assert_eq!(inner_runs.load(Ordering::SeqCst), round);
        assert_eq!(outer_runs.load(Ordering::SeqCst), 2 * round);
    }
    assert_eq!(a.snapshot().tasks_executed, 6);
    assert_eq!(b.snapshot().tasks_executed, 3);
}

/// ... and to its *own* executor, without waiting inside the task.
#[test]
fn host_task_submits_to_its_own_executor() {
    use std::time::Duration;
    let ex = Arc::new(Executor::new(1, 0));
    let other_runs = Arc::new(AtomicUsize::new(0));
    let other = Heteroflow::new("other");
    let c = Arc::clone(&other_runs);
    other.host("count", move || {
        c.fetch_add(1, Ordering::SeqCst);
    });

    let submitted: Arc<std::sync::Mutex<Vec<RunFuture>>> = Default::default();
    let outer = Heteroflow::new("outer");
    let (ex2, other2, sub) = (Arc::clone(&ex), other.clone(), Arc::clone(&submitted));
    outer.host("submit_to_self", move || {
        sub.lock().unwrap().push(ex2.run(&other2));
    });
    for _ in 0..3 {
        let res = ex.run(&outer).wait_timeout(Duration::from_secs(20));
        assert_eq!(res, Some(Ok(())));
    }
    let futures = std::mem::take(&mut *submitted.lock().unwrap());
    assert_eq!(futures.len(), 3);
    for f in futures {
        assert_eq!(f.wait_timeout(Duration::from_secs(20)), Some(Ok(())));
    }
    assert_eq!(other_runs.load(Ordering::SeqCst), 3);
    // The closure's handle must not be the last one: an executor is never
    // dropped on one of its own workers.
    drop(outer);
}

/// One task-level event: `(phase, task, worker, t_ns)`.
type TaskEvent = (LifecyclePhase, u32, Option<u32>, u64);

/// Captures every task-level event.
#[derive(Default)]
struct Capture(std::sync::Mutex<Vec<TaskEvent>>);

impl heteroflow::core::ExecutorObserver for Capture {
    fn on_lifecycle(&self, ev: &LifecycleEvent) {
        if let Some(task) = ev.task {
            self.0
                .lock()
                .unwrap()
                .push((ev.phase, task, ev.worker, ev.t_ns));
        }
    }
}

/// Every task of a wavefront — the ones a worker runs straight after their
/// predecessor, without a deque round trip, included — has exactly one
/// `Ready`, `Started` and `Finished`, stamped in that order, and is started
/// and finished by one worker.
#[test]
fn every_task_has_one_ready_started_finished_in_order() {
    const SIDE: usize = 32;
    let capture = Arc::new(Capture::default());
    let ex = Executor::builder(2, 0).observer(capture.clone()).build();
    let g = Heteroflow::new("events");
    let mut tasks: Vec<HostTask> = Vec::with_capacity(SIDE * SIDE);
    for i in 0..SIDE {
        for j in 0..SIDE {
            let t = g.host(&format!("c{i}_{j}"), || {});
            if i > 0 {
                t.succeed(&tasks[(i - 1) * SIDE + j]);
            }
            if j > 0 {
                t.succeed(&tasks[i * SIDE + j - 1]);
            }
            tasks.push(t);
        }
    }
    ex.run(&g).wait().expect("runs");

    let events = capture.0.lock().unwrap();
    assert_eq!(events.len(), 3 * SIDE * SIDE);
    for task in 0..(SIDE * SIDE) as u32 {
        let of = |phase| {
            let mut hits = events.iter().filter(|e| e.0 == phase && e.1 == task);
            let hit = hits
                .next()
                .unwrap_or_else(|| panic!("task {task}: no {phase}"));
            assert!(hits.next().is_none(), "task {task}: more than one {phase}");
            *hit
        };
        let ready = of(LifecyclePhase::Ready);
        let started = of(LifecyclePhase::Started);
        let finished = of(LifecyclePhase::Finished);
        assert!(
            ready.3 <= started.3 && started.3 <= finished.3,
            "task {task} out of order"
        );
        assert!(started.2.is_some(), "task {task} started off a worker");
        assert_eq!(started.2, finished.2, "task {task} changed workers");
    }
}

/// Registry slots are recycled while a worker is mid-burst: queued runs of
/// two graphs alternate on one worker, each run taking over the slot the
/// previous run of its graph just released. What a worker remembers about
/// a slot never outlives the topology that owned it.
#[test]
fn recycled_slots_never_serve_a_stale_topology() {
    const RUNS: usize = 20_000;
    let ex = Executor::new(1, 0);
    let graphs: Vec<(Heteroflow, Vec<Arc<AtomicUsize>>)> = (0..2)
        .map(|k| {
            let g = Heteroflow::new(&format!("chain{k}"));
            let mut counters: Vec<Arc<AtomicUsize>> = Vec::new();
            let mut prev: Option<HostTask> = None;
            for t in 0..3 {
                let c = Arc::new(AtomicUsize::new(0));
                let c2 = Arc::clone(&c);
                let task = g.host(&format!("t{t}"), move || {
                    c2.fetch_add(1, Ordering::Relaxed);
                });
                if let Some(p) = &prev {
                    p.precede(&task);
                }
                prev = Some(task);
                counters.push(c);
            }
            (g, counters)
        })
        .collect();
    let futures: Vec<RunFuture> = (0..RUNS).map(|i| ex.run(&graphs[i % 2].0)).collect();
    for f in futures {
        f.wait().expect("queued run completes");
    }
    for (k, (_, counters)) in graphs.iter().enumerate() {
        for (t, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), RUNS / 2, "graph {k} task {t}");
        }
    }
    assert_eq!(ex.snapshot().tasks_executed, 3 * RUNS as u64);
}

/// An idle worker pins nothing: once a run is over and its graph dropped,
/// what the host closures captured is freed even though the executor (and
/// the worker that ran them) lives on.
#[test]
fn idle_workers_pin_no_graph() {
    let ex = Executor::new(2, 0);
    let payload = Arc::new(7u64);
    let weak = Arc::downgrade(&payload);
    let g = Heteroflow::new("pinned");
    let first = g.host("first", move || {
        std::hint::black_box(*payload);
    });
    first.precede(&g.host("second", || {}));
    drop(first);
    ex.run(&g).wait().expect("runs");
    drop(g);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(1);
    while weak.upgrade().is_some() {
        assert!(
            std::time::Instant::now() < deadline,
            "a worker still holds the graph"
        );
        std::thread::yield_now();
    }
}

/// Every task-level event by name: `(phase, name, t_ns)`.
#[derive(Default)]
struct Timeline(std::sync::Mutex<Vec<(LifecyclePhase, Arc<str>, u64)>>);

impl heteroflow::core::ExecutorObserver for Timeline {
    fn on_lifecycle(&self, ev: &LifecycleEvent) {
        if ev.task.is_some() {
            let e = (ev.phase, Arc::clone(&ev.name), ev.t_ns);
            self.0.lock().unwrap().push(e);
        }
    }
}

impl Timeline {
    /// When `task` reached `phase` (the one such event).
    fn at(&self, phase: LifecyclePhase, task: &str) -> u64 {
        let events = self.0.lock().unwrap();
        let hit = events.iter().find(|e| e.0 == phase && &*e.1 == task);
        hit.unwrap_or_else(|| panic!("{task}: no {phase}")).2
    }
}

impl Timeline {
    /// True once `task` has been made ready.
    fn is_ready(&self, task: &str) -> bool {
        let events = self.0.lock().unwrap();
        events
            .iter()
            .any(|e| e.0 == LifecyclePhase::Ready && &*e.1 == task)
    }
}

/// A host task that holds its worker until `task` has become ready (at
/// most 1 s), then for 3 ms more.
fn hold_until_ready(
    g: &Heteroflow,
    name: &str,
    tl: &Arc<Timeline>,
    task: &'static str,
) -> HostTask {
    let tl = Arc::clone(tl);
    g.host(name, move || {
        let t = std::time::Instant::now();
        while !tl.is_ready(task) && t.elapsed() < std::time::Duration::from_secs(1) {
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
        std::thread::sleep(std::time::Duration::from_millis(3));
    })
}

/// Ready device work goes ahead of queued host work. On one worker, `h0`
/// releases three pulls behind which a kernel waits, while `h1..h3` are
/// queued, each holding the worker until the kernel is ready: the pulls are
/// dispatched before the next host task starts, and the kernel as soon as
/// the host task running when it became ready ends, so it finishes before
/// the last host task does. (Were the third pull queued behind the host
/// tasks, the kernel could not even start before all four were done.)
#[test]
fn ready_device_work_is_dispatched_ahead_of_queued_host_work() {
    let timeline = Arc::new(Timeline::default());
    let ex = Executor::builder(1, 1).observer(timeline.clone()).build();
    let g = Heteroflow::new("device_first");
    let h0 = g.host("h0", || {});
    let hosts: Vec<HostTask> = (1..4)
        .map(|i| hold_until_ready(&g, &format!("h{i}"), &timeline, "k"))
        .collect();
    let data: Vec<HostVec<u32>> = (0..3).map(|i| HostVec::from_vec(vec![i; 64])).collect();
    let pulls: Vec<PullTask> = (0..3).map(|i| g.pull(&format!("p{i}"), &data[i])).collect();
    let k = g.kernel("k", &[&pulls[0], &pulls[1], &pulls[2]], |_, args| {
        let v = args.slice_mut::<u32>(0).expect("p0");
        v.iter_mut().for_each(|x| *x += 7);
    });
    let s = g.push("s", &pulls[0], &data[0]);
    for p in &pulls {
        h0.precede(p);
        p.precede(&k);
    }
    k.precede(&s);
    ex.run(&g).wait().expect("runs");
    assert!(data[0].read().iter().all(|&x| x == 7));
    drop(hosts);

    use LifecyclePhase::{Dispatched, Finished, Started};
    let last_host_done = (1..4)
        .map(|i| timeline.at(Finished, &format!("h{i}")))
        .max()
        .unwrap();
    assert!(
        timeline.at(Finished, "k") < last_host_done,
        "the kernel finished after every host task"
    );
    let second_host_start = (1..4)
        .map(|i| timeline.at(Started, &format!("h{i}")))
        .min()
        .unwrap();
    for i in 0..3 {
        let dispatched = timeline.at(Dispatched, &format!("p{i}"));
        assert!(
            dispatched < second_host_start,
            "p{i} waited behind a host task"
        );
    }
}

/// A kernel released by a pull's device callback while the only worker
/// runs host tasks is dispatched at that worker's next pop, ahead of the
/// host task already queued.
#[test]
fn kernel_released_by_a_device_callback_runs_at_the_next_pop() {
    let timeline = Arc::new(Timeline::default());
    let ex = Executor::builder(1, 1).observer(timeline.clone()).build();
    let g = Heteroflow::new("callback_release");
    let data = HostVec::from_vec(vec![1u32; 64]);
    let h0 = g.host("h0", || {});
    let p = g.pull("p", &data);
    let k = g.kernel("k", &[&p], |_, args| {
        let v = args.slice_mut::<u32>(0).expect("p");
        v.iter_mut().for_each(|x| *x *= 3);
    });
    let s = g.push("s", &p, &data);
    // `p` is `h0`'s first successor, so the worker dispatches it before it
    // starts a host task, which holds the worker until `p`'s callback has
    // released `k` (`k` also waits on `h0`, so it is not fused behind `p`).
    h0.precede(&p);
    h0.precede(&k);
    for h in ["h1", "h2"] {
        h0.precede(&hold_until_ready(&g, h, &timeline, "k"));
    }
    p.precede(&k);
    k.precede(&s);
    ex.run(&g).wait().expect("runs");
    assert!(data.read().iter().all(|&x| x == 3));

    // A host task holds the worker until `k` is ready, so the other one
    // starts after that: by then `k` must have been dispatched.
    use LifecyclePhase::{Dispatched, Ready, Started};
    let (k_ready, k_dispatched) = (timeline.at(Ready, "k"), timeline.at(Dispatched, "k"));
    let later: Vec<u64> = ["h1", "h2"]
        .map(|h| timeline.at(Started, h))
        .into_iter()
        .filter(|&t| t > k_ready)
        .collect();
    assert!(
        !later.is_empty(),
        "a host task started after k became ready"
    );
    for start in later {
        assert!(k_dispatched < start, "k waited behind a queued host task");
    }
}
