//! End-to-end Listing 1: the saxpy task graph, including stateful
//! re-execution semantics.

use heteroflow::prelude::*;

fn build_saxpy(
    g: &Heteroflow,
    x: &HostVec<i32>,
    y: &HostVec<i32>,
    n: usize,
    a: i32,
) -> (HostTask, HostTask) {
    let host_x = g.host("host_x", {
        let x = x.clone();
        move || {
            let mut w = x.write();
            if w.is_empty() {
                w.resize(n, 1);
            }
        }
    });
    let host_y = g.host("host_y", {
        let y = y.clone();
        move || {
            let mut w = y.write();
            if w.is_empty() {
                w.resize(n, 2);
            }
        }
    });
    let pull_x = g.pull("pull_x", x);
    let pull_y = g.pull("pull_y", y);
    let kernel = g.kernel("saxpy", &[&pull_x, &pull_y], move |cfg, args| {
        let mut parts = args.split().expect("disjoint");
        let xs = parts.read::<i32>(0).expect("x");
        let ys = parts.write::<i32>(1).expect("y");
        for i in cfg.threads() {
            if i < n {
                ys[i] += a * xs[i];
            }
        }
    });
    kernel.cover(n, 256);
    let push_x = g.push("push_x", &pull_x, x);
    let push_y = g.push("push_y", &pull_y, y);
    host_x.precede(&pull_x);
    host_y.precede(&pull_y);
    kernel.succeed_all(&[&pull_x, &pull_y]);
    kernel.precede_all(&[&push_x, &push_y]);
    (host_x, host_y)
}

#[test]
fn saxpy_end_to_end() {
    const N: usize = 65536;
    let ex = Executor::new(4, 2);
    let g = Heteroflow::new("saxpy");
    let x: HostVec<i32> = HostVec::new();
    let y: HostVec<i32> = HostVec::new();
    build_saxpy(&g, &x, &y, N, 2);
    ex.run(&g).wait().expect("saxpy runs");
    assert_eq!(x.len(), N);
    assert!(y.read().iter().all(|&v| v == 4), "y = 2*1 + 2");
}

#[test]
fn saxpy_on_every_gpu_count() {
    const N: usize = 4096;
    for gpus in 1..=4u32 {
        let ex = Executor::new(2, gpus);
        let g = Heteroflow::new("saxpy");
        let x: HostVec<i32> = HostVec::new();
        let y: HostVec<i32> = HostVec::new();
        build_saxpy(&g, &x, &y, N, 3);
        ex.run(&g).wait().expect("saxpy runs");
        assert!(y.read().iter().all(|&v| v == 5), "gpus={gpus}");
    }
}

/// Statefulness across runs: the same graph re-runs over *changed* host
/// data — the pulls re-read current contents, and the kernel accumulates.
#[test]
fn saxpy_rerun_sees_new_data() {
    const N: usize = 1024;
    let ex = Executor::new(2, 1);
    let g = Heteroflow::new("saxpy");
    let x: HostVec<i32> = HostVec::new();
    let y: HostVec<i32> = HostVec::new();
    build_saxpy(&g, &x, &y, N, 2);

    ex.run(&g).wait().expect("first run");
    assert!(y.read().iter().all(|&v| v == 4));

    // Mutate host data between runs; the second run must see it.
    x.write().iter_mut().for_each(|v| *v = 10);
    ex.run(&g).wait().expect("second run");
    // y = 2*10 + 4.
    assert!(y.read().iter().all(|&v| v == 24));
}

/// run_n on a GPU graph: the kernel accumulates across rounds because
/// push writes back and the next round's pull re-reads.
#[test]
fn saxpy_run_n_accumulates() {
    const N: usize = 256;
    let ex = Executor::new(2, 1);
    let g = Heteroflow::new("saxpy");
    let x: HostVec<i32> = HostVec::new();
    let y: HostVec<i32> = HostVec::new();
    build_saxpy(&g, &x, &y, N, 1);
    // Each round: y = x + y = 1 + y. After 5 rounds: 2 + 5.
    ex.run_n(&g, 5).wait().expect("runs");
    assert!(y.read().iter().all(|&v| v == 7), "got {:?}", &y.read()[..4]);
}

/// run_until drives a GPU feedback loop: the predicate reads data the
/// push task wrote back each round (the Listing 12 pattern with real
/// device round-trips).
#[test]
fn run_until_observes_gpu_results() {
    const N: usize = 128;
    let ex = Executor::new(2, 1);
    let g = Heteroflow::new("feedback");
    let data: HostVec<i64> = HostVec::from_vec(vec![1; N]);
    let p = g.pull("pull", &data);
    let k = g.kernel("double", &[&p], |cfg, args| {
        let v = args.slice_mut::<i64>(0).expect("data");
        for t in cfg.threads() {
            if t < v.len() {
                v[t] *= 2;
            }
        }
    });
    k.cover(N, 64);
    let s = g.push("push", &p, &data);
    p.precede(&k);
    k.precede(&s);

    let watch = data.clone();
    ex.run_until(&g, move || watch.read()[0] >= 1024)
        .wait()
        .expect("feedback loop runs");
    // 1 -> 2 -> ... -> 1024 = ten doublings.
    assert!(data.read().iter().all(|&v| v == 1024));
}

/// Device pool must be pristine after the graph is dropped (pull
/// allocations persist with the frozen graph for transfer elision, and
/// are reclaimed when it goes away).
#[test]
fn pull_allocations_are_reclaimed() {
    const N: usize = 2048;
    let ex = Executor::new(2, 2);
    let g = Heteroflow::new("saxpy");
    let x: HostVec<i32> = HostVec::new();
    let y: HostVec<i32> = HostVec::new();
    build_saxpy(&g, &x, &y, N, 2);
    ex.run(&g).wait().expect("runs");
    drop(g);
    // Worker and engine threads release their reference to the frozen
    // snapshot asynchronously after the completion promise settles, so
    // poll briefly instead of asserting instantly.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let leaked: usize = ex
            .gpu_runtime()
            .devices()
            .iter()
            .map(|d| d.pool_stats().bytes_in_use)
            .sum();
        if leaked == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "pull memory leaked: {leaked} bytes still in use"
        );
        std::thread::yield_now();
    }
}
