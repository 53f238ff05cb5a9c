//! Stress tests: large random mixed-kind graphs and sustained load.

use heteroflow::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A layered random graph mixing host, pull, kernel, and push tasks.
/// Every kernel increments its data once; the final check counts
/// exactly one increment per kernel layer.
#[test]
fn layered_mixed_graph() {
    const LAYERS: usize = 6;
    const WIDTH: usize = 8;
    const N: usize = 128;

    let ex = Executor::new(4, 2);
    let g = Heteroflow::new("layers");
    let host_hits = Arc::new(AtomicUsize::new(0));

    let data: Vec<HostVec<u32>> = (0..WIDTH).map(|_| HostVec::from_vec(vec![0; N])).collect();
    let pulls: Vec<_> = data
        .iter()
        .enumerate()
        .map(|(i, d)| g.pull(&format!("pull{i}"), d))
        .collect();

    let mut frontier: Vec<TaskRef> = pulls.iter().map(|p| p.as_task()).collect();
    for layer in 0..LAYERS {
        let mut next = Vec::new();
        for (i, p) in pulls.iter().enumerate() {
            let k = g.kernel(&format!("k{layer}_{i}"), &[p], |cfg, args| {
                let v = args.slice_mut::<u32>(0).expect("data");
                for t in cfg.threads() {
                    if t < v.len() {
                        v[t] += 1;
                    }
                }
            });
            k.cover(N, 64);
            k.succeed(&frontier[i]);
            // Interleave host "checkpoint" tasks between kernel layers.
            let h = g.host(&format!("h{layer}_{i}"), {
                let hits = Arc::clone(&host_hits);
                move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                }
            });
            k.precede(&h);
            next.push(h.as_task());
        }
        frontier = next;
    }
    let pushes: Vec<_> = data
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let s = g.push(&format!("push{i}"), &pulls[i], d);
            s.succeed(&frontier[i]);
            s
        })
        .collect();
    let _ = pushes;

    ex.run(&g).wait().expect("layered graph runs");
    for d in &data {
        assert!(d.read().iter().all(|&v| v == LAYERS as u32));
    }
    assert_eq!(host_hits.load(Ordering::Relaxed), LAYERS * WIDTH);
}

/// Sustained mixed load: repeated submissions while earlier ones run.
#[test]
fn sustained_submissions() {
    let ex = Executor::new(3, 1);
    let done = Arc::new(AtomicUsize::new(0));
    let mut futs = Vec::new();
    for round in 0..20 {
        let g = Heteroflow::new(&format!("round{round}"));
        let d: HostVec<u16> = HostVec::from_vec(vec![round as u16; 64]);
        let c = Arc::clone(&done);
        let h = g.host("mark", move || {
            c.fetch_add(1, Ordering::Relaxed);
        });
        let p = g.pull("p", &d);
        let k = g.kernel("k", &[&p], |cfg, args| {
            let v = args.slice_mut::<u16>(0).expect("data");
            for t in cfg.threads() {
                if t < v.len() {
                    v[t] = v[t].wrapping_mul(3);
                }
            }
        });
        k.cover(64, 32);
        let s = g.push("s", &p, &d);
        h.precede(&p);
        p.precede(&k);
        k.precede(&s);
        futs.push((round as u16, d, ex.run(&g)));
    }
    for (round, d, f) in futs {
        f.wait().expect("runs");
        assert!(d.read().iter().all(|&v| v == round.wrapping_mul(3)));
    }
    assert_eq!(done.load(Ordering::Relaxed), 20);
}

/// Deep dependency chain through alternating CPU and GPU tasks: checks
/// the asynchronous completion path never drops a link.
#[test]
fn deep_alternating_chain() {
    const DEPTH: usize = 40;
    let ex = Executor::new(2, 2);
    let g = Heteroflow::new("deep");
    let d: HostVec<i64> = HostVec::from_vec(vec![0; 32]);
    let p = g.pull("pull", &d);
    let mut last: TaskRef = p.as_task();
    for i in 0..DEPTH {
        let k = g.kernel(&format!("k{i}"), &[&p], |cfg, args| {
            let v = args.slice_mut::<i64>(0).expect("data");
            for t in cfg.threads() {
                if t < v.len() {
                    v[t] += 1;
                }
            }
        });
        k.cover(32, 32);
        k.succeed(&last);
        last = k.as_task();
    }
    let s = g.push("push", &p, &d);
    s.succeed(&last);
    ex.run(&g).wait().expect("deep chain runs");
    assert!(d.read().iter().all(|&v| v == DEPTH as i64));
}

/// One executor hammered from several threads, each repeatedly mutating
/// its own graph and resubmitting it via `run_n` / `run` / `run_until`.
/// Checks both results and the scheduling-cache contract with counters
/// (no timing): every mutation forces exactly one re-plan, every
/// unchanged resubmission reuses the cached plan.
#[test]
fn concurrent_mutating_runs_invalidate_sched_cache() {
    const THREADS: usize = 4;
    const PHASES: usize = 5;
    const SUBMISSIONS_PER_PHASE: usize = 3;

    let ex = Arc::new(Executor::new(4, 2));
    let total = Arc::new(AtomicUsize::new(0));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let ex = Arc::clone(&ex);
            let total = Arc::clone(&total);
            std::thread::spawn(move || {
                let g = Heteroflow::new(&format!("mut{t}"));
                let mut expected = 0usize;
                for phase in 0..PHASES {
                    // Mutate: one more task — invalidates the cached plan.
                    let c = Arc::clone(&total);
                    g.host(&format!("t{phase}"), move || {
                        c.fetch_add(1, Ordering::Relaxed);
                    });
                    let tasks = phase + 1;

                    // Submission 1 re-plans; 2 and 3 must hit the cache.
                    ex.run_n(&g, 2).wait().unwrap();
                    expected += 2 * tasks;
                    ex.run(&g).wait().unwrap();
                    expected += tasks;
                    let mut rounds_left = 2;
                    ex.run_until(&g, move || {
                        if rounds_left == 0 {
                            true
                        } else {
                            rounds_left -= 1;
                            false
                        }
                    })
                    .wait()
                    .unwrap();
                    expected += 2 * tasks;
                }
                expected
            })
        })
        .collect();

    let expected: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total.load(Ordering::Relaxed), expected);

    // Each graph is submitted sequentially by its owning thread, so the
    // cache outcome is deterministic even though the executor is shared:
    // one miss per mutation phase, hits for every other submission.
    let s = ex.snapshot();
    assert_eq!(s.topo_cache_misses as usize, THREADS * PHASES);
    assert_eq!(
        s.topo_cache_hits as usize,
        THREADS * PHASES * (SUBMISSIONS_PER_PHASE - 1)
    );
}
