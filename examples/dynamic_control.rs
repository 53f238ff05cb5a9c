//! Asynchronous execution control — the paper's Listing 12.
//!
//! Demonstrates `run` / `run_n` / `run_until` with futures,
//! `wait_for_all`, placeholder tasks assigned late, thread-safe
//! submission from multiple threads, and iterative convergence driven by
//! a stopping predicate.
//!
//! Run: `cargo run --example dynamic_control`

use heteroflow::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn main() {
    // `hf::Executor executor(8, 4)` — 8 CPU threads, 4 GPUs.
    let executor = Executor::new(8, 4);

    // --- run / run_n / run_until, all non-blocking (Listing 12). ---
    let counter = Arc::new(AtomicUsize::new(0));
    let g = Heteroflow::new("counted");
    g.host("inc", {
        let c = Arc::clone(&counter);
        move || {
            c.fetch_add(1, Ordering::SeqCst);
        }
    });

    let future1 = executor.run(&g);
    let future2 = executor.run_n(&g, 100);
    let stop_at = Arc::clone(&counter);
    let future3 = executor.run_until(&g, move || stop_at.load(Ordering::SeqCst) >= 150);
    executor.wait_for_all();
    assert!(future1.is_done() && future2.is_done() && future3.is_done());
    println!("after run + run_n(100) + run_until(>=150): count = {}",
        counter.load(Ordering::SeqCst));

    // --- placeholder tasks: allocate structure now, decide work later. ---
    let g2 = Heteroflow::new("late-bound");
    let before = g2.host("before", || println!("placeholder demo: before"));
    let later = g2.placeholder("decided-at-runtime");
    before.precede(&later);
    // ... later in the program, once the content is known:
    later.assign_host(|| println!("placeholder demo: late-bound work ran"));
    executor.run(&g2).wait().expect("late-bound graph runs");

    // --- iterative convergence: run_until drives a GPU reduction. ---
    let data: HostVec<f32> = HostVec::from_vec(vec![1024.0; 256]);
    let g3 = Heteroflow::new("halve-until-small");
    let pull = g3.pull("pull", &data);
    let kernel = g3.kernel("halve", &[&pull], |cfg, args| {
        let v = args.slice_mut::<f32>(0).expect("data");
        for i in cfg.threads() {
            if i < v.len() {
                v[i] /= 2.0;
            }
        }
    });
    kernel.cover(256, 64);
    let push = g3.push("push", &pull, &data);
    pull.precede(&kernel);
    kernel.precede(&push);
    assert!(g3.analyze().is_clean(), "lint:\n{}", g3.analyze().render_text());

    let watch = data.clone();
    let rounds = Arc::new(AtomicUsize::new(0));
    let r2 = Arc::clone(&rounds);
    executor
        .run_until(&g3, move || {
            r2.fetch_add(1, Ordering::SeqCst);
            watch.read().first().is_some_and(|&v| v < 1.0)
        })
        .wait()
        .expect("iterative graph runs");
    println!(
        "halved until < 1.0: value {} after {} predicate checks (expected 11 halvings)",
        data.read()[0],
        rounds.load(Ordering::SeqCst)
    );
    assert!(data.read()[0] < 1.0);

    // --- thread-safe submission: touch one executor from many threads. ---
    let total = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|scope| {
        for t in 0..4 {
            let executor = &executor;
            let total = Arc::clone(&total);
            scope.spawn(move || {
                let g = Heteroflow::new(&format!("thread{t}"));
                g.host("work", {
                    let total = Arc::clone(&total);
                    move || {
                        total.fetch_add(1, Ordering::SeqCst);
                    }
                });
                executor.run_n(&g, 25).wait().expect("runs");
            });
        }
    });
    assert_eq!(total.load(Ordering::SeqCst), 100);
    println!("4 threads x run_n(25) on one executor: total = {}", total.load(Ordering::SeqCst));

    // Scheduler statistics gathered along the way.
    let st = executor.snapshot();
    println!(
        "executor stats: {} tasks, {} steals (success rate {:.2}), {} sleeps",
        st.tasks_executed, st.steals, st.steal_success_rate, st.sleeps
    );
}
