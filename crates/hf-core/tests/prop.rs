//! Property-based tests: random DAGs always execute respecting every
//! dependency edge, with all tasks run exactly once per round. (Algorithm
//! 1's properties are checked on random frozen graphs in `placement.rs`.)

use hf_core::{Executor, Heteroflow};
use hf_sync::sync::Mutex;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Builds a random DAG over `n` host tasks: each edge goes from a lower to
/// a higher index, so the graph is acyclic by construction.
fn random_dag_edges(n: usize, density_seed: &[u8]) -> Vec<(usize, usize)> {
    let mut edges = Vec::new();
    let mut k = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            let byte = density_seed[k % density_seed.len()];
            k += 1;
            if byte.is_multiple_of(3) {
                edges.push((i, j));
            }
        }
    }
    edges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every precedence edge is honored: when task j runs, every
    /// predecessor i has already finished. Each task runs exactly once.
    #[test]
    fn random_dags_respect_all_edges(
        n in 2usize..24,
        seed in proptest::collection::vec(any::<u8>(), 16..64),
        workers in 1usize..5,
    ) {
        let edges = random_dag_edges(n, &seed);
        let ex = Executor::new(workers, 0);
        let g = Heteroflow::new("prop");

        let finish_order = Arc::new(Mutex::new(Vec::<usize>::new()));
        let run_counts: Arc<Vec<AtomicUsize>> =
            Arc::new((0..n).map(|_| AtomicUsize::new(0)).collect());

        let tasks: Vec<_> = (0..n)
            .map(|i| {
                let fo = Arc::clone(&finish_order);
                let rc = Arc::clone(&run_counts);
                g.host(&format!("t{i}"), move || {
                    rc[i].fetch_add(1, Ordering::SeqCst);
                    fo.lock().push(i);
                })
            })
            .collect();
        for &(a, b) in &edges {
            tasks[a].precede(&tasks[b]);
        }

        ex.run(&g).wait().unwrap();

        let order = finish_order.lock().clone();
        prop_assert_eq!(order.len(), n);
        for (i, c) in run_counts.iter().enumerate() {
            prop_assert_eq!(c.load(Ordering::SeqCst), 1, "task {} ran wrong count", i);
        }
        let pos: std::collections::HashMap<usize, usize> =
            order.iter().enumerate().map(|(p, &t)| (t, p)).collect();
        for &(a, b) in &edges {
            prop_assert!(pos[&a] < pos[&b], "edge {}->{} violated", a, b);
        }
    }

    /// run_n(k) runs every task exactly k times and rounds never overlap:
    /// a strictly serialized chain observes a consistent count.
    #[test]
    fn run_n_rounds_are_serialized(
        k in 0usize..6,
        workers in 1usize..4,
    ) {
        let ex = Executor::new(workers, 0);
        let g = Heteroflow::new("rounds");
        let a_count = Arc::new(AtomicUsize::new(0));
        let b_count = Arc::new(AtomicUsize::new(0));
        let (ac, bc) = (Arc::clone(&a_count), Arc::clone(&b_count));
        let observed_diffs = Arc::new(Mutex::new(Vec::new()));
        let od = Arc::clone(&observed_diffs);
        let a = g.host("a", move || { ac.fetch_add(1, Ordering::SeqCst); });
        let b = g.host("b", move || {
            let av = a_count.load(Ordering::SeqCst);
            let bv = bc.fetch_add(1, Ordering::SeqCst) + 1;
            od.lock().push((av, bv));
        });
        a.precede(&b);
        ex.run_n(&g, k).wait().unwrap();
        prop_assert_eq!(b_count.load(Ordering::SeqCst), k);
        // In round r (1-based), b must observe a's count == r exactly:
        // rounds are back-to-back, never overlapping.
        for (r, (av, bv)) in observed_diffs.lock().iter().enumerate() {
            prop_assert_eq!(*bv, r + 1);
            prop_assert_eq!(*av, r + 1, "round {} overlapped", r);
        }
    }
}
