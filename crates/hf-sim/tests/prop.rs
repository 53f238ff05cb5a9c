//! Property-based tests of the discrete-event model.

use hf_core::Heteroflow;
use hf_gpu::SimDuration;
use hf_sim::{simulate, simulate_traced, Machine};
use proptest::prelude::*;

/// Random layered host-task DAG (acyclic by construction).
fn random_graph(n: usize, seed: &[u8]) -> hf_core::GraphInfo {
    let g = Heteroflow::new("prop");
    let tasks: Vec<_> = (0..n).map(|i| g.host(&format!("t{i}"), || {})).collect();
    let mut k = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            let b = seed[k % seed.len()];
            k += 1;
            if b.is_multiple_of(4) {
                tasks[i].precede(&tasks[j]);
            }
        }
    }
    g.info().expect("acyclic")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Classic makespan bounds hold for every random DAG, cost vector,
    /// and core count: CP <= makespan and work/C <= makespan <= work;
    /// and the schedule itself is dependency-consistent.
    #[test]
    fn makespan_bounds_and_valid_schedule(
        n in 2usize..20,
        seed in proptest::collection::vec(any::<u8>(), 8..48),
        costs in proptest::collection::vec(1u64..50, 20),
        cores in 1usize..8,
    ) {
        let info = random_graph(n, &seed);
        let cost_of = |id: usize| SimDuration::from_micros(costs[id % costs.len()]);
        let (result, spans) = simulate_traced(
            &info,
            &Machine::new(cores, 0),
            cost_of,
        ).expect("simulates");

        let total: u64 = (0..n).map(|i| cost_of(i).as_nanos()).sum();
        let makespan = result.makespan().as_nanos();

        // Work conservation and bounds.
        prop_assert_eq!(result.cpu_busy_secs, total as f64 / 1e9);
        prop_assert!(makespan <= total, "makespan beyond serial time");
        prop_assert!(makespan * cores as u64 >= total, "overpacked cores");

        // Critical-path lower bound: longest cost-weighted chain.
        let mut cp = vec![0u64; n];
        // Nodes are created in topological-compatible order (edges i<j).
        for i in 0..n {
            cp[i] += cost_of(i).as_nanos();
            for &s in &info.nodes[i].successors {
                cp[s] = cp[s].max(cp[i]);
            }
        }
        let cp_bound = cp.iter().copied().max().unwrap_or(0);
        prop_assert!(
            makespan >= cp_bound,
            "makespan {} below critical path {}",
            makespan,
            cp_bound
        );

        // Dependency consistency of the emitted schedule.
        let mut span_of = vec![(0u64, 0u64); n];
        for s in &spans {
            span_of[s.node] = (s.start_ns, s.finish_ns);
        }
        for (u, node) in info.nodes.iter().enumerate() {
            for &v in &node.successors {
                prop_assert!(span_of[v].0 >= span_of[u].1, "edge {}->{} broken", u, v);
            }
        }
    }

    /// Multi-core runs never exceed the single-core serial time, and
    /// core-count changes stay within Graham's list-scheduling bound
    /// (strict monotonicity does not hold for list scheduling — Graham
    /// anomalies — but 2x is guaranteed).
    #[test]
    fn graham_bounds_across_core_counts(
        n in 2usize..16,
        seed in proptest::collection::vec(any::<u8>(), 8..32),
    ) {
        let info = random_graph(n, &seed);
        let run = |cores: usize| {
            simulate(
                &info,
                &Machine::new(cores, 0),
                |_| SimDuration::from_micros(100),
            ).expect("simulates").makespan_secs
        };
        let serial = run(1);
        let mut prev = serial;
        for cores in [2usize, 4, 8] {
            let t = run(cores);
            prop_assert!(t <= serial + 1e-12, "cores={} beat by serial", cores);
            prop_assert!(t <= prev * 2.0 + 1e-12, "anomaly beyond Graham bound");
            prev = t;
        }
    }
}
