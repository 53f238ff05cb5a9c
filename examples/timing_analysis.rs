//! VLSI timing analysis and correlation — the paper's first application
//! (§IV-A, Fig 5).
//!
//! Synthesizes a netcard-like circuit, builds the multi-view hybrid
//! CPU-GPU correlation task graph (per view: dataset generation on CPU →
//! pulls → logistic-regression kernel on GPU → push → statistics on CPU;
//! a final synchronization task correlates the per-view models), runs it
//! on a Heteroflow executor, and prints the report.
//!
//! Run: `cargo run --release --example timing_analysis -- [views] [gates]`

use heteroflow::prelude::*;
use heteroflow::timing::correlation::{build_correlation_graph, CorrelationConfig};
use heteroflow::timing::views::make_views;
use heteroflow::timing::{Circuit, CircuitConfig};
use std::sync::Arc;

fn main() {
    let mut args = std::env::args().skip(1);
    let views: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);
    let gates: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(20_000);

    println!("synthesizing {gates}-gate circuit ...");
    let circuit = Arc::new(Circuit::synthesize(&CircuitConfig {
        num_gates: gates,
        ..Default::default()
    }));
    println!(
        "circuit: {} gates, {} nets, depth {}",
        circuit.num_gates(),
        circuit.num_edges(),
        circuit.depth()
    );

    let vs = make_views(views, 0.4);
    let cfg = CorrelationConfig {
        paths_per_view: 128,
        epochs: 40,
        ..Default::default()
    };
    let built = build_correlation_graph(Arc::clone(&circuit), &vs, cfg);
    let frozen = built.graph.freeze().expect("acyclic");
    println!(
        "task graph: {} tasks, {} dependencies, critical path {} tasks",
        frozen.num_tasks(),
        built.graph.num_dependencies(),
        frozen.critical_path_len()
    );

    let executor = Executor::new(4, 2);
    let t0 = std::time::Instant::now();
    executor
        .run(&built.graph)
        .wait()
        .expect("correlation graph runs");
    let elapsed = t0.elapsed();

    let report = built.report.lock().clone();
    println!("\n=== correlation report ({views} views, {elapsed:.2?}) ===");
    for (vi, (w, acc)) in report.weights.iter().zip(&report.accuracy).enumerate() {
        println!(
            "view {vi:>3} [{}]: accuracy {:.3}, weights {:?}",
            vs[vi].name(),
            acc,
            w.iter()
                .map(|v| (v * 100.0).round() / 100.0)
                .collect::<Vec<_>>()
        );
    }
    println!(
        "mean pairwise model correlation: {:.3} ({} pairs)",
        report.mean_correlation,
        report.pairwise.len()
    );

    // Dump the 2-view version of the graph — the paper's Fig 5.
    let two = build_correlation_graph(circuit, &vs[..2.min(vs.len())], cfg);
    println!("\nFig 5 task graph (2 views) in DOT:\n{}", two.graph.dump());
}
