//! Cross-crate integration: the two paper applications end-to-end on the
//! real executor, plus sim/real consistency.

use heteroflow::place::{detailed_place, detailed_place_sequential, PlaceConfig};
use heteroflow::prelude::*;
use heteroflow::sim::{simulate, Machine};
use heteroflow::timing::correlation::{run_correlation, CorrelationConfig};
use heteroflow::timing::views::make_views;
use heteroflow::timing::{Circuit, CircuitConfig};
use std::sync::Arc;

#[test]
fn timing_correlation_end_to_end() {
    let circuit = Arc::new(Circuit::synthesize(&CircuitConfig {
        num_gates: 1500,
        ..Default::default()
    }));
    let views = make_views(4, 0.4);
    let ex = Executor::new(2, 2);
    let report = run_correlation(
        &ex,
        circuit,
        &views,
        CorrelationConfig {
            paths_per_view: 64,
            epochs: 25,
            ..Default::default()
        },
    )
    .expect("correlation runs");
    assert_eq!(report.weights.len(), 4);
    assert_eq!(report.pairwise.len(), 6);
    // With the median-slack margin the classes are balanced and the
    // model must beat chance on its training set.
    for &a in &report.accuracy {
        assert!(a > 0.55, "accuracy {a} no better than chance");
    }
    // Views of the same circuit correlate positively.
    assert!(
        report.mean_correlation > 0.0,
        "mean correlation {}",
        report.mean_correlation
    );
}

#[test]
fn placement_end_to_end_parallel_equals_sequential() {
    let cfg = PlaceConfig {
        iterations: 4,
        ..Default::default()
    };
    let db = heteroflow::place::PlacementDb::synthesize(&heteroflow::place::PlacementConfig {
        num_cells: 500,
        num_nets: 600,
        ..Default::default()
    });
    let seq = detailed_place_sequential(db.clone(), cfg);
    // One worker and one device (nothing overlaps but host and device),
    // real stealing, and a second device: the iterations are ordered only
    // by `apply[i] -> partition[i+1]` and the device queue, so every shape
    // has to land on the sequential trajectory, cell for cell.
    for (workers, gpus) in [(1, 1), (2, 1), (2, 2), (4, 2)] {
        let ex = Executor::new(workers, gpus);
        let par = detailed_place(&ex, db.clone(), cfg).expect("placement runs");
        assert_eq!(par.hpwl_trace, seq.hpwl_trace, "Executor::new({workers}, {gpus})");
        assert_eq!(par.db.cells, seq.db.cells, "Executor::new({workers}, {gpus})");
        assert!(par.hpwl_after <= par.hpwl_before);
        par.db.check_legal().expect("legal");
    }
}

/// The DES model and the real executor agree on a real application graph
/// at 1 core / 1 GPU within a loose factor (costs measured vs modeled).
#[test]
fn sim_and_real_agree_on_application_graph() {
    use heteroflow::timing::correlation::build_correlation_graph;
    let circuit = Arc::new(Circuit::synthesize(&CircuitConfig {
        num_gates: 3000,
        ..Default::default()
    }));
    let views = make_views(6, 0.4);
    let cfg = CorrelationConfig {
        paths_per_view: 128,
        epochs: 100,
        ..Default::default()
    };

    // Measure the real gen cost once.
    let v0 = &views[0];
    let (_, gen_cost) = heteroflow::sim::measure(|| {
        let mut ps = heteroflow::timing::k_critical_paths(&circuit, v0, cfg.paths_per_view);
        let tree = heteroflow::timing::cppr::ClockTree::build(&circuit, cfg.clock_seg_delay);
        let credits = heteroflow::timing::cppr::apply_cppr(&mut ps, &tree, v0);
        heteroflow::timing::regression::make_dataset(&ps, &credits, 0.0)
    });

    // Real run on 1 worker, 1 GPU.
    let built = build_correlation_graph(Arc::clone(&circuit), &views, cfg);
    let ex = Executor::new(1, 1);
    let t0 = std::time::Instant::now();
    ex.run(&built.graph).wait().expect("runs");
    let real = t0.elapsed().as_secs_f64();

    // Simulated run with the measured gen cost (other host tasks are
    // negligible here).
    let info = built.graph.info().expect("acyclic");
    let r = simulate(
        &info,
        &Machine::new(1, 1),
        |id| {
            if info.nodes[id].name.starts_with("gen_v") {
                gen_cost
            } else {
                heteroflow::gpu::SimDuration::from_micros(20)
            }
        },
    )
    .expect("simulates");

    // The model has no thread/dispatch noise; require agreement within
    // 10x in both directions (typically much closer) to catch gross
    // divergence without flaking on a loaded 1-core CI box.
    let ratio = real / r.makespan_secs.max(1e-9);
    assert!(
        (0.1..10.0).contains(&ratio),
        "real {real:.4}s vs sim {:.4}s",
        r.makespan_secs
    );
}
