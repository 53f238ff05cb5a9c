//! The multi-view timing-correlation workload — the paper's Figure 5
//! task graph, generalized to V views.
//!
//! Per view: a CPU task generates the analysis dataset (STA sweep,
//! critical-path extraction, CPPR credits, feature standardization);
//! pull tasks move features/labels/weights to a GPU; a kernel task fits a
//! logistic-regression model; a push task returns the weights; a CPU task
//! computes per-view statistics. A final synchronization task correlates
//! the per-view models into one report (§IV-A).

use crate::cppr::{apply_cppr, ClockTree};
use crate::netlist::Circuit;
use crate::paths::k_critical_paths;
use crate::regression::{self, NUM_FEATURES};
use crate::views::View;
use hf_core::data::HostVec;
use hf_core::{Executor, Heteroflow};
use hf_sync::sync::Mutex;
use std::sync::Arc;

/// Workload parameters for the correlation experiment.
#[derive(Debug, Clone, Copy)]
pub struct CorrelationConfig {
    /// Critical paths extracted per view (the per-view sample size; the
    /// paper controls it "such that each analysis view takes
    /// approximately the same runtime").
    pub paths_per_view: usize,
    /// Gradient-descent epochs per view.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// Slack margin defining the "violating" label. Ignored when
    /// `auto_margin` is set.
    pub slack_margin: f32,
    /// Label against the per-view *median* path slack instead of the
    /// fixed margin, keeping the two classes balanced regardless of the
    /// view's corner and clock.
    pub auto_margin: bool,
    /// Clock-tree segment delay for CPPR.
    pub clock_seg_delay: f32,
}

impl Default for CorrelationConfig {
    fn default() -> Self {
        Self {
            paths_per_view: 256,
            epochs: 50,
            learning_rate: 0.3,
            slack_margin: 0.0,
            auto_margin: true,
            clock_seg_delay: 0.04,
        }
    }
}

/// Result of the synchronization step.
#[derive(Debug, Clone, Default)]
pub struct CorrelationReport {
    /// Fitted weights per view.
    pub weights: Vec<Vec<f32>>,
    /// Training accuracy per view.
    pub accuracy: Vec<f64>,
    /// Pairwise Pearson correlations of view weights (upper triangle,
    /// row-major).
    pub pairwise: Vec<f64>,
    /// Mean pairwise correlation.
    pub mean_correlation: f64,
}

/// One view's training set `(features, labels)`, exactly as its gen task
/// computes it: the view's `cfg.paths_per_view` critical paths, their CPPR
/// credits on `tree`, and labels against the margin (under `auto_margin`,
/// the median path slack).
pub fn view_dataset(
    circuit: &Circuit,
    tree: &ClockTree,
    view: &View,
    cfg: &CorrelationConfig,
) -> (Vec<f32>, Vec<f32>) {
    let mut paths = k_critical_paths(circuit, view, cfg.paths_per_view);
    let credits = apply_cppr(&mut paths, tree, view);
    let mut slacks: Vec<f32> = paths.iter().map(|p| p.slack).collect();
    slacks.sort_by(|a, b| a.partial_cmp(b).expect("finite slacks"));
    let margin = match slacks.get(slacks.len() / 2) {
        Some(&median) if cfg.auto_margin => median,
        _ => cfg.slack_margin,
    };
    regression::make_dataset(&paths, &credits, margin)
}

/// Handles to the built graph (for inspection/DOT) plus the report slot
/// filled by the final task.
pub struct CorrelationGraph {
    /// The Heteroflow graph, ready to run.
    pub graph: Heteroflow,
    /// Filled by the `report` task when the graph finishes.
    pub report: Arc<Mutex<CorrelationReport>>,
    /// Per view, the `[features, labels, weights]` buffers its gen task
    /// fills and its three pulls copy.
    pub buffers: Vec<[HostVec<f32>; 3]>,
}

/// Builds the Fig 5 task graph for `views.len()` views over `circuit`.
pub fn build_correlation_graph(
    circuit: Arc<Circuit>,
    views: &[View],
    cfg: CorrelationConfig,
) -> CorrelationGraph {
    let g = Heteroflow::new("timing-correlation");
    let report = Arc::new(Mutex::new(CorrelationReport::default()));
    // The clock tree depends on the circuit alone: one for every view.
    let tree = Arc::new(ClockTree::build(&circuit, cfg.clock_seg_delay));

    // Shared per-view result storage read by the final report task.
    let all_weights: Arc<Vec<HostVec<f32>>> =
        Arc::new((0..views.len()).map(|_| HostVec::new()).collect());
    let all_stats = Arc::new(Mutex::new(vec![0.0f64; views.len()]));

    let mut stats_tasks = Vec::with_capacity(views.len());
    let mut buffers = Vec::with_capacity(views.len());

    for (vi, view) in views.iter().enumerate() {
        let features: HostVec<f32> = HostVec::new();
        let labels: HostVec<f32> = HostVec::new();
        let weights = all_weights[vi].clone();

        // 1) CPU: generate the per-view dataset.
        let gen = g.host(&format!("gen_v{vi}"), {
            let (circuit, tree, view, features, labels, weights) = (
                Arc::clone(&circuit),
                Arc::clone(&tree),
                view.clone(),
                features.clone(),
                labels.clone(),
                weights.clone(),
            );
            move || {
                let (x, y) = view_dataset(&circuit, &tree, &view, &cfg);
                *features.write() = x;
                *labels.write() = y;
                *weights.write() = vec![0.0f32; NUM_FEATURES + 1];
            }
        });

        // 2) H2D pulls (sizes bind at execution — stateful).
        let pull_x = g.pull(&format!("pull_x_v{vi}"), &features);
        let pull_y = g.pull(&format!("pull_y_v{vi}"), &labels);
        let pull_w = g.pull(&format!("pull_w_v{vi}"), &weights);

        // 3) GPU: logistic regression over the pulled data.
        let kernel = g.kernel(
            &format!("regress_v{vi}"),
            &[&pull_x, &pull_y, &pull_w],
            regression::logistic_kernel(NUM_FEATURES, cfg.epochs, cfg.learning_rate),
        );
        kernel
            .cover(cfg.paths_per_view, 256)
            .work_units((cfg.paths_per_view * cfg.epochs * NUM_FEATURES) as f64);

        // 4) D2H push of the fitted weights.
        let push_w = g.push(&format!("push_w_v{vi}"), &pull_w, &weights);

        // 5) CPU: per-view statistics.
        let stats = g.host(&format!("stats_v{vi}"), {
            let (features, labels, weights, all_stats) = (
                features.clone(),
                labels.clone(),
                weights.clone(),
                Arc::clone(&all_stats),
            );
            move || {
                let x = features.read();
                let y = labels.read();
                let w = weights.read();
                let acc = regression::accuracy(&w, &x, &y, NUM_FEATURES);
                all_stats.lock()[vi] = acc;
            }
        });

        // Explicit dependencies (Heteroflow never adds implicit ones).
        gen.precede_all(&[&pull_x, &pull_y, &pull_w]);
        kernel.succeed_all(&[&pull_x, &pull_y, &pull_w]);
        kernel.precede(&push_w);
        push_w.precede(&stats);
        stats_tasks.push(stats);
        buffers.push([features, labels, weights]);
    }

    // 6) Synchronization: combine all views into the report.
    let nviews = views.len();
    let report_task = g.host("report", {
        let (all_weights, all_stats, report) = (
            Arc::clone(&all_weights),
            Arc::clone(&all_stats),
            Arc::clone(&report),
        );
        move || {
            let weights: Vec<Vec<f32>> = all_weights.iter().map(|w| w.to_vec()).collect();
            let pairwise: Vec<f64> = (0..nviews)
                .flat_map(|i| (i + 1..nviews).map(move |j| (i, j)))
                .map(|(i, j)| regression::pearson(&weights[i], &weights[j]))
                .collect();
            let mean = if pairwise.is_empty() {
                1.0
            } else {
                pairwise.iter().sum::<f64>() / pairwise.len() as f64
            };
            *report.lock() = CorrelationReport {
                weights,
                accuracy: all_stats.lock().clone(),
                pairwise,
                mean_correlation: mean,
            };
        }
    });
    for s in &stats_tasks {
        s.precede(&report_task);
    }

    CorrelationGraph {
        graph: g,
        report,
        buffers,
    }
}

/// Convenience: builds and runs the workload, returning the report.
pub fn run_correlation(
    executor: &Executor,
    circuit: Arc<Circuit>,
    views: &[View],
    cfg: CorrelationConfig,
) -> Result<CorrelationReport, hf_core::HfError> {
    let built = build_correlation_graph(circuit, views, cfg);
    executor.run(&built.graph).wait()?;
    let r = built.report.lock().clone();
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::CircuitConfig;
    use crate::views::make_views;

    fn small_circuit() -> Arc<Circuit> {
        Arc::new(Circuit::synthesize(&CircuitConfig {
            num_gates: 600,
            ..Default::default()
        }))
    }

    #[test]
    fn graph_has_fig5_structure() {
        let views = make_views(2, 0.4);
        let built = build_correlation_graph(small_circuit(), &views, CorrelationConfig::default());
        let frozen = built.graph.freeze().unwrap();
        // Per view: 1 gen + 3 pulls + 1 kernel + 1 push + 1 stats = 7,
        // plus 1 report; (host, pull, push, kernel, placeholder).
        assert_eq!(frozen.num_tasks(), 2 * 7 + 1);
        assert_eq!(built.graph.kind_counts(), (5, 6, 2, 2, 0));
        // gen -> 3 pulls -> kernel -> push -> stats -> report.
        assert_eq!(frozen.critical_path_len(), 6);
        // The report task depends on every view's stats.
        let report = (0..frozen.num_tasks())
            .find(|&i| frozen.task_name(i) == "report")
            .expect("report exists");
        assert_eq!(frozen.num_deps(report), 2);
    }

    #[test]
    fn end_to_end_correlation_runs() {
        let views = make_views(3, 0.4);
        let ex = Executor::new(2, 2);
        let report = run_correlation(
            &ex,
            small_circuit(),
            &views,
            CorrelationConfig {
                paths_per_view: 64,
                epochs: 30,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.weights.len(), 3);
        assert_eq!(report.accuracy.len(), 3);
        assert_eq!(report.pairwise.len(), 3); // C(3,2)
        for w in &report.weights {
            assert_eq!(w.len(), NUM_FEATURES + 1);
            assert!(w.iter().any(|&v| v != 0.0), "weights were never trained");
        }
        for &a in &report.accuracy {
            assert!((0.0..=1.0).contains(&a));
        }
        assert!(report.mean_correlation.abs() <= 1.0 + 1e-9);
    }

    /// The GPU-trained weights match the CPU reference bit for bit (same
    /// float operations in the same order).
    #[test]
    fn kernel_matches_cpu_reference() {
        let circuit = small_circuit();
        let views = make_views(1, 0.4);
        let cfg = CorrelationConfig {
            paths_per_view: 64,
            epochs: 25,
            ..Default::default()
        };
        let ex = Executor::new(1, 1);
        let report = run_correlation(&ex, Arc::clone(&circuit), &views, cfg).unwrap();

        // Recompute the dataset on the CPU and train with the reference.
        let tree = ClockTree::build(&circuit, cfg.clock_seg_delay);
        let (x, y) = view_dataset(&circuit, &tree, &views[0], &cfg);
        let w_ref = regression::train_cpu(&x, &y, NUM_FEATURES, cfg.epochs, cfg.learning_rate);

        assert_eq!(report.weights[0].len(), w_ref.len());
        for (a, b) in report.weights[0].iter().zip(&w_ref) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "GPU {a} vs CPU {b} — kernel diverged from reference"
            );
        }
    }
}
