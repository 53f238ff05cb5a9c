//! Figure 6: VLSI timing-correlation runtime vs CPU/GPU counts and vs
//! problem size (number of views).
//!
//! Reproduces both panels of Fig 6 (§IV-A): the paper analyzes `netcard`
//! (1.5M gates) across 1024 views on 1–40 cores and 1–4 GPUs, reporting
//! 99 min at 1c/1g down to 13 min at 40c/4g (7.7×).
//!
//! Method (see DESIGN.md): the real multi-view correlation task graph is
//! built at a scaled circuit size; the CPU task bodies are *executed and
//! timed* on this machine, then scaled to netcard size; the discrete-event
//! model replays the graph — under the executor's plan, the real
//! Algorithm 1 placement and task fusion — on virtual (cores, gpus)
//! machines. GPU kernel throughput is tuned so the
//! per-view GPU share matches the paper's observed CPU/GPU balance
//! ("we ... control the sample size such that each analysis view takes
//! approximately the same runtime").
//!
//! Usage:
//!   cargo run --release -p hf-bench --bin fig6_timing
//!     [--views 1024] [--gates 20000] [--paths 256] [--epochs 60]
//!     [--placement balanced|roundrobin|random]   (A1 ablation)
//!     [--sweep cores|views|both] [--json]

use hf_bench::{print_json, print_matrix, rows_json, Args, NameCosts, Packer, Row};
use hf_core::{FrozenGraph, Plan};
use hf_gpu::{CostModel, SimDuration};
use hf_sim::{simulate, Machine, SchedulerMode};
use hf_timing::correlation::{build_correlation_graph, view_dataset, CorrelationConfig};
use hf_timing::cppr::ClockTree;
use hf_timing::regression::NUM_FEATURES;
use hf_timing::views::make_views;
use hf_timing::{Circuit, CircuitConfig};
use std::sync::Arc;

/// Paper's netcard size, for cost scaling.
const NETCARD_GATES: f64 = 1_500_000.0;
/// Core counts of the Fig 6 upper panel.
const CORE_SWEEP: [usize; 6] = [1, 8, 16, 24, 32, 40];
/// GPU counts of the Fig 6 upper panel.
const GPU_SWEEP: [u32; 4] = [1, 2, 3, 4];
/// View counts of the Fig 6 lower panel.
const VIEW_SWEEP: [usize; 6] = [32, 64, 128, 256, 512, 1024];

struct Setup {
    circuit: Arc<Circuit>,
    cfg: CorrelationConfig,
    costs: NameCosts,
    cost_model: CostModel,
    packer: Packer,
}

/// The Fig 5 graph over `views` views, its dataset buffers sized as the
/// gen tasks would fill them (`make_dataset`'s shapes are fixed by the
/// config), so pulls and pushes are priced by the bytes they would move.
fn build_graph(setup: &Setup, views: usize) -> Arc<FrozenGraph> {
    let vs = make_views(views, 0.4);
    let built = build_correlation_graph(Arc::clone(&setup.circuit), &vs, setup.cfg);
    let paths = setup.cfg.paths_per_view;
    for [features, labels, weights] in &built.buffers {
        features.write().resize(paths * NUM_FEATURES, 0.0);
        labels.write().resize(paths, 0.0);
        weights.write().resize(NUM_FEATURES + 1, 0.0);
    }
    built.graph.freeze().expect("acyclic by construction")
}

fn minutes(graph: &FrozenGraph, setup: &Setup, cores: usize, gpus: u32) -> f64 {
    let m = Machine::new(cores, gpus)
        .with_cost(setup.cost_model)
        .with_mode(SchedulerMode::Unified);
    let p = setup.packer.place(graph, gpus, &m.cost);
    let plan = Plan::from_placement(graph, p.expect("valid graph and machine"), true);
    let (r, _) = simulate(graph, &plan, &m, setup.costs.for_graph(graph));
    r.makespan_secs / 60.0
}

fn main() {
    let args = Args::parse();
    let views: usize = args.get("views", 1024);
    let gates: usize = args.get("gates", 20_000);
    let paths: usize = args.get("paths", 256);
    let epochs: usize = args.get("epochs", 60);
    let sweep = args.get_str("sweep", &["both", "cores", "views"]);
    let packer = match args.get_str("placement", &["balanced", "roundrobin", "random"]) {
        "balanced" => Packer::Balanced,
        "roundrobin" => Packer::RoundRobin,
        "random" => Packer::Random { seed: 1 },
        other => unreachable!("get_str admits only the listed values, not {other}"),
    };

    eprintln!("[fig6] synthesizing circuit ({gates} gates) ...");
    let circuit = Arc::new(Circuit::synthesize(&CircuitConfig {
        num_gates: gates,
        ..Default::default()
    }));
    let cfg = CorrelationConfig {
        paths_per_view: paths,
        epochs,
        ..Default::default()
    };

    // --- Calibrate CPU task costs by running the real task bodies. ---
    eprintln!("[fig6] calibrating host-task costs ...");
    let view0 = &make_views(1, 0.4)[0];
    let tree = ClockTree::build(&circuit, cfg.clock_seg_delay);
    let (dataset, gen_raw) = hf_sim::measure_warm(|| view_dataset(&circuit, &tree, view0, &cfg));
    let (_, stats_raw) = hf_sim::measure_warm(|| {
        let w = vec![0.1f32; NUM_FEATURES + 1];
        let (x, y) = &dataset;
        std::hint::black_box(hf_timing::regression::accuracy(&w, x, y, NUM_FEATURES))
    });
    // Scale the dominant gen cost from our circuit to netcard size (the
    // path search is linear in gate count).
    let scale = NETCARD_GATES / gates as f64;
    let gen_cost = SimDuration::from_secs_f64(gen_raw.as_secs_f64() * scale);
    let stats_cost = SimDuration::from_nanos(stats_raw.as_nanos().max(1_000));
    let report_cost = SimDuration::from_micros(50);

    // Balance the GPU share: per-view kernel time ~= 1.2x gen time, the
    // ratio implied by the paper's 40-core GPU sweep (36/21/15/13 min).
    let wu_per_kernel = (paths * epochs * NUM_FEATURES) as f64;
    let kernel_target = gen_cost.as_secs_f64() * 1.2;
    let cost_model = CostModel {
        kernel_units_per_sec: wu_per_kernel / kernel_target.max(1e-9),
        ..CostModel::default()
    };
    eprintln!(
        "[fig6] gen={:.1}ms (scaled {:.2}s) kernel target {:.2}s",
        gen_raw.as_secs_f64() * 1e3,
        gen_cost.as_secs_f64(),
        kernel_target
    );

    let costs = NameCosts::new()
        .set("gen_v", gen_cost)
        .set("stats_v", stats_cost)
        .set("report", report_cost);
    let setup = Setup {
        circuit,
        cfg,
        costs,
        cost_model,
        packer,
    };

    let mut json = serde_json::Map::new();

    // --- Upper panel: runtime vs cores, one series per GPU count. ---
    if sweep == "cores" || sweep == "both" {
        eprintln!("[fig6] building {views}-view graph and sweeping cores x gpus ...");
        let graph = build_graph(&setup, views);
        let rows = Row::per_gpu(&GPU_SWEEP, &CORE_SWEEP, |c, g| {
            minutes(&graph, &setup, c, g)
        });
        let title = format!("Fig 6 (upper): runtime [min] vs cores, {views} views");
        print_matrix(&title, "cores", &CORE_SWEEP, &rows, "");
        let t_1c1g = rows[0].values[0];
        let t_40c4g = rows[3].values[CORE_SWEEP.len() - 1];
        println!(
            "\nbaseline 1 core/1 GPU: {t_1c1g:.1} min;  40 cores/4 GPUs: {t_40c4g:.1} min;  speed-up {:.1}x (paper: 99 -> 13 min, 7.7x)",
            t_1c1g / t_40c4g
        );
        json.insert("upper".into(), rows_json(&rows, "minutes"));
    }

    // --- Lower panel: runtime vs problem size (views). ---
    if sweep == "views" || sweep == "both" {
        eprintln!("[fig6] sweeping problem size ...");
        // Series over cores at 4 GPUs, and over GPUs at 40 cores.
        let graphs: Vec<Arc<FrozenGraph>> =
            VIEW_SWEEP.iter().map(|&v| build_graph(&setup, v)).collect();
        let machines = [(1, 4), (16, 4), (40, 4), (40, 1), (40, 2)];
        let rows = Row::per_machine(&machines, |c, g| {
            graphs.iter().map(|gr| minutes(gr, &setup, c, g)).collect()
        });
        print_matrix(
            "Fig 6 (lower): runtime [min] vs problem size (views)",
            "views",
            &VIEW_SWEEP,
            &rows,
            "",
        );
        json.insert("lower".into(), rows_json(&rows, "minutes"));
    }

    if args.flag("json") {
        print_json(json);
    }
}
