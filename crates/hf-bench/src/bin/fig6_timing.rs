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
//! model replays the graph — with the real Algorithm 1 placement — on
//! virtual (cores, gpus) machines. GPU kernel throughput is tuned so the
//! per-view GPU share matches the paper's observed CPU/GPU balance
//! ("we ... control the sample size such that each analysis view takes
//! approximately the same runtime").
//!
//! Usage:
//!   cargo run --release -p hf-bench --bin fig6_timing
//!     [--views 1024] [--gates 20000] [--paths 256] [--epochs 60]
//!     [--placement balanced|roundrobin|random]   (A1 ablation)
//!     [--sweep cores|views|both] [--json]

use hf_bench::{print_matrix, Args, NameCosts, Packer, Row};
use hf_core::{GraphInfo, TaskKind};
use hf_gpu::{CostModel, SimDuration};
use hf_sim::{simulate_placed, Machine, SchedulerMode};
use hf_timing::correlation::{build_correlation_graph, CorrelationConfig};
use hf_timing::cppr::{apply_cppr, ClockTree};
use hf_timing::regression::NUM_FEATURES;
use hf_timing::views::make_views;
use hf_timing::{k_critical_paths, Circuit, CircuitConfig};
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

/// Fills pull/push byte sizes that are only known after the gen task
/// runs (the dataset shapes are deterministic from the config).
fn patch_dataset_bytes(info: &mut GraphInfo, paths: usize) {
    let bx = paths * NUM_FEATURES * 4;
    let by = paths * 4;
    let bw = (NUM_FEATURES + 1) * 4;
    for n in &mut info.nodes {
        if n.kind == TaskKind::Pull || n.kind == TaskKind::Push {
            if n.name.starts_with("pull_x") {
                n.bytes = bx;
            } else if n.name.starts_with("pull_y") {
                n.bytes = by;
            } else if n.name.starts_with("pull_w") || n.name.starts_with("push_w") {
                n.bytes = bw;
            }
        }
    }
}

fn build_info(setup: &Setup, views: usize) -> GraphInfo {
    let vs = make_views(views, 0.4);
    let built = build_correlation_graph(Arc::clone(&setup.circuit), &vs, setup.cfg);
    let mut info = built.graph.info().expect("acyclic by construction");
    patch_dataset_bytes(&mut info, setup.cfg.paths_per_view);
    info
}

fn minutes(info: &GraphInfo, setup: &Setup, cores: usize, gpus: u32) -> f64 {
    let m = Machine::new(cores, gpus)
        .with_cost(setup.cost_model)
        .with_mode(SchedulerMode::Unified);
    let p = setup.packer.place(info, gpus, &m.cost).expect("valid graph and machine");
    simulate_placed(info, &m, &p, setup.costs.for_graph(info)).makespan_secs / 60.0
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
    let (dataset, gen_raw) = hf_sim::measure(|| {
        let mut ps = k_critical_paths(&circuit, view0, cfg.paths_per_view);
        let tree = ClockTree::build(&circuit, cfg.clock_seg_delay);
        let credits = apply_cppr(&mut ps, &tree, view0);
        hf_timing::regression::make_dataset(&ps, &credits, cfg.slack_margin)
    });
    let (_, stats_raw) = hf_sim::measure(|| {
        let w = vec![0.1f32; NUM_FEATURES + 1];
        std::hint::black_box(hf_timing::regression::accuracy(
            &w, &dataset.0, &dataset.1, NUM_FEATURES,
        ))
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
        let info = build_info(&setup, views);
        let mut rows = Vec::new();
        for &g in &GPU_SWEEP {
            let values: Vec<f64> = CORE_SWEEP
                .iter()
                .map(|&c| minutes(&info, &setup, c, g))
                .collect();
            rows.push(Row {
                label: format!("{g} GPU{}", if g > 1 { "s" } else { "" }),
                values,
            });
        }
        print_matrix(
            &format!("Fig 6 (upper): runtime [min] vs cores, {views} views"),
            "cores",
            &CORE_SWEEP.iter().map(|c| c.to_string()).collect::<Vec<_>>(),
            &rows,
            "",
        );
        let t_1c1g = rows[0].values[0];
        let t_40c4g = rows[3].values[CORE_SWEEP.len() - 1];
        println!(
            "\nbaseline 1 core/1 GPU: {t_1c1g:.1} min;  40 cores/4 GPUs: {t_40c4g:.1} min;  speed-up {:.1}x (paper: 99 -> 13 min, 7.7x)",
            t_1c1g / t_40c4g
        );
        json.insert(
            "upper".into(),
            serde_json::json!(rows
                .iter()
                .map(|r| serde_json::json!({"label": r.label, "minutes": r.values}))
                .collect::<Vec<_>>()),
        );
    }

    // --- Lower panel: runtime vs problem size (views). ---
    if sweep == "views" || sweep == "both" {
        eprintln!("[fig6] sweeping problem size ...");
        // Series over cores at 4 GPUs, and over GPUs at 40 cores.
        let mut rows = Vec::new();
        let infos: Vec<(usize, GraphInfo)> = VIEW_SWEEP
            .iter()
            .map(|&v| (v, build_info(&setup, v)))
            .collect();
        for &c in &[1usize, 16, 40] {
            rows.push(Row {
                label: format!("{c} cores, 4 GPUs"),
                values: infos.iter().map(|(_, i)| minutes(i, &setup, c, 4)).collect(),
            });
        }
        for &g in &[1u32, 2] {
            rows.push(Row {
                label: format!("40 cores, {g} GPU{}", if g > 1 { "s" } else { "" }),
                values: infos.iter().map(|(_, i)| minutes(i, &setup, 40, g)).collect(),
            });
        }
        print_matrix(
            "Fig 6 (lower): runtime [min] vs problem size (views)",
            "views",
            &VIEW_SWEEP.iter().map(|v| v.to_string()).collect::<Vec<_>>(),
            &rows,
            "",
        );
        json.insert(
            "lower".into(),
            serde_json::json!(rows
                .iter()
                .map(|r| serde_json::json!({"label": r.label, "minutes": r.values}))
                .collect::<Vec<_>>()),
        );
    }

    if args.flag("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&serde_json::Value::Object(json)).expect("serializable")
        );
    }
}
