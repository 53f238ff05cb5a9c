//! Figure 9: detailed-placement runtime vs CPU/GPU counts and vs
//! iteration count.
//!
//! Reproduces both panels of Fig 9 (§IV-B): the paper places `bigblue4`
//! (2.2M cells) with the matching-based algorithm, reporting 58.41 s at
//! 1c/1g vs 14.02 s at 40c/1g, saturation ≈ 20 cores, and *no* benefit
//! from extra GPUs (14.02 s → 13.61 s for 1 → 4 GPUs) — "this property is
//! generally true for most optimization algorithms in VLSI CAD, as they
//! are often irregular and dependent".
//!
//! Method mirrors `fig6_timing`: the real flattened Fig 8 task graph is
//! built at a scaled size, the CPU task bodies (partition, matching,
//! apply, prepare) are executed and timed on this machine, costs scale to
//! bigblue4 size, and the discrete-event model replays the graph on
//! virtual machines. The GPU MIS kernels are costed at DREAMPlace's
//! reported 40x speedup over one CPU core.
//!
//! Usage:
//!   cargo run --release -p hf-bench --bin fig9_placement
//!     [--cells 4000] [--iters 10] [--matchers 32] [--window 6]
//!     [--dedicated]   (A2 ablation: one worker bound per GPU)
//!     [--sweep cores|iters|both] [--json]

use hf_bench::{print_matrix, Args, NameCosts, Row};
use hf_core::GraphInfo;
use hf_gpu::{CostModel, SimDuration};
use hf_place::graph::{build_placement_graph, GraphConfig};
use hf_place::mis::{make_priorities, mis_cpu};
use hf_place::partition::partition_windows;
use hf_place::{hungarian, PlacementConfig, PlacementDb};
use hf_sim::{simulate, Machine, SchedulerMode};

/// Paper's bigblue4 size, for cost scaling.
const BIGBLUE4_CELLS: f64 = 2_200_000.0;
/// Core counts of the Fig 9 upper panel.
const CORE_SWEEP: [usize; 6] = [1, 8, 16, 24, 32, 40];
/// GPU counts of the Fig 9 upper panel.
const GPU_SWEEP: [u32; 4] = [1, 2, 3, 4];
/// Iteration counts of the Fig 9 lower panel.
const ITER_SWEEP: [usize; 5] = [5, 10, 20, 35, 50];

struct Setup {
    db_cfg: PlacementConfig,
    costs: NameCosts,
    cost_model: CostModel,
    graph_cfg: GraphConfig,
    mode: SchedulerMode,
}

fn build_info(setup: &Setup, iterations: usize) -> GraphInfo {
    let db = PlacementDb::synthesize(&setup.db_cfg);
    let cfg = GraphConfig {
        iterations,
        ..setup.graph_cfg
    };
    let (g, _run) = build_placement_graph(db, cfg);
    g.info().expect("acyclic by construction")
}

fn seconds(info: &GraphInfo, setup: &Setup, cores: usize, gpus: u32) -> f64 {
    let m = Machine::new(cores, gpus)
        .with_cost(setup.cost_model)
        .with_mode(setup.mode);
    let r = simulate(info, &m, setup.costs.for_graph(info))
        .expect("valid graph and machine");
    r.makespan_secs
}

fn main() {
    let args = Args::parse();
    let cells: usize = args.get("cells", 4_000);
    let iters: usize = args.get("iters", 10);
    let matchers: usize = args.get("matchers", 32);
    let window: usize = args.get("window", 6);
    let sweep = args.get_str("sweep", &["both", "cores", "iters"]);
    let mode = if args.flag("dedicated") {
        SchedulerMode::DedicatedGpuWorkers
    } else {
        SchedulerMode::Unified
    };

    eprintln!("[fig9] synthesizing placement ({cells} cells) ...");
    let db_cfg = PlacementConfig {
        num_cells: cells,
        num_nets: cells,
        ..Default::default()
    };
    let db = PlacementDb::synthesize(&db_cfg);
    let scale = BIGBLUE4_CELLS / cells as f64;

    // --- Calibrate CPU task costs by running the real step bodies. ---
    eprintln!("[fig9] calibrating host-task costs ...");
    let (adj, adj_cost) = hf_sim::measure(|| db.conflict_adjacency());
    let (offsets, neighbors) = adj;
    let priorities = make_priorities(cells, 0xD1CE);
    // MIS on one CPU core (the DREAMPlace baseline for the 40x claim).
    let (states, mis_cpu_cost) = hf_sim::measure(|| mis_cpu(&offsets, &neighbors, &priorities));
    let (windows, part_cost) = hf_sim::measure(|| partition_windows(&db, &states, window));
    // One matcher's share of the windows.
    let windows_per_matcher = windows.len().div_ceil(matchers.max(1));
    let (_, match_cost) = hf_sim::measure(|| {
        for w in windows.iter().take(windows_per_matcher) {
            let slots: Vec<(u32, u32)> = w
                .iter()
                .map(|&c| (db.cells[c as usize].x, db.cells[c as usize].y))
                .collect();
            let cost: Vec<Vec<u64>> = w
                .iter()
                .map(|&c| slots.iter().map(|&(x, y)| db.cell_cost_at(c, x, y)).collect())
                .collect();
            std::hint::black_box(hungarian(&cost));
        }
    });
    let (_, apply_cost) = hf_sim::measure(|| std::hint::black_box(db.total_hpwl()));
    let (_, prep_cost) = hf_sim::measure(|| std::hint::black_box(make_priorities(cells, 1)));

    let s = |d: SimDuration, factor: f64| SimDuration::from_secs_f64(d.as_secs_f64() * factor);
    let costs = NameCosts::new()
        .set("prepare", s(prep_cost, scale))
        .set("partition", s(part_cost, scale))
        .set("match", s(match_cost, scale))
        .set("apply", s(apply_cost, scale));
    let _ = adj_cost; // adjacency built once outside the graph

    // GPU MIS rounds: the whole per-iteration MIS (all rounds) runs 40x
    // faster than one CPU core (DREAMPlace's reported speedup). Each
    // round kernel declares `cells` work units; with R rounds per
    // iteration, set throughput so R rounds take mis_cpu/40.
    let graph_cfg = GraphConfig {
        iterations: iters,
        window_cap: window,
        matchers,
        mis_rounds: 0,
        seed: 0xD1CE,
    };
    let rounds = (usize::BITS - cells.leading_zeros()) as usize + 4;
    let mis_gpu_total = mis_cpu_cost.as_secs_f64() * scale / 40.0;
    let per_round = mis_gpu_total / (2.0 * rounds as f64); // select+commit
    let cost_model = CostModel {
        kernel_units_per_sec: cells as f64 / per_round.max(1e-9),
        ..CostModel::default()
    };
    eprintln!(
        "[fig9] partition={:.1}ms match={:.1}ms apply={:.1}ms (scaled); MIS gpu/iter={:.1}ms",
        part_cost.as_secs_f64() * scale * 1e3,
        match_cost.as_secs_f64() * scale * 1e3,
        apply_cost.as_secs_f64() * scale * 1e3,
        mis_gpu_total * 1e3,
    );

    let setup = Setup {
        db_cfg,
        costs,
        cost_model,
        graph_cfg,
        mode,
    };

    let mut json = serde_json::Map::new();

    // --- Upper panel: runtime vs cores, one series per GPU count. ---
    if sweep == "cores" || sweep == "both" {
        eprintln!("[fig9] building {iters}-iteration graph and sweeping cores x gpus ...");
        let info = build_info(&setup, iters);
        let mut rows = Vec::new();
        for &g in &GPU_SWEEP {
            let values: Vec<f64> = CORE_SWEEP
                .iter()
                .map(|&c| seconds(&info, &setup, c, g))
                .collect();
            rows.push(Row {
                label: format!("{g} GPU{}", if g > 1 { "s" } else { "" }),
                values,
            });
        }
        print_matrix(
            &format!("Fig 9 (upper): runtime [s] vs cores, {iters} iterations{}",
                if args.flag("dedicated") { " (dedicated-GPU-worker baseline)" } else { "" }),
            "cores",
            &CORE_SWEEP.iter().map(|c| c.to_string()).collect::<Vec<_>>(),
            &rows,
            "",
        );
        let t_1c1g = rows[0].values[0];
        let t_40c1g = rows[0].values[CORE_SWEEP.len() - 1];
        let t_40c4g = rows[3].values[CORE_SWEEP.len() - 1];
        println!(
            "\n1c/1g: {t_1c1g:.2}s;  40c/1g: {t_40c1g:.2}s;  40c/4g: {t_40c4g:.2}s  \
             (paper: 58.41s, 14.02s, 13.61s — extra GPUs buy ~nothing)"
        );
        json.insert(
            "upper".into(),
            serde_json::json!(rows
                .iter()
                .map(|r| serde_json::json!({"label": r.label, "seconds": r.values}))
                .collect::<Vec<_>>()),
        );
    }

    // --- Lower panel: runtime vs problem size (iterations). ---
    if sweep == "iters" || sweep == "both" {
        eprintln!("[fig9] sweeping iteration count ...");
        let infos: Vec<(usize, GraphInfo)> = ITER_SWEEP
            .iter()
            .map(|&i| (i, build_info(&setup, i)))
            .collect();
        let mut rows = Vec::new();
        for &c in &[1usize, 8, 40] {
            rows.push(Row {
                label: format!("{c} cores, 4 GPUs"),
                values: infos.iter().map(|(_, i)| seconds(i, &setup, c, 4)).collect(),
            });
        }
        for &g in &[1u32, 4] {
            rows.push(Row {
                label: format!("40 cores, {g} GPU{}", if g > 1 { "s" } else { "" }),
                values: infos.iter().map(|(_, i)| seconds(i, &setup, 40, g)).collect(),
            });
        }
        print_matrix(
            "Fig 9 (lower): runtime [s] vs problem size (iterations)",
            "iters",
            &ITER_SWEEP.iter().map(|v| v.to_string()).collect::<Vec<_>>(),
            &rows,
            "",
        );
        if rows.len() >= 3 {
            println!(
                "\n5 iterations under 4 GPUs: {:.2}s at 1 core vs {:.2}s at 40 cores (paper: 6.35s vs 1.44s)",
                rows[0].values[0], rows[2].values[0]
            );
        }
        json.insert(
            "lower".into(),
            serde_json::json!(rows
                .iter()
                .map(|r| serde_json::json!({"label": r.label, "seconds": r.values}))
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
