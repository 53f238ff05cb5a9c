//! Cross-crate integration: the two paper applications end-to-end on the
//! real executor, plus sim/real consistency.

use heteroflow::core::{device_placement, Plan};
use heteroflow::place::matching::Hungarian;
use heteroflow::place::mis::{self, make_priorities, mis_cpu};
use heteroflow::place::{detailed_place, detailed_place_sequential, PlaceConfig};
use heteroflow::place::{partition_windows, Matcher, PlacementConfig, PlacementDb};
use heteroflow::prelude::*;
use heteroflow::sim::{simulate, Machine};
use heteroflow::timing::correlation::{run_correlation, CorrelationConfig};
use heteroflow::timing::views::make_views;
use heteroflow::timing::{Circuit, CircuitConfig};
use proptest::prelude::*;
use std::sync::Arc;

/// The executor's plan for `graph` on an idle `machine`, fused or not.
fn plan(graph: &FrozenGraph, machine: &Machine, fusion: bool) -> Plan {
    let placement = device_placement(graph, machine.gpus, &machine.cost).expect("placeable");
    Plan::from_placement(graph, placement, fusion)
}

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

/// Pins the bits of the timing application on the `app_timing` benchmark's
/// shape: the 20k-gate default circuit, eight views at a 0.4 ns base
/// clock, 128 paths per view, 40 epochs on `Executor(1,1)`. Every path's
/// gate ids (launch input included), delay and slack are hashed, then the
/// trained weights and the mean correlation. A speed-up of the timing code
/// must leave this test as it is.
#[test]
fn timing_application_answers_are_pinned() {
    // 64-bit FNV-1a over 32-bit little-endian words; spelled out because
    // `DefaultHasher`'s algorithm may change between Rust releases.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut word = |w: u32| {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let circuit = Arc::new(Circuit::synthesize(&CircuitConfig {
        num_gates: 20_000,
        ..Default::default()
    }));
    let views = make_views(8, 0.4);
    for view in &views {
        let paths = heteroflow::timing::k_critical_paths(&circuit, view, 128);
        assert_eq!(paths.len(), 128);
        for p in &paths {
            word(p.gates.len() as u32);
            p.gates.iter().for_each(|&g| word(g));
            word(p.delay.to_bits());
            word(p.slack.to_bits());
        }
    }
    let cfg = CorrelationConfig {
        paths_per_view: 128,
        epochs: 40,
        learning_rate: 0.3,
        clock_seg_delay: 0.04,
        ..Default::default()
    };
    let report = run_correlation(&Executor::new(1, 1), circuit, &views, cfg).expect("runs");
    for w in report.weights.iter().flatten() {
        word(w.to_bits());
    }
    let mean = report.mean_correlation.to_bits();
    word(mean as u32);
    word((mean >> 32) as u32);
    assert_eq!(h, 0xb43b_f249_d0e3_449f, "timing digest {h:#018x}");
}

/// The timing application's answer does not depend on the executor: the
/// trained weights and the mean correlation are bit-identical to the
/// fused `Executor(1,1)` answer on every worker/device shape, with task
/// fusion on and off.
#[test]
fn timing_answers_match_on_every_executor_shape() {
    let circuit = Arc::new(Circuit::synthesize(&CircuitConfig {
        num_gates: 1500,
        ..Default::default()
    }));
    let views = make_views(4, 0.4);
    let cfg = CorrelationConfig {
        paths_per_view: 64,
        epochs: 25,
        ..Default::default()
    };
    let answer = |workers, gpus, fusion| {
        let ex = Executor::builder(workers, gpus).task_fusion(fusion).build();
        let r = run_correlation(&ex, Arc::clone(&circuit), &views, cfg).expect("runs");
        let weights: Vec<Vec<u32>> = r
            .weights
            .iter()
            .map(|w| w.iter().map(|x| x.to_bits()).collect())
            .collect();
        (weights, r.mean_correlation.to_bits())
    };
    let reference = answer(1, 1, true);
    for (workers, gpus) in [(1, 1), (2, 1), (1, 2), (2, 2)] {
        for fusion in [true, false] {
            assert!(
                answer(workers, gpus, fusion) == reference,
                "Executor({workers}, {gpus}) with task_fusion({fusion}) trains another model"
            );
        }
    }
}

/// 64-bit FNV-1a over 32-bit little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn wide(&mut self, w: u64) {
        self.word(w as u32);
        self.word((w >> 32) as u32);
    }
}

/// The `app_place` benchmark's inputs: 10k cells, 10k nets, locality 40,
/// five iterations, window 6, four matchers.
fn placement_inputs() -> (PlacementDb, PlaceConfig) {
    let db = PlacementDb::synthesize(&PlacementConfig {
        num_cells: 10_000,
        num_nets: 10_000,
        locality: 40,
        seed: 1,
        ..PlacementConfig::default()
    });
    let cfg = PlaceConfig {
        iterations: 5,
        window_cap: 6,
        matchers: 4,
        seed: 0x5EED,
        ..PlaceConfig::default()
    };
    (db, cfg)
}

/// Pins the conflict graph of the `app_place` inputs. A change to the
/// database layout or the conflict graph must leave it alone.
#[test]
fn conflict_graph_digest_is_pinned() {
    let (db, _) = placement_inputs();
    let (offsets, neighbors) = db.netlist.conflict_adjacency();
    let mut h = Fnv::new();
    for &w in offsets.iter().chain(neighbors.iter()) {
        h.word(w);
    }
    assert_eq!(h.0, CONFLICT_DIGEST, "conflict digest {:#018x}", h.0);
}

/// Pins the HPWL trace and the final cells of the placement application on
/// the `app_place` inputs, for the graph on `Executor(1,1)` and the
/// sequential reference alike. A speed-up of the placement code must leave
/// it alone.
#[test]
fn placement_digest_is_pinned() {
    let (db, cfg) = placement_inputs();
    let seq = detailed_place_sequential(db.clone(), cfg);
    let par = detailed_place(&Executor::new(1, 1), db, cfg).expect("placement runs");
    assert_eq!(par.hpwl_trace, seq.hpwl_trace);
    assert_eq!(par.db.cells, seq.db.cells);
    let mut h = Fnv::new();
    h.wide(seq.hpwl_before);
    for &hpwl in &seq.hpwl_trace {
        h.wide(hpwl);
    }
    for c in &seq.db.cells {
        h.word(c.x);
        h.word(c.y);
        h.word(u32::from(c.fixed));
    }
    assert_eq!(h.0, PLACEMENT_DIGEST, "placement digest {:#018x}", h.0);
}

/// Pins which optimum the Hungarian returns, not only its total: 2,000
/// seeded matrices with `n` in 1..=8 and costs in `0..4`, so most have
/// several optimal assignments, solved by one reused work space. The
/// digest hashes every assignment and total.
#[test]
fn hungarian_tie_breaking_is_pinned() {
    // splitmix64, spelled out so the matrices never change.
    let mut state = 0u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let (mut h, mut hungarian) = (Fnv::new(), Hungarian::default());
    for _ in 0..2_000 {
        let n = 1 + (next() % 8) as usize;
        let cost: Vec<u64> = (0..n * n).map(|_| next() % 4).collect();
        let (assignment, total) = hungarian.solve(&cost, n);
        assignment.iter().for_each(|&j| h.word(j as u32));
        h.wide(total);
    }
    assert_eq!(h.0, HUNGARIAN_DIGEST, "hungarian digest {:#018x}", h.0);
}

proptest! {
    /// A window's returned HPWL change is exact: after each iteration's
    /// moves, the previous HPWL plus every window's change is the
    /// recomputed total. A window the optimum leaves in place returns 0,
    /// and none returns a gain.
    #[test]
    fn window_deltas_are_exact(
        cells in 20usize..300,
        locality in 8u32..100,
        cap in 2usize..9,
        seed in any::<u64>(),
    ) {
        let mut db = PlacementDb::synthesize(&PlacementConfig {
            num_cells: cells,
            num_nets: cells + 20,
            locality,
            seed,
            ..Default::default()
        });
        let netlist = std::sync::Arc::clone(&db.netlist);
        let (off, nbr) = netlist.conflict_adjacency();
        let (mut matcher, mut moves, mut hpwl) = (Matcher::default(), Vec::new(), db.total_hpwl());
        for it in 0..3 {
            let states = mis_cpu(off, nbr, &make_priorities(cells, seed.wrapping_add(it)));
            for w in &partition_windows(&db, &states, cap) {
                let start = moves.len();
                let delta = matcher.match_window(&db, w, &mut moves);
                let cell = |c: u32| db.cells[c as usize];
                if moves[start..].iter().all(|&(c, x, y)| (cell(c).x, cell(c).y) == (x, y)) {
                    prop_assert_eq!(delta, 0);
                }
                prop_assert!(delta <= 0);
                hpwl = hpwl.wrapping_add_signed(delta);
            }
            for (c, x, y) in moves.drain(..) {
                db.cells[c as usize].x = x;
                db.cells[c as usize].y = y;
            }
            prop_assert_eq!(hpwl, db.total_hpwl(), "iteration {}", it);
        }
    }
}

const CONFLICT_DIGEST: u64 = 0x1e50_48ed_f7e6_cf8c;
const PLACEMENT_DIGEST: u64 = 0x5c52_1e40_f36f_49f7;
const HUNGARIAN_DIGEST: u64 = 0x95b2_46ef_b525_509b;

#[test]
fn placement_end_to_end_parallel_equals_sequential() {
    let cfg = PlaceConfig {
        iterations: 4,
        ..Default::default()
    };
    let db = PlacementDb::synthesize(&PlacementConfig {
        num_cells: 500,
        num_nets: 600,
        ..Default::default()
    });
    let seq = detailed_place_sequential(db.clone(), cfg);
    // One worker and one device (nothing overlaps but host and device),
    // real stealing, and a second device: the iterations are ordered only
    // by `apply[i] -> partition[i+1]` and the device queue, so every shape
    // has to land on the sequential trajectory, cell for cell.
    // Fusion off as well: each MIS round then runs as separate kernels.
    let shapes = [(1, 1), (2, 1), (2, 2), (4, 2)];
    for ((workers, gpus), fusion) in shapes.into_iter().flat_map(|s| [(s, true), (s, false)]) {
        let ex = Executor::builder(workers, gpus).task_fusion(fusion).build();
        let par = detailed_place(&ex, db.clone(), cfg).expect("placement runs");
        let shape = format!("Executor({workers}, {gpus}) with task_fusion({fusion})");
        assert_eq!(par.hpwl_trace, seq.hpwl_trace, "{shape}");
        assert_eq!(par.db.cells, seq.db.cells, "{shape}");
        assert!(par.hpwl_after <= par.hpwl_before);
        par.db.check_legal().expect("legal");
    }
}

/// The MIS kernel chain run far past convergence on `Executor(1,1)`, on
/// the `app_place` conflict graph: the states after every round are
/// logged, the last equal `mis_cpu`'s, and from the first round that
/// leaves no cell undecided on they never change: the kernels' early
/// returns in those rounds are no-ops.
#[test]
fn mis_rounds_past_convergence_change_nothing() {
    const ROUNDS: usize = 48;
    let (db, _) = placement_inputs();
    let (off, nbr) = db.netlist.conflict_adjacency();
    let n = db.num_cells();
    let pri = make_priorities(n, 7);
    let g = Heteroflow::new("mis-past-convergence");
    let h_off = HostVec::from_vec(off.to_vec());
    let h_nbr = HostVec::from_vec(nbr.to_vec());
    let h_pri = HostVec::from_vec(pri.clone());
    let h_st = HostVec::from_vec(vec![mis::UNDECIDED; n]);
    let pulls = [&h_off, &h_nbr, &h_pri, &h_st].map(|h| g.pull("pull", h));
    let sources: Vec<&PullTask> = pulls.iter().collect();
    let log: Arc<std::sync::Mutex<Vec<Vec<u32>>>> = Arc::default();
    let mut prev: Option<heteroflow::core::KernelTask> = None;
    for r in 0..ROUNDS {
        let sel = g.kernel(&format!("sel{r}"), &sources, mis::select_kernel());
        let com = g.kernel(&format!("com{r}"), &sources, mis::commit_kernel());
        let snap = g.kernel(&format!("snap{r}"), &sources, {
            let log = Arc::clone(&log);
            move |_, args| {
                log.lock()
                    .unwrap()
                    .push(args.slice::<u32>(3).unwrap().to_vec())
            }
        });
        for k in [&sel, &com] {
            k.cover(n, 256);
        }
        match &prev {
            None => sel.succeed_all(&[&pulls[0], &pulls[1], &pulls[2], &pulls[3]]),
            Some(p) => sel.succeed(p),
        };
        sel.precede(&com);
        com.precede(&snap);
        prev = Some(snap);
    }
    let push = g.push("push_st", &pulls[3], &h_st);
    push.succeed(prev.as_ref().expect("rounds"));
    Executor::new(1, 1).run(&g).wait().expect("runs");

    let log = log.lock().unwrap();
    assert_eq!(log.len(), ROUNDS);
    let expect = mis_cpu(off, nbr, &pri);
    assert_eq!(
        h_st.to_vec(),
        expect,
        "kernel fixed point differs from mis_cpu"
    );
    let converged = (log.iter())
        .position(|st| !st.contains(&mis::UNDECIDED))
        .expect("converges");
    assert!(
        converged < ROUNDS / 4,
        "converged only after round {converged}"
    );
    for (r, st) in log.iter().enumerate().skip(converged) {
        assert_eq!(st, &expect, "round {r} changed the converged states");
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
    let tree = heteroflow::timing::cppr::ClockTree::build(&circuit, cfg.clock_seg_delay);
    let (_, gen_cost) = heteroflow::sim::measure(|| {
        heteroflow::timing::correlation::view_dataset(&circuit, &tree, &views[0], &cfg)
    });

    // Real run on 1 worker, 1 GPU.
    let built = build_correlation_graph(Arc::clone(&circuit), &views, cfg);
    let ex = Executor::new(1, 1);
    let t0 = std::time::Instant::now();
    ex.run(&built.graph).wait().expect("runs");
    let real = t0.elapsed().as_secs_f64();

    // Simulated run with the measured gen cost (other host tasks are
    // negligible here).
    let frozen = built.graph.freeze().expect("acyclic");
    let machine = Machine::new(1, 1);
    let (r, _) = simulate(&frozen, &plan(&frozen, &machine, true), &machine, |id| {
        if frozen.task_name(id).starts_with("gen_v") {
            gen_cost
        } else {
            heteroflow::gpu::SimDuration::from_micros(20)
        }
    });

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

/// The simulated makespans of both application graphs are pinned to the
/// nanosecond at fixed host costs and the default cost model, so any
/// change to what the simulator reads off the frozen graph (task kinds,
/// edges, byte counts, kernel pricing, placement) or to how it charges a
/// plan shows here. Each graph is pinned under its unfused plan and its
/// fused one. The unfused values were produced by the structural-snapshot
/// simulator that predates the frozen graph, with the Fig 5 dataset bytes
/// patched in by task name, and by the simulator that placed graphs
/// itself and modeled no fusion; replaying the unfused plan gives the
/// same nanoseconds.
#[test]
fn simulated_application_makespans_are_pinned() {
    use heteroflow::gpu::SimDuration;
    use heteroflow::place::graph::{build_placement_graph, GraphConfig};
    use heteroflow::timing::correlation::build_correlation_graph;
    use heteroflow::timing::regression::NUM_FEATURES;
    use hf_bench::NameCosts;
    let (ms, us) = (SimDuration::from_millis, SimDuration::from_micros);
    let machine = Machine::new(4, 2);

    // Fig 5, 4 views, its dataset buffers sized as `fig6_timing` sizes them.
    let circuit = Arc::new(Circuit::synthesize(&CircuitConfig {
        num_gates: 1500,
        ..Default::default()
    }));
    let cfg = CorrelationConfig {
        paths_per_view: 256,
        epochs: 60,
        ..Default::default()
    };
    let built = build_correlation_graph(circuit, &make_views(4, 0.4), cfg);
    let paths = cfg.paths_per_view;
    for [features, labels, weights] in &built.buffers {
        features.write().resize(paths * NUM_FEATURES, 0.0);
        labels.write().resize(paths, 0.0);
        weights.write().resize(NUM_FEATURES + 1, 0.0);
    }
    let fig5 = built.graph.freeze().expect("acyclic");
    let costs = NameCosts::new()
        .set("gen_v", ms(30))
        .set("stats_v", us(10))
        .set("report", us(50));
    let makespans = |graph: &FrozenGraph, costs: &NameCosts| {
        [false, true].map(|fusion| {
            let plan = plan(graph, &machine, fusion);
            let (r, _) = simulate(graph, &plan, &machine, costs.for_graph(graph));
            r.makespan().as_nanos()
        })
    };
    assert_eq!(makespans(&fig5, &costs), [30_278_740, 30_278_740]);

    // Fig 8, 3 iterations.
    let db = heteroflow::place::PlacementDb::synthesize(&heteroflow::place::PlacementConfig {
        num_cells: 500,
        num_nets: 600,
        ..Default::default()
    });
    let cfg = GraphConfig {
        iterations: 3,
        ..Default::default()
    };
    let (g, _run) = build_placement_graph(db, cfg);
    let fig8 = g.freeze().expect("acyclic");
    let costs = NameCosts::new()
        .set("prepare", us(300))
        .set("partition", ms(4))
        .set("match", ms(2))
        .set("apply", us(700));
    assert_eq!(makespans(&fig8, &costs), [20_713_501, 20_583_501]);
}
