//! Property-based tests: random DAGs always execute respecting every
//! dependency edge, with all tasks run exactly once per round; and the
//! placement routine keeps Algorithm 1's promises on random inputs.

use hf_core::placement::{groups, place, PlaceInput, PlacementView};
use hf_core::{Executor, Heteroflow, HfError, TaskKind};
use hf_gpu::CostModel;
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

/// A synthetic [`PlacementView`]: node `i`'s byte decides its kind, its
/// sources, its integer weight (so load sums are exact) and where its
/// buffer is warm.
struct View {
    kind: Vec<TaskKind>,
    sources: Vec<Vec<usize>>,
    push_src: Vec<Option<usize>>,
    weight: Vec<f64>,
    warm: Vec<Option<u32>>,
}

impl View {
    fn random(bytes: &[u8], bins: usize) -> Self {
        let mut v = View {
            kind: Vec::new(),
            sources: Vec::new(),
            push_src: Vec::new(),
            weight: Vec::new(),
            warm: Vec::new(),
        };
        let mut pulls: Vec<usize> = Vec::new();
        for (id, &b) in bytes.iter().enumerate() {
            let pick = |salt: usize| pulls[(b as usize / 7 + salt) % pulls.len().max(1)];
            let (kind, sources, push_src) = match b % 8 {
                0..=2 => (TaskKind::Pull, vec![], None),
                3..=5 if !pulls.is_empty() => (
                    TaskKind::Kernel,
                    (0..1 + b as usize % 3).map(pick).collect(),
                    None,
                ),
                6 if !pulls.is_empty() => (TaskKind::Push, vec![], Some(pick(0))),
                _ => (TaskKind::Host, vec![], None),
            };
            if kind == TaskKind::Pull {
                pulls.push(id);
            }
            let gpu = matches!(kind, TaskKind::Pull | TaskKind::Kernel);
            v.weight
                .push(if gpu { (b / 8) as f64 * 100.0 } else { 0.0 });
            // Warm devices include out-of-range (and, later, lost) ones.
            v.warm.push(
                (kind == TaskKind::Pull && b > 128).then(|| (b as usize % (bins + 1)) as u32),
            );
            v.kind.push(kind);
            v.sources.push(sources);
            v.push_src.push(push_src);
        }
        v
    }
}

impl PlacementView for View {
    fn num_nodes(&self) -> usize {
        self.kind.len()
    }
    fn kind_of(&self, i: usize) -> TaskKind {
        self.kind[i]
    }
    fn kernel_sources(&self, i: usize) -> Vec<usize> {
        self.sources[i].clone()
    }
    fn push_source(&self, i: usize) -> Option<usize> {
        self.push_src[i]
    }
    fn name_of(&self, i: usize) -> String {
        format!("t{i}")
    }
    fn weight_of(&self, i: usize, _: &CostModel) -> f64 {
        self.weight[i]
    }
    fn warm_device(&self, i: usize) -> Option<u32> {
        self.warm[i]
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// What every caller of `place` relies on, over random graphs, bins,
    /// lost masks, initial loads, previous placements and warm residency.
    #[test]
    fn place_upholds_algorithm_1(
        nodes in proptest::collection::vec(any::<u8>(), 0..40),
        lost in proptest::collection::vec(any::<bool>(), 0..5),
        initial in proptest::collection::vec(0u32..50, 0..5),
        blank in proptest::collection::vec(any::<bool>(), 1..8),
        (warm, pin) in (any::<bool>(), any::<bool>()),
    ) {
        let bins = lost.len();
        let alive = |d: u32| !lost.get(d as usize).copied().unwrap_or(true);
        let mut view = View::random(&nodes, bins);
        if !warm {
            view.warm.fill(None);
        }
        let cost = CostModel::default();
        let initial: Vec<f64> = initial.iter().map(|&l| l as f64 * 100.0).collect();
        let n = view.num_nodes();
        // The previous placement: a healthy one over the same bins with
        // some nodes forgotten, or none.
        let prev: Vec<Option<u32>> = if pin && bins > 0 {
            let healthy = PlaceInput { lost: &vec![false; bins], ..Default::default() };
            let mut p = place(&view, &cost, &healthy).unwrap().device_of;
            for (i, d) in p.iter_mut().enumerate() {
                if blank[i % blank.len()] {
                    *d = None;
                }
            }
            p
        } else {
            Vec::new()
        };
        let input = PlaceInput { lost: &lost, initial_loads: &initial, prev: &prev, refined: None };

        let gpu_work = view.kind.iter().any(|k| *k != TaskKind::Host);
        let p = match place(&view, &cost, &input) {
            Ok(p) => p,
            Err(e) => {
                prop_assert!(matches!(e, HfError::NoGpus { .. }), "{e}");
                prop_assert!(gpu_work && !lost.contains(&false), "NoGpus with a surviving bin");
                continue;
            }
        };
        prop_assert!(!gpu_work || lost.contains(&false), "placed GPU work on no bin");

        // Kernels sit with their pulls, pushes with theirs; hosts nowhere;
        // nothing on a lost bin.
        for i in 0..n {
            match view.kind[i] {
                TaskKind::Host => prop_assert_eq!(p.device_of[i], None),
                _ => prop_assert!(p.device_of[i].is_some_and(alive), "node {} on {:?}", i, p.device_of[i]),
            }
            for &s in &view.sources[i] {
                prop_assert_eq!(p.device_of[i], p.device_of[s], "kernel {} vs pull {}", i, s);
            }
            if let Some(s) = view.push_src[i] {
                prop_assert_eq!(p.device_of[i], p.device_of[s], "push {} vs pull {}", i, s);
            }
        }

        // Pinned groups do not move, and the loads are the initial loads
        // plus every group's weight, less what a warm bin saves a group
        // that was free to choose it.
        let groups = groups(&view, &cost, None);
        prop_assert_eq!(p.num_groups, groups.len());
        let mut want: Vec<f64> = (0..bins).map(|b| initial.get(b).copied().unwrap_or(0.0)).collect();
        let mut free_weights: Vec<f64> = Vec::new();
        for g in &groups {
            let bin = p.device_of[g.members[0]].expect("placed");
            let kept = g.members.iter().find_map(|&m| prev.get(m).copied().flatten().filter(|&d| alive(d)));
            let saved: f64 = g.members.iter()
                .filter(|&&m| kept.is_none() && view.warm[m] == Some(bin))
                .map(|&m| view.weight[m])
                .sum();
            if let Some(d) = kept {
                prop_assert_eq!(bin, d, "pinned group moved");
            } else {
                free_weights.push(g.weight);
            }
            want[bin as usize] += g.weight - saved;
        }
        prop_assert_eq!(&p.loads, &want);

        // LPT: with nothing pinned, warm or pre-loaded, the heaviest bin
        // carries at most the mean plus one heaviest group.
        let survivors = lost.iter().filter(|&&l| !l).count();
        if prev.is_empty() && !warm && initial.is_empty() && survivors > 0 {
            let mean = free_weights.iter().sum::<f64>() / survivors as f64;
            let heaviest = free_weights.iter().cloned().fold(0.0, f64::max);
            let max = p.loads.iter().cloned().fold(0.0, f64::max);
            prop_assert!(max <= mean + heaviest, "max {} mean {} heaviest {}", max, mean, heaviest);
        }
    }
}
