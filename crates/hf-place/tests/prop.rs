//! Property-based tests for the placement substrate.

use hf_gpu::arena::{Arena, DevicePtr};
use hf_gpu::{KernelArgs, LaunchConfig};
use hf_place::matching::{brute_force, hungarian};
use hf_place::mis::{self, make_priorities, mis_cpu, verify_mis};
use hf_place::partition::partition_windows;
use hf_place::{PlacementConfig, PlacementDb};
use proptest::prelude::*;

/// Random undirected graph in CSR form.
fn random_csr(n: usize, edges: &[(usize, usize)]) -> (Vec<u32>, Vec<u32>) {
    let mut sets: Vec<std::collections::BTreeSet<u32>> =
        vec![std::collections::BTreeSet::new(); n];
    for &(a, b) in edges {
        let (a, b) = (a % n, b % n);
        if a != b {
            sets[a].insert(b as u32);
            sets[b].insert(a as u32);
        }
    }
    let mut offsets = vec![0u32];
    let mut neighbors = Vec::new();
    for s in &sets {
        neighbors.extend(s.iter().copied());
        offsets.push(neighbors.len() as u32);
    }
    (offsets, neighbors)
}

proptest! {
    /// The sort-and-dedup CSR is byte for byte what one ordered set per
    /// cell gave (the construction it replaced: `random_csr` above).
    #[test]
    fn conflict_adjacency_equals_the_set_construction(
        cells in 4usize..300,
        nets in 0usize..400,
        locality in 1u32..60,
        seed in any::<u64>(),
    ) {
        let db = PlacementDb::synthesize(&PlacementConfig {
            num_cells: cells,
            num_nets: nets,
            locality,
            seed,
            ..Default::default()
        });
        let mut pairs = Vec::new();
        for (net, &a) in db.nets.iter().flat_map(|net| net.pins.iter().map(move |a| (net, a))) {
            pairs.extend(net.pins.iter().map(|&b| (a as usize, b as usize)));
        }
        prop_assert_eq!(db.conflict_adjacency(), random_csr(cells, &pairs));
    }

    /// MIS output on any graph is independent and maximal, for any
    /// priority seed, and the kernels reach it on a device arena as the
    /// reference does: after every round the one-pass commit leaves exactly
    /// the states of the two-pass definition, and the fixed points agree.
    #[test]
    fn mis_always_valid(
        n in 2usize..80,
        edges in proptest::collection::vec((0usize..80, 0usize..80), 0..300),
        seed in any::<u64>(),
    ) {
        let (off, mut nbr) = random_csr(n, &edges);
        let pri = make_priorities(n, seed);
        if nbr.is_empty() {
            nbr.push(u32::MAX); // no zero-byte device buffer, as in the graph
        }
        let mut arena = Arena::new(0, 4096);
        let mut view = arena.view();
        let (mut ptrs, mut offset) = (Vec::new(), 0);
        for array in [&off, &nbr, &pri, &vec![mis::UNDECIDED; n]] {
            let len = array.len() as u64 * 4;
            ptrs.push(DevicePtr { device: 0, offset, len, capacity: len });
            view.slice_mut::<u32>(ptrs[ptrs.len() - 1]).unwrap().copy_from_slice(array);
            offset += len;
        }
        let cfg = LaunchConfig::cover(n, 32);
        let (select, commit) = (mis::select_kernel(), mis::commit_kernel());
        // Every round with an undecided cell decides one: n rounds suffice.
        for _ in 0..n {
            select(&cfg, &mut KernelArgs::new(&mut view, &ptrs));
            let mut expect = view.slice::<u32>(ptrs[3]).unwrap().to_vec();
            mis::commit_two_pass(&off, &nbr, &mut expect);
            commit(&cfg, &mut KernelArgs::new(&mut view, &ptrs));
            prop_assert_eq!(view.slice::<u32>(ptrs[3]).unwrap(), &expect[..]);
        }
        let states = mis_cpu(&off, &nbr, &pri);
        prop_assert!(verify_mis(&off, &nbr, &states).is_ok());
        prop_assert_eq!(view.slice::<u32>(ptrs[3]).unwrap(), &states[..]);
    }

    /// Hungarian matches the brute-force optimum on every small matrix
    /// and always returns a permutation.
    #[test]
    fn hungarian_is_optimal(
        n in 1usize..7,
        values in proptest::collection::vec(0u64..1000, 49),
    ) {
        let cost: Vec<Vec<u64>> = (0..n)
            .map(|i| (0..n).map(|j| values[i * 7 + j]).collect())
            .collect();
        let (asg, total) = hungarian(&cost);
        prop_assert_eq!(total, brute_force(&cost));
        let mut seen = vec![false; n];
        let mut check = 0u64;
        for (i, &j) in asg.iter().enumerate() {
            prop_assert!(!seen[j]);
            seen[j] = true;
            check += cost[i][j];
        }
        prop_assert_eq!(check, total);
    }

    /// Partitioning covers each movable member exactly once with windows
    /// within the cap, for random placements and caps.
    #[test]
    fn partition_is_a_cover(
        cells in 50usize..400,
        cap in 2usize..12,
        seed in any::<u64>(),
    ) {
        let db = PlacementDb::synthesize(&PlacementConfig {
            num_cells: cells,
            num_nets: cells,
            seed,
            ..Default::default()
        });
        let (off, nbr) = db.conflict_adjacency();
        let pri = make_priorities(cells, seed ^ 0xF00D);
        let states = mis_cpu(&off, &nbr, &pri);
        let windows = partition_windows(&db, &states, cap);
        let mut seen = std::collections::HashSet::new();
        for w in &windows {
            prop_assert!(w.len() >= 2 && w.len() <= cap);
            for &c in w {
                prop_assert!(seen.insert(c), "cell {} twice", c);
            }
        }
    }

    /// The full sequential detailed-placement pipeline never increases
    /// HPWL and always preserves legality.
    #[test]
    fn placement_pipeline_invariants(
        cells in 60usize..250,
        iters in 1usize..4,
        seed in any::<u64>(),
    ) {
        let db = PlacementDb::synthesize(&PlacementConfig {
            num_cells: cells,
            num_nets: cells + 20,
            seed,
            ..Default::default()
        });
        let out = hf_place::detailed_place_sequential(
            db,
            hf_place::PlaceConfig {
                iterations: iters,
                ..Default::default()
            },
        );
        prop_assert!(out.hpwl_after <= out.hpwl_before);
        let mut prev = out.hpwl_before;
        for &h in &out.hpwl_trace {
            prop_assert!(h <= prev, "HPWL increased mid-trace");
            prev = h;
        }
        prop_assert!(out.db.check_legal().is_ok());
    }
}
