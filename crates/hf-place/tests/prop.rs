//! Property-based tests for the placement substrate.

use hf_gpu::arena::{Arena, DevicePtr};
use hf_gpu::{KernelArgs, LaunchConfig};
use hf_place::matching::Hungarian;
use hf_place::mis::{self, commit_kernel, make_priorities, mis_cpu, select_kernel};
use hf_place::mis::{IN_SET, OUT, TENTATIVE, UNDECIDED};
use hf_place::partition::partition_windows;
use hf_place::{PlacementConfig, PlacementDb};
use proptest::prelude::*;

/// Random undirected graph in CSR form.
fn random_csr(n: usize, edges: &[(usize, usize)]) -> (Vec<u32>, Vec<u32>) {
    let mut sets: Vec<std::collections::BTreeSet<u32>> = vec![std::collections::BTreeSet::new(); n];
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

/// Brute-force optimal assignment of a row-major `n x n` matrix.
fn brute_force(cost: &[u64], n: usize) -> u64 {
    fn permute(items: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
        if k == items.len() {
            return f(items);
        }
        for i in k..items.len() {
            items.swap(k, i);
            permute(items, k + 1, f);
            items.swap(k, i);
        }
    }
    let mut best = if n == 0 { 0 } else { u64::MAX };
    permute(&mut (0..n).collect(), 0, &mut |perm| {
        best = best.min(perm.iter().enumerate().map(|(i, &j)| cost[i * n + j]).sum());
    });
    best
}

/// Verifies independence (no two IN_SET cells adjacent) and maximality
/// (every non-member has an IN_SET neighbor). Movable-cell masks are the
/// caller's concern; this checks the pure graph property.
fn verify_mis(offsets: &[u32], neighbors: &[u32], states: &[u32]) -> Result<(), String> {
    let n = states.len();
    for v in 0..n {
        let (s, e) = (offsets[v] as usize, offsets[v + 1] as usize);
        match states[v] {
            IN_SET => {
                for &u in &neighbors[s..e] {
                    if states[u as usize] == IN_SET {
                        return Err(format!("adjacent members {v} and {u}"));
                    }
                }
            }
            OUT => {
                let ok = neighbors[s..e]
                    .iter()
                    .any(|&u| states[u as usize] == IN_SET);
                if !ok {
                    return Err(format!("cell {v} excluded without a member neighbor"));
                }
            }
            UNDECIDED | TENTATIVE => {
                return Err(format!("cell {v} left undecided"));
            }
            other => return Err(format!("cell {v} in invalid state {other}")),
        }
    }
    Ok(())
}

fn path_graph(n: usize) -> (Vec<u32>, Vec<u32>) {
    // 0-1-2-...-n-1
    let mut offsets = vec![0u32];
    let mut neighbors = Vec::new();
    for v in 0..n {
        if v > 0 {
            neighbors.push((v - 1) as u32);
        }
        if v + 1 < n {
            neighbors.push((v + 1) as u32);
        }
        offsets.push(neighbors.len() as u32);
    }
    (offsets, neighbors)
}

#[test]
fn cpu_mis_on_path_is_valid() {
    let (off, nbr) = path_graph(20);
    let pri = make_priorities(20, 42);
    let st = mis_cpu(&off, &nbr, &pri);
    verify_mis(&off, &nbr, &st).unwrap();
    let members = st.iter().filter(|&&s| s == IN_SET).count();
    // A path of 20 has MIS size between 7 (floor 20/3) and 10.
    assert!((7..=10).contains(&members), "size {members}");
}

#[test]
fn mis_on_conflict_graph_is_valid() {
    let db = PlacementDb::synthesize(&PlacementConfig {
        num_cells: 800,
        num_nets: 1000,
        ..Default::default()
    });
    let (off, nbr) = db.netlist.conflict_adjacency();
    let pri = make_priorities(db.num_cells(), 7);
    let st = mis_cpu(off, nbr, &pri);
    verify_mis(off, nbr, &st).unwrap();
    let members = st.iter().filter(|&&s| s == IN_SET).count();
    assert!(members > 0);
}

/// The two-phase kernels, run to fixed point on a software device,
/// agree exactly with the CPU reference.
#[test]
fn kernels_match_cpu_reference() {
    use hf_core::data::HostVec;
    use hf_core::{Executor, Heteroflow};

    let db = PlacementDb::synthesize(&PlacementConfig {
        num_cells: 300,
        num_nets: 400,
        ..Default::default()
    });
    let (off, nbr) = db.netlist.conflict_adjacency();
    let pri = make_priorities(db.num_cells(), 99);
    let expect = mis_cpu(off, nbr, &pri);
    let rounds = 32; // generous upper bound for n=300

    let ex = Executor::new(2, 1);
    let g = Heteroflow::new("mis");
    let h_off: HostVec<u32> = HostVec::from_vec(off.to_vec());
    let h_nbr: HostVec<u32> = HostVec::from_vec(if nbr.is_empty() {
        vec![u32::MAX] // avoid zero-byte pull
    } else {
        nbr.to_vec()
    });
    let h_pri: HostVec<u32> = HostVec::from_vec(pri.clone());
    let h_st: HostVec<u32> = HostVec::from_vec(vec![UNDECIDED; db.num_cells()]);

    let p_off = g.pull("off", &h_off);
    let p_nbr = g.pull("nbr", &h_nbr);
    let p_pri = g.pull("pri", &h_pri);
    let p_st = g.pull("st", &h_st);
    let n = db.num_cells();
    let mut prev: Option<hf_core::KernelTask> = None;
    for r in 0..rounds {
        let sel = g.kernel(
            &format!("sel{r}"),
            &[&p_off, &p_nbr, &p_pri, &p_st],
            select_kernel(),
        );
        sel.cover(n, 128);
        let com = g.kernel(
            &format!("com{r}"),
            &[&p_off, &p_nbr, &p_pri, &p_st],
            commit_kernel(),
        );
        com.cover(n, 128);
        match &prev {
            None => {
                sel.succeed_all(&[&p_off, &p_nbr, &p_pri, &p_st]);
            }
            Some(p) => {
                sel.succeed(p);
            }
        }
        sel.precede(&com);
        prev = Some(com);
    }
    let push = g.push("push_st", &p_st, &h_st);
    push.succeed(prev.as_ref().unwrap());
    ex.run(&g).wait().unwrap();

    let got = h_st.to_vec();
    assert_eq!(got, expect, "kernel fixed point differs from CPU");
    verify_mis(off, nbr, &got).unwrap();
}

proptest! {
    /// The stamped conflict graph is byte for byte what one ordered set
    /// per cell gives (`random_csr` above).
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
        for pins in (0..db.netlist.num_nets()).map(|net| db.netlist.pins(net)) {
            for &a in pins {
                pairs.extend(pins.iter().map(|&b| (a as usize, b as usize)));
            }
        }
        let (off, nbr) = db.netlist.conflict_adjacency();
        prop_assert_eq!((off.to_vec(), nbr.to_vec()), random_csr(cells, &pairs));
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
        for array in [&off, &nbr, &pri, &vec![UNDECIDED; n]] {
            let len = array.len() as u64 * 4;
            ptrs.push(DevicePtr { device: 0, offset, len, capacity: len });
            view.slice_mut::<u32>(ptrs[ptrs.len() - 1]).unwrap().copy_from_slice(array);
            offset += len;
        }
        let cfg = LaunchConfig::cover(n, 32);
        let (select, commit) = (select_kernel(), commit_kernel());
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
    /// and always returns a permutation, on a fresh work space and on one
    /// that solved a larger problem first.
    #[test]
    fn hungarian_is_optimal(
        n in 1usize..7,
        values in proptest::collection::vec(0u64..1000, 49),
    ) {
        let cost = &values[..n * n];
        let mut fresh = Hungarian::default();
        let (asg, total) = fresh.solve(cost, n);
        prop_assert_eq!(total, brute_force(cost, n));
        let mut seen = vec![false; n];
        let mut check = 0u64;
        for (i, &j) in asg.iter().enumerate() {
            prop_assert!(!seen[j]);
            seen[j] = true;
            check += cost[i * n + j];
        }
        prop_assert_eq!(check, total);
        let mut reused = Hungarian::default();
        reused.solve(&values, 7);
        prop_assert_eq!(reused.solve(cost, n), (asg, total));
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
        let (off, nbr) = db.netlist.conflict_adjacency();
        let pri = make_priorities(cells, seed ^ 0xF00D);
        let states = mis_cpu(off, nbr, &pri);
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
