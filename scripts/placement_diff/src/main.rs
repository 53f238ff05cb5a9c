//! Differential check of `hf_core::placement::place` against the two
//! routines it replaced. `old.rs` is cut out of git history by
//! `scripts/placement_diff.sh`; every field of the result is compared bit
//! for bit, once with coarse weights (ties on every comparison) and once
//! with fine-grained ones.

mod old;

use hf_core::placement::{place, PlaceInput, Placement, PlacementView};
use hf_core::{CostDb, HfError, TaskKind};
use hf_gpu::CostModel;

/// splitmix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
    /// A weight: a small multiple of 1000 (ties everywhere) or a value
    /// with a fractional part.
    fn weight(&mut self, fine: bool) -> f64 {
        if fine {
            (self.next() >> 11) as f64 / (1u64 << 33) as f64
        } else {
            self.below(4) as f64 * 1000.0
        }
    }
}

#[derive(Default)]
struct View {
    kind: Vec<TaskKind>,
    sources: Vec<Vec<usize>>,
    push_src: Vec<Option<usize>>,
    weight: Vec<f64>,
    bytes: Vec<usize>,
    warm: Vec<Option<u32>>,
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
    fn bytes_of(&self, i: usize) -> usize {
        self.bytes[i]
    }
    fn warm_device(&self, i: usize) -> Option<u32> {
        self.warm[i]
    }
}

fn random_view(rng: &mut Rng, fine: bool, bins: usize) -> View {
    let mut v = View::default();
    let mut pulls: Vec<usize> = Vec::new();
    for id in 0..rng.below(40) {
        let (mut kind, mut sources, mut push_src) = (TaskKind::Host, Vec::new(), None);
        match rng.below(10) {
            0..=3 => kind = TaskKind::Pull,
            4..=6 if !pulls.is_empty() => {
                kind = TaskKind::Kernel;
                for _ in 0..1 + rng.below(3) {
                    sources.push(pulls[rng.below(pulls.len())]);
                }
            }
            7 if !pulls.is_empty() => {
                kind = TaskKind::Push;
                push_src = Some(pulls[rng.below(pulls.len())]);
            }
            _ => {}
        }
        if kind == TaskKind::Pull {
            pulls.push(id);
        }
        let gpu = matches!(kind, TaskKind::Pull | TaskKind::Kernel);
        v.kind.push(kind);
        v.sources.push(sources);
        v.push_src.push(push_src);
        v.weight.push(if gpu { rng.weight(fine) } else { 0.0 });
        v.bytes.push(rng.below(1 << 20));
        // Warm devices include out-of-range and (later) lost ones.
        v.warm
            .push((kind == TaskKind::Pull && rng.chance(40)).then(|| rng.below(bins + 2) as u32));
    }
    v
}

fn same(a: &Result<Placement, HfError>, b: &Result<Placement, HfError>) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            a.device_of == b.device_of
                && a.num_groups == b.num_groups
                && a.warm_hits == b.warm_hits
                && a.est_bytes_saved == b.est_bytes_saved
                && a.loads.len() == b.loads.len()
                && a.loads
                    .iter()
                    .zip(&b.loads)
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        }
        (Err(HfError::NoGpus { task: a }), Err(HfError::NoGpus { task: b })) => a == b,
        _ => false,
    }
}

fn main() {
    let graphs: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000);
    let cost = CostModel::default();
    let (mut cases, mut pinned, mut no_gpus, mut warm_hit, mut refined_used) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for fine in [false, true] {
        for seed in 0..graphs {
            let mut rng = Rng(seed ^ if fine { 0xF1E0_0000_0000 } else { 0 });
            let bins = rng.below(5); // 0 bins: the NoGpus path of a fresh placement
            let v = random_view(&mut rng, fine, bins);
            let n = v.num_nodes();

            let db = CostDb::new();
            for i in 0..n {
                if matches!(v.kind[i], TaskKind::Pull | TaskKind::Kernel) && rng.chance(30) {
                    db.seed("g", &format!("t{i}"), rng.weight(fine));
                }
            }
            let snap = db.snapshot_for("g");
            let refined = rng.chance(50).then_some(&snap);
            refined_used += u64::from(refined.is_some() && !snap.is_empty());

            let initial: Vec<f64> = match rng.below(4) {
                0 => Vec::new(),
                1 => (0..bins.saturating_sub(1))
                    .map(|_| rng.weight(fine))
                    .collect(),
                2 => (0..bins + 1).map(|_| rng.weight(fine)).collect(),
                _ => (0..bins).map(|_| rng.weight(fine)).collect(),
            };
            let healthy = vec![false; bins];

            // A lost mask over at least one bin, sometimes with no survivor.
            let fbins = bins.max(1);
            let lost: Vec<bool> = match rng.below(8) {
                0 => vec![true; fbins],
                _ => (0..fbins).map(|_| rng.chance(40)).collect(),
            };
            // The previous placement: a real one (sometimes over one more
            // device than now exists), with random nodes blanked; or none.
            let prev: Vec<Option<u32>> = if rng.chance(20) {
                Vec::new()
            } else {
                let pb = (fbins + rng.below(2)) as u32;
                let mut p = old::device_placement_ext(
                    &v,
                    pb,
                    old::PlacementPolicy::BalancedLoad,
                    &cost,
                    &[],
                    None,
                )
                .expect("bins exist")
                .device_of;
                for d in p.iter_mut() {
                    if rng.chance(15) {
                        *d = None;
                    }
                }
                p
            };

            for (old_policy, warm) in [
                (old::PlacementPolicy::BalancedLoad, false),
                (old::PlacementPolicy::Locality, true),
            ] {
                // Fresh placement with cross-graph bias and measured weights.
                let want = old::device_placement_ext(
                    &v,
                    bins as u32,
                    old_policy,
                    &cost,
                    &initial,
                    refined,
                );
                let input = PlaceInput {
                    lost: &healthy,
                    initial_loads: &initial,
                    prev: &[],
                    refined,
                    warm,
                };
                let got = place(&v, &cost, &input);
                assert!(
                    same(&want, &got),
                    "fresh fine={fine} seed={seed} warm={warm}\nold {want:?}\nnew {got:?}"
                );
                no_gpus += u64::from(want.is_err());
                warm_hit += u64::from(want.as_ref().is_ok_and(|p| p.warm_hits > 0));

                // Failover re-placement.
                let want =
                    old::failover_placement_ext(&v, &prev, &lost, &cost, old_policy, refined);
                let input = PlaceInput {
                    lost: &lost,
                    initial_loads: &[],
                    prev: &prev,
                    refined,
                    warm,
                };
                let got = place(&v, &cost, &input);
                assert!(
                    same(&want, &got),
                    "failover fine={fine} seed={seed} warm={warm}\nold {want:?}\nnew {got:?}"
                );
                no_gpus += u64::from(want.is_err());
                warm_hit += u64::from(want.as_ref().is_ok_and(|p| p.warm_hits > 0));
                pinned += u64::from(want.as_ref().is_ok_and(|p| {
                    (0..n).any(|i| {
                        let kept = prev.get(i).copied().flatten();
                        kept.is_some_and(|d| !lost.get(d as usize).copied().unwrap_or(true))
                            && p.device_of[i] == kept
                    })
                }));
                cases += 2;
            }
        }
    }
    println!(
        "placement_diff: {cases} cases identical ({pinned} with pinned groups, {warm_hit} with warm hits, \
         {no_gpus} NoGpus, {refined_used} graph setups with refined weights)"
    );
}
