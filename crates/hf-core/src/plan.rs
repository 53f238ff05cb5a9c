//! The plan — device placement (Algorithm 1, §III-B) and the fusion
//! chains for it (§III-C) — and the one place plans are made, cached and
//! masked: each executor's [`Planner`], the per-graph [`PlanCache`], and
//! [`Plan::restrict`] for a run that must not fuse across a boundary.

use crate::costmodel::CostDb;
use crate::error::HfError;
use crate::graph::{FrozenGraph, TaskKind};
use crate::placement::{PlaceInput, Placement};
use crate::stats::ExecutorStats;
use hf_gpu::{CostModel, GpuRuntime};
use hf_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use hf_sync::sync::Mutex;
use std::sync::Arc;

/// The scheduler's decision for one graph version, made before any task
/// runs: device placement (Algorithm 1), then the fusion chains for it
/// (§III-B/C), held by value behind one `Arc<Plan>`. The executor makes
/// the plans it runs ([`crate::Executor::plan`]); [`Plan::from_placement`]
/// makes the same value from a caller's placement for `hf-sim` to replay.
pub struct Plan {
    placement: Placement,
    /// `next[v]` chains v to a GPU successor dispatched on the same
    /// stream submission; members of a chain (non-heads) are never
    /// scheduled individually.
    next: Vec<Option<u32>>,
    /// Which queue each node takes once ready: one byte per node, the one
    /// the release path reads per successor (members are `Fused`).
    route: Vec<Route>,
}

/// Where a ready node goes (`ReadyBatch`): a host task to a deque or the
/// injector, a GPU chain head to the device-ready queue, a member nowhere.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub(crate) enum Route {
    Host,
    Device,
    Fused,
}

impl Plan {
    /// `placement` with its fusion chains (§III-C "task fusing"); no
    /// chains when `fusion` is off. Node `v` fuses to its successor `w`
    /// when `v` is a GPU task, `w` is a *kernel or push* task whose only
    /// dependency is `v`, and both are placed on the same device. Pull
    /// tasks are never fused as members (their device allocation sizes
    /// bind at dispatch time and must observe their host-side
    /// predecessors).
    fn new(frozen: &FrozenGraph, placement: Placement, fusion: bool) -> Self {
        let n = frozen.nodes.len();
        let mut next = vec![None; n];
        let mut route: Vec<Route> = (0..n)
            .map(|v| match frozen.kind(v) {
                TaskKind::Pull | TaskKind::Push | TaskKind::Kernel => Route::Device,
                _ => Route::Host,
            })
            .collect();
        #[allow(clippy::needless_range_loop)] // v indexes three parallel arrays
        for v in 0..n {
            if !fusion || route[v] == Route::Host {
                continue;
            }
            let &[w] = frozen.successors(v) else { continue };
            let w = w as usize;
            let w_fusible = matches!(frozen.kind(w), TaskKind::Push | TaskKind::Kernel);
            if w_fusible
                && frozen.nodes[w].num_deps == 1
                && placement.device_of[v] == placement.device_of[w]
            {
                next[v] = Some(w as u32);
                route[w] = Route::Fused;
            }
        }
        Self {
            placement,
            next,
            route,
        }
    }

    /// The plan an executor with task fusion set to `fusion` runs
    /// `frozen` under when it places it as `placement`: the same chains,
    /// fused by the same rule.
    ///
    /// # Panics
    /// With "placement was not computed for this graph" when `placement`
    /// does not give a device to exactly the pulls, pushes and kernels
    /// of `frozen`.
    pub fn from_placement(frozen: &FrozenGraph, placement: Placement, fusion: bool) -> Self {
        let on_cpu = |i: usize| matches!(frozen.kind(i), TaskKind::Host | TaskKind::Placeholder);
        let fits = placement.device_of.len() == frozen.num_tasks()
            && placement
                .device_of
                .iter()
                .enumerate()
                .all(|(i, d)| d.is_some() != on_cpu(i));
        assert!(fits, "placement was not computed for this graph");
        Self::new(frozen, placement, fusion)
    }

    /// This plan with its chains cut to `active`: a link `v -> w` stays
    /// only when both ends are active; a member cut loose routes
    /// `Device`. The same as fusing within `active` from the start: a
    /// fusible `w` has one dependency, so only `v` can fuse it.
    pub(crate) fn restrict(&self, active: &[bool]) -> Self {
        let (mut next, mut route) = (self.next.clone(), self.route.clone());
        for (v, link) in next.iter_mut().enumerate() {
            if let Some(w) = link.map(|w| w as usize) {
                if !(active[v] && active[w]) {
                    *link = None;
                    route[w] = Route::Device;
                }
            }
        }
        Self {
            placement: self.placement.clone(),
            next,
            route,
        }
    }

    /// The device placement the plan runs under.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// `head`, then every member fused behind it, in dispatch order; just
    /// `head` when nothing is.
    pub fn chain(&self, head: usize) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(Some(head), |&n| self.next[n].map(|m| m as usize))
    }

    /// The queue `node` takes once it is ready.
    #[inline]
    pub(crate) fn route(&self, node: usize) -> Route {
        self.route[node]
    }

    /// True when `node` runs fused behind a chain head: it is never
    /// dispatched on its own, and its successors are released when the
    /// whole chain finishes.
    pub fn is_member(&self, node: usize) -> bool {
        self.route[node] == Route::Fused
    }
}

/// Executor identities for keying per-graph plan caches.
static NEXT_EXEC_ID: AtomicU64 = AtomicU64::new(0);

/// The plan last made for one frozen graph on a healthy executor. It
/// lives on the frozen snapshot of one builder epoch and holds one entry:
/// a second executor simply evicts it.
pub(crate) type PlanCache = Mutex<Option<Cached>>;

/// A cached [`Plan`] and its key: the executor it was made for (device
/// count, cost model and fusion flag are per-executor) and that
/// executor's seed generation. The snapshot it lives on is the epoch.
pub(crate) struct Cached {
    key: (u64, u64),
    plan: Arc<Plan>,
    /// This graph's own modeled load per device (placement loads minus
    /// the bias snapshot they were computed against), re-applied to the
    /// executor's decaying device-load estimate on cache hits.
    own_loads: Vec<f64>,
}

/// The one maker of an executor's plans, and the state making them reads
/// and keeps.
pub(crate) struct Planner {
    /// Process-unique id keying [`PlanCache`] entries.
    id: u64,
    /// GPU task fusion (§III-C "task fusing") enabled.
    fusion: bool,
    /// The analytic model placement weighs unseeded tasks with.
    cost: CostModel,
    /// Per-task durations seeded by [`crate::Executor::seed_task_cost`].
    pub(crate) cost_db: CostDb,
    /// Decaying modeled load already packed per device: the bias that
    /// steers later graphs toward idle GPUs.
    device_load: Mutex<Vec<f64>>,
    /// Per-device latch: each lost device counts once in `devices_lost`.
    lost_seen: Vec<AtomicBool>,
}

impl Planner {
    pub(crate) fn new(gpu: &GpuRuntime, fusion: bool) -> Self {
        let devices = gpu.devices();
        Self {
            id: NEXT_EXEC_ID.fetch_add(1, Ordering::Relaxed),
            fusion,
            cost: devices.first().map(|d| d.cost_model()).unwrap_or_default(),
            cost_db: CostDb::new(),
            device_load: Mutex::new(vec![0.0; devices.len()]),
            lost_seen: devices.iter().map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Current decaying modeled-load estimate per device.
    pub(crate) fn device_loads(&self) -> Vec<f64> {
        self.device_load.lock().clone()
    }

    /// The plan this executor runs `frozen` under when it is placed as
    /// `placement`: a failover's re-placement, carried to later epochs.
    pub(crate) fn fuse(&self, frozen: &FrozenGraph, placement: Placement) -> Plan {
        Plan::new(frozen, placement, self.fusion)
    }

    /// The one maker of a [`Plan`]: the one call into
    /// [`crate::placement::place`], then the fusion chains for it.
    /// Placement is fed the seeds recorded for the graph (none on an
    /// executor nobody seeded) next to the residency the frozen graph
    /// itself reports. Devices marked in `lost` are masked out and
    /// counted once each in `stats.devices_lost`; groups of `prev` (a
    /// previous `device_of`; empty places everything) on a surviving
    /// device stay. `lost` is the caller's read, so recovery places
    /// against the mask it chose the replayed nodes by.
    ///
    /// Only a first placement on a healthy executor reads and updates the
    /// decayed cross-graph load — with a device lost it may describe dead
    /// hardware, and a re-placement adds no new work — and only such a
    /// plan is cached, on the frozen graph, under `(executor, seed
    /// generation)`. A hit returns the cached plan and re-applies the
    /// load it added to the decayed bias.
    pub(crate) fn plan(
        &self,
        frozen: &FrozenGraph,
        lost: &[bool],
        prev: &[Option<u32>],
        stats: &ExecutorStats,
    ) -> Result<Arc<Plan>, HfError> {
        for (d, &l) in lost.iter().enumerate() {
            if l && !self.lost_seen[d].swap(true, Ordering::Relaxed) {
                stats.devices_lost.incr();
            }
        }
        let first = prev.is_empty();
        let biased = first && !lost.contains(&true);
        // Read before the seeds: one seeded during placement re-plans.
        let key = (self.id, self.cost_db.generation());
        if biased {
            let cache = frozen.plan_cache.lock();
            if let Some(c) = cache.as_ref().filter(|c| c.key == key) {
                stats.topo_cache_hits.incr();
                // Keep the cross-graph bias fresh: decay, then re-apply
                // this graph's own modeled load.
                let mut dl = self.device_load.lock();
                for (l, own) in dl.iter_mut().zip(&c.own_loads) {
                    *l = *l * 0.5 + own;
                }
                return Ok(Arc::clone(&c.plan));
            }
        }
        if first {
            stats.topo_cache_misses.incr();
        }
        let seeds = Some(self.cost_db.snapshot_for(frozen.name())).filter(|s| !s.is_empty());
        let mut bias = biased.then(|| self.device_load.lock());
        if let Some(dl) = &mut bias {
            dl.iter_mut().for_each(|l| *l *= 0.5);
        }
        let input = PlaceInput {
            lost,
            initial_loads: bias.as_deref().map_or(&[], Vec::as_slice),
            prev,
            refined: seeds.as_ref(),
        };
        let placement = crate::placement::place(frozen, &self.cost, &input)?;
        let own_loads = bias.map(|mut dl| {
            let own = placement
                .loads
                .iter()
                .zip(dl.iter())
                .map(|(l, b)| l - b)
                .collect();
            dl.copy_from_slice(&placement.loads);
            own
        });
        stats.placement_warm_hits.add(placement.warm_hits);
        stats
            .placement_est_bytes_saved
            .add(placement.est_bytes_saved);
        stats.placement_imbalance.set(placement.imbalance());
        let plan = Arc::new(Plan::new(frozen, placement, self.fusion));
        if let Some(own_loads) = own_loads {
            *frozen.plan_cache.lock() = Some(Cached {
                key,
                plan: Arc::clone(&plan),
                own_loads,
            });
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Heteroflow;
    use rand::{Rng, SeedableRng};

    /// The Fig 5 graph's shape: per view, `gen` feeds three pulls into
    /// one kernel, whose weights are pushed back and summarised; every
    /// summary feeds one report.
    fn fig5_shaped(views: usize) -> Heteroflow {
        use crate::data::HostVec;
        let g = Heteroflow::new("fig5");
        let report = g.host("report", || {});
        for v in 0..views {
            let gen = g.host(&format!("gen_v{v}"), || {});
            let [px, py, pw] = [("x", 256 * (8 + v)), ("y", 256), ("w", 9)].map(|(b, n)| {
                let p = g.pull(&format!("pull_{b}_v{v}"), &HostVec::from_vec(vec![0.0; n]));
                gen.precede(&p);
                p
            });
            let k = g.kernel(&format!("fit_v{v}"), &[&px, &py, &pw], |_, _| {});
            let push = g.push(&format!("push_w_v{v}"), &pw, &HostVec::<f64>::new());
            let stats = g.host(&format!("stats_v{v}"), || {});
            k.succeed_all(&[&px, &py, &pw]).precede(&push);
            stats.succeed(&push).precede(&report);
        }
        g
    }

    /// The public maker over `device_placement` is a fresh executor's
    /// first plan: the same devices and the same chains, one
    /// `kernel -> push` member per view. Placing a GPU graph with no GPU
    /// is an error, and a plan rejects another graph's placement.
    #[test]
    fn public_plan_is_the_executors_first_plan() {
        use crate::placement::device_placement;
        let g = fig5_shaped(8);
        let frozen = g.freeze().unwrap();
        let n = frozen.num_tasks();
        let chains = |p: &Plan| {
            (0..n)
                .map(|v| p.chain(v).collect())
                .collect::<Vec<Vec<_>>>()
        };
        for gpus in [1, 2, 4] {
            let ex = crate::Executor::new(1, gpus);
            let theirs = ex.plan(&g).unwrap();
            let placement = device_placement(&frozen, gpus, &Default::default()).unwrap();
            let ours = Plan::from_placement(&frozen, placement, true);
            assert_eq!(ours.placement().device_of, theirs.placement().device_of);
            assert_eq!(chains(&ours), chains(&theirs), "{gpus} GPUs");
            assert_eq!((0..n).filter(|&v| ours.is_member(v)).count(), 8);
        }
    }

    /// Restricting keeps exactly the links with both ends active, sends
    /// every member it cuts loose back to the device queue, and changes
    /// nothing under the full mask: checked under the empty mask, the
    /// full one and 32 seeded random ones.
    #[test]
    fn restrict_keeps_the_links_inside_the_mask() {
        let frozen = fig5_shaped(8).freeze().unwrap();
        let n = frozen.num_tasks();
        let placement = crate::placement::device_placement(&frozen, 2, &Default::default());
        let plan = Plan::from_placement(&frozen, placement.unwrap(), true);
        assert_eq!((0..n).filter(|&v| plan.is_member(v)).count(), 8);
        let mut rng = rand::rngs::StdRng::seed_from_u64(36);
        let mut masks = vec![vec![false; n], vec![true; n]];
        masks.extend((0..32).map(|_| (0..n).map(|_| rng.gen_bool(0.5)).collect()));
        for active in &masks {
            let r = plan.restrict(active);
            assert_eq!(r.placement().device_of, plan.placement().device_of);
            let mut route = plan.route.clone();
            for v in 0..n {
                let kept = plan.next[v].filter(|&w| active[v] && active[w as usize]);
                assert_eq!(r.next[v], kept, "link of {v}");
                if let (Some(w), None) = (plan.next[v], kept) {
                    route[w as usize] = Route::Device;
                }
            }
            assert_eq!(r.route, route);
        }
        let full = plan.restrict(&masks[1]);
        assert_eq!(
            (full.next, full.route),
            (plan.next.clone(), plan.route.clone())
        );
    }

    #[test]
    fn gpu_graph_no_gpus_errors() {
        let frozen = fig5_shaped(1).freeze().unwrap();
        assert!(crate::placement::device_placement(&frozen, 0, &Default::default()).is_err());
    }

    #[test]
    #[should_panic(expected = "placement was not computed for this graph")]
    fn a_placement_of_another_graph_is_rejected() {
        let two = fig5_shaped(2).freeze().unwrap();
        let other = crate::placement::device_placement(&two, 1, &Default::default());
        Plan::from_placement(&fig5_shaped(1).freeze().unwrap(), other.unwrap(), true);
    }
}
