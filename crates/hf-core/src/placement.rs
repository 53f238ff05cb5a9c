//! Device placement — Algorithm 1 of the paper.
//!
//! "The key idea is to group each kernel with its source pull tasks and
//! then pack each unique group to a GPU bin with an optimized cost. By
//! default, we minimize the load per GPU bins for maximal concurrency but
//! can expose this strategy to a pluggable interface for custom cost
//! metrics" (§III-C).
//!
//! Grouping uses union-find over the kernel→source-pull relation; packing
//! assigns each group root to a GPU bin. Push tasks inherit the device of
//! their source pull task (their stream "is guaranteed to live in the same
//! GPU context as the source pull task", Listing 6 discussion).

use crate::costmodel::TaskCosts;
use crate::error::HfError;
use crate::graph::{FrozenGraph, GpuNode, TaskKind, Work};
use crate::inspect::GraphInfo;
use hf_gpu::CostModel;
use hf_sync::UnionFind;

/// A placement-relevant view of a graph. Implemented by the executable
/// [`FrozenGraph`] and by the structural [`GraphInfo`] snapshot, so the
/// identical Algorithm 1 runs both inside the executor and inside the
/// `hf-sim` performance model.
pub trait PlacementView {
    /// Number of nodes.
    fn num_nodes(&self) -> usize;
    /// Task kind of node `i`.
    fn kind_of(&self, i: usize) -> TaskKind;
    /// Source pull tasks of kernel `i` (empty otherwise).
    fn kernel_sources(&self, i: usize) -> Vec<usize>;
    /// Source pull task of push `i`.
    fn push_source(&self, i: usize) -> Option<usize>;
    /// Node name (for error messages).
    fn name_of(&self, i: usize) -> String;
    /// Modeled device-time weight of node `i` for bin packing.
    fn weight_of(&self, i: usize, cost: &CostModel) -> f64;
    /// Bytes node `i` would move (pulls/pushes; 0 otherwise). Feeds the
    /// estimate of transfer bytes saved by warm placement. Views without
    /// byte information may keep the default.
    fn bytes_of(&self, _i: usize) -> usize {
        0
    }
    /// Device currently holding a warm, version-valid copy of pull `i`'s
    /// buffer, if any. [`place`] charges that device nothing for the pull,
    /// so placement gravitates to where the transfer-elision layer will
    /// actually fire. Structural views with no runtime residency keep the
    /// default (`None`).
    fn warm_device(&self, _i: usize) -> Option<u32> {
        None
    }
}

impl PlacementView for FrozenGraph {
    fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    fn kind_of(&self, i: usize) -> TaskKind {
        self.nodes[i].work.kind()
    }

    fn kernel_sources(&self, i: usize) -> Vec<usize> {
        match &self.nodes[i].work {
            Work::Kernel { sources, .. } => sources.to_vec(),
            _ => Vec::new(),
        }
    }

    fn push_source(&self, i: usize) -> Option<usize> {
        match &self.nodes[i].work {
            Work::Push { source_pull, .. } => Some(*source_pull),
            _ => None,
        }
    }

    fn name_of(&self, i: usize) -> String {
        self.nodes[i].name.to_string()
    }

    fn weight_of(&self, i: usize, cost: &CostModel) -> f64 {
        match &self.nodes[i].work {
            Work::Pull { source } => cost.h2d(source.byte_len()).as_nanos() as f64,
            Work::Kernel { .. } => {
                let gpu = self.gpu(i).expect("kernels are GPU nodes");
                cost.kernel(GpuNode::priced_work_units(gpu.work_units, &gpu.cfg)).as_nanos() as f64
            }
            _ => 0.0,
        }
    }

    /// The one rule for the PCIe bytes a task moves when it runs: a
    /// pull's current host size, a push's staged pull size, `0` for
    /// host/kernel tasks. It also stamps `LifecycleEvent::bytes` and
    /// fills `NodeInfo::bytes`.
    fn bytes_of(&self, i: usize) -> usize {
        match &self.nodes[i].work {
            Work::Pull { source } => source.byte_len(),
            Work::Push { source_pull, .. } => match &self.nodes[*source_pull].work {
                Work::Pull { source } => source.byte_len(),
                _ => 0,
            },
            _ => 0,
        }
    }

    fn warm_device(&self, i: usize) -> Option<u32> {
        match &self.nodes[i].work {
            Work::Pull { source } => {
                let st = self.gpu(i)?.pull_state.lock();
                // Warm = a live device buffer holding exactly the
                // source's current version. A mutated host buffer bumps
                // the version, so stale residency never attracts.
                let host_ver = source.version()?;
                if st.resident_version == Some(host_ver) {
                    st.ptr.map(|p| p.device)
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

impl PlacementView for GraphInfo {
    fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    fn kind_of(&self, i: usize) -> TaskKind {
        self.nodes[i].kind
    }

    fn kernel_sources(&self, i: usize) -> Vec<usize> {
        self.nodes[i].sources.clone()
    }

    fn push_source(&self, i: usize) -> Option<usize> {
        self.nodes[i].source_pull
    }

    fn name_of(&self, i: usize) -> String {
        self.nodes[i].name.clone()
    }

    fn weight_of(&self, i: usize, cost: &CostModel) -> f64 {
        let n = &self.nodes[i];
        match n.kind {
            TaskKind::Pull => cost.h2d(n.bytes).as_nanos() as f64,
            TaskKind::Kernel => cost.kernel(n.effective_work_units()).as_nanos() as f64,
            _ => 0.0,
        }
    }

    fn bytes_of(&self, i: usize) -> usize {
        self.nodes[i].bytes
    }
}

/// Result of device placement for one topology.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Device per node; `None` for host/placeholder tasks.
    pub device_of: Vec<Option<u32>>,
    /// Number of kernel/pull groups found.
    pub num_groups: usize,
    /// Modeled load per GPU bin after packing, including
    /// [`PlaceInput::initial_loads`] (nanoseconds).
    pub loads: Vec<f64>,
    /// Groups placed on a device already holding a warm copy of at least
    /// one of their pulls.
    pub warm_hits: u64,
    /// Transfer bytes warm placement is expected to save via elision.
    pub est_bytes_saved: u64,
}

impl Placement {
    /// Second half of the paper's pluggable packing interface: a placement
    /// from one bin per group of [`groups`]. Members take their group's
    /// bin, pushes inherit their source pull's, and `loads[b]` sums the
    /// weights of the groups on bin `b`.
    pub fn from_bins<G: PlacementView + ?Sized>(
        graph: &G,
        groups: &[Group],
        bin_of: &[u32],
        bins: usize,
    ) -> Placement {
        let n = graph.num_nodes();
        let mut device_of: Vec<Option<u32>> = vec![None; n];
        let mut loads = vec![0.0f64; bins];
        for (g, &bin) in groups.iter().zip(bin_of) {
            loads[bin as usize] += g.weight;
            for &m in &g.members {
                device_of[m] = Some(bin);
            }
        }
        for id in 0..n {
            if let Some(src) = graph.push_source(id) {
                device_of[id] = device_of[src];
            }
        }
        Placement { device_of, num_groups: groups.len(), loads, warm_hits: 0, est_bytes_saved: 0 }
    }

    /// Max bin load over *mean* bin load, weighted by modeled cost —
    /// 1.0 is perfectly balanced, `num_bins` is everything on one bin.
    /// Returns 1.0 for an empty placement. (Max over mean, not over min:
    /// an empty bin is the most imbalanced outcome, not an undefined one.)
    pub fn imbalance(&self) -> f64 {
        if self.loads.is_empty() {
            return 1.0;
        }
        let max = self.loads.iter().cloned().fold(0.0f64, f64::max);
        let mean = self.loads.iter().sum::<f64>() / self.loads.len() as f64;
        if mean <= 0.0 || !mean.is_finite() {
            1.0
        } else {
            max / mean
        }
    }
}

/// The one place a packing weight comes from: the seeded estimate when a
/// usable one exists (seeds arrive from outside the program, so a NaN,
/// infinite or negative one is ignored), else the analytic model.
fn weight<G: PlacementView + ?Sized>(
    graph: &G,
    id: usize,
    cost: &CostModel,
    refined: Option<&TaskCosts>,
) -> f64 {
    refined
        .and_then(|r| r.get(&graph.name_of(id)))
        .filter(|&w| crate::costmodel::usable_cost(w))
        .unwrap_or_else(|| graph.weight_of(id, cost))
}

/// One kernel/pull group of Algorithm 1: a kernel, its source pulls, and
/// everything transitively sharing a pull with it.
#[derive(Debug, Clone)]
pub struct Group {
    /// Node ids of the group's pulls and kernels, ascending.
    pub members: Vec<usize>,
    /// Summed weight of the members (nanoseconds of device time).
    pub weight: f64,
}

/// Lines 1-7 of Algorithm 1 and the first half of the paper's pluggable
/// packing interface: unions each kernel with its source pulls and
/// returns the groups in a fixed order (ascending union-find root),
/// weighed by `refined` where it has an estimate and by `cost` otherwise.
pub fn groups<G: PlacementView + ?Sized>(
    graph: &G,
    cost: &CostModel,
    refined: Option<&TaskCosts>,
) -> Vec<Group> {
    let n = graph.num_nodes();
    let mut uf = UnionFind::new(n);
    for id in 0..n {
        if graph.kind_of(id) == TaskKind::Kernel {
            for p in graph.kernel_sources(id) {
                uf.union(id, p);
            }
        }
    }
    let mut by_root = vec![Group { members: Vec::new(), weight: 0.0 }; n];
    for id in 0..n {
        if matches!(graph.kind_of(id), TaskKind::Kernel | TaskKind::Pull) {
            let g = &mut by_root[uf.find(id)];
            g.weight += weight(graph, id, cost, refined);
            g.members.push(id);
        }
    }
    by_root.retain(|g| !g.members.is_empty());
    by_root
}

/// Everything that varies between one placement and another, as plain
/// data. `PlaceInput { lost: &[false; N], ..Default::default() }` is a
/// fresh placement on `N` healthy devices.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlaceInput<'a> {
    /// `lost[b]` marks bin `b` as dead; the length is the bin count.
    pub lost: &'a [bool],
    /// Load already on each bin (nanoseconds); empty for none. The
    /// executor feeds its decayed cross-graph load here so devices stay
    /// balanced *across* graphs, not just within one.
    pub initial_loads: &'a [f64],
    /// The previous `device_of`. A group with a member on a surviving
    /// device stays there (its residency stays warm and nothing that
    /// completed has to replay); empty places everything.
    pub prev: &'a [Option<u32>],
    /// Seeded per-task weights replacing the analytic ones; `None` when
    /// the graph has no seeds (no task name is then looked up).
    pub refined: Option<&'a TaskCosts>,
}

/// Algorithm 1 (*DevicePlacement*): first placement, cross-graph bias,
/// seeded weights and failover re-placement are all this routine with
/// a different [`PlaceInput`].
///
/// Groups each kernel with its source pulls, keeps every group pinned by
/// `input.prev`, and packs the rest heaviest first, each onto the
/// surviving bin minimising `load + weight - saved transfers`, where a
/// bin saves the transfer of every pull it already holds a current copy
/// of ([`PlacementView::warm_device`]). Returns
/// [`HfError::NoGpus`] if the graph contains GPU tasks but no bin
/// survives.
pub fn place<G: PlacementView + ?Sized>(
    graph: &G,
    cost: &CostModel,
    input: &PlaceInput<'_>,
) -> Result<Placement, HfError> {
    let n = graph.num_nodes();
    let bins = input.lost.len();
    let alive = |b: usize| !input.lost.get(b).copied().unwrap_or(true);
    let mut loads = vec![0.0f64; bins];
    for (l, &init) in loads.iter_mut().zip(input.initial_loads) {
        *l = init;
    }

    if !(0..bins).any(alive) {
        let on_cpu = |i: usize| matches!(graph.kind_of(i), TaskKind::Host | TaskKind::Placeholder);
        return match (0..n).find(|&i| !on_cpu(i)) {
            Some(id) => Err(HfError::NoGpus { task: graph.name_of(id) }),
            None => Ok(Placement { loads, ..Placement::from_bins(graph, &[], &[], bins) }),
        };
    }

    let groups = groups(graph, cost, input.refined);

    // Pinned groups stay; the rest are packed heaviest first (stable, so
    // equal weights keep group order).
    let mut bin_of = vec![0u32; groups.len()];
    let mut open: Vec<usize> = Vec::new();
    for (gi, g) in groups.iter().enumerate() {
        let pinned = g.members.iter().find_map(|&m| {
            let d = input.prev.get(m).copied().flatten()?;
            alive(d as usize).then_some(d)
        });
        if let Some(d) = pinned {
            loads[d as usize] += g.weight;
            bin_of[gi] = d;
        } else {
            open.push(gi);
        }
    }
    open.sort_by(|&a, &b| groups[b].weight.total_cmp(&groups[a].weight));

    let (mut warm_hits, mut est_bytes_saved) = (0u64, 0u64);
    // Per bin: transfer time and bytes a warm copy there would save this
    // group.
    let (mut save, mut saved_bytes) = (vec![0.0f64; bins], vec![0u64; bins]);
    for gi in open {
        let g = &groups[gi];
        save.fill(0.0);
        saved_bytes.fill(0);
        let pulls = g.members.iter().filter(|&&m| graph.kind_of(m) == TaskKind::Pull);
        for &m in pulls {
            // A lost device's warmth died with its arena.
            if let Some(d) = graph.warm_device(m).map(|d| d as usize).filter(|&d| alive(d)) {
                save[d] += weight(graph, m, cost, input.refined);
                saved_bytes[d] += graph.bytes_of(m) as u64;
            }
        }
        // Earliest finish including the transfer the choice causes; a
        // warm bin wins load ties and loses only when the load gap
        // exceeds the copy it saves. First minimum wins.
        let bin = (0..bins)
            .filter(|&b| alive(b))
            .min_by(|&a, &b| {
                (loads[a] + g.weight - save[a]).total_cmp(&(loads[b] + g.weight - save[b]))
            })
            .expect("a bin survives");
        loads[bin] += (g.weight - save[bin]).max(0.0);
        if save[bin] > 0.0 {
            warm_hits += 1;
            est_bytes_saved += saved_bytes[bin];
        }
        bin_of[gi] = bin as u32;
    }

    let packed = Placement::from_bins(graph, &groups, &bin_of, bins);
    Ok(Placement { loads, warm_hits, est_bytes_saved, ..packed })
}

/// A fresh placement of `graph` on `num_gpus` healthy, idle devices —
/// [`place`] with nothing lost, nothing pinned and nothing seeded.
pub fn device_placement<G: PlacementView + ?Sized>(
    graph: &G,
    num_gpus: u32,
    cost: &CostModel,
) -> Result<Placement, HfError> {
    let input = PlaceInput {
        lost: &vec![false; num_gpus as usize],
        ..Default::default()
    };
    place(graph, cost, &input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::HostVec;
    use crate::graph::Heteroflow;

    /// Two kernels sharing a pull task must co-locate with it; an
    /// unrelated pull/kernel pair forms a second group.
    #[test]
    fn kernels_group_with_their_pulls() {
        let g = Heteroflow::new("grp");
        let x: HostVec<i32> = HostVec::from_vec(vec![0; 1024]);
        let y: HostVec<i32> = HostVec::from_vec(vec![0; 1024]);
        let px = g.pull("px", &x);
        let py = g.pull("py", &y);
        let k1 = g.kernel("k1", &[&px], |_, _| {});
        let k2 = g.kernel("k2", &[&px], |_, _| {});
        let k3 = g.kernel("k3", &[&py], |_, _| {});
        px.precede(&k1).precede(&k2);
        py.precede(&k3);
        let f = g.freeze().unwrap();
        let p = device_placement(&*f, 4, &CostModel::default()).unwrap();
        assert_eq!(p.num_groups, 2);
        let d_px = p.device_of[px.id()].unwrap();
        assert_eq!(p.device_of[k1.id()], Some(d_px));
        assert_eq!(p.device_of[k2.id()], Some(d_px));
        let d_py = p.device_of[py.id()].unwrap();
        assert_eq!(p.device_of[k3.id()], Some(d_py));
        // Two groups on 4 GPUs must use two distinct devices (balanced).
        assert_ne!(d_px, d_py);
    }

    /// A kernel bridging two pulls merges all three into one group.
    #[test]
    fn shared_kernel_merges_groups() {
        let g = Heteroflow::new("merge");
        let x: HostVec<i32> = HostVec::from_vec(vec![0; 16]);
        let px = g.pull("px", &x);
        let py = g.pull("py", &x);
        let k = g.kernel("k", &[&px, &py], |_, _| {});
        px.precede(&k);
        py.precede(&k);
        let f = g.freeze().unwrap();
        let p = device_placement(&*f, 4, &CostModel::default()).unwrap();
        assert_eq!(p.num_groups, 1);
        let d = p.device_of[k.id()];
        assert_eq!(p.device_of[px.id()], d);
        assert_eq!(p.device_of[py.id()], d);
    }

    #[test]
    fn push_inherits_pull_device() {
        let g = Heteroflow::new("push");
        let x: HostVec<i32> = HostVec::from_vec(vec![0; 16]);
        let px = g.pull("px", &x);
        let s = g.push("push_x", &px, &x);
        px.precede(&s);
        let f = g.freeze().unwrap();
        let p = device_placement(&*f, 2, &CostModel::default()).unwrap();
        assert_eq!(p.device_of[s.id()], p.device_of[px.id()]);
    }

    #[test]
    fn host_tasks_have_no_device() {
        let g = Heteroflow::new("h");
        let h = g.host("h", || {});
        let f = g.freeze().unwrap();
        let p = device_placement(&*f, 2, &CostModel::default()).unwrap();
        assert_eq!(p.device_of[h.id()], None);
        assert_eq!(p.num_groups, 0);
    }

    #[test]
    fn gpu_task_with_zero_gpus_errors() {
        let g = Heteroflow::new("nogpu");
        let x: HostVec<i32> = HostVec::from_vec(vec![0; 4]);
        g.pull("px", &x);
        let f = g.freeze().unwrap();
        assert!(matches!(
            device_placement(&*f, 0, &CostModel::default()),
            Err(HfError::NoGpus { .. })
        ));
    }

    #[test]
    fn cpu_only_graph_with_zero_gpus_is_fine() {
        let g = Heteroflow::new("cpu");
        g.host("a", || {});
        let f = g.freeze().unwrap();
        let p = device_placement(&*f, 0, &CostModel::default()).unwrap();
        assert!(p.device_of.iter().all(|d| d.is_none()));
    }

    /// Balanced packing of many equal groups spreads them evenly.
    #[test]
    fn balanced_load_is_balanced() {
        let g = Heteroflow::new("bal");
        let x: HostVec<u8> = HostVec::from_vec(vec![0; 4096]);
        for i in 0..12 {
            let p = g.pull(&format!("p{i}"), &x);
            let k = g.kernel(&format!("k{i}"), &[&p], |_, _| {});
            p.precede(&k);
        }
        let f = g.freeze().unwrap();
        let p = device_placement(&*f, 4, &CostModel::default()).unwrap();
        assert_eq!(p.num_groups, 12);
        assert!(p.imbalance() < 1.01, "imbalance {}", p.imbalance());
        // Every device hosts exactly 3 groups' worth of load.
        let per_dev: Vec<usize> = (0..4)
            .map(|d| {
                p.device_of
                    .iter()
                    .filter(|x| **x == Some(d as u32))
                    .count()
            })
            .collect();
        assert_eq!(per_dev, vec![6, 6, 6, 6]); // 3 groups x (pull + kernel)
    }

    /// Failover keeps alive groups in place and re-packs stranded ones
    /// onto surviving devices only.
    #[test]
    fn failover_repacks_lost_groups_onto_survivors() {
        let g = Heteroflow::new("fo");
        let x: HostVec<u8> = HostVec::from_vec(vec![0; 1024]);
        let mut kernels = Vec::new();
        for i in 0..6 {
            let p = g.pull(&format!("p{i}"), &x);
            let k = g.kernel(&format!("k{i}"), &[&p], |_, _| {});
            p.precede(&k);
            kernels.push(k);
        }
        let f = g.freeze().unwrap();
        let cost = CostModel::default();
        let orig = device_placement(&*f, 3, &cost).unwrap();
        // Lose device 1.
        let lost = vec![false, true, false];
        let input = PlaceInput {
            lost: &lost,
            prev: &orig.device_of,
            ..Default::default()
        };
        let fo = place(&*f, &cost, &input).unwrap();
        assert_eq!(fo.num_groups, 6);
        for (i, (o, n)) in orig.device_of.iter().zip(&fo.device_of).enumerate() {
            let (Some(o), Some(n)) = (o, n) else { continue };
            assert_ne!(*n, 1, "node {i} still on the lost device");
            if *o != 1 {
                assert_eq!(o, n, "node {i} moved though its device survived");
            }
        }
        // Something was actually stranded and re-homed.
        assert!(orig.device_of.contains(&Some(1)));
    }

    /// Empty `old_device_of` places everything fresh on the alive set.
    #[test]
    fn failover_fresh_placement_avoids_lost_devices() {
        let g = Heteroflow::new("fo2");
        let x: HostVec<u8> = HostVec::from_vec(vec![0; 256]);
        let p = g.pull("p", &x);
        let k = g.kernel("k", &[&p], |_, _| {});
        let s = g.push("s", &p, &x);
        p.precede(&k);
        k.precede(&s);
        let f = g.freeze().unwrap();
        let input = PlaceInput {
            lost: &[true, false],
            ..Default::default()
        };
        let fo = place(&*f, &CostModel::default(), &input).unwrap();
        assert_eq!(fo.device_of[p.id()], Some(1));
        assert_eq!(fo.device_of[k.id()], Some(1));
        // Push inherits the pull's (surviving) device.
        assert_eq!(fo.device_of[s.id()], Some(1));
    }

    /// All devices lost with GPU work → structured NoGpus error.
    #[test]
    fn failover_with_no_survivors_errors() {
        let g = Heteroflow::new("fo3");
        let x: HostVec<u8> = HostVec::from_vec(vec![0; 16]);
        g.pull("p", &x);
        let f = g.freeze().unwrap();
        let input = PlaceInput {
            lost: &[true, true],
            ..Default::default()
        };
        assert!(matches!(
            place(&*f, &CostModel::default(), &input),
            Err(HfError::NoGpus { .. })
        ));
    }

    /// Marks a frozen pull node's device buffer warm: a fake allocation
    /// on `device` holding exactly `version` of the source's bytes.
    fn set_warm(f: &FrozenGraph, id: usize, device: u32, version: u64, bytes: u64) {
        let mut st = f.gpu(id).unwrap().pull_state.lock();
        st.ptr = Some(hf_gpu::DevicePtr {
            device,
            offset: 0,
            len: bytes,
            capacity: bytes,
        });
        st.resident_version = Some(version);
    }

    /// A warm, version-valid device wins load ties, and the placement
    /// reports the expected savings.
    #[test]
    fn warm_device_wins_ties() {
        let g = Heteroflow::new("warm");
        let x: HostVec<u8> = HostVec::from_vec(vec![0; 4096]);
        let y: HostVec<u8> = HostVec::from_vec(vec![0; 4096]);
        let px = g.pull("px", &x);
        let py = g.pull("py", &y);
        let f = g.freeze().unwrap();
        // Residency deliberately opposite to the tie-break order (device
        // 0 first): only warm attraction can produce this placement.
        set_warm(&f, px.id(), 1, x.version(), 4096);
        set_warm(&f, py.id(), 0, y.version(), 4096);
        let p = device_placement(&*f, 2, &CostModel::default()).unwrap();
        assert_eq!(p.device_of[px.id()], Some(1));
        assert_eq!(p.device_of[py.id()], Some(0));
        assert_eq!(p.warm_hits, 2);
        assert_eq!(p.est_bytes_saved, 8192);
        // Warm transfers are elided, so they add no modeled load.
        assert!(p.loads.iter().all(|&l| l == 0.0), "loads {:?}", p.loads);
    }

    /// Stale residency (host buffer mutated since the copy) must not
    /// attract placement: the version no longer matches, so the packing
    /// is the plain balanced one.
    #[test]
    fn stale_residency_does_not_attract() {
        let g = Heteroflow::new("stale");
        let x: HostVec<u8> = HostVec::from_vec(vec![0; 4096]);
        let y: HostVec<u8> = HostVec::from_vec(vec![0; 4096]);
        let px = g.pull("px", &x);
        let py = g.pull("py", &y);
        let f = g.freeze().unwrap();
        set_warm(&f, px.id(), 1, x.version(), 4096);
        set_warm(&f, py.id(), 0, y.version(), 4096);
        // Mutate both hosts: residency versions are now stale.
        x.write()[0] = 1;
        y.write()[0] = 1;
        let p = device_placement(&*f, 2, &CostModel::default()).unwrap();
        assert_eq!(p.warm_hits, 0);
        assert_eq!(p.est_bytes_saved, 0);
        // Tie-break order reasserts itself: px (first group) on device 0,
        // not its stale device 1.
        assert_eq!(p.device_of[px.id()], Some(0));
        assert_eq!(p.device_of[py.id()], Some(1));
    }

    /// Warm residency is only worth its transfer cost: a large load gap
    /// still moves the group off the warm device.
    #[test]
    fn load_gap_overrides_warmth() {
        let g = Heteroflow::new("gap");
        let x: HostVec<u8> = HostVec::from_vec(vec![0; 1024]);
        let px = g.pull("px", &x);
        let f = g.freeze().unwrap();
        set_warm(&f, px.id(), 0, x.version(), 1024);
        let cost = CostModel::default();
        let w = cost.h2d(1024).as_nanos() as f64;
        // Device 0 is warm but pre-loaded far beyond the copy saving.
        let bias = [w * 10.0, 0.0];
        let input = PlaceInput {
            lost: &[false; 2],
            initial_loads: &bias,
            ..Default::default()
        };
        let p = place(&*f, &cost, &input).unwrap();
        assert_eq!(p.device_of[px.id()], Some(1));
        assert_eq!(p.warm_hits, 0);
    }

    /// Seeded costs replace analytic weights in the packing.
    #[test]
    fn seeded_costs_reweigh_groups() {
        let g = Heteroflow::new("refined");
        let x: HostVec<u8> = HostVec::from_vec(vec![0; 1024]);
        let mut pulls = Vec::new();
        for i in 0..3 {
            pulls.push(g.pull(&format!("p{i}"), &x));
        }
        let f = g.freeze().unwrap();
        let cost = CostModel::default();
        let db = crate::costmodel::CostDb::new();
        // p0 is seeded 10x heavier than the analytic estimate; LPT must
        // isolate it and pair the two light pulls.
        let analytic = cost.h2d(1024).as_nanos() as f64;
        db.seed("refined", "p0", analytic * 10.0);
        let snap = db.snapshot_for("refined");
        let input = PlaceInput {
            lost: &[false; 2],
            refined: Some(&snap),
            ..Default::default()
        };
        let p = place(&*f, &cost, &input).unwrap();
        let d0 = p.device_of[pulls[0].id()].unwrap();
        assert_eq!(p.device_of[pulls[1].id()], p.device_of[pulls[2].id()]);
        assert_ne!(p.device_of[pulls[1].id()], Some(d0));
    }

    /// A NaN, infinite or negative estimate is ignored in favour of the
    /// analytic weight: the packing is the one made without estimates.
    #[test]
    fn unusable_refined_costs_are_ignored() {
        let g = Heteroflow::new("bad");
        let x: HostVec<u8> = HostVec::from_vec(vec![0; 1024]);
        for i in 0..4 {
            g.pull(&format!("p{i}"), &x);
        }
        let f = g.freeze().unwrap();
        let cost = CostModel::default();
        let bad = TaskCosts::unchecked(&[("p0", f64::NAN), ("p1", f64::INFINITY), ("p2", -5.0)]);
        let input = PlaceInput { lost: &[false; 2], refined: Some(&bad), ..Default::default() };
        let with_bad = place(&*f, &cost, &input).unwrap();
        let without = device_placement(&*f, 2, &cost).unwrap();
        assert_eq!(with_bad.device_of, without.device_of);
        assert_eq!(with_bad.loads, without.loads);
    }

    /// Failover re-homes a stranded group onto the alive device already
    /// holding its data warm, not the first alive bin (device 1) plain LPT
    /// would pick.
    #[test]
    fn failover_prefers_warm_survivor() {
        let g = Heteroflow::new("fw");
        let x: HostVec<u8> = HostVec::from_vec(vec![0; 2048]);
        let px = g.pull("px", &x);
        let f = g.freeze().unwrap();
        // Warm on device 2; previously placed on device 0, now lost.
        set_warm(&f, px.id(), 2, x.version(), 2048);
        let old = vec![Some(0)];
        let lost = vec![true, false, false];
        let cost = CostModel::default();
        let input = PlaceInput {
            lost: &lost,
            prev: &old,
            ..Default::default()
        };
        let p = place(&*f, &cost, &input).unwrap();
        assert_eq!(p.device_of[px.id()], Some(2));
        assert_eq!(p.warm_hits, 1);
        assert_eq!(p.est_bytes_saved, 2048);
    }

    /// The cost-weighted imbalance metric: max over mean, defined even
    /// with empty bins (the old max/min ratio reported a misleading 1.0
    /// whenever a bin was empty).
    #[test]
    fn imbalance_is_max_over_mean() {
        let p = Placement {
            device_of: Vec::new(),
            num_groups: 1,
            loads: vec![2.0, 0.0],
            warm_hits: 0,
            est_bytes_saved: 0,
        };
        assert!((p.imbalance() - 2.0).abs() < 1e-12);
        let empty = Placement {
            device_of: Vec::new(),
            num_groups: 0,
            loads: Vec::new(),
            warm_hits: 0,
            est_bytes_saved: 0,
        };
        assert_eq!(empty.imbalance(), 1.0);
        let balanced = Placement {
            device_of: Vec::new(),
            num_groups: 4,
            loads: vec![3.0, 3.0, 3.0],
            warm_hits: 0,
            est_bytes_saved: 0,
        };
        assert!((balanced.imbalance() - 1.0).abs() < 1e-12);
    }
}
