//! The task dependency graph: construction ("builder") and the frozen,
//! executable form.
//!
//! A [`Heteroflow`] is a DAG whose nodes are *host*, *pull*, *push*, and
//! *kernel* tasks and whose edges are explicit dependency constraints
//! (§III-A). Users build it through [`Heteroflow::host`],
//! [`Heteroflow::pull`], [`Heteroflow::push`], [`Heteroflow::kernel`] and
//! the `precede`/`succeed` methods on the returned task handles, then hand
//! it to an [`crate::Executor`].
//!
//! Internally construction happens on a mutable builder; submitting the
//! graph *freezes* it into an immutable [`FrozenGraph`] shared with the
//! executor's worker threads. Re-submitting an unmodified graph reuses the
//! frozen form.

use crate::data::{HostSink, HostSource};
use crate::error::HfError;
use crate::task::{HostTask, KernelTask, PullTask, PushTask, TaskRef};
use hf_gpu::{DevicePtr, KernelFn, LaunchConfig};
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;

/// The four task categories of the Heteroflow programming model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Runs a callable on a CPU core.
    Host,
    /// Copies data from the host to a GPU (H2D).
    Pull,
    /// Copies data from a GPU back to the host (D2H).
    Push,
    /// Offloads computation to a GPU.
    Kernel,
    /// A placeholder not yet assigned work.
    Placeholder,
}

impl fmt::Display for TaskKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TaskKind::Host => "host",
            TaskKind::Pull => "pull",
            TaskKind::Push => "push",
            TaskKind::Kernel => "kernel",
            TaskKind::Placeholder => "placeholder",
        };
        f.write_str(s)
    }
}

/// Shareable host-task callable: reference counts, lock and closure in
/// one allocation.
pub(crate) type HostFn = Arc<Mutex<dyn FnMut() + Send>>;

/// Work payload of a node (builder and frozen forms share it; closures are
/// behind `Arc` so freezing clones cheaply).
pub(crate) enum Work {
    Empty,
    Host(HostFn),
    Pull {
        source: Arc<dyn HostSource>,
    },
    Push {
        source_pull: usize,
        sink: Arc<dyn HostSink>,
    },
    Kernel {
        func: KernelFn,
        sources: Arc<[usize]>,
    },
}

impl Work {
    pub(crate) fn kind(&self) -> TaskKind {
        match self {
            Work::Empty => TaskKind::Placeholder,
            Work::Host(_) => TaskKind::Host,
            Work::Pull { .. } => TaskKind::Pull,
            Work::Push { .. } => TaskKind::Push,
            Work::Kernel { .. } => TaskKind::Kernel,
        }
    }

    fn clone_payload(&self) -> Work {
        match self {
            Work::Empty => Work::Empty,
            Work::Host(f) => Work::Host(Arc::clone(f)),
            Work::Pull { source } => Work::Pull {
                source: Arc::clone(source),
            },
            Work::Push { source_pull, sink } => Work::Push {
                source_pull: *source_pull,
                sink: Arc::clone(sink),
            },
            Work::Kernel { func, sources } => Work::Kernel {
                func: Arc::clone(func),
                sources: Arc::clone(sources),
            },
        }
    }
}

/// A node in the builder.
pub(crate) struct BuildNode {
    /// Shared with the frozen snapshots, lifecycle events and device-op
    /// labels, which all carry it as a reference-count bump.
    pub(crate) name: Arc<str>,
    pub(crate) work: Work,
    pub(crate) succ: Vec<usize>,
    pub(crate) pred: Vec<usize>,
    /// What only some tasks declare, allocated when first set: a plain
    /// host task pays one pointer for it.
    pub(crate) attrs: Option<Box<NodeAttrs>>,
}

/// The optional attributes of a [`BuildNode`].
#[derive(Default)]
pub(crate) struct NodeAttrs {
    /// Kernel launch configuration (kernels only).
    pub(crate) cfg: LaunchConfig,
    /// Declared kernel cost in abstract work units (kernels only).
    pub(crate) work_units: f64,
    /// Host-buffer ids this task declares it reads (host tasks; see
    /// [`crate::HostTask::reads`]). Consumed by the static analyzer only.
    pub(crate) reads: Vec<usize>,
    /// Host-buffer ids this task declares it writes (host tasks).
    pub(crate) writes: Vec<usize>,
}

pub(crate) struct Builder {
    pub(crate) name: String,
    pub(crate) nodes: Vec<BuildNode>,
    pub(crate) dirty: bool,
    /// Monotonic mutation counter: every structural or payload change
    /// bumps it, invalidating the per-executor scheduling cache keyed on
    /// it (freeze + placement + fusion of the unchanged graph).
    pub(crate) epoch: u64,
}

impl Builder {
    /// Marks the graph mutated: stales the frozen snapshot and advances
    /// the epoch so cached placements are not reused.
    pub(crate) fn touch(&mut self) {
        self.dirty = true;
        self.epoch = self.epoch.wrapping_add(1);
    }

    fn add(&mut self, name: &str, work: Work) -> usize {
        self.touch();
        self.nodes.push(BuildNode {
            name: Arc::from(name),
            work,
            succ: Vec::new(),
            pred: Vec::new(),
            attrs: None,
        });
        self.nodes.len() - 1
    }

    pub(crate) fn add_edge(&mut self, from: usize, to: usize) {
        // Ignore duplicate edges: precede(a); precede(a) must not double
        // the join counter.
        if self.nodes[from].succ.contains(&to) {
            return;
        }
        self.touch();
        self.nodes[from].succ.push(to);
        self.nodes[to].pred.push(from);
    }
}

/// Runtime state of a pull node: its current device allocation plus the
/// residency record that lets unchanged re-pulls skip the H2D copy.
///
/// The allocation persists across rounds and submissions for as long as
/// the frozen snapshot lives; dropping the snapshot (graph mutation or
/// executor teardown) returns it to the owning device's pool.
#[derive(Debug, Default)]
pub(crate) struct PullState {
    pub(crate) ptr: Option<DevicePtr>,
    /// Host-source version whose bytes the device buffer currently holds.
    /// `None` means the device copy is invalid (never copied, source is
    /// unversioned, a kernel mutated the buffer, or retry/failover/
    /// cancellation tore it down) and the next pull must copy.
    pub(crate) resident_version: Option<u64>,
    /// Handle to the device owning `ptr` — used for `free` on drop and to
    /// verify residency still refers to the live runtime's device.
    pub(crate) device: Option<hf_gpu::Device>,
}

impl Drop for PullState {
    fn drop(&mut self) {
        if let (Some(ptr), Some(dev)) = (self.ptr.take(), self.device.take()) {
            // Best-effort: a lost device rejects the free, which is fine —
            // its arena dies with it.
            let _ = dev.free(ptr);
        }
    }
}

/// An immutable, executable snapshot of the graph, laid out for the task
/// path: a node is about a cache line, all successor lists share one array,
/// and what only GPU tasks need sits in a side table host tasks never touch.
pub struct FrozenGraph {
    pub(crate) name: String,
    pub(crate) nodes: Vec<FrozenNode>,
    /// Every node's successors back to back (compressed sparse row).
    succ: Vec<u32>,
    /// Launch shape, declared cost and pull residency of the GPU nodes.
    gpu: Vec<GpuNode>,
    /// Node ids with no predecessors (the round's initial ready set).
    pub(crate) sources: Vec<usize>,
}

pub(crate) struct FrozenNode {
    /// The builder's allocation, shared.
    pub(crate) name: Arc<str>,
    pub(crate) work: Work,
    /// This node's window of [`FrozenGraph::succ`].
    succ_at: u32,
    succ_len: u32,
    pub(crate) num_deps: u32,
    /// Index into the GPU side table; `u32::MAX` for host tasks and
    /// placeholders.
    gpu: u32,
}

/// What a pull, kernel or push node carries beyond a [`FrozenNode`].
pub(crate) struct GpuNode {
    pub(crate) cfg: LaunchConfig,
    pub(crate) work_units: f64,
    pub(crate) pull_state: Mutex<PullState>,
}

impl GpuNode {
    /// Work a kernel is priced at, everywhere it is priced (the device
    /// when it runs, Algorithm 1 in the executor, `GraphInfo` and so
    /// `hf-sim`): the declared units, or one per launched thread when
    /// none are declared.
    pub(crate) fn priced_work_units(declared: f64, cfg: &LaunchConfig) -> f64 {
        if declared > 0.0 {
            declared
        } else {
            cfg.total_threads() as f64
        }
    }
}

impl FrozenGraph {
    /// Number of tasks.
    pub fn num_tasks(&self) -> usize {
        self.nodes.len()
    }

    /// Graph name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Task category of node `id`.
    pub fn kind(&self, id: usize) -> TaskKind {
        self.nodes[id].work.kind()
    }

    /// Successor ids of node `id`.
    #[inline]
    pub(crate) fn succ(&self, id: usize) -> &[u32] {
        let n = &self.nodes[id];
        &self.succ[n.succ_at as usize..][..n.succ_len as usize]
    }

    /// The GPU side of node `id`; `None` for host tasks and placeholders.
    pub(crate) fn gpu(&self, id: usize) -> Option<&GpuNode> {
        self.gpu.get(self.nodes[id].gpu as usize)
    }
}

/// State of queued/active executions of one graph. Only one run (a
/// `run*` call or an open streaming session) holds the graph's claim at
/// a time; further `run`/`run_stream` calls queue behind it (the paper's
/// topology list, §III-C) and the releasing owner promotes them. Only
/// the epoch driver's `claim`/`release` touch this.
pub(crate) struct RunState {
    /// True while a run owns this graph's claim.
    pub(crate) active: bool,
    /// Runs waiting for the active one to finish, in submission order.
    pub(crate) queued: std::collections::VecDeque<Arc<crate::stream::EpochDriver>>,
}

/// Cached result of the per-submission scheduling preamble (freeze +
/// Algorithm 1 placement + fusion planning) for one executor. Valid while
/// the builder epoch matches; any mutation bumps the epoch and the next
/// submission recomputes.
pub(crate) struct SchedCache {
    /// Identity of the executor the placement was computed for (device
    /// count, cost model and fusion flag are per-executor).
    pub(crate) exec_id: u64,
    /// Builder epoch the cache was computed at.
    pub(crate) epoch: u64,
    pub(crate) placement: Arc<crate::placement::Placement>,
    pub(crate) fusion: Arc<crate::topology::FusionPlan>,
    /// This graph's own modeled load per device (placement loads minus
    /// the bias snapshot they were computed against), re-applied to the
    /// executor's decaying device-load estimate on cache hits.
    pub(crate) own_loads: Vec<f64>,
}

pub(crate) struct GraphShared {
    pub(crate) builder: Mutex<Builder>,
    pub(crate) frozen: Mutex<Option<Arc<FrozenGraph>>>,
    pub(crate) run_state: Mutex<RunState>,
    /// Single-entry scheduling cache (graphs overwhelmingly run on one
    /// executor at a time; a second executor simply evicts the entry).
    pub(crate) sched_cache: Mutex<Option<SchedCache>>,
    /// Cached static-analysis report, keyed on the builder epoch it was
    /// computed at (any mutation bumps the epoch and invalidates it), so
    /// repeated submissions of an unchanged graph lint once.
    pub(crate) lint_cache: Mutex<Option<(u64, Arc<crate::analyze::Report>)>>,
}

/// A CPU-GPU task dependency graph.
///
/// Mirrors the paper's `hf::Heteroflow` object: an object-oriented
/// container for tasks and dependencies, independent of any executor.
/// Cloning the handle shares the same underlying graph.
///
/// ```
/// use hf_core::{Heteroflow, data::HostVec};
/// let g = Heteroflow::new("demo");
/// let x: HostVec<i32> = HostVec::new();
/// let h = g.host("make_x", {
///     let x = x.clone();
///     move || x.write().resize(16, 1)
/// });
/// let p = g.pull("pull_x", &x);
/// h.precede(&p);
/// assert_eq!(g.num_tasks(), 2);
/// ```
#[derive(Clone)]
pub struct Heteroflow {
    pub(crate) shared: Arc<GraphShared>,
}

impl fmt::Debug for Heteroflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.shared.builder.lock();
        f.debug_struct("Heteroflow")
            .field("name", &b.name)
            .field("num_tasks", &b.nodes.len())
            .finish()
    }
}

impl Heteroflow {
    /// Creates an empty graph.
    pub fn new(name: &str) -> Self {
        Self {
            shared: Arc::new(GraphShared {
                builder: Mutex::new(Builder {
                    name: name.to_owned(),
                    nodes: Vec::new(),
                    dirty: true,
                    epoch: 0,
                }),
                frozen: Mutex::new(None),
                run_state: Mutex::new(RunState {
                    active: false,
                    queued: std::collections::VecDeque::new(),
                }),
                sched_cache: Mutex::new(None),
                lint_cache: Mutex::new(None),
            }),
        }
    }

    /// Graph name.
    pub fn name(&self) -> String {
        self.shared.builder.lock().name.clone()
    }

    /// Number of tasks created so far.
    pub fn num_tasks(&self) -> usize {
        self.shared.builder.lock().nodes.len()
    }

    /// True if no tasks have been created.
    pub fn is_empty(&self) -> bool {
        self.num_tasks() == 0
    }

    /// Number of dependency links created so far.
    pub fn num_dependencies(&self) -> usize {
        self.shared
            .builder
            .lock()
            .nodes
            .iter()
            .map(|n| n.succ.len())
            .sum()
    }

    /// Number of tasks of each kind `(host, pull, push, kernel,
    /// placeholder)` — a quick structural fingerprint.
    pub fn kind_counts(&self) -> (usize, usize, usize, usize, usize) {
        let b = self.shared.builder.lock();
        let mut c = (0, 0, 0, 0, 0);
        for n in &b.nodes {
            match n.work.kind() {
                TaskKind::Host => c.0 += 1,
                TaskKind::Pull => c.1 += 1,
                TaskKind::Push => c.2 += 1,
                TaskKind::Kernel => c.3 += 1,
                TaskKind::Placeholder => c.4 += 1,
            }
        }
        c
    }

    fn task_ref(&self, id: usize) -> TaskRef {
        TaskRef {
            graph: Arc::clone(&self.shared),
            id,
        }
    }

    /// Creates a *host* task running `f` on a CPU core (Listing 2).
    pub fn host<F>(&self, name: &str, f: F) -> HostTask
    where
        F: FnMut() + Send + 'static,
    {
        let id = self
            .shared
            .builder
            .lock()
            .add(name, Work::Host(Arc::new(Mutex::new(f))));
        HostTask(self.task_ref(id))
    }

    /// Creates a *pull* task copying `source`'s bytes host→device
    /// (Listing 3). The copy is *stateful*: the bytes are read when the
    /// task executes, so preceding host tasks may resize or fill the data.
    pub fn pull(&self, name: &str, source: &(impl HostSource + Clone)) -> PullTask {
        self.pull_source(name, Arc::new(source.clone()))
    }

    /// `pull` with an explicit type-erased source.
    pub fn pull_source(&self, name: &str, source: Arc<dyn HostSource>) -> PullTask {
        let id = self
            .shared
            .builder
            .lock()
            .add(name, Work::Pull { source });
        PullTask(self.task_ref(id))
    }

    /// Creates a *push* task copying `pull`'s device data back into
    /// `sink` (Listing 5).
    pub fn push(
        &self,
        name: &str,
        pull: &PullTask,
        sink: &(impl HostSink + Clone),
    ) -> PushTask {
        self.push_sink(name, pull, Arc::new(sink.clone()))
    }

    /// `push` with an explicit type-erased sink.
    pub fn push_sink(&self, name: &str, pull: &PullTask, sink: Arc<dyn HostSink>) -> PushTask {
        assert!(
            Arc::ptr_eq(&pull.0.graph, &self.shared),
            "push source pull task belongs to a different Heteroflow"
        );
        let id = self.shared.builder.lock().add(
            name,
            Work::Push {
                source_pull: pull.0.id,
                sink,
            },
        );
        PushTask(self.task_ref(id))
    }

    /// Creates a *kernel* task offloading `f` to a GPU (Listing 7). The
    /// pull tasks in `sources` are the kernel's device-data gateways; the
    /// scheduler unions them with the kernel for device placement
    /// (Algorithm 1). Dependencies remain explicit: the caller must still
    /// add `pull.precede(&kernel)` edges.
    pub fn kernel<F>(&self, name: &str, sources: &[&PullTask], f: F) -> KernelTask
    where
        F: Fn(&LaunchConfig, &mut hf_gpu::KernelArgs<'_, '_>) + Send + Sync + 'static,
    {
        for s in sources {
            assert!(
                Arc::ptr_eq(&s.0.graph, &self.shared),
                "kernel source pull task belongs to a different Heteroflow"
            );
        }
        let ids = sources.iter().map(|s| s.0.id).collect();
        let id = self.shared.builder.lock().add(
            name,
            Work::Kernel {
                func: Arc::new(f),
                sources: ids,
            },
        );
        KernelTask(self.task_ref(id))
    }

    /// Creates an empty placeholder task (§III-A.1): a node whose work is
    /// assigned later via [`TaskRef::assign_host`]. Executing it
    /// unassigned is an error.
    pub fn placeholder(&self, name: &str) -> TaskRef {
        let id = self.shared.builder.lock().add(name, Work::Empty);
        self.task_ref(id)
    }

    /// Freezes the graph for execution, verifying acyclicity. Reuses the
    /// previous snapshot when nothing changed. Fails with
    /// [`HfError::GraphBusy`] if the graph was modified while a topology
    /// is still running.
    ///
    /// The busy contract, precisely: `GraphBusy` is only possible for a
    /// graph that was *mutated* (tasks or edges added, work assigned)
    /// after a run of it started and before that run finished.
    /// Re-submitting an **unchanged** graph concurrently — from any
    /// number of threads — never fails; the submissions queue on the
    /// graph's run claim and execute back-to-back in submission order.
    /// Submissions of *different* graphs never interact: each graph has
    /// its own claim, and their topologies run concurrently on the
    /// shared workers.
    pub fn freeze(&self) -> Result<Arc<FrozenGraph>, HfError> {
        self.freeze_with_epoch().map(|(f, _)| f)
    }

    /// [`Heteroflow::freeze`] plus the builder epoch the snapshot belongs
    /// to, read atomically under the builder lock. The executor keys its
    /// placement cache on the epoch.
    pub(crate) fn freeze_with_epoch(&self) -> Result<(Arc<FrozenGraph>, u64), HfError> {
        let mut b = self.shared.builder.lock();
        if !b.dirty {
            if let Some(f) = self.shared.frozen.lock().as_ref() {
                return Ok((Arc::clone(f), b.epoch));
            }
        }
        if self.shared.run_state.lock().active {
            return Err(HfError::GraphBusy);
        }
        // Residency carry-over: a re-freeze (graph mutated) would reset
        // every pull's device buffer, forcing full recopies even of
        // untouched data. Instead, move each still-present pull's state —
        // matched by (name, storage identity) — from the retiring
        // snapshot into the new one. The old topology has fully drained
        // (`active` is false), so nothing is executing against the old
        // state; taking it out also keeps the old snapshot's `Drop` from
        // freeing the transplanted buffer.
        // Acyclicity first (Kahn's algorithm): a rejected graph must not
        // have taken anything out of the previous snapshot.
        let lists: Vec<&[usize]> = b.nodes.iter().map(|n| n.succ.as_slice()).collect();
        if let Some(ids) = crate::analyze::cycle_path(&lists) {
            let path = ids.into_iter().map(|i| b.nodes[i].name.to_string()).collect();
            return Err(HfError::CycleDetected { path });
        }
        let prev = self.shared.frozen.lock().clone();
        let mut carry: std::collections::HashMap<(Arc<str>, usize), usize> = Default::default();
        if let Some(prev) = &prev {
            for (i, n) in prev.nodes.iter().enumerate() {
                if let Work::Pull { source } = &n.work {
                    if let Some(sid) = source.source_id() {
                        carry.insert((Arc::clone(&n.name), sid), i);
                    }
                }
            }
        }
        let index = |n: usize| u32::try_from(n).expect("graph exceeds u32::MAX nodes or edges");
        let mut nodes = Vec::with_capacity(b.nodes.len());
        let mut succ = Vec::with_capacity(b.nodes.iter().map(|n| n.succ.len()).sum());
        let mut gpu = Vec::new();
        for n in &b.nodes {
            let is_gpu = !matches!(n.work, Work::Empty | Work::Host(_));
            if is_gpu {
                let pull_state = match (&n.work, &prev) {
                    (Work::Pull { source }, Some(prev)) => source
                        .source_id()
                        .and_then(|sid| carry.remove(&(Arc::clone(&n.name), sid)))
                        .and_then(|old| prev.gpu(old))
                        .map(|old| std::mem::take(&mut *old.pull_state.lock()))
                        .unwrap_or_default(),
                    _ => PullState::default(),
                };
                let (cfg, work_units) = n.attrs.as_ref().map_or_else(Default::default, |a| (a.cfg, a.work_units));
                gpu.push(GpuNode { cfg, work_units, pull_state: Mutex::new(pull_state) });
            }
            nodes.push(FrozenNode {
                name: Arc::clone(&n.name),
                work: n.work.clone_payload(),
                succ_at: index(succ.len()),
                succ_len: index(n.succ.len()),
                num_deps: index(n.pred.len()),
                gpu: if is_gpu { index(gpu.len() - 1) } else { u32::MAX },
            });
            succ.extend(n.succ.iter().map(|&s| index(s)));
        }
        let sources = (0..nodes.len()).filter(|&i| nodes[i].num_deps == 0).collect();
        let frozen = Arc::new(FrozenGraph {
            name: b.name.clone(),
            nodes,
            succ,
            gpu,
            sources,
        });
        *self.shared.frozen.lock() = Some(Arc::clone(&frozen));
        b.dirty = false;
        Ok((frozen, b.epoch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::HostVec;

    #[test]
    fn build_saxpy_shape() {
        let g = Heteroflow::new("saxpy");
        let x: HostVec<i32> = HostVec::new();
        let y: HostVec<i32> = HostVec::new();
        let hx = g.host("host_x", {
            let x = x.clone();
            move || x.write().resize(64, 1)
        });
        let hy = g.host("host_y", {
            let y = y.clone();
            move || y.write().resize(64, 2)
        });
        let px = g.pull("pull_x", &x);
        let py = g.pull("pull_y", &y);
        let k = g.kernel("saxpy", &[&px, &py], |_, _| {});
        let sx = g.push("push_x", &px, &x);
        let sy = g.push("push_y", &py, &y);
        hx.precede(&px);
        hy.precede(&py);
        k.succeed(&px).succeed(&py);
        k.precede(&sx).precede(&sy);
        assert_eq!(g.num_tasks(), 7);
        let f = g.freeze().unwrap();
        assert_eq!(f.num_tasks(), 7);
        assert_eq!(f.sources, vec![0, 1]);
        assert_eq!(f.kind(4), TaskKind::Kernel);
        assert_eq!(f.nodes[4].num_deps, 2);
        assert_eq!(f.succ(4), [5, 6]);
    }

    /// A frozen node stays about a cache line: the task path walks them.
    #[test]
    fn frozen_node_is_compact() {
        assert!(std::mem::size_of::<FrozenNode>() <= 80);
    }

    #[test]
    fn cycle_is_detected() {
        let g = Heteroflow::new("cyc");
        let a = g.host("a", || {});
        let b = g.host("b", || {});
        let c = g.host("c", || {});
        a.precede(&b);
        b.precede(&c);
        c.precede(&a);
        match g.freeze() {
            Err(HfError::CycleDetected { path }) => {
                // The full cycle, in dependency order from some rotation.
                assert_eq!(path.len(), 3);
                let start = path.iter().position(|n| n == "a").unwrap();
                let rotated: Vec<&str> =
                    (0..3).map(|i| path[(start + i) % 3].as_str()).collect();
                assert_eq!(rotated, vec!["a", "b", "c"]);
            }
            other => panic!("expected CycleDetected, got {:?}", other.err()),
        }
    }

    #[test]
    fn self_loop_cycle_path_is_single_task() {
        let g = Heteroflow::new("self");
        let a = g.host("a", || {});
        a.precede(&a);
        match g.freeze() {
            Err(HfError::CycleDetected { path }) => assert_eq!(path, vec!["a"]),
            other => panic!("expected CycleDetected, got {:?}", other.err()),
        }
    }

    #[test]
    fn duplicate_edges_collapse() {
        let g = Heteroflow::new("dup");
        let a = g.host("a", || {});
        let b = g.host("b", || {});
        a.precede(&b);
        a.precede(&b);
        b.succeed(&a);
        let f = g.freeze().unwrap();
        assert_eq!(f.succ(0), [1]);
        assert_eq!(f.nodes[1].num_deps, 1);
    }

    #[test]
    fn structural_counters() {
        let g = Heteroflow::new("counts");
        let x: HostVec<i32> = HostVec::from_vec(vec![1; 8]);
        let h = g.host("h", || {});
        let p = g.pull("p", &x);
        let k = g.kernel("k", &[&p], |_, _| {});
        let s = g.push("s", &p, &x);
        g.placeholder("ph");
        h.precede(&p);
        p.precede(&k);
        k.precede(&s);
        assert_eq!(g.num_dependencies(), 3);
        assert_eq!(g.kind_counts(), (1, 1, 1, 1, 1));
    }

    #[test]
    fn freeze_is_cached_until_dirty() {
        let g = Heteroflow::new("cache");
        g.host("a", || {});
        let f1 = g.freeze().unwrap();
        let f2 = g.freeze().unwrap();
        assert!(Arc::ptr_eq(&f1, &f2));
        g.host("b", || {});
        let f3 = g.freeze().unwrap();
        assert!(!Arc::ptr_eq(&f1, &f3));
        assert_eq!(f3.num_tasks(), 2);
    }

    #[test]
    fn placeholder_then_assign() {
        let g = Heteroflow::new("ph");
        let p = g.placeholder("later");
        assert_eq!(p.kind(), TaskKind::Placeholder);
        p.assign_host(|| {});
        assert_eq!(p.kind(), TaskKind::Host);
        let f = g.freeze().unwrap();
        assert_eq!(f.kind(0), TaskKind::Host);
    }

    #[test]
    fn empty_graph_freezes() {
        let g = Heteroflow::new("empty");
        let f = g.freeze().unwrap();
        assert_eq!(f.num_tasks(), 0);
        assert!(f.sources.is_empty());
    }

    #[test]
    #[should_panic(expected = "different Heteroflow")]
    fn cross_graph_pull_panics() {
        let g1 = Heteroflow::new("g1");
        let g2 = Heteroflow::new("g2");
        let x: HostVec<i32> = HostVec::new();
        let p1 = g1.pull("p", &x);
        let _k = g2.kernel("k", &[&p1], |_, _| {});
    }
}
