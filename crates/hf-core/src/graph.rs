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
use crate::dispatch::PullState;
use crate::error::HfError;
use crate::task::{HostTask, KernelTask, PullTask, PushTask, TaskRef};
use hf_gpu::{CostModel, KernelFn, LaunchConfig};
#[cfg(debug_assertions)]
use hf_sync::atomic::{AtomicBool, Ordering};
use hf_sync::sync::Mutex;
use std::cell::UnsafeCell;
use std::fmt;
use std::sync::Arc;

/// The four task categories of the Heteroflow programming model. The
/// discriminant is the kind's tag on a device op's label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Runs a callable on a CPU core.
    Host = 0,
    /// Copies data from the host to a GPU (H2D).
    Pull = 1,
    /// Copies data from a GPU back to the host (D2H).
    Push = 2,
    /// Offloads computation to a GPU.
    Kernel = 3,
    /// A placeholder not yet assigned work.
    Placeholder = 4,
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

/// Shareable host-task callable: reference counts and closure in one
/// allocation, called without a lock (see [`HostCell`]).
pub(crate) type HostFn = Arc<HostCell<dyn FnMut() + Send>>;

/// A host task's closure, which the worker calls through a shared
/// reference: the scheduler already admits one caller at a time. Debug
/// builds check that with the `entered` flag.
pub(crate) struct HostCell<F: ?Sized> {
    #[cfg(debug_assertions)]
    entered: AtomicBool,
    f: UnsafeCell<F>,
}

// SAFETY: `entered` is atomic; `call` lends `&mut F` through `&self`: sound while no two
// calls of one cell overlap and each happens after the last returned (then `F: Send`
// suffices, as for `Mutex<F>`). The executor keeps that one-caller invariant:
// - a pass enters each node once: one arrival at its join counter is the last (`arrive`),
//   and a retry re-queues a node only after the failed attempt returned (`fail_task`);
// - passes of one graph never enter the same node at once: one run holds the graph's claim
//   at a time (`claim`, `stream.rs`); at depth >= 2, epoch N+1's prologue starts after
//   epoch N's prologue completed and its body after epoch N completed (`EpochDriver::pump`);
//   a failover replay starts after the old pass drained (`end_round`), and a prologue node
//   that replays never completed in that pass, so it held epoch N+1 back (`finish_node`);
// - a re-freeze, which shares the closures, is refused while a run holds the claim
//   (`GraphBusy`). Each hand-off is an acquire/release edge, so the calls are ordered.
unsafe impl<F: ?Sized + Send> Sync for HostCell<F> {}

/// Wraps `f` as a host task's callable.
pub(crate) fn host_fn(f: impl FnMut() + Send + 'static) -> HostFn {
    Arc::new(HostCell {
        #[cfg(debug_assertions)]
        entered: AtomicBool::new(false),
        f: UnsafeCell::new(f),
    })
}

impl HostCell<dyn FnMut() + Send> {
    /// Runs the closure, catching a panic. In debug builds a second caller
    /// entering before the first returned aborts the process, naming
    /// `task`: outside `catch_unwind`, so no retry policy can swallow it.
    ///
    /// # Safety
    /// No other call of this cell may be running, and the last one must
    /// happen before this one (the invariant on `HostCell`'s `Sync`).
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    pub(crate) unsafe fn call(&self, task: &str) -> std::thread::Result<()> {
        #[cfg(debug_assertions)]
        if self.entered.swap(true, Ordering::Acquire) {
            // Straight to stderr: a test harness's capture dies with the process.
            let msg = format!("host task '{task}' entered by two callers at once\n");
            std::io::Write::write_all(&mut std::io::stderr(), msg.as_bytes()).ok();
            std::process::abort();
        }
        // SAFETY: the caller's contract makes this the one live reference
        // to the closure.
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
            (*self.f.get())()
        }));
        #[cfg(debug_assertions)]
        self.entered.store(false, Ordering::Release);
        res
    }
}

/// Work payload of a node (builder and frozen forms share it; closures are
/// behind `Arc` so freezing clones cheaply).
#[derive(Clone)]
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
    /// Monotonic mutation counter, the one staleness signal: every
    /// structural or payload change bumps it, retiring the frozen
    /// snapshot and the plan cached on it.
    pub(crate) epoch: u64,
}

impl Builder {
    /// Marks the graph mutated: advances the epoch, so the frozen
    /// snapshot and its cached plan are not reused.
    pub(crate) fn touch(&mut self) {
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

/// An immutable, executable snapshot of the graph, laid out for the task
/// path: a node is about a cache line, all successor lists share one array,
/// and what only GPU tasks need sits in a side table host tasks never touch.
pub struct FrozenGraph {
    pub(crate) name: Arc<str>,
    pub(crate) nodes: Vec<FrozenNode>,
    /// Every node's successors back to back (compressed sparse row).
    succ: Vec<u32>,
    /// Launch shape, declared cost and pull residency of the GPU nodes.
    gpu: Vec<GpuNode>,
    /// Node ids with no predecessors (the round's initial ready set).
    pub(crate) sources: Vec<usize>,
    /// The builder epoch this snapshot was frozen at: `freeze` reuses the
    /// snapshot only while the builder's epoch still equals it.
    epoch: u64,
    /// The plan last made for this graph version (see [`crate::plan`]).
    pub(crate) plan_cache: crate::plan::PlanCache,
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
    /// when it runs, and [`FrozenGraph::weight_of`], which Algorithm 1
    /// packs with and `hf-sim` replays with): the declared units, or one
    /// per launched thread when none are declared.
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

    /// Name of node `id`.
    pub fn task_name(&self, id: usize) -> &str {
        &self.nodes[id].name
    }

    /// Modeled device time of node `id` in nanoseconds, the one price
    /// Algorithm 1 packs with and `hf-sim` replays with: a pull's H2D copy,
    /// a kernel's priced work, a push's D2H copy of its bytes;
    /// `0` for host tasks and placeholders.
    pub fn weight_of(&self, id: usize, cost: &CostModel) -> f64 {
        let time = match (&self.nodes[id].work, self.gpu(id)) {
            (Work::Pull { source }, _) => cost.h2d(source.byte_len()),
            (Work::Kernel { .. }, Some(gpu)) => {
                cost.kernel(GpuNode::priced_work_units(gpu.work_units, &gpu.cfg))
            }
            (Work::Push { .. }, _) => cost.d2h(self.bytes_of(id)),
            _ => return 0.0,
        };
        time.as_nanos() as f64
    }

    /// The one rule for the PCIe bytes a task moves when it runs: a
    /// pull's current host size, a push's staged pull size, `0` for
    /// host/kernel tasks. It also stamps `LifecycleEvent::bytes`.
    pub(crate) fn bytes_of(&self, id: usize) -> usize {
        match &self.nodes[id].work {
            Work::Pull { source } => source.byte_len(),
            Work::Push { source_pull, .. } => match &self.nodes[*source_pull].work {
                Work::Pull { source } => source.byte_len(),
                _ => 0,
            },
            _ => 0,
        }
    }

    /// Source pulls of kernel `id`; empty for every other node.
    pub(crate) fn kernel_sources(&self, id: usize) -> &[usize] {
        match &self.nodes[id].work {
            Work::Kernel { sources, .. } => sources,
            _ => &[],
        }
    }

    /// Source pull of push `id`.
    pub(crate) fn push_source(&self, id: usize) -> Option<usize> {
        match &self.nodes[id].work {
            Work::Push { source_pull, .. } => Some(*source_pull),
            _ => None,
        }
    }

    /// Device holding a warm copy of pull `id`: a live buffer with exactly
    /// the source's current version. A mutated host buffer bumps the
    /// version, so stale residency never attracts placement.
    pub(crate) fn warm_device(&self, id: usize) -> Option<u32> {
        match &self.nodes[id].work {
            Work::Pull { source } => {
                let st = self.gpu(id)?.pull_state.lock();
                st.warm_device(source.version()?)
            }
            _ => None,
        }
    }

    /// Successor ids of node `id`.
    #[inline]
    pub fn successors(&self, id: usize) -> &[u32] {
        let n = &self.nodes[id];
        &self.succ[n.succ_at as usize..][..n.succ_len as usize]
    }

    /// Number of dependencies of node `id`.
    pub fn num_deps(&self, id: usize) -> usize {
        self.nodes[id].num_deps as usize
    }

    /// Node ids with no dependencies, ascending.
    pub fn sources(&self) -> &[usize] {
        &self.sources
    }

    /// Length (in tasks) of the longest dependency chain — the critical
    /// path that lower-bounds any schedule.
    pub fn critical_path_len(&self) -> usize {
        let n = self.nodes.len();
        let mut depth = vec![0usize; n];
        // Process in topological order via Kahn.
        let mut indeg: Vec<usize> = (0..n).map(|i| self.num_deps(i)).collect();
        let mut queue: Vec<usize> = self.sources.clone();
        let mut best = 0;
        while let Some(u) = queue.pop() {
            let du = depth[u] + 1;
            best = best.max(du);
            for &v in self.successors(u) {
                let v = v as usize;
                depth[v] = depth[v].max(du);
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push(v);
                }
            }
        }
        best
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

pub(crate) struct GraphShared {
    pub(crate) builder: Mutex<Builder>,
    pub(crate) frozen: Mutex<Option<Arc<FrozenGraph>>>,
    pub(crate) run_state: Mutex<RunState>,
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
                    epoch: 0,
                }),
                frozen: Mutex::new(None),
                run_state: Mutex::new(RunState {
                    active: false,
                    queued: std::collections::VecDeque::new(),
                }),
            }),
        }
    }

    /// Graph name.
    pub(crate) fn name(&self) -> String {
        self.shared.builder.lock().name.clone()
    }

    /// Number of tasks created so far.
    pub fn num_tasks(&self) -> usize {
        self.shared.builder.lock().nodes.len()
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
        let id = self.shared.builder.lock().add(name, Work::Host(host_fn(f)));
        HostTask(self.task_ref(id))
    }

    /// Creates a *pull* task copying `source`'s bytes host→device
    /// (Listing 3). The copy is *stateful*: the bytes are read when the
    /// task executes, so preceding host tasks may resize or fill the data.
    pub fn pull(&self, name: &str, source: &(impl HostSource + Clone)) -> PullTask {
        self.pull_source(name, Arc::new(source.clone()))
    }

    /// `pull` with an explicit type-erased source.
    pub(crate) fn pull_source(&self, name: &str, source: Arc<dyn HostSource>) -> PullTask {
        let id = self.shared.builder.lock().add(name, Work::Pull { source });
        PullTask(self.task_ref(id))
    }

    /// Creates a *push* task copying `pull`'s device data back into
    /// `sink` (Listing 5).
    pub fn push(&self, name: &str, pull: &PullTask, sink: &(impl HostSink + Clone)) -> PushTask {
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
    /// previous snapshot while the builder epoch it was frozen at is
    /// still current. Fails with
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
        let b = self.shared.builder.lock();
        let prev = self.shared.frozen.lock().clone();
        if let Some(f) = prev.as_ref().filter(|f| f.epoch == b.epoch) {
            return Ok(Arc::clone(f));
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
            let path = ids
                .into_iter()
                .map(|i| b.nodes[i].name.to_string())
                .collect();
            return Err(HfError::CycleDetected { path });
        }
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
                let (cfg, work_units) = n
                    .attrs
                    .as_ref()
                    .map_or_else(Default::default, |a| (a.cfg, a.work_units));
                gpu.push(GpuNode {
                    cfg,
                    work_units,
                    pull_state: Mutex::new(pull_state),
                });
            }
            nodes.push(FrozenNode {
                name: Arc::clone(&n.name),
                work: n.work.clone(),
                succ_at: index(succ.len()),
                succ_len: index(n.succ.len()),
                num_deps: index(n.pred.len()),
                gpu: if is_gpu {
                    index(gpu.len() - 1)
                } else {
                    u32::MAX
                },
            });
            succ.extend(n.succ.iter().map(|&s| index(s)));
        }
        let sources = (0..nodes.len())
            .filter(|&i| nodes[i].num_deps == 0)
            .collect();
        let frozen = Arc::new(FrozenGraph {
            name: Arc::from(b.name.as_str()),
            nodes,
            succ,
            gpu,
            sources,
            epoch: b.epoch,
            plan_cache: Mutex::new(None),
        });
        *self.shared.frozen.lock() = Some(Arc::clone(&frozen));
        Ok(frozen)
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
        assert_eq!(f.sources(), [0, 1]);
        assert_eq!(f.kind(4), TaskKind::Kernel);
        assert_eq!(f.num_deps(4), 2);
        assert_eq!(f.successors(4), [5, 6]);
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
                let rotated: Vec<&str> = (0..3).map(|i| path[(start + i) % 3].as_str()).collect();
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
        assert_eq!(f.successors(0), [1]);
        assert_eq!(f.num_deps(1), 1);
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

    /// host -> pull -> kernel -> push over 100 `i32`s, kernel at 42 units.
    fn sample() -> (Heteroflow, Arc<FrozenGraph>) {
        let g = Heteroflow::new("sample");
        let x: HostVec<i32> = HostVec::from_vec(vec![0; 100]);
        let h = g.host("h", || {});
        let p = g.pull("p", &x);
        let k = g.kernel("k", &[&p], |_, _| {});
        k.work_units(42.0);
        let s = g.push("s", &p, &x);
        h.precede(&p);
        p.precede(&k);
        k.precede(&s);
        let f = g.freeze().unwrap();
        (g, f)
    }

    #[test]
    fn frozen_graph_reports_structure() {
        let (g, f) = sample();
        let cost = hf_gpu::CostModel::default();
        assert_eq!(f.num_tasks(), 4);
        assert_eq!(g.num_dependencies(), 3);
        assert_eq!(f.sources(), [0]);
        assert_eq!(g.kind_counts().1, 1);
        assert_eq!(f.bytes_of(1), 400);
        assert_eq!(f.kernel_sources(2), [1]);
        assert_eq!(f.weight_of(2, &cost), cost.kernel(42.0).as_nanos() as f64);
        assert_eq!(f.push_source(3), Some(1));
        assert_eq!(f.bytes_of(3), 400);
        assert_eq!(f.weight_of(3, &cost), cost.d2h(400).as_nanos() as f64);
        assert_eq!(f.task_name(2), "k");
        assert_eq!(f.num_deps(2), 1);
    }

    #[test]
    fn critical_path() {
        let (_g, f) = sample();
        assert_eq!(f.critical_path_len(), 4);
    }

    /// An undeclared kernel is priced at one unit per launched thread.
    #[test]
    fn kernel_weight_falls_back_to_launch_threads() {
        let g = Heteroflow::new("wu");
        let x: HostVec<i32> = HostVec::from_vec(vec![0; 8]);
        let p = g.pull("p", &x);
        let k = g.kernel("k", &[&p], |_, _| {});
        k.cover(1000, 128);
        p.precede(&k);
        let f = g.freeze().unwrap();
        let cost = hf_gpu::CostModel::default();
        assert_eq!(f.weight_of(1, &cost), cost.kernel(1024.0).as_nanos() as f64);
    }

    #[test]
    fn freeze_is_cached_until_mutated() {
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
        assert!(f.sources().is_empty());
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
