//! The executor: N CPU workers, M GPUs, work-stealing scheduling.
//!
//! "An executor ... manages a set of CPU threads and GPU devices to
//! schedule in which list of tasks to execute" (§III-B). Unlike systems
//! that dedicate a worker per GPU, every Heteroflow worker can run every
//! task kind — tasks are uniform closures — and GPU tasks are scoped to
//! their assigned device via an RAII context (Listing 13).
//!
//! The scheduling loop follows §III-C: after device placement, workers
//! drain their local Chase–Lev deque and become *thieves* stealing from
//! random victims when empty. The adaptive strategy keeps "one thief
//! alive as long as an active worker is running a task"; otherwise idle
//! workers sleep on an eventcount.
//!
//! The hot path is engineered to stay allocation- and lock-free in steady
//! state:
//!
//! * queued work items are packed `(topology-slot, node)` integer tokens
//!   resolved through a lock-free slot registry — no per-task `Box`;
//! * the shared inbox is a lock-free segmented [`Injector`] with batch
//!   push/pop instead of a `Mutex<VecDeque>`;
//! * a finishing task hands its first ready successor straight back to
//!   the worker's burst loop and batches the others into one injector
//!   spray plus one coalesced `notify_n` wakeup ([`crate::ready::ReadyBatch`]);
//! * re-running an unchanged graph reuses the cached freeze + placement +
//!   fusion plan (see [`crate::graph::SchedCache`]).

use crate::error::HfError;
use crate::graph::{FrozenGraph, Heteroflow, SchedCache, Work};
use crate::lifecycle::{lifecycle_now_ns, LifecycleEvent, LifecyclePhase};
use crate::observer::ExecutorObserver;
use crate::placement::{PlaceInput, Placement};
use crate::ready::ReadyBatch;
use crate::registry::{Token, TopoRegistry};
use crate::retry::RetryPolicy;
use crate::stats::ExecutorStats;
use crate::topology::{FusionPlan, RunFuture, Topology};
use hf_gpu::{GpuConfig, GpuRuntime};
use hf_sync::{Injector, Notifier, Steal, StealDeque, Stealer};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Default byte size above which a pull is pipelined in chunks across the
/// copy-lane streams. Large enough that typical test graphs stay on the
/// single-op path.
const DEFAULT_COPY_CHUNK_THRESHOLD: usize = 1 << 20;

/// Default number of copy-lane streams per (worker, device).
const DEFAULT_COPY_LANES: usize = 2;

/// Tokens a thief claims from the injector in one batched pop; extras are
/// banked in its local deque.
pub(crate) const STEAL_BATCH: usize = 16;

/// Executor identities for keying per-graph scheduling caches.
static NEXT_EXEC_ID: AtomicU64 = AtomicU64::new(0);

pub(crate) struct ExecInner {
    /// Process-unique id keying [`SchedCache`] entries.
    pub(crate) id: u64,
    pub(crate) stealers: Vec<Stealer<Token>>,
    /// Shared lock-free inbox for work scheduled off worker threads and
    /// for batched successor sprays.
    pub(crate) injector: Injector<Token>,
    pub(crate) registry: TopoRegistry,
    pub(crate) notifier: Notifier,
    pub(crate) done: AtomicBool,
    pub(crate) num_actives: AtomicUsize,
    pub(crate) num_thieves: AtomicUsize,
    /// What `wait_for_all` waits on: unfinished epochs across all graphs,
    /// plus unsettled `run*` calls (counted by the epoch driver).
    pub(crate) num_topologies: AtomicUsize,
    pub(crate) idle_lock: Mutex<()>,
    pub(crate) idle_cv: Condvar,
    pub(crate) gpu: Arc<GpuRuntime>,
    /// Decaying estimate of modeled load already packed per device, used
    /// to bias placement of later topologies toward idle GPUs.
    pub(crate) device_load: Mutex<Vec<f64>>,
    pub(crate) stats: ExecutorStats,
    /// When false, idle thieves always spin (never sleep) — the A4
    /// ablation baseline.
    pub(crate) adaptive_sleep: bool,
    /// GPU task fusion (§III-C "task fusing") enabled.
    pub(crate) fusion: bool,
    /// Observers of the lifecycle stream (see [`ExecInner::emit`]).
    pub(crate) observers: Vec<Arc<dyn ExecutorObserver>>,
    /// Retry/failover policy applied to failing task bodies.
    pub(crate) retry: RetryPolicy,
    /// Per-device "already counted as lost" latch for the
    /// `devices_lost` stat (each device counted once per executor).
    pub(crate) lost_seen: Vec<AtomicBool>,
    /// Pulls of more than this many bytes are pipelined in chunks of this
    /// size across the copy-lane streams (`usize::MAX` disables). Pushes
    /// are always one op; see [`crate::transfer`].
    pub(crate) copy_chunk_threshold: usize,
    /// Copy-lane streams per (worker, device) used by pipelined pulls.
    pub(crate) copy_lanes: usize,
    /// Per-task durations seeded from outside ([`Executor::seed_task_cost`]);
    /// a placement weighs a seeded task with its seed.
    pub(crate) cost_db: crate::costmodel::CostDb,
    /// Submission ids handed to topologies/futures and stamped onto
    /// lifecycle events (starts at 1; 0 is reserved for ready futures).
    pub(crate) run_seq: AtomicU64,
    /// What to do with static-analysis findings at submission time.
    pub(crate) lint: LintPolicy,
}

impl ExecInner {
    /// Lifecycle fast-path gate: `true` only when at least one registered
    /// observer is active. With no observers (or all inactive) every
    /// lifecycle emission site reduces to this check — no event is
    /// constructed, no timestamp taken, nothing allocated.
    #[inline]
    pub(crate) fn lc_active(&self) -> bool {
        !self.observers.is_empty() && self.observers.iter().any(|o| o.is_active())
    }

    /// The one way an event leaves the executor: builds it only when the
    /// gate is open and hands it to every observer, so call sites need no
    /// guard (loops may still hoist [`ExecInner::lc_active`]). Inlined so
    /// that a closed gate costs the caller a load and a branch, not a
    /// call.
    #[inline]
    pub(crate) fn emit(&self, event: impl FnOnce() -> LifecycleEvent) {
        if self.lc_active() {
            let ev = event();
            for o in &self.observers {
                o.on_lifecycle(&ev);
            }
        }
    }

    /// Emits a run-level lifecycle event for a topology
    /// (`Failover`/`EpochEnd`); the epoch driver emits the ones that
    /// bracket a whole run.
    pub(crate) fn emit_run(&self, topo: &Topology, phase: LifecyclePhase, ok: bool, detail: Option<&HfError>) {
        self.emit(|| {
            LifecycleEvent::run_level(
                topo.run_id,
                &topo.graph_label,
                phase,
                ok,
                detail.map(|e| e.to_string()),
                topo.ctx.epoch,
                topo.ctx.tenant.as_ref(),
            )
        });
    }

    /// Emits a task-level lifecycle event.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn emit_task(
        &self,
        topo: &Topology,
        phase: LifecyclePhase,
        node: usize,
        worker: Option<u32>,
        chain: Option<u32>,
        ok: bool,
        detail: Option<&HfError>,
    ) {
        self.emit(|| task_event(topo, phase, node, worker, chain, ok, detail));
    }

    /// The one call into [`crate::placement::place`], fed the seeds
    /// recorded for the graph (none on an executor nobody seeded) next to
    /// the residency the frozen graph itself reports. Devices lost by now
    /// are masked out and counted once each in `devices_lost`; groups of
    /// `prev` (a previous `device_of`; empty places everything) on a
    /// surviving device stay.
    ///
    /// Only a first placement on a healthy executor reads and updates the
    /// decayed cross-graph load — with a device lost it may describe dead
    /// hardware, and a re-placement adds no new work. `own_loads` is then
    /// what this placement added per device, and `None` otherwise.
    pub(crate) fn place(
        &self,
        frozen: &FrozenGraph,
        prev: &[Option<u32>],
    ) -> Result<Placed, HfError> {
        let devices = self.gpu.devices();
        let lost: Vec<bool> = devices.iter().map(|d| d.is_lost()).collect();
        for (d, &l) in lost.iter().enumerate() {
            if l && !self.lost_seen[d].swap(true, Ordering::Relaxed) {
                self.stats.devices_lost.incr();
            }
        }
        let seeds = Some(self.cost_db.snapshot_for(frozen.name())).filter(|s| !s.is_empty());
        let cost = devices.first().map(|d| d.cost_model()).unwrap_or_default();
        let biased = prev.is_empty() && !lost.contains(&true);
        let mut bias = biased.then(|| self.device_load.lock());
        if let Some(dl) = &mut bias {
            dl.iter_mut().for_each(|l| *l *= 0.5);
        }
        let input = PlaceInput {
            lost: &lost,
            initial_loads: bias.as_deref().map_or(&[], Vec::as_slice),
            prev,
            refined: seeds.as_ref(),
        };
        let placement = crate::placement::place(frozen, &cost, &input)?;
        let own_loads = bias.map(|mut dl| {
            let own = placement.loads.iter().zip(dl.iter()).map(|(l, b)| l - b).collect();
            dl.copy_from_slice(&placement.loads);
            own
        });
        if placement.warm_hits > 0 {
            self.stats.placement_warm_hits.add(placement.warm_hits);
        }
        if placement.est_bytes_saved > 0 {
            self.stats.placement_est_bytes_saved.add(placement.est_bytes_saved);
        }
        self.stats.placement_imbalance.set(placement.imbalance());
        Ok(Placed { lost, placement, own_loads })
    }
}

/// What [`ExecInner::place`] returns.
pub(crate) struct Placed {
    /// The lost-device mask the placement was made against.
    pub(crate) lost: Vec<bool>,
    pub(crate) placement: Placement,
    /// Load this placement added per device (nanoseconds), when it was
    /// fed the cross-graph load; such a plan may be cached.
    pub(crate) own_loads: Option<Vec<f64>>,
}

/// The task-level event constructor (run-level:
/// [`LifecycleEvent::run_level`]), stamped now. Out of line, so every
/// [`ExecInner::emit_task`] site stays a gate check when nobody listens.
#[inline(never)]
fn task_event(
    topo: &Topology,
    phase: LifecyclePhase,
    node: usize,
    worker: Option<u32>,
    chain: Option<u32>,
    ok: bool,
    detail: Option<&HfError>,
) -> LifecycleEvent {
    let nd = &topo.frozen.nodes[node];
    LifecycleEvent {
        run_id: topo.run_id,
        graph: Arc::clone(&topo.graph_label),
        phase,
        task: Some(node as u32),
        name: Arc::clone(&nd.name),
        kind: Some(nd.work.kind()),
        device: topo.placement.device_of[node],
        worker,
        chain,
        bytes: node_move_bytes(&topo.frozen, node),
        ok,
        detail: detail.map(|e| Arc::from(e.to_string())),
        epoch: topo.ctx.epoch,
        tenant: topo.ctx.tenant.clone(),
        t_ns: lifecycle_now_ns(),
    }
}

/// PCIe bytes a task moves when it runs: a pull's current host size, a
/// push's staged pull size, `0` for host/kernel tasks. Stamped onto
/// lifecycle events so transfer-heavy stragglers are attributable.
fn node_move_bytes(frozen: &FrozenGraph, node: usize) -> u64 {
    match &frozen.nodes[node].work {
        Work::Pull { source } => source.byte_len() as u64,
        Work::Push { source_pull, .. } => match &frozen.nodes[*source_pull].work {
            Work::Pull { source } => source.byte_len() as u64,
            _ => 0,
        },
        _ => 0,
    }
}

/// What the executor does with static-analysis findings
/// ([`crate::Heteroflow::analyze`]) when a graph is submitted.
///
/// The analysis itself is cheap and epoch-cached on the graph, so the
/// policy only decides what happens to the *findings*:
///
/// * [`Off`](LintPolicy::Off) — never analyze at submission.
/// * [`Warn`](LintPolicy::Warn) (default) — when a lifecycle observer is
///   active, emit one [`crate::LifecyclePhase::Lint`] event per finding
///   right after `RunStart`; the run proceeds regardless. With no active
///   observer the analysis is skipped entirely, keeping the default
///   submission path as cheap as `Off`.
/// * [`Deny`](LintPolicy::Deny) — reject graphs with Error-severity
///   findings before any work dispatches: the returned future resolves
///   to [`crate::HfError::LintRejected`] carrying the rendered findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintPolicy {
    /// Never run the analyzer at submission time.
    Off,
    /// Analyze and surface findings as lifecycle events; never reject.
    #[default]
    Warn,
    /// Reject submissions whose graph has Error-severity findings.
    Deny,
}

/// A resolved scheduling preamble: everything an epoch driver needs to
/// start creating topologies for one submission of one graph.
pub(crate) struct ExecPlan {
    pub(crate) frozen: Arc<FrozenGraph>,
    pub(crate) placement: Arc<crate::placement::Placement>,
    pub(crate) fusion: Arc<FusionPlan>,
    pub(crate) lint_report: Option<Arc<crate::analyze::Report>>,
}

/// Builder for [`Executor`] with a shared GPU runtime or non-default
/// scheduling knobs.
pub struct ExecutorBuilder {
    cpus: usize,
    gpus: u32,
    shared_gpu: Option<Arc<GpuRuntime>>,
    adaptive_sleep: bool,
    fusion: bool,
    observers: Vec<Arc<dyn ExecutorObserver>>,
    tracer: Option<Arc<crate::observer::TraceCollector>>,
    retry: RetryPolicy,
    copy_chunk_threshold: usize,
    copy_lanes: usize,
    lint: LintPolicy,
}

impl std::fmt::Debug for ExecutorBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutorBuilder")
            .field("cpus", &self.cpus)
            .field("gpus", &self.gpus)
            .field("adaptive_sleep", &self.adaptive_sleep)
            .field("observers", &self.observers.len())
            .finish()
    }
}

impl ExecutorBuilder {
    /// Starts a builder with `cpus` worker threads and `gpus` devices.
    pub fn new(cpus: usize, gpus: u32) -> Self {
        Self {
            cpus,
            gpus,
            shared_gpu: None,
            adaptive_sleep: true,
            fusion: true,
            observers: Vec::new(),
            tracer: None,
            retry: RetryPolicy::default(),
            copy_chunk_threshold: DEFAULT_COPY_CHUNK_THRESHOLD,
            copy_lanes: DEFAULT_COPY_LANES,
            lint: LintPolicy::default(),
        }
    }

    /// Sets what the executor does with static-analysis findings when a
    /// graph is submitted (default [`LintPolicy::Warn`]). See
    /// [`LintPolicy`] and [`crate::Heteroflow::analyze`].
    pub fn lint_policy(mut self, policy: LintPolicy) -> Self {
        self.lint = policy;
        self
    }

    /// Sets the byte size above which a pull (H2D) is split into chunks of
    /// that size enqueued round-robin across copy-lane streams, letting a
    /// long copy interleave with kernels on the same device (default
    /// 1 MiB; `usize::MAX` disables chunking). Sources that report no
    /// [`crate::data::HostSource::version`] and all pushes (D2H) copy in
    /// one op whatever their size.
    pub fn copy_chunk_threshold(mut self, bytes: usize) -> Self {
        self.copy_chunk_threshold = bytes.max(1);
        self
    }

    /// Sets how many copy-lane streams each worker opens per device for
    /// chunked pulls (default 2; clamped to at least 1).
    pub fn copy_lanes(mut self, lanes: usize) -> Self {
        self.copy_lanes = lanes.max(1);
        self
    }

    /// Sets the retry/failover policy applied when task bodies fail with
    /// transient device errors (default: no retries; device loss triggers
    /// failover onto the surviving GPUs). See [`RetryPolicy`].
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Shares an existing GPU runtime instead of creating one.
    pub fn gpu_runtime(mut self, rt: Arc<GpuRuntime>) -> Self {
        self.shared_gpu = Some(rt);
        self
    }

    /// Disables the adaptive sleep strategy: idle thieves spin forever.
    /// Ablation baseline; wastes CPU but minimizes wakeup latency.
    pub fn adaptive_sleep(mut self, on: bool) -> Self {
        self.adaptive_sleep = on;
        self
    }

    /// Enables/disables GPU task fusion (default on): linear chains of
    /// same-device kernel/push tasks dispatch as one stream submission
    /// with a single completion callback, cutting per-task scheduling
    /// overhead (§III-C "task fusing"). The A5 ablation baseline is
    /// `false`.
    pub fn task_fusion(mut self, on: bool) -> Self {
        self.fusion = on;
        self
    }

    /// Registers an observer of the executor's lifecycle events (e.g.
    /// `hf_telemetry`'s flight recorder). Attach a
    /// [`crate::observer::TraceCollector`] with [`Self::tracer`] instead,
    /// which also gives it the device side of the timeline.
    pub fn observer(mut self, obs: Arc<dyn ExecutorObserver>) -> Self {
        self.observers.push(obs);
        self
    }

    /// Registers `trace` as observer *and* wires it into the GPU runtime
    /// as the device trace sink: GPU task spans show true device
    /// execution times (and CPU/GPU overlap), next to the worker spans
    /// folded from lifecycle events. Workers label dispatched ops with
    /// the task name/kind so device events map back to graph tasks.
    pub fn tracer(mut self, trace: Arc<crate::observer::TraceCollector>) -> Self {
        self.observers
            .push(Arc::clone(&trace) as Arc<dyn ExecutorObserver>);
        self.tracer = Some(trace);
        self
    }

    /// Builds the executor, spawning worker threads and device engines.
    pub fn build(self) -> Executor {
        let cpus = self.cpus.max(1);
        let gpu = self
            .shared_gpu
            .unwrap_or_else(|| Arc::new(GpuRuntime::new(self.gpus, GpuConfig::default())));
        if let Some(trace) = &self.tracer {
            trace.connect_gpu(&gpu);
        }

        let deques: Vec<StealDeque<Token>> = (0..cpus).map(|_| StealDeque::new()).collect();
        let stealers = deques.iter().map(|d| d.stealer()).collect();

        let inner = Arc::new(ExecInner {
            id: NEXT_EXEC_ID.fetch_add(1, Ordering::Relaxed),
            stealers,
            injector: Injector::new(),
            registry: TopoRegistry::new(),
            notifier: Notifier::new(),
            done: AtomicBool::new(false),
            num_actives: AtomicUsize::new(0),
            num_thieves: AtomicUsize::new(0),
            num_topologies: AtomicUsize::new(0),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
            gpu: Arc::clone(&gpu),
            device_load: Mutex::new(vec![0.0; gpu.num_devices() as usize]),
            stats: ExecutorStats::new(cpus),
            adaptive_sleep: self.adaptive_sleep,
            fusion: self.fusion,
            observers: self.observers,
            retry: self.retry,
            lost_seen: (0..gpu.num_devices())
                .map(|_| AtomicBool::new(false))
                .collect(),
            copy_chunk_threshold: self.copy_chunk_threshold,
            copy_lanes: self.copy_lanes,
            cost_db: crate::costmodel::CostDb::new(),
            run_seq: AtomicU64::new(0),
            lint: self.lint,
        });

        let threads = deques
            .into_iter()
            .enumerate()
            .map(|(id, deque)| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("hf-worker-{id}"))
                    .spawn(move || crate::worker::Worker::new(id, deque, inner).run())
                    .expect("spawn executor worker")
            })
            .collect();

        Executor {
            inner,
            gpu,
            threads: Mutex::new(threads),
        }
    }
}

/// The Heteroflow executor. Thread-safe: `run*` may be called from any
/// thread, concurrently (§III-B).
pub struct Executor {
    pub(crate) inner: Arc<ExecInner>,
    pub(crate) gpu: Arc<GpuRuntime>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("cpus", &self.num_workers())
            .field("gpus", &self.gpu.num_devices())
            .finish()
    }
}

impl Executor {
    /// Creates an executor with `cpus` worker threads and `gpus` software
    /// GPU devices — `hf::Executor executor(8, 4)` in the paper.
    pub fn new(cpus: usize, gpus: u32) -> Self {
        ExecutorBuilder::new(cpus, gpus).build()
    }

    /// Builder for custom configurations.
    pub fn builder(cpus: usize, gpus: u32) -> ExecutorBuilder {
        ExecutorBuilder::new(cpus, gpus)
    }

    /// Number of CPU worker threads.
    pub fn num_workers(&self) -> usize {
        self.inner.stealers.len()
    }

    /// Number of GPU devices.
    pub fn num_gpus(&self) -> u32 {
        self.gpu.num_devices()
    }

    /// The underlying GPU runtime (e.g. for pool statistics in tests).
    pub fn gpu_runtime(&self) -> &Arc<GpuRuntime> {
        &self.gpu
    }

    /// Scheduling statistics (steals, sleeps, executed tasks).
    pub fn stats(&self) -> &ExecutorStats {
        &self.inner.stats
    }

    /// Statistics snapshot extended with the executor's *live* scheduling
    /// gauges: `inflight_tasks` (workers inside an exploit burst, each
    /// running a task body or between two) and `queue_depth` (tokens
    /// waiting in the injector plus every worker deque). Unlike the
    /// counters these are point-in-time reads of moving state — exactly
    /// what an external health monitor needs to distinguish "busy" from
    /// "stuck". Plain [`ExecutorStats::snapshot`] leaves both at zero.
    pub fn snapshot(&self) -> crate::stats::StatsSnapshot {
        let mut s = self.inner.stats.snapshot();
        s.inflight_tasks = self.inner.num_actives.load(Ordering::SeqCst) as u64;
        s.queue_depth = (self.inner.injector.len()
            + self.inner.stealers.iter().map(|st| st.len()).sum::<usize>())
            as u64;
        s
    }

    /// The table of per-task cost seeds placement reads. Exposed for
    /// inspection; [`Executor::seed_task_cost`] fills it.
    pub fn cost_db(&self) -> &crate::costmodel::CostDb {
        &self.inner.cost_db
    }

    /// Tells placement how long `task` of `graph` takes (nanoseconds of
    /// modeled device time), from a measurement or a persisted profile:
    /// the next placement of that graph weighs the task with it instead
    /// of the analytic model. The last value wins; a NaN, infinite or
    /// negative one is dropped. A plan already cached for an unchanged
    /// graph is not re-made.
    pub fn seed_task_cost(&self, graph: &str, task: &str, nanos: f64) {
        self.inner.cost_db.seed(graph, task, nanos);
    }

    /// Current decaying modeled-load estimate per device (nanoseconds),
    /// as used to bias placement of later topologies toward idle GPUs.
    pub fn device_loads(&self) -> Vec<f64> {
        self.inner.device_load.lock().clone()
    }

    /// Runs the graph once. Non-blocking; returns a future.
    pub fn run(&self, hf: &Heteroflow) -> RunFuture {
        self.run_n(hf, 1)
    }

    /// Runs the graph `n` times (rounds execute back-to-back).
    pub fn run_n(&self, hf: &Heteroflow, n: usize) -> RunFuture {
        let mut remaining = n;
        self.run_until(hf, move || {
            if remaining == 0 {
                true
            } else {
                remaining -= 1;
                false
            }
        })
    }

    /// Runs the graph repeatedly until `stop` returns `true` (checked
    /// before each round).
    ///
    /// The scheduling preamble (freeze, Algorithm 1 placement, fusion
    /// planning) is cached per graph: resubmitting an unchanged graph
    /// reuses the previous plan and only refreshes the decaying
    /// device-load bias. Any mutation invalidates the cache via the
    /// builder epoch.
    ///
    /// A run is a client of the one epoch driver (see `crate::stream`):
    /// it opens the driver at depth 1 — so its rounds never overlap and
    /// device residency stays on the graph itself, carrying across runs —
    /// and enqueues one epoch per round; `stop` is consulted when the
    /// run obtains the graph (runs of one graph execute in submission
    /// order) and again after every round. The graph is released before
    /// the future resolves, so a waiter may mutate and resubmit it the
    /// instant `wait` returns.
    pub fn run_until<P>(&self, hf: &Heteroflow, stop: P) -> RunFuture
    where
        P: FnMut() -> bool + Send + 'static,
    {
        crate::stream::run_until(self, hf, Box::new(stop), None, None, None)
    }

    /// Opens a resident streaming session on the graph with the default
    /// [`StreamConfig`] (in-flight depth 2). The returned
    /// [`crate::Session`] keeps the frozen snapshot, placement, and
    /// double-buffered device residency resident across epochs;
    /// [`crate::Session::submit`] enqueues the next epoch while prior
    /// epochs still occupy the devices, so epoch N+1's H2D transfers
    /// overlap epoch N's kernels.
    pub fn run_stream(&self, hf: &Heteroflow) -> Result<crate::stream::Session, HfError> {
        self.run_stream_with(hf, crate::stream::StreamConfig::default())
    }

    /// [`Executor::run_stream`] with an explicit [`StreamConfig`]
    /// (in-flight epoch depth / residency ring size).
    pub fn run_stream_with(
        &self,
        hf: &Heteroflow,
        cfg: crate::stream::StreamConfig,
    ) -> Result<crate::stream::Session, HfError> {
        crate::stream::Session::open(self, hf, cfg)
    }

    /// The scheduling preamble shared by every submission path: freeze,
    /// lint gate, placement (degraded against survivors when a device is
    /// lost), fusion planning, and the per-graph scheduling cache.
    pub(crate) fn plan_for(&self, hf: &Heteroflow) -> Result<ExecPlan, HfError> {
        let inner = &self.inner;
        let (frozen, epoch) = hf.freeze_with_epoch()?;

        // Static analysis gate (see `crate::analyze`). The report is
        // epoch-cached on the graph, and under the default `Warn` policy
        // nothing is even computed unless a lifecycle observer is active
        // — so the common submission path pays only this match.
        let lint_report = match inner.lint {
            LintPolicy::Off => None,
            LintPolicy::Warn if !inner.lc_active() => None,
            policy => {
                let report = hf.analyze();
                if policy == LintPolicy::Deny && report.has_errors() {
                    return Err(HfError::LintRejected {
                        graph: report.graph.clone(),
                        diagnostics: report.errors().map(|d| d.render()).collect(),
                    });
                }
                Some(report)
            }
        };

        // Scheduling cache: reuse placement + fusion when this executor
        // already planned this epoch of the graph. With a device lost the
        // cached placement may reference dead hardware, so the cache is
        // bypassed in both directions.
        let degraded = self.gpu.devices().iter().any(|d| d.is_lost());
        let cached = {
            let c = hf.shared.sched_cache.lock();
            c.as_ref()
                .filter(|sc| !degraded && sc.exec_id == inner.id && sc.epoch == epoch)
                .map(|sc| {
                    (
                        Arc::clone(&sc.placement),
                        Arc::clone(&sc.fusion),
                        sc.own_loads.clone(),
                    )
                })
        };
        let (placement, fusion) = match cached {
            Some((placement, fusion, own_loads)) => {
                inner.stats.topo_cache_hits.incr();
                // Keep the cross-graph bias fresh: decay, then re-apply
                // this graph's own modeled load.
                let mut dl = inner.device_load.lock();
                for (l, own) in dl.iter_mut().zip(&own_loads) {
                    *l = *l * 0.5 + own;
                }
                (placement, fusion)
            }
            None => {
                inner.stats.topo_cache_misses.incr();
                let placed = inner.place(&frozen, &[])?;
                let placement = Arc::new(placed.placement);
                let fusion =
                    Arc::new(FusionPlan::compute(&frozen, &placement, inner.fusion, None));
                if let Some(own_loads) = placed.own_loads {
                    *hf.shared.sched_cache.lock() = Some(SchedCache {
                        exec_id: inner.id,
                        epoch,
                        placement: Arc::clone(&placement),
                        fusion: Arc::clone(&fusion),
                        own_loads,
                    });
                }
                (placement, fusion)
            }
        };

        Ok(ExecPlan {
            frozen,
            placement,
            fusion,
            lint_report,
        })
    }

    /// Blocks until every topology submitted to this executor (from any
    /// thread) has finished — including every epoch of open streaming
    /// sessions: a [`crate::Session`] holds an in-flight topology count
    /// while any submitted epoch is unfinished (an *idle* open stream
    /// does not block this call).
    ///
    /// Multi-threaded submission contract: this call observes a
    /// consistent in-flight count across *all* submitting threads — a
    /// submission that returned its [`RunFuture`] before `wait_for_all`
    /// was entered is always drained, whichever thread made it. The
    /// count is held for a whole chained submission (every round of
    /// `run_n`, every queued run of a busy graph), so the gaps between
    /// chained epochs are observed as busy, never as a spurious idle.
    /// Submissions racing *into* `wait_for_all` from other threads may
    /// or may not be included; the call returns at some point when the
    /// executor is momentarily drained.
    pub fn wait_for_all(&self) {
        let mut g = self.inner.idle_lock.lock();
        while self.inner.num_topologies.load(Ordering::SeqCst) != 0 {
            self.inner.idle_cv.wait(&mut g);
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.wait_for_all();
        self.inner.done.store(true, Ordering::SeqCst);
        self.inner.notifier.notify_all();
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
        // Queues hold plain integer tokens (no ownership); draining is
        // purely defensive hygiene.
        for s in &self.inner.stealers {
            while let Steal::Success(_) = s.steal() {}
        }
        while self.inner.injector.pop().is_some() {}
    }
}

impl ExecInner {
    /// Starts a registered topology: schedules its source nodes, or
    /// completes it at once when there is nothing to run (the epoch was
    /// cancelled while it waited for admission, or the graph is empty).
    pub(crate) fn start_topology(&self, topo: Arc<Topology>) {
        if topo.cancel_requested() || topo.frozen.nodes.is_empty() {
            self.finish_topology(topo);
        } else {
            self.schedule_sources(&topo);
        }
    }

    /// Schedules the source nodes. Sources that are heads of the epoch
    /// gate are skipped: the gate is still closed (it opens only after
    /// this returns), so their inflated join counter is nonzero until
    /// [`ExecInner::open_gate`] consumes it when the previous epoch of the
    /// stream completes.
    fn schedule_sources(&self, topo: &Arc<Topology>) {
        let mut ready = ReadyBatch::new(self, topo, None);
        for &id in &topo.frozen.sources {
            if topo.join[id].load(Ordering::Relaxed) == 0 {
                ready.push(id);
            }
        }
    }

    /// Opens a streaming epoch's body gate: consumes the extra join
    /// dependency [`crate::topology::Topology::new`] inflated onto each
    /// gate head, dispatching heads whose real dependencies
    /// have already drained. Idempotent; no-op for gateless topologies
    /// and topologies that finished before their gate opened (a
    /// cancelled-at-admission epoch never dispatched any body token).
    pub(crate) fn open_gate(&self, topo: &Arc<Topology>) {
        let Some(g) = &topo.ctx.gate else { return };
        if g.opened.swap(true, Ordering::AcqRel) {
            return;
        }
        if topo.slot.load(Ordering::Acquire) == u32::MAX {
            return;
        }
        let mut ready = ReadyBatch::new(self, topo, None);
        for &h in &g.heads {
            if topo.join[h].fetch_sub(1, Ordering::AcqRel) == 1 && !topo.fusion.member[h] {
                ready.push(h);
            }
        }
    }

    /// Completes one epoch topology: releases its registry slot, emits
    /// `EpochEnd` (streaming epochs), and hands the result to the epoch
    /// driver via the topology's `on_finish` hook. Promise settlement,
    /// the graph claim and the executor's in-flight count live in the
    /// driver (see [`crate::stream`]).
    pub(crate) fn finish_topology(&self, topo: Arc<Topology>) {
        // Pull allocations stay device-resident so an unchanged
        // resubmission can elide its H2D copies; they are freed when the
        // frozen snapshot drops (graph mutation or teardown). Give the
        // pools' magazine caches back to the buddy allocator instead, so
        // parked blocks can coalesce between runs.
        for dev in self.gpu.devices() {
            dev.trim_pool();
        }

        // Release the registry slot: every token of this topology has
        // been consumed (the pass fully drained), so none can resolve
        // this slot anymore.
        let slot = topo.slot.swap(u32::MAX, Ordering::AcqRel);
        if slot != u32::MAX {
            self.registry.deregister(slot);
        }

        if topo.ctx.epoch.is_some() {
            let result = topo.result();
            self.emit_run(&topo, LifecyclePhase::EpochEnd, result.is_ok(), result.as_ref().err());
        }
        let hook = topo.ctx.on_finish.lock().take();
        if let Some(hook) = hook {
            hook(&topo);
        }
    }

    /// Drops one in-flight count, waking `wait_for_all` at quiescence.
    pub(crate) fn drop_inflight(&self) {
        if self.num_topologies.fetch_sub(1, Ordering::SeqCst) == 1 {
            let _g = self.idle_lock.lock();
            self.idle_cv.notify_all();
        }
    }
}
