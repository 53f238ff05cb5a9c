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
//!   the burst loop, batches the others into one injector (GPU heads: the
//!   device-ready one) spray, one `notify_n` wakeup (`ready::ReadyBatch`);
//! * re-running an unchanged graph reuses the cached freeze and plan
//!   (placement + fusion; see `plan.rs`).

use crate::error::HfError;
use crate::graph::Heteroflow;
use crate::lifecycle::{lifecycle_now_ns, LifecycleEvent, LifecyclePhase};
use crate::observer::ExecutorObserver;
use crate::plan::{Plan, Planner, Route};
use crate::ready::{arrive, ReadyBatch};
use crate::registry::{Token, TopoRegistry};
use crate::retry::RetryPolicy;
use crate::stats::ExecutorStats;
use crate::topology::{RunFuture, Topology};
use hf_gpu::{GpuConfig, GpuRuntime};
use hf_sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use hf_sync::sync::{Condvar, Mutex};
use hf_sync::{Injector, Notifier, StealDeque, Stealer};
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

pub(crate) struct ExecInner {
    pub(crate) stealers: Vec<Stealer<Token>>,
    /// Shared lock-free inbox for work scheduled off worker threads and
    /// for batched successor sprays.
    pub(crate) injector: Injector<Token>,
    /// Ready GPU chain heads, taken before any host work (`ReadyBatch`).
    pub(crate) device_ready: Injector<Token>,
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
    /// Makes, caches and masks this executor's plans, and owns what
    /// that reads and keeps (see [`crate::plan`]).
    pub(crate) planner: Planner,
    pub(crate) stats: ExecutorStats,
    /// When false, idle thieves always spin (never sleep) — the A4
    /// ablation baseline.
    pub(crate) adaptive_sleep: bool,
    /// Observers of the lifecycle stream (see [`ExecInner::emit`]).
    pub(crate) observers: Vec<Arc<dyn ExecutorObserver>>,
    /// Retry/failover policy applied to failing task bodies.
    pub(crate) retry: RetryPolicy,
    /// Pulls of more than this many bytes are pipelined in chunks of this
    /// size across the copy-lane streams (`usize::MAX` disables). Pushes
    /// are always one op; see [`crate::dispatch`].
    pub(crate) copy_chunk_threshold: usize,
    /// Copy-lane streams per (worker, device): pull-headed chains and chunks.
    pub(crate) copy_lanes: usize,
    /// Submission ids handed to topologies/futures and stamped onto
    /// lifecycle events (starts at 1; 0 is reserved for ready futures).
    pub(crate) run_seq: AtomicU64,
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
    /// guard (loops may still hoist [`ExecInner::lc_active`]). Only the
    /// gate is inlined: a closed gate costs the caller a load and a branch.
    #[inline]
    pub(crate) fn emit(&self, event: impl FnOnce() -> LifecycleEvent) {
        if self.lc_active() {
            self.deliver(event);
        }
    }

    /// Builds, delivers and drops an event, out of line so that no
    /// emission site carries the observer loop or the event's drop.
    #[cold]
    #[inline(never)]
    fn deliver(&self, event: impl FnOnce() -> LifecycleEvent) {
        let ev = event();
        for o in &self.observers {
            o.on_lifecycle(&ev);
        }
    }

    /// Emits a run-level lifecycle event for a topology
    /// (`Failover`/`EpochEnd`); the epoch driver emits the ones that
    /// bracket a whole run.
    pub(crate) fn emit_run(
        &self,
        topo: &Topology,
        phase: LifecyclePhase,
        ok: bool,
        detail: Option<&HfError>,
    ) {
        self.emit(|| {
            LifecycleEvent::run_level(
                topo.run_id,
                &topo.frozen.name,
                phase,
                ok,
                detail.map(|e| e.to_string()),
                topo.ctx.epoch,
                topo.ctx.tenant.as_ref(),
            )
        });
    }

    /// Emits a task-level lifecycle event, stamped now (run-level:
    /// [`LifecycleEvent::run_level`]).
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
        self.emit(move || {
            let nd = &topo.frozen.nodes[node];
            LifecycleEvent {
                run_id: topo.run_id,
                graph: Arc::clone(&topo.frozen.name),
                phase,
                task: Some(node as u32),
                name: Arc::clone(&nd.name),
                kind: Some(nd.work.kind()),
                device: topo.plan.placement().device_of[node],
                worker,
                chain,
                bytes: topo.frozen.bytes_of(node) as u64,
                ok,
                detail: detail.map(|e| Arc::from(e.to_string())),
                epoch: topo.ctx.epoch,
                tenant: topo.ctx.tenant.clone(),
                t_ns: lifecycle_now_ns(),
            }
        });
    }

    /// Which devices are lost right now: the mask a plan is made against.
    pub(crate) fn lost_devices(&self) -> Vec<bool> {
        self.gpu.devices().iter().map(|d| d.is_lost()).collect()
    }
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
    pub(crate) fn new(cpus: usize, gpus: u32) -> Self {
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
        }
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

    /// Sets how many copy-lane streams each worker opens per device; a
    /// pull-headed chain rides the first, a chunked pull all (default 2, min 1).
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
            stealers,
            injector: Injector::new(),
            device_ready: Injector::new(),
            registry: TopoRegistry::new(),
            notifier: Notifier::new(),
            done: AtomicBool::new(false),
            num_actives: AtomicUsize::new(0),
            num_thieves: AtomicUsize::new(0),
            num_topologies: AtomicUsize::new(0),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
            planner: Planner::new(&gpu, self.fusion),
            gpu,
            stats: ExecutorStats::new(cpus),
            adaptive_sleep: self.adaptive_sleep,
            observers: self.observers,
            retry: self.retry,
            copy_chunk_threshold: self.copy_chunk_threshold,
            copy_lanes: self.copy_lanes,
            run_seq: AtomicU64::new(0),
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
            threads: Mutex::new(threads),
        }
    }
}

/// The Heteroflow executor. Thread-safe: `run*` may be called from any
/// thread, concurrently (§III-B).
pub struct Executor {
    pub(crate) inner: Arc<ExecInner>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("cpus", &self.inner.stealers.len())
            .field("gpus", &self.num_gpus())
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

    /// Number of GPU devices.
    pub fn num_gpus(&self) -> u32 {
        self.inner.gpu.num_devices()
    }

    /// The underlying GPU runtime (e.g. for pool statistics in tests).
    pub fn gpu_runtime(&self) -> &Arc<GpuRuntime> {
        &self.inner.gpu
    }

    /// The executor's counters (steals, sleeps, executed tasks, bytes
    /// moved, ...) plus its *live* scheduling gauges: `inflight_tasks`
    /// (workers inside an exploit burst, each running a task body or
    /// between two) and `queue_depth` (tokens waiting in the injector plus
    /// every worker deque). The gauges are point-in-time reads of moving
    /// state — what an external health monitor needs to distinguish
    /// "busy" from "stuck". This is the one way to read the counters.
    pub fn snapshot(&self) -> crate::stats::StatsSnapshot {
        let inner = &self.inner;
        let queued = inner.injector.len()
            + inner.device_ready.len()
            + inner.stealers.iter().map(|st| st.len()).sum::<usize>();
        inner.stats.snapshot(
            inner.num_actives.load(Ordering::SeqCst) as u64,
            queued as u64,
        )
    }

    /// The table of per-task cost seeds placement reads. Exposed for
    /// inspection; [`Executor::seed_task_cost`] fills it.
    pub fn cost_db(&self) -> &crate::costmodel::CostDb {
        &self.inner.planner.cost_db
    }

    /// Tells placement how long `task` of `graph` takes (nanoseconds of
    /// modeled device time), from a measurement or a persisted profile:
    /// the next placement of that graph weighs the task with it instead
    /// of the analytic model. The last value wins; a NaN, infinite or
    /// negative one is dropped. An accepted seed retires every plan this
    /// executor has cached, so the next submission of any graph re-places.
    pub fn seed_task_cost(&self, graph: &str, task: &str, nanos: f64) {
        self.inner.planner.cost_db.seed(graph, task, nanos);
    }

    /// Current decaying modeled-load estimate per device (nanoseconds),
    /// as used to bias placement of later topologies toward idle GPUs.
    pub fn device_loads(&self) -> Vec<f64> {
        self.inner.planner.device_loads()
    }

    /// The plan the next `run` of `hf` would use: Algorithm 1's placement
    /// and the fusion chains for it, through the same cache.
    ///
    /// It counts as a submission's first plan. It records a cache hit or
    /// miss, and it applies the device-load bias. A later `run` of the
    /// unchanged graph hits the cache and runs under the same `Arc`; a
    /// [`crate::Session`] runs it with the chains that lead into its
    /// gated body cut. A failover re-places, so it runs under another.
    pub fn plan(&self, hf: &Heteroflow) -> Result<Arc<Plan>, HfError> {
        let frozen = hf.freeze()?;
        let inner = &self.inner;
        let lost = inner.lost_devices();
        inner.planner.plan(&frozen, &lost, &[], &inner.stats)
    }

    /// Runs the graph once. Non-blocking; returns a future.
    pub fn run(&self, hf: &Heteroflow) -> RunFuture {
        self.run_n(hf, 1)
    }

    /// Runs the graph `n` times (rounds execute back-to-back).
    pub fn run_n(&self, hf: &Heteroflow, n: usize) -> RunFuture {
        self.run_until(hf, crate::stream::stop_after(n))
    }

    /// Runs the graph repeatedly until `stop` returns `true` (checked
    /// before each round).
    ///
    /// The scheduling preamble (freeze, Algorithm 1 placement, fusion
    /// planning) is cached per graph: resubmitting an unchanged graph
    /// reuses the previous plan and only refreshes the decaying
    /// device-load bias. Any mutation invalidates the cache via the
    /// builder epoch, and any accepted seed via the seed generation.
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
    /// [`StreamConfig`](crate::StreamConfig) (in-flight depth 2). The returned
    /// [`crate::Session`] keeps the frozen snapshot, placement, and
    /// double-buffered device residency resident across epochs;
    /// [`crate::Session::submit`] enqueues the next epoch while prior
    /// epochs still occupy the devices, so epoch N+1's H2D transfers
    /// overlap epoch N's kernels.
    pub fn run_stream(&self, hf: &Heteroflow) -> Result<crate::stream::Session, HfError> {
        self.run_stream_with(hf, crate::stream::StreamConfig::default())
    }

    /// [`Executor::run_stream`] with an explicit [`StreamConfig`](crate::StreamConfig)
    /// (in-flight epoch depth / residency ring size).
    pub fn run_stream_with(
        &self,
        hf: &Heteroflow,
        cfg: crate::stream::StreamConfig,
    ) -> Result<crate::stream::Session, HfError> {
        crate::stream::Session::open(self, hf, cfg)
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
            g = self.inner.idle_cv.wait(g);
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
    }
}

impl ExecInner {
    /// Starts a registered topology: schedules its source nodes, or
    /// completes it at once when there is nothing to run (the epoch was
    /// cancelled while it waited for admission, or the graph is empty).
    pub(crate) fn start_topology(&self, topo: Arc<Topology>) {
        if topo.stopped() || topo.frozen.nodes.is_empty() {
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
                ready.push(id, topo.plan.route(id));
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
            let route = topo.plan.route(h);
            if arrive(&topo.join[h]) && route != Route::Fused {
                ready.push(h, route);
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
        self.registry.release(&topo);

        if topo.ctx.epoch.is_some() {
            let result = topo.result();
            self.emit_run(
                &topo,
                LifecyclePhase::EpochEnd,
                result.is_ok(),
                result.as_ref().err(),
            );
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
