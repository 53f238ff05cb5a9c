//! Topologies: per-submission execution state, and the future returned to
//! callers.
//!
//! "When a graph is submitted to an executor, a special data structure
//! called *topology* is created to marshal execution parameters and
//! runtime metadata ... The communication is based on a shared state
//! managed by a pair of C++ promise and future objects" (§III-C).
//!
//! Beyond the paper's promise/future pair, the topology carries the
//! fault-tolerance state of one submission: per-node attempt counters for
//! the retry policy, per-node `round_ok` flags that let device failover
//! replay exactly the invalidated part of a round, and the cooperative
//! cancellation flag shared with every clone of the [`RunFuture`].
//!
//! ## The epoch model
//!
//! One topology is exactly **one pass** over the frozen graph, under
//! plans fixed when it was built. The epoch driver in [`crate::stream`]
//! creates one per epoch of a `run*` call or a [`crate::Session`]; a
//! device failover continues the epoch on a second one
//! ([`Topology::replay`]). Whichever pass resolves the epoch hands the
//! result back through the [`EpochCtx::on_finish`] hook. All wait/cancel
//! state lives in the shared [`Completion`] core; [`RunFuture`] and
//! [`crate::EpochFuture`] are names for it.

use crate::error::HfError;
use crate::graph::{FrozenGraph, PullState};
use crate::placement::Placement;
use hf_sync::CachePadded;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Poll, Waker};
use std::time::{Duration, Instant};

/// Shared promise state of one run or epoch (the C++ promise half).
pub(crate) struct Promise {
    state: Mutex<PromiseState>,
    cv: Condvar,
}

#[derive(Default)]
struct PromiseState {
    result: Option<Result<(), HfError>>,
    wakers: Vec<Waker>,
}

impl Promise {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(PromiseState::default()),
            cv: Condvar::new(),
        })
    }

    pub(crate) fn complete(&self, result: Result<(), HfError>) {
        let mut st = self.state.lock();
        if st.result.is_some() {
            return;
        }
        st.result = Some(result);
        let wakers = std::mem::take(&mut st.wakers);
        self.cv.notify_all();
        drop(st);
        for w in wakers {
            w.wake();
        }
    }

    fn wait(&self) -> Result<(), HfError> {
        let mut st = self.state.lock();
        while st.result.is_none() {
            self.cv.wait(&mut st);
        }
        st.result.clone().expect("checked above")
    }

    fn wait_timeout(&self, timeout: Duration) -> Option<Result<(), HfError>> {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock();
        loop {
            if let Some(r) = &st.result {
                return Some(r.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            self.cv.wait_for(&mut st, deadline - now);
        }
    }

    fn is_done(&self) -> bool {
        self.state.lock().result.is_some()
    }

    fn poll(&self, cx: &mut std::task::Context<'_>) -> Poll<Result<(), HfError>> {
        let mut st = self.state.lock();
        if let Some(r) = &st.result {
            Poll::Ready(r.clone())
        } else {
            if !st.wakers.iter().any(|w| w.will_wake(cx.waker())) {
                st.wakers.push(cx.waker().clone());
            }
            Poll::Pending
        }
    }
}

/// The one future type: what every run and every streaming epoch hands
/// back ([`RunFuture`] and [`crate::EpochFuture`] are aliases).
///
/// One promise, one cooperative cancellation flag, the submission's
/// process-unique `run_id`, and — for streaming epochs — the epoch index.
/// Supports blocking ([`Completion::wait`]), deadline-bounded
/// ([`Completion::wait_timeout`]) and async (`.await`) consumption.
/// Clones share the same run, so a monitor thread (watchdog, deadline
/// enforcer) holding one observes and cancels exactly what the owner
/// waits on.
#[derive(Clone)]
pub struct Completion {
    pub(crate) promise: Arc<Promise>,
    /// Cooperative cancellation flag, shared with the topology: checked
    /// at task boundaries, epoch boundaries, and inside pending GPU
    /// stream operations.
    pub(crate) cancel: Arc<AtomicBool>,
    pub(crate) run_id: u64,
    pub(crate) epoch: Option<u64>,
}

impl Completion {
    /// A fresh, incomplete core for one run.
    pub(crate) fn new(run_id: u64) -> Self {
        Self {
            promise: Promise::new(),
            cancel: Arc::new(AtomicBool::new(false)),
            run_id,
            epoch: None,
        }
    }

    /// A fresh, incomplete core for one streaming epoch.
    pub(crate) fn new_epoch(run_id: u64, epoch: u64) -> Self {
        Self { epoch: Some(epoch), ..Self::new(run_id) }
    }

    /// An already-completed core (empty graphs, rejected submissions).
    /// Carries run id `0`: such futures never execute and never emit
    /// lifecycle events.
    pub(crate) fn ready(result: Result<(), HfError>) -> Self {
        let c = Self::new(0);
        c.promise.complete(result);
        c
    }

    /// Blocks until the run/epoch finishes; returns its result.
    pub fn wait(&self) -> Result<(), HfError> {
        self.promise.wait()
    }

    /// Blocks for at most `timeout`. Returns `None` when the deadline
    /// expired with the work still in flight (it keeps going — call
    /// `wait*` again or [`Completion::cancel`]), otherwise the result.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<(), HfError>> {
        self.promise.wait_timeout(timeout)
    }

    /// Requests cooperative cancellation. Non-blocking: in-flight task
    /// bodies finish, everything not yet started is skipped (including
    /// ops already enqueued on GPU streams), and the run/epoch completes
    /// with [`HfError::Cancelled`]. Cancelling finished work is a no-op.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Release);
    }

    /// True once cancellation has been requested.
    pub fn cancel_requested(&self) -> bool {
        self.cancel.load(Ordering::Acquire)
    }

    /// True once the run/epoch has finished (success or error).
    pub fn is_done(&self) -> bool {
        self.promise.is_done()
    }

    /// Process-unique id of the owning submission. Lifecycle events
    /// recorded by a flight recorder carry the same id (`0` for
    /// immediately-ready futures, which never emit events). Every epoch
    /// of one stream shares the stream's run id.
    pub fn run_id(&self) -> u64 {
        self.run_id
    }

    /// The epoch index within a stream, `None` for one-shot runs.
    pub fn epoch(&self) -> Option<u64> {
        self.epoch
    }
}

impl std::fmt::Debug for Completion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Completion")
            .field("run_id", &self.run_id)
            .field("epoch", &self.epoch)
            .field("done", &self.is_done())
            .field("cancel_requested", &self.cancel.load(Ordering::Relaxed))
            .finish()
    }
}

impl std::future::Future for Completion {
    type Output = Result<(), HfError>;

    fn poll(
        self: std::pin::Pin<&mut Self>,
        cx: &mut std::task::Context<'_>,
    ) -> Poll<Self::Output> {
        self.promise.poll(cx)
    }
}

/// Future returned by [`crate::Executor::run`] and friends. All run
/// methods are non-blocking: "issuing a run on a graph returns immediately
/// with a C++ future object" (§III-B). Clones share the same run.
pub type RunFuture = Completion;

/// Future of one streaming epoch, returned by [`crate::Session::submit`]:
/// [`Completion::epoch`] is its index, and cancelling it skips this epoch
/// only — later epochs of the stream are unaffected.
pub type EpochFuture = Completion;

/// Admission gate of one streaming epoch: the epoch's *body* (kernels,
/// pushes, and their descendants) stays parked — via join-counter
/// inflation on the gate heads — until the previous epoch of the stream
/// completes. The *prologue* (host tasks and pulls) runs immediately, so
/// epoch N+1's H2D transfers overlap epoch N's kernels.
pub(crate) struct EpochGate {
    /// Body nodes with no body predecessor (the inflated entry points).
    pub(crate) heads: Vec<usize>,
    /// Set once the gate opened; opening is idempotent.
    pub(crate) opened: AtomicBool,
}

/// Tracks the prologue (non-body) portion of a streaming epoch so the
/// session can admit the next epoch — and apply its input mutation — as
/// soon as every host task and pull of this epoch has drained.
pub(crate) struct PrologueTrack {
    /// False for prologue members (host tasks / pulls not downstream of
    /// a kernel or push).
    pub(crate) is_body: Arc<Vec<bool>>,
    /// Prologue nodes not yet finished this pass.
    pub(crate) pending: AtomicUsize,
    /// Fired exactly once when `pending` reaches zero.
    pub(crate) hook: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

/// Guards failover replay against superseded host inputs: once the
/// session has admitted a later epoch (and run its input mutator), this
/// epoch's pulls must not be replayed — they would read the *next*
/// epoch's data. `gen` is the session's input generation counter;
/// `admitted_gen` its value when this epoch was admitted.
#[derive(Clone)]
pub(crate) struct InputGuard {
    pub(crate) gen: Arc<AtomicU64>,
    pub(crate) admitted_gen: u64,
}

/// Hook invoked once by `finish_topology` after an epoch resolves; the
/// epoch driver advances the run here.
pub(crate) type EpochFinishHook = Box<dyn FnOnce(&Arc<Topology>) + Send>;

/// What the epoch driver gives a pass beyond the graph and its plans.
/// Epochs that never overlap (depth 1) carry no gate, prologue tracking,
/// or ring-slot residency.
pub(crate) struct EpochCtx {
    /// Epoch index within a stream; `None` for `run*` epochs.
    pub(crate) epoch: Option<u64>,
    /// Ring-slot pull residency replacing the frozen graph's own
    /// `PullState`s (double buffering across in-flight epochs).
    pub(crate) pull_override: Option<Arc<Vec<Mutex<PullState>>>>,
    /// Body admission gate (streaming pipelining).
    pub(crate) gate: Option<EpochGate>,
    /// Prologue drain tracking (streaming admission).
    pub(crate) prologue: Option<PrologueTrack>,
    /// Invoked (once) by `finish_topology` after the epoch resolved, on
    /// the pass that resolved it: a failover replay takes it along.
    pub(crate) on_finish: Mutex<Option<EpochFinishHook>>,
    /// Failover input-hazard guard (streaming).
    pub(crate) input_guard: Option<InputGuard>,
    /// Tenant the submission is attributed to ([`crate::Fleet`]
    /// submissions); stamped onto every lifecycle event of the epoch.
    pub(crate) tenant: Option<Arc<str>>,
}

/// Runtime state of one pass over the frozen graph: join counters, the
/// plans it runs under, fault bookkeeping. Nothing here is rewritten
/// while the pass runs — the epoch driver creates one per epoch, and a
/// device failover continues the epoch on a fresh one
/// ([`Topology::replay`]).
pub(crate) struct Topology {
    pub(crate) frozen: Arc<FrozenGraph>,
    /// Process-unique submission id (shared with the [`RunFuture`] /
    /// [`crate::Session`] and every lifecycle event of this run).
    pub(crate) run_id: u64,
    /// Graph name as a shared string, cloned into lifecycle events
    /// without reallocating.
    pub(crate) graph_label: Arc<str>,
    /// Device placement of this pass: the graph's cached plan, or a
    /// failover's re-placement.
    pub(crate) placement: Arc<Placement>,
    /// Task fusion plan (§III-C "task fusing") for `placement`; a replay's
    /// is masked to the replayed nodes.
    pub(crate) fusion: Arc<FusionPlan>,
    /// Remaining unmet dependencies per node. The heads of an epoch gate
    /// start one higher: the extra dependency is consumed by `open_gate`
    /// when the previous epoch of the stream completes.
    pub(crate) join: Vec<AtomicUsize>,
    /// Nodes not yet finished this pass. The only field every finished
    /// task writes, so it gets a line of its own: the fields around it
    /// (`join`, `fusion`, `placement`, `frozen`) are read by every worker
    /// on every task, and sharing a line with it cost two workers ~30 %
    /// per task on the host wavefront.
    pub(crate) pending: CachePadded<AtomicUsize>,
    /// First error observed during execution.
    pub(crate) error: Mutex<Option<HfError>>,
    /// Set once an error occurs: remaining task bodies are skipped while
    /// the pass drains.
    pub(crate) cancelled: AtomicBool,
    /// Cooperative cancellation requested via [`Completion::cancel`];
    /// shared with the owning future's core.
    pub(crate) cancel: Arc<AtomicBool>,
    /// Failed attempts per node (retry-policy bookkeeping).
    pub(crate) attempts: Vec<AtomicU32>,
    /// Whether each node completed successfully, in this pass or (a
    /// replay) an earlier one: a failover replays exactly the rest.
    pub(crate) round_ok: Vec<AtomicBool>,
    /// A device loss requested failover; handled when the pass drains.
    /// Holds the triggering error so a failed failover reports it.
    pub(crate) failover: Mutex<Option<HfError>>,
    /// Fast-path mirror of `failover.is_some()`: workers skip task bodies
    /// while a failover is pending so half-failed state never propagates.
    pub(crate) failover_pending: AtomicBool,
    /// Failovers performed for this submission (bounded by the policy).
    pub(crate) failovers: AtomicU32,
    /// Slot in the executor's topology registry while this topology is in
    /// flight; `u32::MAX` before registration and again from just before
    /// the slot is released. Work tokens pack this slot with a node index,
    /// so queued items carry no heap pointer.
    pub(crate) slot: AtomicU32,
    /// Retry-policy re-dispatches performed within this epoch. The epoch
    /// driver accumulates it across a run's epochs so a fleet can charge
    /// the retry work to the owning tenant's budget.
    pub(crate) retries: AtomicU32,
    pub(crate) ctx: EpochCtx,
}

impl Topology {
    /// The pass of a fresh epoch: every node runs.
    pub(crate) fn new(
        frozen: Arc<FrozenGraph>,
        graph_label: Arc<str>,
        run_id: u64,
        placement: Arc<Placement>,
        fusion: Arc<FusionPlan>,
        cancel: Arc<AtomicBool>,
        ctx: EpochCtx,
    ) -> Arc<Self> {
        Arc::new(Self::pass(frozen, graph_label, run_id, placement, fusion, cancel, ctx, None))
    }

    /// The pass that continues `old`'s epoch after a device failover: the
    /// nodes not in `done`, under the re-placed plans. It is the same
    /// submission — run id, epoch, cancel flag, residency ring, input
    /// guard, tenant, and the failover and retry counts so far — and takes
    /// `old`'s finish hook with it. It has no gate and no prologue track:
    /// `old` drained, so its gate had opened and its prologue hook fired.
    pub(crate) fn replay(
        old: &Topology,
        placement: Placement,
        fusion: FusionPlan,
        done: &[bool],
    ) -> Arc<Self> {
        let ctx = EpochCtx {
            epoch: old.ctx.epoch,
            pull_override: old.ctx.pull_override.clone(),
            gate: None,
            prologue: None,
            on_finish: Mutex::new(old.ctx.on_finish.lock().take()),
            input_guard: old.ctx.input_guard.clone(),
            tenant: old.ctx.tenant.clone(),
        };
        Arc::new(Self {
            failovers: AtomicU32::new(old.failovers.load(Ordering::Relaxed)),
            retries: AtomicU32::new(old.retries.load(Ordering::Relaxed)),
            ..Self::pass(
                Arc::clone(&old.frozen),
                Arc::clone(&old.graph_label),
                old.run_id,
                Arc::new(placement),
                Arc::new(fusion),
                Arc::clone(&old.cancel),
                ctx,
                Some(done),
            )
        })
    }

    /// The one constructor. With `done` given, those nodes are finished
    /// already: they are not pending, never become ready, and no longer
    /// hold their successors back.
    #[allow(clippy::too_many_arguments)]
    fn pass(
        frozen: Arc<FrozenGraph>,
        graph_label: Arc<str>,
        run_id: u64,
        placement: Arc<Placement>,
        fusion: Arc<FusionPlan>,
        cancel: Arc<AtomicBool>,
        ctx: EpochCtx,
        done: Option<&[bool]>,
    ) -> Self {
        let n = frozen.nodes.len();
        let mut join: Vec<AtomicUsize> = frozen
            .nodes
            .iter()
            .map(|nd| AtomicUsize::new(nd.num_deps as usize))
            .collect();
        if let Some(g) = &ctx.gate {
            for &h in &g.heads {
                *join[h].get_mut() += 1;
            }
        }
        let is_done = |i: usize| done.is_some_and(|d| d[i]);
        let finished: Vec<usize> = (0..n).filter(|&u| is_done(u)).collect();
        for &u in &finished {
            for &s in frozen.succ(u) {
                *join[s as usize].get_mut() -= 1;
            }
        }
        for &u in &finished {
            *join[u].get_mut() = usize::MAX;
        }
        Self {
            frozen,
            run_id,
            graph_label,
            placement,
            fusion,
            join,
            pending: CachePadded::new(AtomicUsize::new(n - finished.len())),
            error: Mutex::new(None),
            cancelled: AtomicBool::new(false),
            cancel,
            attempts: (0..n).map(|_| AtomicU32::new(0)).collect(),
            round_ok: (0..n).map(|i| AtomicBool::new(is_done(i))).collect(),
            failover: Mutex::new(None),
            failover_pending: AtomicBool::new(false),
            failovers: AtomicU32::new(0),
            slot: AtomicU32::new(u32::MAX),
            retries: AtomicU32::new(0),
            ctx,
        }
    }

    /// The pull residency of `node` for this epoch: the ring slot when
    /// streaming double buffering is active, otherwise the frozen node's
    /// own persistent `PullState` (epochs that never overlap, where
    /// residency carries across epochs, runs and re-freezes).
    pub(crate) fn pull_state(&self, node: usize) -> &Mutex<PullState> {
        match &self.ctx.pull_override {
            Some(ring) => &ring[node],
            None => &self.frozen.gpu(node).expect("only GPU nodes have pull state").pull_state,
        }
    }

    /// True once the caller requested cancellation.
    pub(crate) fn cancel_requested(&self) -> bool {
        self.cancel.load(Ordering::Acquire)
    }

    /// Records a device-loss failover request; the first cause wins.
    pub(crate) fn request_failover(&self, cause: HfError) {
        let mut f = self.failover.lock();
        if f.is_none() {
            *f = Some(cause);
        }
        self.failover_pending.store(true, Ordering::Release);
    }

    /// Records the first error and cancels remaining bodies.
    pub(crate) fn fail(&self, e: HfError) {
        let mut slot = self.error.lock();
        if slot.is_none() {
            *slot = Some(e);
        }
        self.cancelled.store(true, Ordering::Release);
    }

    /// The final result for the completion promise.
    pub(crate) fn result(&self) -> Result<(), HfError> {
        match self.error.lock().clone() {
            Some(e) => Err(e),
            None if self.cancel_requested() => Err(HfError::Cancelled),
            None => Ok(()),
        }
    }
}

/// Precomputed GPU task-fusion chains (§III-C "task fusing"). Pure
/// function of (frozen graph, placement, fusion flag), so the executor
/// caches it alongside the placement and reuses it across submissions of
/// an unchanged graph.
pub(crate) struct FusionPlan {
    /// `next[v]` chains v to a GPU successor dispatched on the same
    /// stream submission; members of a chain (non-heads) are never
    /// scheduled individually.
    pub(crate) next: Vec<Option<u32>>,
    /// True for chain members (every node with a fused predecessor).
    pub(crate) member: Vec<bool>,
}

impl FusionPlan {
    /// `head`, then every member fused behind it, in dispatch order.
    pub(crate) fn chain(&self, head: usize) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(Some(head), |&n| self.next[n].map(|m| m as usize))
    }

    /// Identifies fusible GPU chains: node `v` fuses to its successor `w`
    /// when `v` is a GPU task, `w` is a *kernel or push* task whose only
    /// dependency is `v`, and both are placed on the same device. Pull
    /// tasks are never fused as members (their device allocation sizes
    /// bind at dispatch time and must observe their host-side
    /// predecessors).
    ///
    /// `active` restricts the plan to a subset of the nodes — the
    /// failover replay plan, and the streaming body plan (a chain must
    /// never lead from a prologue pull into a gated body kernel, or the
    /// member would bypass the epoch gate). A chain must not lead from an
    /// already-finished head into a replayed member (the head would never
    /// be dispatched again), so both endpoints must be active.
    pub(crate) fn compute(
        frozen: &FrozenGraph,
        placement: &crate::placement::Placement,
        enabled: bool,
        active: Option<&[bool]>,
    ) -> Self {
        use crate::graph::TaskKind;
        let n = frozen.nodes.len();
        let mut next = vec![None; n];
        let mut member = vec![false; n];
        if !enabled {
            return Self { next, member };
        }
        let is_active = |i: usize| active.is_none_or(|a| a[i]);
        #[allow(clippy::needless_range_loop)] // v indexes three parallel arrays
        for v in 0..n {
            if !is_active(v) {
                continue;
            }
            let vk = frozen.nodes[v].work.kind();
            let v_gpu = matches!(vk, TaskKind::Pull | TaskKind::Push | TaskKind::Kernel);
            let &[w] = frozen.succ(v) else { continue };
            let w = w as usize;
            if !v_gpu {
                continue;
            }
            let wk = frozen.nodes[w].work.kind();
            let w_fusible = matches!(wk, TaskKind::Push | TaskKind::Kernel);
            if w_fusible
                && is_active(w)
                && frozen.nodes[w].num_deps == 1
                && placement.device_of[v] == placement.device_of[w]
                && !member[w]
            {
                next[v] = Some(w as u32);
                member[w] = true;
            }
        }
        Self { next, member }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_future(c: &Arc<Promise>) -> RunFuture {
        Completion {
            promise: Arc::clone(c),
            cancel: Arc::new(AtomicBool::new(false)),
            run_id: 0,
            epoch: None,
        }
    }

    #[test]
    fn completion_wait_and_poll() {
        let c = Promise::new();
        let fut = test_future(&c);
        assert!(!fut.is_done());
        c.complete(Ok(()));
        assert!(fut.is_done());
        assert!(fut.wait().is_ok());
        // Second completion is ignored.
        c.complete(Err(HfError::ExecutorShutDown));
        assert!(fut.wait().is_ok());
    }

    #[test]
    fn ready_future() {
        let f = EpochFuture::ready(Err(HfError::ExecutorShutDown));
        assert!(f.is_done());
        assert_eq!(f.wait(), Err(HfError::ExecutorShutDown));
    }

    #[test]
    fn wait_timeout_expires_then_succeeds() {
        let c = Promise::new();
        let fut = test_future(&c);
        assert_eq!(fut.wait_timeout(Duration::from_millis(20)), None);
        let c2 = Arc::clone(&c);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            c2.complete(Ok(()));
        });
        assert_eq!(fut.wait_timeout(Duration::from_secs(10)), Some(Ok(())));
        // Completed future: any timeout returns immediately.
        assert_eq!(fut.wait_timeout(Duration::ZERO), Some(Ok(())));
        t.join().unwrap();
    }

    #[test]
    fn cancel_flag_is_shared_across_clones() {
        let c = Promise::new();
        let fut = test_future(&c);
        let clone = fut.clone();
        clone.cancel();
        assert!(fut.cancel.load(Ordering::Acquire));
        // A clone held elsewhere observes and controls the same core.
        let h = fut.clone();
        assert!(h.cancel_requested());
        assert!(!h.is_done());
    }

    #[test]
    fn future_is_pollable() {
        // Poll with a no-op waker through a minimal block_on.
        let c = Promise::new();
        let fut = test_future(&c);
        let c2 = Arc::clone(&c);
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            c2.complete(Ok(()));
        });
        let result = pollster_block_on(fut);
        assert!(result.is_ok());
        t.join().unwrap();
    }

    #[test]
    fn completion_core_is_awaitable_and_tagged() {
        let c = Promise::new();
        let core = Completion {
            promise: Arc::clone(&c),
            cancel: Arc::new(AtomicBool::new(false)),
            run_id: 7,
            epoch: Some(3),
        };
        assert_eq!(core.run_id(), 7);
        assert_eq!(core.epoch(), Some(3));
        let c2 = Arc::clone(&c);
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            c2.complete(Ok(()));
        });
        assert!(pollster_block_on(core).is_ok());
        t.join().unwrap();
    }

    #[test]
    fn replay_is_a_new_pass_over_the_unfinished_nodes() {
        // a → {b, c} → d, in node-index order.
        let g = crate::graph::Heteroflow::new("r");
        let [a, b, c, d] = ["a", "b", "c", "d"].map(|n| g.host(n, || {}));
        a.precede(&b).precede(&c);
        d.succeed(&b).succeed(&c);
        let frozen = g.freeze().unwrap();
        let plans = || {
            let p = Placement::from_bins(&*frozen, &[], &[], 0);
            let f = FusionPlan::compute(&frozen, &p, false, None);
            (p, f)
        };
        let (p, f) = plans();
        let cancel = Arc::new(AtomicBool::new(false));
        let ctx = EpochCtx {
            epoch: Some(4),
            pull_override: None,
            gate: Some(EpochGate { heads: vec![3], opened: AtomicBool::new(true) }),
            prologue: Some(PrologueTrack {
                is_body: Arc::new(vec![false; 4]),
                pending: AtomicUsize::new(0),
                hook: Mutex::new(None),
            }),
            on_finish: Mutex::new(Some(Box::new(|_| {}))),
            input_guard: Some(InputGuard { gen: Arc::new(AtomicU64::new(2)), admitted_gen: 2 }),
            tenant: Some(Arc::from("t")),
        };
        let old = Topology::new(
            Arc::clone(&frozen),
            Arc::from("r"),
            9,
            Arc::new(p),
            Arc::new(f),
            Arc::clone(&cancel),
            ctx,
        );
        assert_eq!(old.join[3].load(Ordering::Relaxed), 3, "two predecessors and the gate");
        old.failovers.store(1, Ordering::Relaxed);
        old.retries.store(5, Ordering::Relaxed);

        // a and b completed; c and d did not.
        let (p, f) = plans();
        let r = Topology::replay(&old, p, f, &[true, true, false, false]);
        let join: Vec<usize> = r.join.iter().map(|j| j.load(Ordering::Relaxed)).collect();
        // c waited only on a; d waits on c alone (b is done, no gate); the
        // finished nodes can never become ready.
        assert_eq!(join, [usize::MAX, usize::MAX, 0, 1]);
        assert_eq!(r.pending.load(Ordering::Relaxed), 2);
        let ok: Vec<bool> = r.round_ok.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        assert_eq!(ok, [true, true, false, false]);
        assert!(r.attempts.iter().all(|a| a.load(Ordering::Relaxed) == 0));
        assert_eq!(r.failovers.load(Ordering::Relaxed), 1);
        assert_eq!(r.retries.load(Ordering::Relaxed), 5);
        assert!(r.ctx.gate.is_none() && r.ctx.prologue.is_none());
        assert!(old.ctx.on_finish.lock().is_none(), "the hook moved");
        assert!(r.ctx.on_finish.lock().is_some());
        assert_eq!((r.run_id, r.ctx.epoch, r.ctx.tenant.as_deref()), (9, Some(4), Some("t")));
        assert_eq!(r.ctx.input_guard.as_ref().map(|g| g.admitted_gen), Some(2));
        assert!(Arc::ptr_eq(&r.cancel, &cancel));
        assert_eq!(r.slot.load(Ordering::Relaxed), u32::MAX, "not registered yet");
        assert!(!r.failover_pending.load(Ordering::Relaxed) && r.result().is_ok());
    }

    /// Minimal executor for testing `impl Future` without external deps.
    fn pollster_block_on<F: std::future::Future>(fut: F) -> F::Output {
        use std::sync::mpsc;
        use std::task::{Context, RawWaker, RawWakerVTable};
        let (tx, rx) = mpsc::channel::<()>();

        fn raw(tx: *const ()) -> RawWaker {
            RawWaker::new(tx, &VTABLE)
        }
        /// # Safety
        /// `tx` is a live `Box<mpsc::Sender<()>>` turned raw, as every
        /// data pointer paired with `VTABLE` is.
        unsafe fn clone(tx: *const ()) -> RawWaker {
            let t = &*(tx as *const mpsc::Sender<()>);
            let boxed = Box::new(t.clone());
            raw(Box::into_raw(boxed) as *const ())
        }
        /// # Safety
        /// As `clone`; consumes the box, so `tx` is not used again.
        unsafe fn wake(tx: *const ()) {
            let t = Box::from_raw(tx as *mut mpsc::Sender<()>);
            let _ = t.send(());
        }
        /// # Safety
        /// As `clone`.
        unsafe fn wake_by_ref(tx: *const ()) {
            let t = &*(tx as *const mpsc::Sender<()>);
            let _ = t.send(());
        }
        /// # Safety
        /// As `wake`.
        unsafe fn drop_waker(tx: *const ()) {
            drop(Box::from_raw(tx as *mut mpsc::Sender<()>));
        }
        static VTABLE: RawWakerVTable =
            RawWakerVTable::new(clone, wake, wake_by_ref, drop_waker);

        let boxed = Box::new(tx);
        // SAFETY: the data pointer is a boxed sender, which is what the
        // four `VTABLE` functions take it for; `Sender` is `Send + Sync`.
        let waker =
            unsafe { std::task::Waker::from_raw(raw(Box::into_raw(boxed) as *const ())) };
        let mut cx = Context::from_waker(&waker);
        let mut fut = std::pin::pin!(fut);
        loop {
            match fut.as_mut().poll(&mut cx) {
                Poll::Ready(v) => return v,
                Poll::Pending => {
                    let _ = rx.recv();
                }
            }
        }
    }
}
