//! The epoch driver — the one way a graph gets executed — and its two
//! clients: `run`/`run_n`/`run_until` and the streaming [`Session`].
//!
//! In the paper a submission is one thing: `run`, `run_n` and
//! `run_until` each put one topology on the graph's topology list and
//! return a future (§III-B/C). Here that one thing is an
//! [`EpochDriver`]: it claims the graph (or queues behind its owner),
//! brackets the run with `RunStart`/`RunEnd`, carries placement and
//! fusion from epoch to epoch, holds the executor's in-flight count, and
//! turns every queued epoch into one [`Topology`] — one pass over the
//! frozen graph. What differs between clients travels with each queued
//! epoch as data: a cancel flag and lifecycle tag, an optional input
//! mutator, a continuation. DESIGN.md "Runs and epochs" has the ordering
//! rules the driver keeps, and why.
//!
//! `depth`, the number of epochs that may be in flight, decides the rest.
//! At **depth 1** (`run*`) epochs never overlap, so an epoch is a plain
//! pass: the cached plan, and pull residency on the frozen graph
//! itself, where it carries across runs and re-freezes. At **depth ≥ 2**
//! epochs *pipeline*: epoch N+1's *prologue* (host tasks and H2D
//! transfers) starts once epoch N's has drained, under epoch N's kernels;
//! its *body* (kernels, pushes, and their descendants) waits behind a
//! gate until epoch N completes, so results are those of sequential
//! execution; and pull residency is a ring (epoch `e` owns slot
//! `e % depth`), so its H2D chunks never clobber data epoch N still uses.
//!
//! ## Failure containment
//!
//! A failed or cancelled round ends a `run*` call. A failed or cancelled
//! session epoch resolves *alone*: its [`EpochFuture`] reports the
//! error, the stream keeps serving, and — after a device loss — later
//! epochs are re-placed against the surviving devices. A mid-epoch
//! device failover replays within the epoch unless a later epoch's input
//! mutation has already been applied ([`crate::topology::InputGuard`]),
//! in which case the epoch fails rather than replay pulls against
//! superseded host data.

use crate::dispatch::PullState;
use crate::error::HfError;
use crate::executor::{ExecInner, Executor};
use crate::graph::{FrozenGraph, GraphShared, Heteroflow, TaskKind};
use crate::lifecycle::{LifecycleEvent, LifecyclePhase};
use crate::plan::Plan;
use crate::topology::{
    Completion, EpochCtx, EpochFuture, EpochGate, InputGuard, PrologueTrack, RunFuture, Topology,
};
use hf_sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use hf_sync::sync::{Condvar, Mutex};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

/// Configuration of a streaming [`Session`].
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Maximum epochs in flight at once — and the size of the pull
    /// residency ring. [`Session::submit`] blocks (backpressure) while
    /// `depth` epochs are unfinished. Depth 2 (the default) double
    /// buffers: the next epoch's H2D transfers overlap the current
    /// epoch's kernels. Depth 1 serializes epochs (still resident — the
    /// submission preamble is paid once). Clamped to at least 1.
    pub depth: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self { depth: 2 }
    }
}

// --- The epoch driver ------------------------------------------------------

/// Completion callback of a run ([`crate::Fleet`] accounting): its result
/// and the retry-policy re-dispatches it consumed (for tenant billing).
pub(crate) type DoneHook = Box<dyn FnOnce(&Result<(), HfError>, u32) + Send>;

/// What a client does with one finished epoch. Runs on whichever thread
/// finished it, before the epoch gives up its in-flight count — so a
/// continuation that enqueues the next epoch leaves `wait_for_all` no gap.
type EpochThen = Box<dyn FnOnce(&Arc<EpochDriver>, Result<(), HfError>) + Send>;

/// A client's first step, taken when its run obtains the graph's claim.
/// `Some(result)` ends the run on the spot.
type FirstStep = Box<dyn FnOnce(&Arc<EpochDriver>) -> Option<Result<(), HfError>> + Send>;

/// One queued epoch: what differs per client, as data.
struct PendingEpoch {
    /// Position within the run: admission order, watermark, ring slot.
    seq: u64,
    /// The epoch's cancel flag and lifecycle tag: a session's per-epoch
    /// completion, or the run's own (`epoch: None`, so a `run*` call
    /// emits no `EpochStart`/`EpochEnd`).
    core: Completion,
    /// Runs once at admission, before the epoch's first task.
    mutator: Option<Box<dyn FnOnce() + Send>>,
    then: EpochThen,
}

/// What overlapping epochs need on top of a plain pass: all empty at
/// depth 1, where `pump` takes the paths it has anyway for graphs without
/// gate heads or prologue nodes.
#[derive(Default)]
struct Overlap {
    /// True for body nodes (kernels, pushes, and their descendants) —
    /// the gated portion of each epoch; the rest is its prologue.
    /// `None`: nothing is gated.
    is_body: Option<Arc<Vec<bool>>>,
    /// Body nodes with no body predecessor: the gate's inflated heads.
    gate_heads: Vec<usize>,
    prologue_count: usize,
    /// Pull residency ring: epoch `e` owns `rings[e % depth]`. Empty
    /// means the frozen graph's own `PullState`s.
    rings: Vec<Arc<Vec<Mutex<PullState>>>>,
}

impl Overlap {
    fn derive(frozen: &FrozenGraph, depth: usize) -> Self {
        if depth == 1 {
            return Self::default();
        }
        let n = frozen.nodes.len();
        // Body = kernels and pushes plus everything downstream of one;
        // prologue = the rest (host tasks and pulls feeding the body).
        let mut is_body: Vec<bool> = (frozen.nodes.iter())
            .map(|nd| matches!(nd.work.kind(), TaskKind::Kernel | TaskKind::Push))
            .collect();
        let mut stack: Vec<usize> = (0..n).filter(|&i| is_body[i]).collect();
        while let Some(v) = stack.pop() {
            for &s in frozen.successors(v) {
                if !is_body[s as usize] {
                    is_body[s as usize] = true;
                    stack.push(s as usize);
                }
            }
        }
        let mut has_body_pred = vec![false; n];
        for v in (0..n).filter(|&v| is_body[v]) {
            for &s in frozen.successors(v) {
                has_body_pred[s as usize] = true;
            }
        }
        let gate_heads = (0..n)
            .filter(|&i| is_body[i] && !has_body_pred[i])
            .collect();
        let rings = (0..depth)
            .map(|_| Arc::new((0..n).map(|_| Mutex::new(PullState::default())).collect()))
            .collect();
        Self {
            prologue_count: is_body.iter().filter(|&&b| !b).count(),
            is_body: Some(Arc::new(is_body)),
            gate_heads,
            rings,
        }
    }

    /// `plan` as the run runs it: with its chains cut to the body when
    /// something is gated, since a chain from a prologue pull into a body
    /// kernel would dispatch the kernel with the pull and bypass the
    /// epoch gate. With nothing gated the plan stands.
    fn restrict(&self, plan: Arc<Plan>) -> Arc<Plan> {
        match &self.is_body {
            Some(body) => Arc::new(plan.restrict(body)),
            None => plan,
        }
    }
}

/// One run of one graph: the only owner of graph claims, emitter of
/// `RunStart`/`RunEnd`, and creator of topologies.
pub(crate) struct EpochDriver {
    inner: Arc<ExecInner>,
    shared: Arc<GraphShared>,
    frozen: Arc<FrozenGraph>,
    /// The run's own completion: its id and, for `run*`, its future.
    core: Completion,
    /// Tenant attribution (fleet submissions); stamped onto each epoch
    /// topology and the run-level lifecycle events.
    tenant: Option<Arc<str>>,
    depth: usize,
    overlap: Overlap,
    /// Input generation: bumped by each applied mutator so a device
    /// failover can detect superseded host inputs.
    input_gen: Arc<AtomicU64>,
    /// Retry-policy re-dispatches accumulated across the run's epochs,
    /// reported to `on_done` so a fleet can bill retry work.
    retries: AtomicU32,
    first_step: Mutex<Option<FirstStep>>,
    /// The run itself holds an in-flight count until it settles.
    counted: bool,
    on_done: Mutex<Option<DoneHook>>,
    /// The plan carried across epochs (failover re-placements stick),
    /// cut to the body when epochs overlap (see [`Overlap::restrict`]).
    plan: Mutex<Arc<Plan>>,
    state: Mutex<DriverState>,
    cv: Condvar,
}

#[derive(Default)]
struct DriverState {
    /// The run owns the graph's claim.
    claimed: bool,
    /// The session was closed: no further submissions.
    closed: bool,
    /// The session's close ran to the end (close is idempotent).
    run_ended: bool,
    /// Next epoch position to hand out.
    next_epoch: u64,
    /// Epochs admitted (topology started), in epoch order.
    admitted: u64,
    /// Contiguous epochs whose prologue has drained; the next epoch's
    /// input mutation must wait for this to reach `admitted`.
    prologue_done: u64,
    /// Contiguous completed-epoch watermark: epochs `0..completed_mark`
    /// have all finished. Gates open and ring slots recycle against it.
    completed_mark: u64,
    /// Finished epochs at or above the watermark.
    done_set: BTreeSet<u64>,
    /// Enqueued epochs not yet finished (backpressure counter).
    inflight: usize,
    /// Enqueued epochs not yet admitted.
    queue: VecDeque<PendingEpoch>,
    /// Admitted epochs whose body gate waits on the watermark.
    pending_gate: Vec<(u64, Arc<Topology>)>,
}

/// Queues `run` for the graph's claim (the paper's topology list,
/// §III-C); on a free graph it is the head, and the claim passes to it
/// at once.
fn claim(run: &Arc<EpochDriver>) {
    let mut rs = run.shared.run_state.lock();
    rs.queued.push_back(Arc::clone(run));
    if !std::mem::replace(&mut rs.active, true) {
        drop(rs);
        release(&run.shared);
    }
}

/// Passes the claim to the first queued run that actually starts, or to
/// nobody. Queued runs that end on the spot (cancelled while queued,
/// `stop` already true) are drained by this loop, never by re-entering
/// `release` from inside their start — a blocked run may have any number
/// of them behind it — and settle once the claim has moved past them.
fn release(shared: &GraphShared) {
    let mut ended = Vec::new();
    loop {
        let next = {
            let mut rs = shared.run_state.lock();
            match rs.queued.pop_front() {
                Some(run) => run,
                None => {
                    rs.active = false;
                    break;
                }
            }
        };
        match next.start() {
            None => break,
            Some(result) => ended.push((next, result)),
        }
    }
    for (run, result) in ended {
        run.settle(result);
    }
}

impl EpochDriver {
    /// Freezes and plans the graph and opens a run on it (`RunStart`);
    /// the caller [`claim`]s it. The executor's in-flight count is one per
    /// unfinished epoch, plus one per unsettled run that has a
    /// `first_step` — so `wait_for_all` covers queued `run*` calls but
    /// not idle open sessions.
    fn open(
        exec: &Executor,
        hf: &Heteroflow,
        depth: usize,
        core: Option<&Completion>,
        tenant: Option<Arc<str>>,
        first_step: Option<FirstStep>,
    ) -> Result<Arc<Self>, HfError> {
        let inner = &exec.inner;
        if inner.done.load(Ordering::SeqCst) {
            return Err(HfError::ExecutorShutDown);
        }
        let frozen = hf.freeze()?;
        let lost = inner.lost_devices();
        let plan = inner.planner.plan(&frozen, &lost, &[], &inner.stats)?;
        let overlap = Overlap::derive(&frozen, depth);
        let plan = overlap.restrict(plan);
        let core = core
            .cloned()
            .unwrap_or_else(|| Completion::new(inner.run_seq.fetch_add(1, Ordering::Relaxed) + 1));
        let counted = first_step.is_some();
        if counted {
            inner.num_topologies.fetch_add(1, Ordering::SeqCst);
        }
        let run = Arc::new(Self {
            counted,
            inner: Arc::clone(inner),
            shared: Arc::clone(&hf.shared),
            frozen,
            core,
            tenant,
            depth,
            overlap,
            input_gen: Arc::new(AtomicU64::new(0)),
            retries: AtomicU32::new(0),
            first_step: Mutex::new(first_step),
            on_done: Mutex::new(None),
            plan: Mutex::new(plan),
            state: Mutex::default(),
            cv: Condvar::new(),
        });
        run.emit(LifecyclePhase::RunStart, &Ok(()), None);
        Ok(run)
    }

    /// Emits a run-level lifecycle event of this run.
    fn emit(&self, phase: LifecyclePhase, result: &Result<(), HfError>, epoch: Option<u64>) {
        self.inner.emit(|| {
            LifecycleEvent::run_level(
                self.core.run_id(),
                &self.frozen.name,
                phase,
                result.is_ok(),
                result.as_ref().err().map(|e| e.to_string()),
                epoch,
                self.tenant.as_ref(),
            )
        });
    }

    /// The claim has reached this run: takes the client's first step and
    /// starts admitting. `Some(result)` when the first step ended the run
    /// on the spot: `RunEnd` is out, but the claim is still the caller's
    /// to pass on before it calls [`EpochDriver::settle`].
    fn start(self: &Arc<Self>) -> Option<Result<(), HfError>> {
        let first = self.first_step.lock().take();
        if let Some(result) = first.and_then(|step| step(self)) {
            self.emit(LifecyclePhase::RunEnd, &result, None);
            return Some(result);
        }
        self.state.lock().claimed = true;
        self.cv.notify_all();
        self.pump();
        None
    }

    /// Queues one epoch behind those already queued. Never blocks (the
    /// backpressure wait is [`Session::submit`]'s) and never admits: the
    /// driver pumps after every first step and continuation.
    fn enqueue(
        &self,
        st: &mut DriverState,
        core: Completion,
        mutator: Option<Box<dyn FnOnce() + Send>>,
        then: EpochThen,
    ) {
        self.inner.num_topologies.fetch_add(1, Ordering::SeqCst);
        st.inflight += 1;
        st.queue.push_back(PendingEpoch {
            seq: st.next_epoch,
            core,
            mutator,
            then,
        });
        st.next_epoch += 1;
    }

    /// Admits every epoch whose turn has come: the previous epoch's
    /// prologue must have drained (its host inputs are consumed — the
    /// admission point of the pipeline contract), and the epoch `depth`
    /// back must have completed (its ring slot is free; at depth 1 this
    /// alone serializes the epochs). Safe to call from any thread;
    /// admission order is epoch order.
    fn pump(self: &Arc<Self>) {
        let depth = self.depth as u64;
        let ov = &self.overlap;
        loop {
            let pending = {
                let mut st = self.state.lock();
                if !st.claimed {
                    return;
                }
                let Some(front) = st.queue.front() else {
                    return;
                };
                let e = front.seq;
                if st.prologue_done < st.admitted {
                    return;
                }
                if e >= depth && st.completed_mark < e - depth + 1 {
                    return;
                }
                let pending = st.queue.pop_front().expect("front checked");
                st.admitted = e + 1;
                pending
            };
            let plan = Arc::clone(&self.plan.lock());
            let e = pending.seq;
            // Apply the input mutation in the race-free window the
            // admission condition just established, bumping the input
            // generation so failover replay of an *earlier* epoch knows
            // its pulls are superseded.
            let admitted_gen = match pending.mutator {
                Some(m) => {
                    let g = self.input_gen.fetch_add(1, Ordering::SeqCst) + 1;
                    m();
                    g
                }
                None => self.input_gen.load(Ordering::SeqCst),
            };
            let hook_me = Arc::clone(self);
            let then = pending.then;
            let ctx = EpochCtx {
                epoch: pending.core.epoch,
                pull_override: ov.rings.get((e % depth) as usize).cloned(),
                gate: (!ov.gate_heads.is_empty()).then(|| EpochGate {
                    heads: ov.gate_heads.clone(),
                    opened: AtomicBool::new(false),
                }),
                prologue: ov
                    .is_body
                    .as_ref()
                    .filter(|_| ov.prologue_count > 0)
                    .map(|body| {
                        let me = Arc::clone(self);
                        PrologueTrack {
                            is_body: Arc::clone(body),
                            pending: AtomicUsize::new(ov.prologue_count),
                            hook: Mutex::new(Some(Box::new(move || me.on_prologue_drained(e)))),
                        }
                    }),
                on_finish: Mutex::new(Some(Box::new(move |t: &Arc<Topology>| {
                    hook_me.on_epoch_done(t, e, then)
                }))),
                input_guard: Some(InputGuard {
                    gen: Arc::clone(&self.input_gen),
                    admitted_gen,
                }),
                tenant: self.tenant.clone(),
            };
            let topo = Arc::new(Topology::new(
                Arc::clone(&self.frozen),
                self.core.run_id(),
                plan,
                Arc::clone(&pending.core.cancel),
                ctx,
                None,
            ));
            if pending.core.epoch.is_some() {
                self.emit(LifecyclePhase::EpochStart, &Ok(()), pending.core.epoch);
            }
            self.inner.registry.register(&topo);
            self.inner.start_topology(Arc::clone(&topo));
            // The gate decision is serialized under the state lock here
            // (and in `on_epoch_done`'s drain) so `open_gate` never races
            // `schedule_sources` of the same topology: sources were
            // scheduled above, and a pending gate only opens via the
            // drain, after this push.
            let open_now = {
                let mut st = self.state.lock();
                if ov.prologue_count == 0 {
                    st.prologue_done = st.prologue_done.max(e + 1);
                }
                if ov.gate_heads.is_empty() {
                    false
                } else if st.completed_mark >= e {
                    true
                } else {
                    st.pending_gate.push((e, Arc::clone(&topo)));
                    false
                }
            };
            if open_now {
                self.inner.open_gate(&topo);
            }
        }
    }

    /// Prologue-drain hook of epoch `e`: unblocks admission of epoch
    /// `e + 1` (runs on whichever worker/engine thread finished the last
    /// prologue node).
    fn on_prologue_drained(self: &Arc<Self>, e: u64) {
        {
            let mut st = self.state.lock();
            st.prologue_done = st.prologue_done.max(e + 1);
        }
        self.pump();
    }

    /// Epoch-completion hook: carries failover re-placements forward,
    /// re-places against survivors after an unrecovered device loss,
    /// advances the completion watermark, opens now-eligible gates, runs
    /// the epoch's continuation, and only then gives up the epoch's
    /// in-flight count and releases backpressure.
    fn on_epoch_done(self: &Arc<Self>, topo: &Arc<Topology>, e: u64, then: EpochThen) {
        let result = topo.result();
        let retried = topo.retries.load(Ordering::Relaxed);
        if retried > 0 {
            self.retries.fetch_add(retried, Ordering::Relaxed);
        }
        {
            let mut plan = self.plan.lock();
            let planner = &self.inner.planner;
            // After a mid-epoch failover `topo` is the replay pass and
            // carries the re-placement; adopt it for subsequent epochs,
            // re-fused and cut to the body (the replay's own chains are
            // cut to the replayed nodes and are not carried).
            if !Arc::ptr_eq(&topo.plan, &plan) {
                let placement = topo.plan.placement().clone();
                let fused = Arc::new(planner.fuse(&self.frozen, placement));
                *plan = self.overlap.restrict(fused);
            }
            // An epoch that *failed* on a device loss (failover budget
            // spent, or superseded inputs) never re-placed; re-place the
            // run against the survivors (surviving groups stay put, so
            // residency stays warm) so later epochs don't cascade-fail
            // onto dead hardware. With no device left the old plan stays:
            // further epochs fail individually, the honest outcome.
            let failed_on_loss = result
                .as_ref()
                .is_err_and(|e| matches!(e.gpu_cause(), Some(hf_gpu::GpuError::DeviceLost(_))));
            if failed_on_loss {
                let lost = self.inner.lost_devices();
                let prev = &plan.placement().device_of;
                if let Ok(p) = planner.plan(&self.frozen, &lost, prev, &self.inner.stats) {
                    *plan = self.overlap.restrict(p);
                }
            }
        }
        let mut to_open: Vec<Arc<Topology>> = Vec::new();
        {
            let mut st = self.state.lock();
            st.done_set.insert(e);
            let mut mark = st.completed_mark;
            while st.done_set.remove(&mark) {
                mark += 1;
            }
            st.completed_mark = mark;
            // A cancelled-at-admission epoch never ran a prologue node;
            // completing it must still unblock the next admission.
            st.prologue_done = st.prologue_done.max(e + 1);
            st.inflight -= 1;
            st.pending_gate.retain(|(k, t)| {
                let open = *k <= mark;
                if open {
                    to_open.push(Arc::clone(t));
                }
                !open
            });
        }
        if matches!(result, Err(HfError::Cancelled)) {
            self.inner.stats.cancelled.incr();
        }
        for t in &to_open {
            self.inner.open_gate(t);
        }
        then(self, result);
        self.inner.drop_inflight();
        self.cv.notify_all();
        self.pump();
    }

    /// Ends a started run: `RunEnd` (its last lifecycle event), then the
    /// claim moves on, then it settles. The claim goes *first*: a waiter
    /// is free to mutate and resubmit the graph the instant `wait`
    /// returns, and a still-held claim would make its re-freeze fail
    /// with [`HfError::GraphBusy`].
    fn end(&self, result: Result<(), HfError>) {
        self.emit(LifecyclePhase::RunEnd, &result, None);
        release(&self.shared);
        self.settle(result);
    }

    /// Settles an ended run whose claim has moved on. The done-hook (the
    /// fleet's slot release) runs *before* the promise: a submitter woken
    /// by the completion then finds the in-flight slot already freed
    /// instead of contending with this thread for the fleet state lock.
    /// The run's in-flight count goes last, so `wait_for_all` never
    /// returns with the future unresolved.
    fn settle(&self, result: Result<(), HfError>) {
        let done_hook = self.on_done.lock().take();
        if let Some(cb) = done_hook {
            cb(&result, self.retries.load(Ordering::Relaxed));
        }
        self.core.promise.complete(result);
        if self.counted {
            self.inner.drop_inflight();
        }
    }
}

// --- Client: run / run_n / run_until ---------------------------------------

/// The `run_until` predicate of `run_n`: stops after `n` rounds.
pub(crate) fn stop_after(mut n: usize) -> impl FnMut() -> bool + Send + 'static {
    move || {
        let stop = n == 0;
        n = n.saturating_sub(1);
        stop
    }
}

/// `run_until`, and through it `run`/`run_n` and [`crate::Fleet`]
/// dispatch (which passes its pre-allocated `core`, its `tenant` and its
/// accounting hook): a depth-1 run that enqueues one epoch per round.
/// Non-blocking. A submission rejected before it became a run (executor
/// shut down, plan rejected) still fires `on_done` and settles `core`,
/// so fleet bookkeeping never leaks an in-flight slot.
pub(crate) fn run_until(
    exec: &Executor,
    hf: &Heteroflow,
    stop: Box<dyn FnMut() -> bool + Send>,
    core: Option<Completion>,
    tenant: Option<Arc<str>>,
    on_done: Option<DoneHook>,
) -> RunFuture {
    let first: FirstStep = Box::new(move |run| next_round(run, stop, Ok(())));
    match EpochDriver::open(exec, hf, 1, core.as_ref(), tenant, Some(first)) {
        Ok(run) => {
            *run.on_done.lock() = on_done;
            claim(&run);
            run.core.clone()
        }
        Err(e) => {
            let result = Err(e);
            if let Some(cb) = on_done {
                cb(&result, 0);
            }
            let core = core.unwrap_or_else(|| Completion::new(0));
            core.promise.complete(result);
            core
        }
    }
}

/// The one decision of a `run_until` call, taken when the run obtains
/// the graph and again after every round: `Some(result)` when the run is
/// over, `None` once another round is enqueued — from inside the finished
/// round's continuation, hence before that round's in-flight count drops.
fn next_round(
    run: &Arc<EpochDriver>,
    mut stop: Box<dyn FnMut() -> bool + Send>,
    prev: Result<(), HfError>,
) -> Option<Result<(), HfError>> {
    if prev.is_err() {
        return Some(prev);
    }
    if run.core.cancel_requested() {
        run.inner.stats.cancelled.incr();
        return Some(Err(HfError::Cancelled));
    }
    if stop() || run.frozen.nodes.is_empty() {
        return Some(Ok(()));
    }
    let then: EpochThen = Box::new(move |run, result| {
        if let Some(result) = next_round(run, stop, result) {
            run.end(result);
        }
    });
    run.enqueue(&mut run.state.lock(), run.core.clone(), None, then);
    None
}

// --- Client: the streaming session -----------------------------------------

/// A resident streaming session on one graph, returned by
/// [`crate::Executor::run_stream`].
///
/// The session keeps one run open on the graph: the frozen snapshot,
/// placement, fusion plan, and (at depth ≥ 2) a `depth`-deep ring of
/// device-residency slots for the graph's pull tasks stay resident.
/// [`Session::submit`] enqueues one epoch (one pass over the graph) and
/// returns an [`EpochFuture`]; epochs pipeline as described in the
/// `stream` module docs. Dropping (or [`Session::close`]-ing) the session
/// drains in-flight epochs and releases the graph for other submissions;
/// while the session is open, `run`/`run_n` calls on the same graph
/// queue behind it.
pub struct Session {
    run: Arc<EpochDriver>,
}

impl Session {
    pub(crate) fn open(
        exec: &Executor,
        hf: &Heteroflow,
        cfg: StreamConfig,
    ) -> Result<Self, HfError> {
        let run = EpochDriver::open(exec, hf, cfg.depth.max(1), None, None, None)?;
        // Submissions accepted while queued for the claim park in the queue.
        claim(&run);
        Ok(Session { run })
    }

    /// Enqueues the next epoch over the graph's *current* host inputs
    /// and returns its future immediately — unless `depth` epochs are
    /// already in flight, in which case this blocks until one finishes
    /// (backpressure). The epoch reads whatever the host sources hold
    /// when its transfers run; to mutate inputs between epochs race-free,
    /// use [`Session::submit_with`].
    pub fn submit(&self) -> EpochFuture {
        self.submit_inner(None)
    }

    /// [`Session::submit`] with an input mutator: `mutate` runs exactly
    /// once, after the *previous* epoch's host tasks and H2D transfers
    /// have drained and before this epoch's begin — the race-free window
    /// for writing the next round's inputs into the graph's host
    /// sources. The pipeline keeps flowing: the previous epoch's kernels
    /// and pushes are still executing when `mutate` runs (at depth 1,
    /// where epochs do not overlap, the previous epoch has completed).
    pub fn submit_with<F>(&self, mutate: F) -> EpochFuture
    where
        F: FnOnce() + Send + 'static,
    {
        self.submit_inner(Some(Box::new(mutate)))
    }

    /// Waits out backpressure, then enqueues an epoch whose continuation
    /// settles its own future (a failed epoch settles alone).
    fn submit_inner(&self, mutator: Option<Box<dyn FnOnce() + Send>>) -> EpochFuture {
        let run = &self.run;
        if run.inner.done.load(Ordering::SeqCst) {
            return EpochFuture::ready(Err(HfError::ExecutorShutDown));
        }
        let core = {
            let mut st = run.state.lock();
            loop {
                if st.closed {
                    return EpochFuture::ready(Err(HfError::StreamClosed));
                }
                if st.inflight < run.depth {
                    break;
                }
                st = run.cv.wait(st);
            }
            let core = Completion {
                epoch: Some(st.next_epoch),
                ..Completion::new(run.core.run_id())
            };
            let promise = Arc::clone(&core.promise);
            let settle: EpochThen = Box::new(move |_, result| promise.complete(result));
            run.enqueue(&mut st, core.clone(), mutator, settle);
            core
        };
        run.pump();
        core
    }

    /// Drains in-flight epochs, emits the stream's `RunEnd`, and
    /// releases the graph for other submissions. Idempotent; also called
    /// by `Drop`. Blocks until the stream is quiescent.
    pub fn close(&self) {
        let run = &self.run;
        {
            let mut st = run.state.lock();
            if st.run_ended {
                return;
            }
            st.closed = true;
            run.cv.notify_all();
            // Wait for the claim (a session queued behind another run is
            // started by that run's release) and for unfinished epochs;
            // `pump` keeps admitting queued ones after close.
            while !(st.claimed && st.inflight == 0) {
                st = run.cv.wait(st);
            }
            st.run_ended = true;
        }
        run.end(Ok(()));
    }

    /// Process-unique run id shared by every epoch of this stream (and
    /// stamped on its lifecycle events).
    pub fn run_id(&self) -> u64 {
        self.run.core.run_id()
    }

    /// The in-flight depth (residency ring size) this session runs at.
    pub fn depth(&self) -> usize {
        self.run.depth
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.run.state.lock();
        f.debug_struct("Session")
            .field("run_id", &self.run_id())
            .field("depth", &self.run.depth)
            .field("submitted", &st.next_epoch)
            .field("completed", &st.completed_mark)
            .field("inflight", &st.inflight)
            .field("closed", &st.closed)
            .finish()
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.close();
    }
}
