//! The worker: one CPU thread's scheduling loop and task visitor.
//!
//! Each worker owns one Chase–Lev deque of the executor
//! ([`crate::executor`]) and alternates between two states (§III-C): a
//! *thief* looking for a task, and an *exploit burst* that runs the task,
//! then whatever it made ready, then its own deque until that is dry
//! (DESIGN.md "Scheduler hot path"). Host tasks run on the worker itself;
//! GPU tasks are dispatched to the worker's per-device streams and
//! complete on the device engine.

use crate::error::HfError;
use crate::executor::{ExecInner, STEAL_BATCH};
use crate::graph::{GpuNode, Work};
use crate::lifecycle::LifecyclePhase;
use crate::registry::{unpack, Token, TopoRegistry};
use crate::topology::Topology;
use crate::transfer::{self, PreparedOp};
use hf_gpu::{Device, FaultSite, KernelArgs, OpReport, ScopedDeviceContext, Stream};
use hf_sync::{Steal, StealDeque};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// What a worker lends the release path while it finishes a task (see
/// `ReadyBatch` in [`crate::ready`]): its own deque for tokens that
/// must become stealable, and the slot for the one it runs next itself.
pub(crate) struct Local<'a> {
    pub(crate) deque: &'a StealDeque<Token>,
    /// The continuation: run before the deque is looked at.
    pub(crate) next: Option<Token>,
}

/// The topology a burst is working through, resolved once: turning a
/// token's slot into the topology costs reference-count traffic on a
/// line every worker shares. Kept while the next token names
/// the same live slot, dropped with the burst: an idle worker pins nothing.
struct RunCtx {
    slot: u32,
    topo: Arc<Topology>,
}

impl RunCtx {
    fn resolve(registry: &TopoRegistry, slot: u32) -> Self {
        Self { slot, topo: registry.resolve(slot) }
    }

    /// True while this context is what a token of `slot` means: the same
    /// slot, and the topology still owns it. Slot ids are recycled, but a
    /// topology's own `slot` field is reset before its id is released, and
    /// whoever pops a token of the next owner observes that.
    fn serves(&self, slot: u32) -> bool {
        self.slot == slot && self.topo.slot.load(Ordering::Acquire) == slot
    }
}

pub(crate) struct Worker {
    id: usize,
    deque: StealDeque<Token>,
    inner: Arc<ExecInner>,
    /// Lazily created per-device streams — "each worker keeps a
    /// per-thread CUDA stream" (§III-C).
    streams: Vec<Option<Stream>>,
    /// Lazily created per-device copy-lane streams: chunked pulls
    /// round-robin their chunks across these so long copies interleave
    /// with kernels on the device engine.
    copy_streams: Vec<Vec<Stream>>,
    /// xorshift state for victim selection.
    rng: u64,
}

impl Worker {
    pub(crate) fn new(id: usize, deque: StealDeque<Token>, inner: Arc<ExecInner>) -> Self {
        let n_gpus = inner.gpu.num_devices() as usize;
        Self {
            id,
            deque,
            inner,
            streams: (0..n_gpus).map(|_| None).collect(),
            copy_streams: (0..n_gpus).map(|_| Vec::new()).collect(),
            rng: 0x9E3779B97F4A7C15 ^ (id as u64 + 1),
        }
    }

    /// xorshift64* step; takes the state alone so callers can keep
    /// `self.inner` borrowed.
    fn next_rand(rng: &mut u64) -> u64 {
        let mut x = *rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        *rng = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn stream(&mut self, device: u32) -> Stream {
        let slot = &mut self.streams[device as usize];
        if slot.is_none() {
            let dev = self
                .inner
                .gpu
                .device(device)
                .expect("placement produced a valid device id");
            *slot = Some(Stream::new(&dev));
        }
        slot.clone().expect("just created")
    }

    /// Copy-lane streams for `device`, created on first chunked pull.
    fn copy_lanes(&mut self, device: u32) -> Vec<Stream> {
        let lanes = self.inner.copy_lanes;
        let slot = &mut self.copy_streams[device as usize];
        if slot.is_empty() {
            let dev = self
                .inner
                .gpu
                .device(device)
                .expect("placement produced a valid device id");
            slot.extend((0..lanes).map(|_| Stream::new(&dev)));
        }
        slot.clone()
    }

    /// The scheduling loop, until shutdown.
    pub(crate) fn run(mut self) {
        // Explore (steal, or sleep when the system is quiet), then exploit.
        while let Some(token) = self.wait_for_task() {
            self.exploit(token);
        }
    }

    /// One exploit burst: the paper's "drains its local queue" (§III-C),
    /// written as Taskflow writes it — go active *once*, run tasks until
    /// neither the last one's continuation nor the local deque has another,
    /// go inactive. `num_actives` counts workers inside a burst, which is
    /// what "keep one thief alive while any worker is active" needs.
    fn exploit(&mut self, first: Token) {
        self.inner.num_actives.fetch_add(1, Ordering::SeqCst);
        // Ensure a thief exists while we are active.
        if self.inner.num_thieves.load(Ordering::SeqCst) == 0 {
            self.inner.notifier.notify_one();
        }
        let mut ctx = None;
        let mut next = Some(first);
        while let Some(token) = next {
            next = self.execute(token, &mut ctx).or_else(|| self.deque.pop());
        }
        drop(ctx);
        self.inner.num_actives.fetch_sub(1, Ordering::SeqCst);
    }

    /// Steal loop with the adaptive wake/sleep strategy. Returns `None`
    /// on shutdown.
    fn wait_for_task(&mut self) -> Option<Token> {
        self.inner.num_thieves.fetch_add(1, Ordering::SeqCst);
        loop {
            // Bounded stealing sweep.
            let mut backoff = hf_sync::Backoff::new();
            while !backoff.is_completed() {
                if let Some(token) = self.try_steal_once() {
                    // If this was the last thief, wake a peer so one thief
                    // remains while we turn active (paper's invariant).
                    if self.inner.num_thieves.fetch_sub(1, Ordering::SeqCst) == 1 {
                        self.inner.notifier.notify_one();
                    }
                    return Some(token);
                }
                backoff.snooze();
            }

            let inner = &*self.inner;
            if !inner.adaptive_sleep {
                // Ablation mode: spin forever (still honor shutdown).
                if inner.done.load(Ordering::Acquire) {
                    inner.num_thieves.fetch_sub(1, Ordering::SeqCst);
                    return None;
                }
                continue;
            }

            // Two-phase sleep: prepare, re-check, commit.
            let token = inner.notifier.prepare_wait();
            if inner.done.load(Ordering::Acquire) {
                inner.notifier.cancel_wait(token);
                inner.num_thieves.fetch_sub(1, Ordering::SeqCst);
                return None;
            }
            if self.work_visible() {
                inner.notifier.cancel_wait(token);
                continue;
            }
            // Keep one thief alive while any worker is active.
            if inner.num_actives.load(Ordering::SeqCst) > 0
                && inner.num_thieves.load(Ordering::SeqCst) == 1
            {
                inner.notifier.cancel_wait(token);
                continue;
            }
            inner.stats.sleeps.incr(self.id);
            inner.notifier.commit_wait(token);
            inner.stats.wakeups.incr(self.id);
        }
    }

    /// One randomized steal attempt across victims and the injector.
    /// Our own id maps to the injector, so every draw is a real attempt
    /// (no wasted self-steal); injector hits claim a whole batch and bank
    /// the extras in the local deque.
    fn try_steal_once(&mut self) -> Option<Token> {
        let inner = &*self.inner;
        let n = inner.stealers.len();
        inner.stats.steal_attempts.incr(self.id);
        let v = (Self::next_rand(&mut self.rng) % n as u64) as usize;
        if v == self.id {
            let mut first = None;
            let deque = &self.deque;
            let got = inner.injector.pop_batch(STEAL_BATCH, |t| {
                if first.is_none() {
                    first = Some(t);
                } else {
                    deque.push(t);
                }
            });
            if got > 0 {
                inner.stats.steals.incr(self.id);
                return first;
            }
        } else {
            match inner.stealers[v].steal() {
                Steal::Success(token) => {
                    inner.stats.steals.incr(self.id);
                    return Some(token);
                }
                Steal::Retry | Steal::Empty => {}
            }
        }
        None
    }

    /// True if any queue plausibly holds work (used to re-check before
    /// sleeping). Lock-free: probes the injector and deque tops.
    fn work_visible(&self) -> bool {
        if !self.inner.injector.is_empty() {
            return true;
        }
        self.inner.stealers.iter().any(|s| !s.is_empty())
    }

    /// Executes a work token — the visitor dispatch of §III-C — and returns
    /// the continuation: the first node it made ready, for the burst to run
    /// next. Host tasks complete synchronously on this worker; GPU tasks
    /// are *dispatched* asynchronously to the device stream (the worker is
    /// immediately free, so one core can drive many GPUs concurrently),
    /// with a stream-ordered completion callback releasing the successors —
    /// the fully asynchronous pattern of Listing 13.
    fn execute(&mut self, token: Token, ctx: &mut Option<RunCtx>) -> Option<Token> {
        let (slot, node) = unpack(token);
        if !ctx.as_ref().is_some_and(|c| c.serves(slot)) {
            *ctx = Some(RunCtx::resolve(&self.inner.registry, slot));
        }
        let cx = ctx.as_ref().expect("context resolved above");
        let topo = &cx.topo;

        let worker = Some(self.id as u32);
        self.inner
            .emit_task(topo, LifecyclePhase::Started, node, worker, None, true, None);

        // Bodies are skipped (but the round still drains) when the run
        // failed, the caller cancelled, or a failover is pending — the
        // last keeps successors of a dead device's tasks from consuming
        // half-failed state; skipped nodes replay after the failover.
        let skip = topo.cancelled.load(Ordering::Acquire)
            || topo.cancel_requested()
            || topo.failover_pending.load(Ordering::Acquire);
        // Counted before `invoke`: an async GPU chain can complete, and
        // resolve the run's future, before `invoke` returns, and a
        // snapshot taken right after `wait()` must already include it.
        self.inner.stats.tasks_executed.incr(self.id);
        // `Ok(Some(ok))`: the node finishes here, with any chain fused
        // behind it (members are never scheduled individually, so a
        // skipped head must finish them). `Ok(None)`: a device stream's
        // completion callback owns it.
        let outcome = if skip {
            Ok(Some(false))
        } else {
            self.invoke(cx, node).map(|dispatched_async| (!dispatched_async).then_some(true))
        };
        let inner = &*self.inner;
        let mut local = Local { deque: &self.deque, next: None };
        let chain = topo.fusion.chain(node);
        match outcome {
            Ok(Some(ok)) => {
                inner.finish_nodes(topo, chain, worker, None, ok, Some(&mut local));
            }
            Ok(None) => {}
            Err(e) => {
                inner.fail_task(topo, node, chain, worker, None, e, Some(&mut local));
            }
        }
        local.next
    }

    /// Runs one task body. Returns `Ok(true)` when completion was handed
    /// to a device stream (asynchronous GPU task), `Ok(false)` when the
    /// task finished synchronously.
    fn invoke(&mut self, cx: &RunCtx, id: usize) -> Result<bool, HfError> {
        let node = &cx.topo.frozen.nodes[id];
        match &node.work {
            Work::Empty => Err(HfError::EmptyTask {
                task: node.name.to_string(),
            }),
            Work::Host(f) => {
                let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (f.lock())()));
                res.map(|_| false).map_err(|_| HfError::TaskPanicked {
                    task: node.name.to_string(),
                })
            }
            Work::Pull { .. } | Work::Push { .. } | Work::Kernel { .. } => {
                self.dispatch_gpu_chain(cx, id)?;
                Ok(true)
            }
        }
    }

    /// Dispatches a GPU task and its fused chain (§III-C "task fusing"):
    /// all ops are prepared first (any error aborts before a single
    /// enqueue), then submitted to the per-worker stream back-to-back
    /// with one completion callback finishing every chain node in order.
    ///
    /// Fault tolerance: each op checks its device's fault injector and
    /// the cancellation flags before doing anything, and records the
    /// first failure in a shared [`ChainState`]. Faults fire *before* an
    /// op's effect, so the completion callback can finish the completed
    /// prefix normally and route just the failed suffix through the retry
    /// policy (retry re-dispatches the failed member, which re-walks the
    /// chain from there).
    fn dispatch_gpu_chain(&mut self, cx: &RunCtx, head: usize) -> Result<(), HfError> {
        let topo = &cx.topo;
        let dev_id = topo.placement.device_of[head].expect("GPU task placed");
        let device = self.inner.gpu.device(dev_id)?;
        let _ctx = ScopedDeviceContext::new(dev_id);

        let state = Arc::new(ChainState::default());
        let chain: Vec<usize> = topo.fusion.chain(head).collect();
        let ops = chain
            .iter()
            .map(|&id| self.prepare_op(topo, id, &device, &state))
            .collect::<Result<Vec<_>, _>>()?;
        if chain.len() > 1 {
            self.inner.stats.fused.add(self.id, (chain.len() - 1) as u64);
            // Members never pass through `execute`; account for them.
            self.inner
                .stats
                .tasks_executed
                .add(self.id, (chain.len() - 1) as u64);
        }

        let stream = self.stream(dev_id);
        // Dispatched events fire before the first op is enqueued: the
        // engine may complete (and emit Finished for) the chain the
        // moment an op lands on the stream.
        let chain_head = Some(head as u32);
        if self.inner.lc_active() {
            let worker = Some(self.id as u32);
            for &nid in &chain {
                self.inner
                    .emit_task(topo, LifecyclePhase::Dispatched, nid, worker, chain_head, true, None);
            }
        }
        // Label ops with task name/kind only when a device trace sink is
        // installed; the engine drops the label unused when tracing is
        // off.
        let tracing = self.inner.gpu.tracing_enabled();
        for (&nid, op) in chain.iter().zip(ops) {
            let label = tracing.then(|| {
                let n = &topo.frozen.nodes[nid];
                hf_gpu::OpLabel {
                    name: Arc::clone(&n.name),
                    tag: crate::observer::kind_to_tag(n.work.kind()),
                    epoch: topo.ctx.epoch,
                }
            });
            match op {
                PreparedOp::Single(f) => stream.exec_labeled(label, f),
                PreparedOp::ChunkedPull(pull) => {
                    pull.enqueue_chunked(&stream, &self.copy_lanes(dev_id), label);
                }
            }
        }
        let inner = Arc::clone(&self.inner);
        let topo2 = Arc::clone(topo);
        let state2 = Arc::clone(&state);
        stream.host_fn(move || {
            let err = state2.error.lock().clone();
            let done = state2.done.load(Ordering::Acquire);
            match err {
                // `done < len` without an error means ops were skipped by
                // cancellation — finish unsuccessfully so a failover (if
                // one is pending) replays them.
                None => {
                    let all_ok = done == chain.len();
                    inner.finish_nodes(&topo2, chain, None, chain_head, all_ok, None);
                }
                // The completed prefix finished normally; the failed
                // member and the suffix that never ran go to the policy.
                Some(e) => {
                    let (prefix, rest) = chain.split_at(done);
                    let prefix = prefix.iter().copied();
                    inner.finish_nodes(&topo2, prefix, None, chain_head, true, None);
                    let suffix = rest.iter().copied();
                    inner.fail_task(&topo2, rest[0], suffix, None, chain_head, e, None);
                }
            }
        });
        Ok(())
    }

    /// Builds the device op for one GPU node (without enqueueing it).
    /// Pulls and pushes are the transfer engine's ([`crate::transfer`]);
    /// a pull it wants pipelined comes back as a descriptor that
    /// `dispatch_gpu_chain` enqueues across the copy lanes.
    fn prepare_op(
        &mut self,
        topo: &Arc<Topology>,
        id: usize,
        device: &Device,
        state: &Arc<ChainState>,
    ) -> Result<PreparedOp, HfError> {
        let frozen = &*topo.frozen;
        let node = &frozen.nodes[id];
        let dev_id = device.id();
        match &node.work {
            Work::Pull { source } => {
                transfer::prepare_pull(&self.inner, topo, id, source, device, state)
            }
            Work::Push { source_pull, sink } => transfer::prepare_push(
                &self.inner,
                topo,
                id,
                *source_pull,
                sink,
                device,
                state,
            ),
            Work::Kernel { func, sources } => {
                let mut ptrs = Vec::with_capacity(sources.len());
                for &s in sources.iter() {
                    let pull_node = &frozen.nodes[s];
                    let p = topo.pull_state(s).lock().ptr.ok_or_else(|| {
                        HfError::SourceNotPulled {
                            kernel: node.name.to_string(),
                            pull: pull_node.name.to_string(),
                        }
                    })?;
                    debug_assert_eq!(
                        p.device, dev_id,
                        "placement must co-locate kernels with their pulls"
                    );
                    ptrs.push(p);
                }
                let gpu = frozen.gpu(id).expect("kernels are GPU nodes");
                let cfg = gpu.cfg;
                let work_units = GpuNode::priced_work_units(gpu.work_units, &gpu.cfg);
                let func = Arc::clone(func);
                let src_ids = Arc::clone(sources);
                let topo2 = Arc::clone(topo);
                let state2 = Arc::clone(state);
                let dev = device.clone();
                let task_name = Arc::clone(&node.name);
                Ok(PreparedOp::Single(Box::new(move |view, cost| {
                    if state2.skip(&topo2) {
                        return Ok(OpReport::default());
                    }
                    if let Err(e) = dev.fault_check(FaultSite::Kernel) {
                        state2.fail(HfError::TaskFailed {
                            task: task_name.to_string(),
                            source: e.clone(),
                        });
                        return Err(e);
                    }
                    // Kernels take mutable views of their sources with no
                    // declared access modes, so assume every source buffer
                    // is mutated: its device bytes no longer match any
                    // host version. (A faulted kernel above never ran, so
                    // residency survives the retry.)
                    for &sid in src_ids.iter() {
                        transfer::clear_residency(&topo2, sid);
                    }
                    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let mut args = KernelArgs::new(view, &ptrs);
                        func(&cfg, &mut args);
                    }));
                    if res.is_err() {
                        state2.fail(HfError::TaskPanicked {
                            task: task_name.to_string(),
                        });
                        return Ok(OpReport::default());
                    }
                    let dur = cost.kernel(work_units);
                    state2.done.fetch_add(1, Ordering::Release);
                    Ok(OpReport {
                        duration: dur,
                        kernels: 1,
                        ..Default::default()
                    })
                })))
            }
            Work::Empty | Work::Host(_) => unreachable!("not a GPU task"),
        }
    }
}

/// Shared failure/progress state of one dispatched GPU chain: how many
/// ops completed (the chain prefix) and the first error, recorded by the
/// op closures on the device engine thread and consumed by the stream's
/// completion callback.
#[derive(Default)]
pub(crate) struct ChainState {
    pub(crate) done: AtomicUsize,
    pub(crate) error: Mutex<Option<HfError>>,
}

impl ChainState {
    /// Records the first failure; later ops in the chain then skip.
    pub(crate) fn fail(&self, e: HfError) {
        let mut g = self.error.lock();
        if g.is_none() {
            *g = Some(e);
        }
    }

    /// True when this op should do nothing: an earlier chain op failed,
    /// the run already failed, or the caller cancelled — cooperative
    /// cancellation propagated into ops already enqueued on the stream.
    pub(crate) fn skip(&self, topo: &Topology) -> bool {
        self.error.lock().is_some()
            || topo.cancelled.load(Ordering::Acquire)
            || topo.cancel_requested()
    }
}
