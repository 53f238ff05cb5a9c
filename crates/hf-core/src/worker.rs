//! The worker: one CPU thread's scheduling loop and task visitor.
//!
//! Each worker owns one Chase–Lev deque of the executor
//! ([`crate::executor`]) and alternates between two states (§III-C): a
//! *thief* looking for a task, and an *exploit burst* that runs the task,
//! then whatever it made ready, then its own deque until that is dry
//! (DESIGN.md "Scheduler hot path"). Host tasks run on the worker itself;
//! a GPU task goes to [`dispatch::submit`], which enqueues it and the
//! chain fused behind it on one of the worker's streams for its device, and it
//! completes on the device engine. The worker only schedules.

use crate::dispatch::{self, Streams};
use crate::error::HfError;
use crate::executor::{ExecInner, STEAL_BATCH};
use crate::graph::Work;
use crate::lifecycle::LifecyclePhase;
use crate::registry::{unpack, Token, TopoRegistry};
use crate::topology::Topology;
use hf_sync::atomic::Ordering;
use hf_sync::{Steal, StealDeque};
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
        Self {
            slot,
            topo: registry.resolve(slot),
        }
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
    /// This worker's device streams, which only [`dispatch`] uses.
    streams: Streams,
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
            streams: Streams::new(n_gpus),
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
            next = self.execute(token, &mut ctx);
            next = next.or_else(|| self.pop_device().or_else(|| self.deque.pop()));
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
                if let Some(token) = self.pop_device().or_else(|| self.try_steal_once()) {
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

    /// A ready GPU head, if any. `is_empty` first: a pop fences even on an
    /// empty queue, and host-only graphs never fill it.
    fn pop_device(&self) -> Option<Token> {
        let q = &self.inner.device_ready;
        (!q.is_empty()).then(|| q.pop()).flatten()
    }

    /// One randomized steal attempt across victims and the injector.
    /// Our own id maps to the injector, so every draw is a real attempt
    /// (no wasted self-steal); injector hits claim a whole batch and bank
    /// the extras in the local deque.
    fn try_steal_once(&mut self) -> Option<Token> {
        let inner = &*self.inner;
        let n = inner.stealers.len();
        inner.stats.steal_attempts.incr(self.id);
        // Multiply-shift: the high half of `x * n` is in `0..n`, no divide.
        let v = ((Self::next_rand(&mut self.rng) as u128 * n as u128) >> 64) as usize;
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
    /// sleeping). Lock-free: probes both injectors and the deque tops.
    fn work_visible(&self) -> bool {
        if !self.inner.injector.is_empty() || !self.inner.device_ready.is_empty() {
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
        let cx: &RunCtx = match ctx.take() {
            Some(c) if c.serves(slot) => ctx.insert(c),
            _ => ctx.insert(RunCtx::resolve(&self.inner.registry, slot)),
        };
        let topo = &cx.topo;

        let worker = Some(self.id as u32);
        self.inner.emit_task(
            topo,
            LifecyclePhase::Started,
            node,
            worker,
            None,
            true,
            None,
        );

        // Bodies are skipped (but the round still drains) when the run
        // failed, the caller cancelled, or a failover is pending — the
        // last keeps successors of a dead device's tasks from consuming
        // half-failed state; skipped nodes replay after the failover.
        let skip = topo.stopped() || topo.failover_pending.load(Ordering::Acquire);
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
            self.invoke(cx, node)
                .map(|dispatched_async| (!dispatched_async).then_some(true))
        };
        let inner = &*self.inner;
        let mut local = Local {
            deque: &self.deque,
            next: None,
        };
        let chain = topo.plan.chain(node);
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
            // SAFETY: this worker is the node's one caller (see the
            // invariant on `HostCell`'s `Sync` in `graph.rs`).
            Work::Host(f) => {
                unsafe { f.call(&node.name) }
                    .map(|_| false)
                    .map_err(|_| HfError::TaskPanicked {
                        task: node.name.to_string(),
                    })
            }
            Work::Pull { .. } | Work::Push { .. } | Work::Kernel { .. } => {
                dispatch::submit(&self.inner, &mut self.streams, self.id, &cx.topo, id)?;
                Ok(true)
            }
        }
    }
}

#[cfg(all(test, feature = "loom"))]
mod loom_models {
    use super::*;
    use crate::graph::{FrozenGraph, Heteroflow};
    use crate::placement::Placement;
    use crate::plan::Plan;
    use crate::registry::pack;
    use crate::topology::EpochCtx;
    use hf_sync::atomic::AtomicBool;
    use hf_sync::sync::Mutex;
    use hf_sync::Injector;

    fn topology(frozen: &Arc<FrozenGraph>) -> Arc<Topology> {
        let placement = Placement::from_bins(frozen, &[], &[], 0);
        let plan = Arc::new(Plan::from_placement(frozen, placement, false));
        let ctx = EpochCtx {
            epoch: None,
            pull_override: None,
            gate: None,
            prologue: None,
            on_finish: Mutex::new(None),
            input_guard: None,
            tenant: None,
        };
        let cancel = Arc::new(AtomicBool::new(false));
        let topo = Topology::new(Arc::clone(frozen), 1, plan, cancel, ctx, None);
        Arc::new(topo)
    }

    /// Slot recycling against [`RunCtx::serves`]. One thread releases
    /// T1's slot as `finish_topology` does (`TopoRegistry::release`);
    /// another registers T2, which may get the freed slot, and pushes T2's
    /// first token through the injector. A worker still holding a context
    /// for T1 that pops the token must not take it for T1's, and must
    /// resolve T2. Both a recycled and a fresh slot occur. (At most two
    /// preemptions per execution: the worker's polling makes the unbounded
    /// space too large, and a release that deregistered before resetting
    /// `T1.slot` already fails within two.)
    #[test]
    fn recycled_slot_never_serves_the_old_topology() {
        let g = Heteroflow::new("g");
        g.host("a", || {});
        let frozen = g.freeze().unwrap();
        let recycled = Arc::new(AtomicBool::new(false));
        let recycled2 = Arc::clone(&recycled);
        let bounded = loom::model::Builder {
            preemption_bound: Some(2),
        };
        bounded.check(move || {
            let registry = Arc::new(TopoRegistry::new());
            let injector = Arc::new(Injector::new());
            let (t1, t2) = (topology(&frozen), topology(&frozen));
            let slot = registry.register(&t1);
            let ctx = RunCtx::resolve(&registry, slot);
            assert!(ctx.serves(slot));
            let releaser = {
                let registry = Arc::clone(&registry);
                loom::thread::spawn(move || registry.release(&t1))
            };
            let submitter = {
                let (registry, injector, t2) = (
                    Arc::clone(&registry),
                    Arc::clone(&injector),
                    Arc::clone(&t2),
                );
                loom::thread::spawn(move || injector.push(pack(registry.register(&t2), 0)))
            };
            let token = loop {
                match injector.pop() {
                    Some(t) => break t,
                    None => loom::thread::yield_now(),
                }
            };
            let (s, node) = unpack(token);
            assert_eq!(node, 0);
            assert!(!ctx.serves(s), "a context of T1 must not serve T2's token");
            assert!(Arc::ptr_eq(&RunCtx::resolve(&registry, s).topo, &t2));
            if s == slot {
                recycled2.store(true, Ordering::Relaxed);
            }
            releaser.join().unwrap();
            submitter.join().unwrap();
        });
        assert!(
            recycled.load(Ordering::Relaxed),
            "the freed slot was reused"
        );
    }
}
