//! The release path: how a finished node makes its successors runnable.

use crate::executor::ExecInner;
use crate::lifecycle::LifecyclePhase;
use crate::plan::Route;
use crate::registry::{pack, Token};
use crate::topology::Topology;
use crate::worker::Local;
use hf_sync::atomic::{AtomicUsize, Ordering};
use std::mem::{take, MaybeUninit};
use std::slice;
use std::sync::Arc;

/// Chunk size of a [`ReadyBatch`]: one injector spray, one wakeup.
const RELEASE_BATCH: usize = 32;

/// Newly-ready nodes of one topology on their way to the queues — the one
/// way a node becomes runnable. On a worker thread (`local` set) the first
/// node pushed while the worker's continuation slot is free goes there: the
/// burst loop runs it next, with no deque round trip and no wakeup. The
/// rest are flushed a chunk at a time, the last chunk when the batch drops.
pub(crate) struct ReadyBatch<'a, 'w> {
    exec: &'a ExecInner,
    topo: &'a Topology,
    slot: u32,
    local: Option<&'a mut Local<'w>>,
    /// Host tokens; only `buf[..len]` is written (`dev`: GPU heads).
    buf: [MaybeUninit<Token>; RELEASE_BATCH],
    len: usize,
    dev: [MaybeUninit<Token>; RELEASE_BATCH],
    dev_len: usize,
}

impl<'a, 'w> ReadyBatch<'a, 'w> {
    pub(crate) fn new(
        exec: &'a ExecInner,
        topo: &'a Topology,
        local: Option<&'a mut Local<'w>>,
    ) -> Self {
        Self {
            exec,
            topo,
            slot: topo.slot.load(Ordering::Relaxed),
            local,
            buf: [MaybeUninit::uninit(); RELEASE_BATCH],
            len: 0,
            dev: [MaybeUninit::uninit(); RELEASE_BATCH],
            dev_len: 0,
        }
    }

    /// Makes `node` runnable along `route` (a retried `Fused` member: GPU).
    pub(crate) fn push(&mut self, node: usize, route: Route) {
        // `Ready` fires before the token is stealable *or run*.
        self.exec.emit_task(
            self.topo,
            LifecyclePhase::Ready,
            node,
            None,
            None,
            true,
            None,
        );
        let token = pack(self.slot, node);
        if let Some(local) = self.local.as_deref_mut().filter(|l| l.next.is_none()) {
            local.next = Some(token);
            return;
        }
        if self.len == RELEASE_BATCH || self.dev_len == RELEASE_BATCH {
            self.flush();
        }
        if route == Route::Host {
            self.buf[self.len].write(token);
            self.len += 1;
        } else {
            self.dev[self.dev_len].write(token);
            self.dev_len += 1;
        }
    }

    /// Makes the collected tokens runnable: GPU heads to the device-ready
    /// queue, one wakeup for all (DESIGN.md "Device work first"); host tasks
    /// to the lending worker's deque (the first) and the injector, one each.
    fn flush(&mut self) {
        let (len, dev_len) = (take(&mut self.len), take(&mut self.dev_len));
        // SAFETY: `push` wrote `buf[..len]` and `dev[..dev_len]`, and a
        // `MaybeUninit<Token>` has `Token`'s layout.
        let tokens = unsafe { slice::from_raw_parts(self.buf.as_ptr().cast::<Token>(), len) };
        let devs = unsafe { slice::from_raw_parts(self.dev.as_ptr().cast::<Token>(), dev_len) };
        let wakeups = tokens.len() + usize::from(!devs.is_empty());
        if wakeups == 0 {
            return;
        }
        let exec = self.exec;
        if !devs.is_empty() {
            exec.device_ready.push_batch(devs);
        }
        let rest = match (&self.local, tokens.split_first()) {
            (Some(local), Some((&first, others))) => {
                local.deque.push(first);
                others
            }
            _ => tokens,
        };
        if !rest.is_empty() {
            exec.injector.push_batch(rest);
            if rest.len() > 1 {
                exec.stats.injector_batches.incr();
            }
        }
        if tokens.len() > 1 {
            exec.stats.notify_coalesced.add(tokens.len() as u64 - 1);
        }
        exec.notifier.notify_n(wakeups);
    }
}

impl Drop for ReadyBatch<'_, '_> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// One arrival at a join counter; true when it was the last, which then
/// releases the node. In a pass a counter only falls and each arriver (a
/// predecessor's finish or the gate) subtracts once, so an `Acquire` load
/// of 1 means every other arriver is in and no thread touches the word
/// again: the last arrival stores 0 instead of a locked decrement. The
/// load reads what the latest `AcqRel` decrement wrote (or the pass's
/// starting count), so it synchronizes with every earlier arrival.
#[inline]
pub(crate) fn arrive(join: &AtomicUsize) -> bool {
    if join.load(Ordering::Acquire) == 1 {
        join.store(0, Ordering::Relaxed);
        return true;
    }
    join.fetch_sub(1, Ordering::AcqRel) == 1
}

impl ExecInner {
    /// Marks a node finished: records whether it succeeded (failover
    /// replay bookkeeping), releases its successors and, if it was the
    /// round's last node, ends the round. Called from worker threads
    /// (synchronous host tasks; `local` is what the worker lends, see
    /// [`ReadyBatch`]) and from device engine threads (the stream-ordered
    /// completion callbacks of GPU tasks). Failed and skipped nodes still
    /// release successors so the round always drains — never hangs — with
    /// the skip flags keeping bodies from consuming half-failed state.
    fn finish_node(
        &self,
        topo: &Arc<Topology>,
        node: usize,
        ok: bool,
        mut local: Option<&mut Local<'_>>,
    ) {
        topo.round_ok[node].store(ok, Ordering::Release);
        {
            let mut ready = ReadyBatch::new(self, topo, local.as_deref_mut());
            for &s in topo.frozen.successors(node) {
                let s = s as usize;
                let route = topo.plan.route(s);
                // Fused chain members were dispatched with their head;
                // whoever finished the head also finishes them in order.
                if arrive(&topo.join[s]) && route != Route::Fused {
                    ready.push(s, route);
                }
            }
        }
        // Streaming admission: when the last prologue node (host tasks and
        // pulls) of an epoch completes, fire the session's hook so the next
        // epoch's input mutation and H2D transfers can start while this
        // epoch's body still occupies the devices. A node that did not
        // complete replays in a failover pass or fails the epoch, so it
        // holds the hook back: the epoch's end admits the next instead.
        if let Some(p) = &topo.ctx.prologue {
            if ok && !p.is_body[node] && p.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                if let Some(hook) = p.hook.lock().take() {
                    hook();
                }
            }
        }
        if topo.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.end_round(topo, local);
        }
    }

    /// Called by whoever finished the last node of the pass: a device
    /// lost on the way hands the unfinished part to a replay pass (skipped
    /// when the epoch already failed or was cancelled); otherwise the
    /// epoch finishes with this pass.
    fn end_round(&self, topo: &Arc<Topology>, local: Option<&mut Local<'_>>) {
        if topo.failover_pending.load(Ordering::Acquire)
            && !topo.stopped()
            && self.try_failover(topo, local)
        {
            return;
        }
        self.stats.rounds.incr();
        self.finish_topology(Arc::clone(topo));
    }

    /// Finishes `nodes` in order, each behind its `Finished` event — the
    /// closing event always precedes [`ExecInner::finish_node`], so an
    /// observer has it before the run can settle.
    pub(crate) fn finish_nodes(
        &self,
        topo: &Arc<Topology>,
        nodes: impl IntoIterator<Item = usize>,
        worker: Option<u32>,
        chain: Option<u32>,
        ok: bool,
        mut local: Option<&mut Local<'_>>,
    ) {
        for node in nodes {
            self.emit_task(
                topo,
                LifecyclePhase::Finished,
                node,
                worker,
                chain,
                ok,
                None,
            );
            self.finish_node(topo, node, ok, local.as_deref_mut());
        }
    }
}

#[cfg(all(test, feature = "loom"))]
mod loom_models {
    use super::arrive;
    use hf_sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
    use std::sync::Arc;

    /// `preds` predecessors, each after writing its own slot, and the gate
    /// when `gate` arrive at one join counter: exactly one gets `true`, and
    /// it reads every slot. The shim runs on sequentially consistent memory
    /// (the orderings are argued on [`arrive`]); three threads: two preemptions.
    fn releases_once_after_every_slot(preds: usize, gate: bool) {
        let threads = preds + usize::from(gate);
        let bounded = loom::model::Builder {
            preemption_bound: (threads > 2).then_some(2),
        };
        bounded.check(move || {
            let join = Arc::new(AtomicUsize::new(threads));
            let slots: Arc<Vec<_>> = Arc::new((0..preds).map(|_| AtomicBool::new(false)).collect());
            let arriver = move |i: usize| {
                if let Some(slot) = slots.get(i) {
                    slot.store(true, Relaxed);
                }
                arrive(&join).then(|| slots.iter().all(|s| s.load(Relaxed)))
            };
            let others: Vec<_> = (1..threads)
                .map(|i| {
                    let arriver = arriver.clone();
                    loom::thread::spawn(move || arriver(i))
                })
                .collect();
            let mut last: Vec<bool> = arriver(0).into_iter().collect();
            last.extend(others.into_iter().filter_map(|h| h.join().unwrap()));
            assert_eq!(last, [true], "one release, after every predecessor's slot");
        });
    }

    #[test]
    fn two_and_three_arrivers_release_once() {
        releases_once_after_every_slot(2, false);
        releases_once_after_every_slot(3, false);
    }

    #[test]
    fn a_gate_arrival_races_a_predecessor() {
        releases_once_after_every_slot(1, true);
        releases_once_after_every_slot(2, true);
    }
}
