//! The release path: how a finished node makes its successors runnable.

use crate::executor::ExecInner;
use crate::lifecycle::LifecyclePhase;
use crate::registry::{pack, unpack, Token};
use crate::topology::Topology;
use crate::worker::Local;
use std::sync::atomic::Ordering;
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
    buf: [Token; RELEASE_BATCH],
    len: usize,
}

impl<'a, 'w> ReadyBatch<'a, 'w> {
    pub(crate) fn new(exec: &'a ExecInner, topo: &'a Topology, local: Option<&'a mut Local<'w>>) -> Self {
        Self {
            exec,
            topo,
            slot: topo.slot.load(Ordering::Relaxed),
            local,
            buf: [0; RELEASE_BATCH],
            len: 0,
        }
    }

    pub(crate) fn push(&mut self, node: usize) {
        let token = pack(self.slot, node);
        if let Some(local) = self.local.as_deref_mut().filter(|l| l.next.is_none()) {
            // `Ready` fires before the token is stealable *or run*.
            self.exec
                .emit_task(self.topo, LifecyclePhase::Ready, node, None, None, true, None);
            local.next = Some(token);
            return;
        }
        if self.len == RELEASE_BATCH {
            self.flush();
        }
        self.buf[self.len] = token;
        self.len += 1;
    }

    /// Makes the collected tokens runnable: the first goes to the lending
    /// worker's own deque, the rest across the injector in one lock-free
    /// batch push, with one coalesced wakeup proportional to the batch.
    fn flush(&mut self) {
        let len = std::mem::take(&mut self.len);
        let tokens = &self.buf[..len];
        let Some((&first, others)) = tokens.split_first() else {
            return;
        };
        let exec = self.exec;
        // `Ready` before the tokens are stealable: once pushed, a peer can
        // run the token, drain the round and deregister the slot.
        if exec.lc_active() {
            for &t in tokens {
                exec.emit_task(self.topo, LifecyclePhase::Ready, unpack(t).1, None, None, true, None);
            }
        }
        let rest = match &self.local {
            Some(local) => {
                local.deque.push(first);
                others
            }
            None => tokens,
        };
        if !rest.is_empty() {
            exec.injector.push_batch(rest);
            if rest.len() > 1 {
                exec.stats.injector_batches.incr();
            }
        }
        if !others.is_empty() {
            exec.stats.notify_coalesced.add(others.len() as u64);
        }
        exec.notifier.notify_n(tokens.len());
    }
}

impl Drop for ReadyBatch<'_, '_> {
    fn drop(&mut self) {
        self.flush();
    }
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
            for &s in topo.frozen.succ(node) {
                let s = s as usize;
                // Fused chain members were dispatched with their head;
                // whoever finished the head also finishes them in order.
                if topo.join[s].fetch_sub(1, Ordering::AcqRel) == 1 && !topo.fusion.member[s] {
                    ready.push(s);
                }
            }
        }
        // Streaming admission: when the last prologue node (host tasks and
        // pulls) of an epoch drains, fire the session's hook so the next
        // epoch's input mutation and H2D transfers can start while this
        // epoch's body still occupies the devices.
        if let Some(p) = &topo.ctx.prologue {
            if !p.is_body[node] && p.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
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
            && !topo.cancelled.load(Ordering::Acquire)
            && !topo.cancel_requested()
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
            self.emit_task(topo, LifecyclePhase::Finished, node, worker, chain, ok, None);
            self.finish_node(topo, node, ok, local.as_deref_mut());
        }
    }
}
