//! What happens to a failed task body: retry, device failover, or failure.

use crate::error::HfError;
use crate::executor::ExecInner;
use crate::graph::TaskKind;
use crate::lifecycle::LifecyclePhase;
use crate::ready::ReadyBatch;
use crate::retry::OnDeviceLoss;
use crate::topology::{FusionPlan, Topology};
use crate::worker::Local;
use hf_gpu::GpuError;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// What [`ExecInner::failure_action`] decided about a failed task body.
enum FailureAction {
    /// Re-dispatch the node after the given backoff.
    Retry(Duration),
    /// Request a device failover; the round drains and replays.
    Failover,
    /// Fail the run with the error.
    Fail,
}

impl ExecInner {
    /// Decides what to do about a failed task body: retry it (transient
    /// error with attempts left), fail the run, or — for a whole-device
    /// loss under [`OnDeviceLoss::Failover`] — request a failover.
    fn failure_action(&self, topo: &Arc<Topology>, node: usize, err: &HfError) -> FailureAction {
        match err.gpu_cause() {
            Some(GpuError::FaultInjected { .. }) => {
                self.stats.faults_injected.incr();
            }
            Some(GpuError::DeviceLost(_)) => {
                return match self.retry.loss_behavior() {
                    OnDeviceLoss::Failover => FailureAction::Failover,
                    OnDeviceLoss::Fail => FailureAction::Fail,
                };
            }
            _ => {}
        }
        // Retry only failures whose effect never happened: injected
        // faults and allocation exhaustion fire before mutating anything,
        // and panics unwind before the task's outputs are published.
        let retryable = matches!(err, HfError::TaskPanicked { .. })
            || matches!(
                err.gpu_cause(),
                Some(GpuError::FaultInjected { .. } | GpuError::OutOfMemory { .. })
            );
        if !retryable {
            return FailureAction::Fail;
        }
        let kind = topo.frozen.nodes[node].work.kind();
        let attempt = topo.attempts[node].fetch_add(1, Ordering::Relaxed) + 1;
        if attempt < self.retry.attempts(kind) {
            FailureAction::Retry(self.retry.backoff_for(attempt))
        } else {
            FailureAction::Fail
        }
    }

    /// Routes a failed task body through the retry policy — on a worker
    /// (`worker` set: the body or its dispatch failed there) or in a
    /// stream's completion callback (`chain` set: an op of that dispatched
    /// chain failed). `rest` is what cannot run this pass because of it:
    /// `failed` itself, then the members fused behind it. A retry
    /// re-queues `failed`, which re-walks its chain from there; otherwise
    /// all of `rest` finishes unsuccessfully.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fail_task(
        &self,
        topo: &Arc<Topology>,
        failed: usize,
        rest: impl IntoIterator<Item = usize>,
        worker: Option<u32>,
        chain: Option<u32>,
        err: HfError,
        local: Option<&mut Local<'_>>,
    ) {
        let action = self.failure_action(topo, failed, &err);
        let phase = match action {
            FailureAction::Retry(_) => LifecyclePhase::Retried,
            FailureAction::Failover | FailureAction::Fail => LifecyclePhase::Failed,
        };
        self.emit_task(topo, phase, failed, worker, chain, false, Some(&err));
        match action {
            FailureAction::Retry(delay) => {
                self.stats.retries.incr();
                topo.retries.fetch_add(1, Ordering::Relaxed);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
                // Runs next on this worker, or — from a device engine
                // thread — goes to the injector.
                ReadyBatch::new(self, topo, local).push(failed);
                return;
            }
            FailureAction::Failover => topo.request_failover(err),
            FailureAction::Fail => topo.fail(err),
        }
        self.finish_nodes(topo, rest, worker, chain, false, local);
    }

    /// Performs a device failover once `topo`'s pass has drained: re-places
    /// the lost devices' groups onto the survivors and continues the epoch
    /// on a new pass over exactly the nodes that did not complete
    /// ([`Topology::replay`]), in a registry slot of its own; `topo` gives
    /// up its slot and its finish hook and is otherwise left as it drained.
    /// Returns `false` when the failover could not be performed (budget
    /// exhausted, no survivors, or replay would double-apply a completed
    /// push) — the epoch then fails on `topo` with the triggering error.
    pub(crate) fn try_failover(&self, topo: &Arc<Topology>, local: Option<&mut Local<'_>>) -> bool {
        let cause = match topo.failover.lock().take() {
            Some(c) => c,
            None => return false,
        };
        if topo.failovers.fetch_add(1, Ordering::Relaxed) + 1 > self.retry.failover_budget() {
            topo.fail(cause);
            return false;
        }

        let frozen = &topo.frozen;
        let n = frozen.nodes.len();
        let placement = &topo.placement;
        let (lost, new_placement) = match self.place(frozen, &placement.device_of) {
            Ok(placed) if placed.lost.contains(&true) => (placed.lost, placed.placement),
            // A failover without a lost device has nothing to re-place.
            Ok(_) => {
                topo.fail(cause);
                return false;
            }
            // No surviving GPUs: fail with the structural error.
            Err(e) => {
                topo.fail(e);
                return false;
            }
        };
        let mut ok: Vec<bool> = topo
            .round_ok
            .iter()
            .map(|b| b.load(Ordering::Acquire))
            .collect();

        // Results living in a lost device's arena are gone: pulls and
        // kernels there must replay even though they completed. A
        // *completed push* there is unrecoverable — its host-side write
        // already happened, and replaying its group could re-apply an
        // in-place update through the re-pulled data — so fail structured
        // rather than risk silent double-application.
        #[allow(clippy::needless_range_loop)] // i indexes three parallel arrays
        for i in 0..n {
            let on_lost = placement.device_of[i].is_some_and(|d| lost[d as usize]);
            if on_lost && ok[i] {
                if frozen.nodes[i].work.kind() == TaskKind::Push {
                    topo.fail(cause);
                    return false;
                }
                ok[i] = false;
            }
        }

        if ok.iter().all(|&o| o) {
            // Can't happen (the failover-requesting node is !ok), but a
            // replay of nothing would hang the round — fail instead.
            topo.fail(cause);
            return false;
        }

        // Streaming input hazard: once the session admitted a later epoch
        // (and ran its input mutator), this epoch's pulls would replay the
        // *next* epoch's host data. Fail the epoch with the triggering
        // cause instead; the stream itself keeps serving (the session
        // re-places subsequent epochs on the survivors).
        if let Some(g) = &topo.ctx.input_guard {
            if g.gen.load(Ordering::Acquire) != g.admitted_gen {
                let replays_pull = ok.iter().enumerate().any(|(i, &o)| {
                    !o && frozen.nodes[i].work.kind() == TaskKind::Pull
                });
                if replays_pull {
                    topo.fail(cause);
                    return false;
                }
            }
        }

        // Device buffers on lost devices vanished with their arenas; a
        // replayed pull re-allocates on its new device. (Nothing to free —
        // the device is gone.)
        for i in (0..n).filter(|&i| frozen.kind(i) == TaskKind::Pull) {
            let mut st = topo.pull_state(i).lock();
            if let Some(p) = st.ptr {
                if lost.get(p.device as usize).copied().unwrap_or(true) {
                    st.ptr = None;
                    st.resident_version = None;
                    st.device = None;
                } else if new_placement.device_of[i] != Some(p.device) {
                    // Defensive: surviving groups keep their device, but if
                    // one ever moves, release the stale buffer properly.
                    if let Ok(dev) = self.gpu.device(p.device) {
                        let _ = dev.free(p);
                    }
                    st.ptr = None;
                    st.resident_version = None;
                    st.device = None;
                }
            }
        }

        // Replay plan: fuse only among replayed nodes so no chain hangs
        // off an already-finished head.
        let active: Vec<bool> = ok.iter().map(|&o| !o).collect();
        let masked = FusionPlan::compute(frozen, &new_placement, self.fusion, Some(&active));
        let replay = Topology::replay(topo, new_placement, masked, &ok);

        // Every token of the drained pass has been consumed, so its slot
        // can go; a worker still holding `topo` from this burst sees the
        // reset and resolves the replay's tokens afresh.
        self.registry.register(&replay);
        self.registry.deregister(topo.slot.swap(u32::MAX, Ordering::AcqRel));
        self.emit_run(&replay, LifecyclePhase::Failover, true, Some(&cause));

        let mut ready = ReadyBatch::new(self, &replay, local);
        for i in 0..n {
            if replay.join[i].load(Ordering::Relaxed) == 0 && !replay.fusion.member[i] {
                ready.push(i);
            }
        }
        true
    }
}
