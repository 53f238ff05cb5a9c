//! Structured task-lifecycle events: the executor's one event stream.
//!
//! Every scheduling transition of every task (ready → started →
//! dispatched → finished / failed / retried, plus run-level
//! start/end/failover markers) is emitted as one [`LifecycleEvent`]
//! through [`crate::ExecutorObserver::on_lifecycle`]. Everything else an
//! observer shows is derived from the stream: worker spans
//! ([`crate::observer::TraceCollector`]), and in `hf_telemetry` the
//! flight log, latency histograms and per-run progress. The always-on
//! aggregate counts live apart, read through [`crate::Executor::snapshot`].
//!
//! Emission is gated: when no registered observer reports
//! [`crate::ExecutorObserver::is_active`], the executor skips event
//! construction entirely (no timestamp, no allocation, no virtual call
//! beyond the gate itself), so a binary with the flight recorder
//! compiled in but disabled pays the same near-zero cost as one without.
//!
//! Timestamps are nanoseconds since a process-wide monotonic epoch
//! ([`lifecycle_now_ns`]), so events from worker threads, device engine
//! threads, and the submission path — and every span derived from them —
//! order on one clock.

use crate::graph::TaskKind;
use std::sync::Arc;
use std::sync::OnceLock;
use std::time::Instant;

/// Process-wide monotonic epoch shared by every lifecycle timestamp.
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide lifecycle epoch.
pub fn lifecycle_now_ns() -> u64 {
    Instant::now().saturating_duration_since(epoch()).as_nanos() as u64
}

/// Which scheduling transition a [`LifecycleEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum LifecyclePhase {
    /// A submission was accepted (run-level; `task` is `None`).
    RunStart,
    /// A static-analysis diagnostic for the submitted graph (run-level;
    /// one event per finding, emitted right after `RunStart` under
    /// [`crate::LintPolicy::Warn`]). `detail` carries the rendered
    /// diagnostic (`"HF0xx [task, ...]: message"`); `ok` is `false` for
    /// Error-severity findings.
    Lint,
    /// A task's dependencies were satisfied and its token entered the
    /// scheduling queues. Re-emitted when a retry re-queues the task.
    Ready,
    /// A worker picked the task's token and began running/dispatching it.
    Started,
    /// A GPU task's ops were enqueued on a device stream (one event per
    /// fused chain member, all carrying the chain head in `chain`).
    Dispatched,
    /// The task finished this round (`ok` tells success).
    Finished,
    /// A task body failed and the failure was terminal for this attempt
    /// (the run fails, or a device failover was requested).
    Failed,
    /// A failed attempt was re-scheduled by the retry policy.
    Retried,
    /// A device failover re-placed the run's unfinished tasks
    /// (run-level; `task` is `None`).
    Failover,
    /// The submission completed (run-level; `ok` tells success, `detail`
    /// carries the error for failed/cancelled runs).
    RunEnd,
    /// A streaming epoch was admitted for execution (run-level; `task` is
    /// `None`, `epoch` carries the epoch index within the stream).
    EpochStart,
    /// A streaming epoch completed (run-level; `ok` tells success,
    /// `detail` carries the error for failed/cancelled epochs, `epoch`
    /// the epoch index).
    EpochEnd,
}

impl LifecyclePhase {
    /// Stable lowercase name used in dumps and JSON artifacts.
    pub fn name(self) -> &'static str {
        match self {
            LifecyclePhase::RunStart => "run_start",
            LifecyclePhase::Lint => "lint",
            LifecyclePhase::Ready => "ready",
            LifecyclePhase::Started => "started",
            LifecyclePhase::Dispatched => "dispatched",
            LifecyclePhase::Finished => "finished",
            LifecyclePhase::Failed => "failed",
            LifecyclePhase::Retried => "retried",
            LifecyclePhase::Failover => "failover",
            LifecyclePhase::RunEnd => "run_end",
            LifecyclePhase::EpochStart => "epoch_start",
            LifecyclePhase::EpochEnd => "epoch_end",
        }
    }
}

impl std::fmt::Display for LifecyclePhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One structured task-lifecycle transition.
///
/// Shared strings are `Arc<str>` so a bounded ring of events clones
/// without reallocating the names.
#[derive(Debug, Clone)]
pub struct LifecycleEvent {
    /// Process-unique id of the submission this event belongs to
    /// (see `RunFuture::run_id`).
    pub run_id: u64,
    /// Name of the submitted graph.
    pub graph: Arc<str>,
    /// Which transition happened.
    pub phase: LifecyclePhase,
    /// Node index within the frozen graph; `None` for run-level events.
    pub task: Option<u32>,
    /// Task name (graph name for run-level events).
    pub name: Arc<str>,
    /// Task kind; `None` for run-level events.
    pub kind: Option<TaskKind>,
    /// Device the task is placed on, when it is a GPU task.
    pub device: Option<u32>,
    /// Worker thread that produced the event, when on a worker.
    pub worker: Option<u32>,
    /// Head node of the fused GPU chain this task was dispatched with
    /// (equal to `task` for the head itself); `None` outside chains.
    pub chain: Option<u32>,
    /// Bytes this task moves across the PCIe link (pull/push tasks;
    /// `0` otherwise).
    pub bytes: u64,
    /// Success flag for `Finished`/`RunEnd`; `true` elsewhere.
    pub ok: bool,
    /// Error rendering for `Failed`/`Retried` and failed `RunEnd`s.
    pub detail: Option<Arc<str>>,
    /// Epoch index within a stream; `None` for one-shot runs.
    pub epoch: Option<u64>,
    /// Tenant the submission is attributed to, when it entered through a
    /// [`crate::Fleet`]; `None` for direct submissions.
    pub tenant: Option<Arc<str>>,
    /// Nanoseconds since the process lifecycle epoch.
    pub t_ns: u64,
}

impl LifecycleEvent {
    /// A run-level event (no task identity; `name` is the graph's),
    /// stamped now.
    pub(crate) fn run_level(
        run_id: u64,
        label: &Arc<str>,
        phase: LifecyclePhase,
        ok: bool,
        detail: Option<String>,
        epoch: Option<u64>,
        tenant: Option<&Arc<str>>,
    ) -> Self {
        Self {
            run_id,
            graph: Arc::clone(label),
            phase,
            task: None,
            name: Arc::clone(label),
            kind: None,
            device: None,
            worker: None,
            chain: None,
            bytes: 0,
            ok,
            detail: detail.map(Arc::from),
            epoch,
            tenant: tenant.cloned(),
            t_ns: lifecycle_now_ns(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let a = lifecycle_now_ns();
        let b = lifecycle_now_ns();
        assert!(b >= a);
    }

    #[test]
    fn phase_names_are_stable() {
        assert_eq!(LifecyclePhase::RunStart.name(), "run_start");
        assert_eq!(LifecyclePhase::Ready.name(), "ready");
        assert_eq!(LifecyclePhase::Dispatched.to_string(), "dispatched");
        assert_eq!(LifecyclePhase::RunEnd.name(), "run_end");
        assert_eq!(LifecyclePhase::EpochStart.name(), "epoch_start");
        assert_eq!(LifecyclePhase::EpochEnd.name(), "epoch_end");
    }

    #[test]
    fn events_clone_shared_names() {
        let name: Arc<str> = Arc::from("saxpy");
        let ev = LifecycleEvent {
            run_id: 7,
            graph: Arc::clone(&name),
            phase: LifecyclePhase::Finished,
            task: Some(3),
            name: Arc::clone(&name),
            kind: Some(TaskKind::Kernel),
            device: Some(1),
            worker: Some(0),
            chain: Some(2),
            bytes: 4096,
            ok: true,
            detail: None,
            epoch: None,
            tenant: None,
            t_ns: lifecycle_now_ns(),
        };
        let c = ev.clone();
        assert!(Arc::ptr_eq(&ev.name, &c.name));
        assert_eq!(c.phase, LifecyclePhase::Finished);
        assert_eq!(c.run_id, 7);
    }
}
