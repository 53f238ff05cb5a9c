//! Error type for graph construction and execution.

use hf_gpu::GpuError;
use std::fmt;

/// Errors produced by Heteroflow graph construction or execution.
///
/// Non-exhaustive: match with a wildcard arm; new failure modes (like the
/// fault-tolerance variants) may be added without a breaking release. Use
/// [`HfError::task`] to recover the offending task's name uniformly.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HfError {
    /// The task graph contains a dependency cycle and cannot be scheduled.
    CycleDetected {
        /// The tasks forming one cycle, in dependency order: each task's
        /// edge leads to the next, and the last task's edge closes back to
        /// the first. A self-loop is a single-element path.
        path: Vec<String>,
    },
    /// A GPU task exists but the executor owns zero GPUs.
    NoGpus {
        /// Name of the offending task.
        task: String,
    },
    /// A kernel executed before one of its source pull tasks — the user
    /// omitted the dependency the paper makes explicit ("pull tasks must
    /// finish before the kernel task and users are responsible for this
    /// dependency", §III-A.5).
    SourceNotPulled {
        /// The kernel task.
        kernel: String,
        /// The pull task whose device data was missing.
        pull: String,
    },
    /// A push task executed before its source pull task.
    PushBeforePull {
        /// The push task.
        push: String,
        /// The pull task.
        pull: String,
    },
    /// An empty (placeholder) task was executed without being assigned
    /// work.
    EmptyTask {
        /// The placeholder's name.
        task: String,
    },
    /// A task's user callable panicked; the run completes with this error
    /// instead of tearing down the executor.
    TaskPanicked {
        /// Name of the panicking task.
        task: String,
    },
    /// An underlying device error (out of memory, bad pointer, ...).
    Gpu(GpuError),
    /// The executor was shut down while the run was in flight.
    ExecutorShutDown,
    /// The graph was structurally modified while one of its topologies was
    /// still running.
    GraphBusy,
    /// A task's device operation failed after exhausting its retry budget
    /// (or failed with a non-retryable device error).
    TaskFailed {
        /// Name of the failing task.
        task: String,
        /// The device error that exhausted the budget.
        source: GpuError,
    },
    /// The run was cancelled via [`crate::RunFuture::cancel`].
    Cancelled,
    /// An epoch was submitted to a [`crate::Session`] that was already
    /// closed (explicitly or by dropping the handle).
    StreamClosed,
    /// A fleet submission would exceed one of the tenant's configured
    /// quotas (see [`crate::TenantConfig`]). Structured so callers can
    /// shed load or retry after budget refresh instead of hanging.
    QuotaExceeded {
        /// The tenant whose quota rejected the submission.
        tenant: String,
        /// Which quota rejected it (e.g. `"gpu_ns_budget"`).
        resource: String,
        /// Units the submission needed (resource-specific: nanoseconds
        /// of modeled GPU time for the budget quota).
        needed: u64,
        /// The configured limit, in the same units.
        limit: u64,
    },
    /// A fleet submission was rejected because the tenant's queue is at
    /// its configured bound — backpressure surfaced as a structured
    /// error rather than an unbounded queue.
    FleetSaturated {
        /// The tenant whose queue is full.
        tenant: String,
        /// Submissions already waiting in the tenant's queue.
        queued: usize,
        /// The configured queue bound.
        limit: usize,
    },
}

impl HfError {
    /// Name of the offending task, when the error is attributable to one.
    /// For the dependency errors the *dependent* task is reported (the
    /// kernel missing its pull, the push missing its pull).
    pub fn task(&self) -> Option<&str> {
        match self {
            HfError::CycleDetected { path } => path.first().map(String::as_str),
            HfError::NoGpus { task }
            | HfError::EmptyTask { task }
            | HfError::TaskPanicked { task }
            | HfError::TaskFailed { task, .. } => Some(task),
            HfError::SourceNotPulled { kernel, .. } => Some(kernel),
            HfError::PushBeforePull { push, .. } => Some(push),
            _ => None,
        }
    }

    /// The tenant a fleet admission error is attributed to
    /// ([`HfError::QuotaExceeded`] / [`HfError::FleetSaturated`]).
    pub fn tenant(&self) -> Option<&str> {
        match self {
            HfError::QuotaExceeded { tenant, .. } | HfError::FleetSaturated { tenant, .. } => {
                Some(tenant)
            }
            _ => None,
        }
    }

    /// The underlying device error, when there is one.
    pub fn gpu_cause(&self) -> Option<&GpuError> {
        match self {
            HfError::Gpu(e) | HfError::TaskFailed { source: e, .. } => Some(e),
            _ => None,
        }
    }
}

impl fmt::Display for HfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HfError::CycleDetected { path } => {
                write!(f, "task graph contains a cycle: ")?;
                for name in path {
                    write!(f, "'{name}' -> ")?;
                }
                match path.first() {
                    Some(first) => write!(f, "'{first}'"),
                    None => write!(f, "<empty>"),
                }
            }
            HfError::NoGpus { task } => write!(
                f,
                "task '{task}' requires a GPU but the executor has none"
            ),
            HfError::SourceNotPulled { kernel, pull } => write!(
                f,
                "kernel '{kernel}' ran before its source pull task '{pull}'; add pull.precede(kernel)"
            ),
            HfError::PushBeforePull { push, pull } => write!(
                f,
                "push '{push}' ran before its source pull task '{pull}'; add a dependency"
            ),
            HfError::EmptyTask { task } => {
                write!(f, "placeholder task '{task}' executed without assigned work")
            }
            HfError::TaskPanicked { task } => {
                write!(f, "task '{task}' panicked during execution")
            }
            HfError::Gpu(e) => write!(f, "device error: {e}"),
            HfError::ExecutorShutDown => write!(f, "executor shut down during run"),
            HfError::GraphBusy => write!(f, "graph modified while running"),
            HfError::TaskFailed { task, source } => {
                write!(f, "task '{task}' failed: {source}")
            }
            HfError::Cancelled => write!(f, "run cancelled"),
            HfError::StreamClosed => write!(f, "epoch submitted to a closed stream"),
            HfError::QuotaExceeded {
                tenant,
                resource,
                needed,
                limit,
            } => write!(
                f,
                "tenant '{tenant}' exceeded quota '{resource}': needs {needed}, limit {limit}"
            ),
            HfError::FleetSaturated {
                tenant,
                queued,
                limit,
            } => write!(
                f,
                "fleet saturated for tenant '{tenant}': {queued} submissions queued (bound {limit})"
            ),
        }
    }
}

impl std::error::Error for HfError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HfError::Gpu(e) | HfError::TaskFailed { source: e, .. } => Some(e),
            _ => None,
        }
    }
}

impl From<GpuError> for HfError {
    fn from(e: GpuError) -> Self {
        HfError::Gpu(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_task() {
        let e = HfError::CycleDetected {
            path: vec!["k1".into(), "k2".into()],
        };
        let s = e.to_string();
        // Full cycle in order, closed back to the start.
        assert!(s.contains("'k1' -> 'k2' -> 'k1'"), "got: {s}");
        let e = HfError::SourceNotPulled {
            kernel: "saxpy".into(),
            pull: "pull_x".into(),
        };
        let s = e.to_string();
        assert!(s.contains("saxpy") && s.contains("pull_x"));
    }

    #[test]
    fn gpu_error_wraps_with_source() {
        use std::error::Error;
        let e = HfError::from(GpuError::InvalidDevice(7));
        assert!(e.source().is_some());
    }

    #[test]
    fn task_accessor_is_uniform() {
        assert_eq!(
            HfError::CycleDetected {
                path: vec!["a".into(), "b".into()]
            }
            .task(),
            Some("a"),
            "cycle reports its first task"
        );
        assert_eq!(HfError::NoGpus { task: "b".into() }.task(), Some("b"));
        assert_eq!(
            HfError::SourceNotPulled {
                kernel: "k".into(),
                pull: "p".into()
            }
            .task(),
            Some("k")
        );
        assert_eq!(
            HfError::PushBeforePull {
                push: "s".into(),
                pull: "p".into()
            }
            .task(),
            Some("s")
        );
        assert_eq!(HfError::EmptyTask { task: "e".into() }.task(), Some("e"));
        assert_eq!(HfError::TaskPanicked { task: "t".into() }.task(), Some("t"));
        assert_eq!(
            HfError::TaskFailed {
                task: "f".into(),
                source: GpuError::DeviceLost(1)
            }
            .task(),
            Some("f")
        );
        assert_eq!(HfError::Cancelled.task(), None);
        assert_eq!(HfError::ExecutorShutDown.task(), None);
        assert_eq!(HfError::Gpu(GpuError::ShutDown).task(), None);
    }

    #[test]
    fn gpu_cause_sees_through_task_failed() {
        let e = HfError::TaskFailed {
            task: "k".into(),
            source: GpuError::DeviceLost(2),
        };
        assert_eq!(e.gpu_cause(), Some(&GpuError::DeviceLost(2)));
        assert_eq!(HfError::Cancelled.gpu_cause(), None);
    }
}
