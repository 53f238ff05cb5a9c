//! What the watchdog reports: the severity ladder and the structured
//! observations, with their JSON form.

use serde_json::{Map, Value};

/// Watchdog severity ladder, worst first when comparing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthVerdict {
    /// Armed runs are progressing (or none are armed).
    Healthy,
    /// A run has gone quiet longer than `warn_after`.
    Warn,
    /// A run has gone quiet longer than `stall_after`.
    Stall,
    /// A run has gone quiet longer than `hang_after`.
    Hang,
}

impl HealthVerdict {
    /// Stable lowercase name (`healthy`/`warn`/`stall`/`hang`).
    pub fn name(self) -> &'static str {
        match self {
            HealthVerdict::Healthy => "healthy",
            HealthVerdict::Warn => "warn",
            HealthVerdict::Stall => "stall",
            HealthVerdict::Hang => "hang",
        }
    }
}

impl std::fmt::Display for HealthVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A structured watchdog observation.
#[derive(Debug, Clone, PartialEq)]
pub enum HealthEvent {
    /// A run produced no lifecycle events for `idle_ns` (first rung).
    Warn {
        /// Affected run.
        run_id: u64,
        /// Quiet time when the event fired (ns).
        idle_ns: u64,
        /// Lifecycle-clock timestamp (ns).
        t_ns: u64,
    },
    /// The quiet window crossed the stall threshold.
    Stall {
        /// Affected run.
        run_id: u64,
        /// Quiet time when the event fired (ns).
        idle_ns: u64,
        /// Lifecycle-clock timestamp (ns).
        t_ns: u64,
    },
    /// The quiet window crossed the hang threshold.
    Hang {
        /// Affected run.
        run_id: u64,
        /// Quiet time when the event fired (ns).
        idle_ns: u64,
        /// Lifecycle-clock timestamp (ns).
        t_ns: u64,
    },
    /// One task has run far past its learned estimate.
    Straggler {
        /// Affected run.
        run_id: u64,
        /// Straggling task id.
        task: u32,
        /// Task name.
        name: String,
        /// Runtime so far (ns).
        runtime_ns: u64,
        /// EWMA estimate it is compared against (ns).
        estimate_ns: u64,
        /// Lifecycle-clock timestamp (ns).
        t_ns: u64,
    },
    /// A previously warned/stalled/hung run made progress or finished.
    Recovered {
        /// Affected run.
        run_id: u64,
        /// Severity it recovered from.
        from: HealthVerdict,
        /// Lifecycle-clock timestamp (ns).
        t_ns: u64,
    },
    /// The watchdog tripped cooperative cancellation at its deadline.
    DeadlineCancelled {
        /// Affected run.
        run_id: u64,
        /// Lifecycle-clock timestamp (ns).
        t_ns: u64,
    },
}

impl HealthEvent {
    /// The run the event concerns.
    pub fn run_id(&self) -> u64 {
        match self {
            HealthEvent::Warn { run_id, .. }
            | HealthEvent::Stall { run_id, .. }
            | HealthEvent::Hang { run_id, .. }
            | HealthEvent::Straggler { run_id, .. }
            | HealthEvent::Recovered { run_id, .. }
            | HealthEvent::DeadlineCancelled { run_id, .. } => *run_id,
        }
    }

    /// Stable lowercase kind name.
    pub fn kind(&self) -> &'static str {
        match self {
            HealthEvent::Warn { .. } => "warn",
            HealthEvent::Stall { .. } => "stall",
            HealthEvent::Hang { .. } => "hang",
            HealthEvent::Straggler { .. } => "straggler",
            HealthEvent::Recovered { .. } => "recovered",
            HealthEvent::DeadlineCancelled { .. } => "deadline_cancelled",
        }
    }

    /// JSON form for `/health` and artifacts.
    pub fn to_json(&self) -> Value {
        let mut o = Map::new();
        o.insert("kind".into(), Value::Str(self.kind().to_string()));
        o.insert("run_id".into(), Value::UInt(self.run_id()));
        match self {
            HealthEvent::Warn { idle_ns, t_ns, .. }
            | HealthEvent::Stall { idle_ns, t_ns, .. }
            | HealthEvent::Hang { idle_ns, t_ns, .. } => {
                o.insert("idle_ns".into(), Value::UInt(*idle_ns));
                o.insert("t_ns".into(), Value::UInt(*t_ns));
            }
            HealthEvent::Straggler {
                task,
                name,
                runtime_ns,
                estimate_ns,
                t_ns,
                ..
            } => {
                o.insert("task".into(), Value::UInt(*task as u64));
                o.insert("name".into(), Value::Str(name.clone()));
                o.insert("runtime_ns".into(), Value::UInt(*runtime_ns));
                o.insert("estimate_ns".into(), Value::UInt(*estimate_ns));
                o.insert("t_ns".into(), Value::UInt(*t_ns));
            }
            HealthEvent::Recovered { from, t_ns, .. } => {
                o.insert("from".into(), Value::Str(from.name().to_string()));
                o.insert("t_ns".into(), Value::UInt(*t_ns));
            }
            HealthEvent::DeadlineCancelled { t_ns, .. } => {
                o.insert("t_ns".into(), Value::UInt(*t_ns));
            }
        }
        Value::Object(o)
    }
}
