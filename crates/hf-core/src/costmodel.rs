//! Per-task cost seeds for placement.
//!
//! Algorithm 1's bin packing weighs tasks with the analytic
//! [`hf_gpu::CostModel`] (bandwidth × bytes, throughput × work units)
//! computed from the graph's *current* shape. A caller that knows better
//! — a persisted profile, `hf-telemetry`'s measured per-task table — says
//! so through [`CostDb::seed`] (`Executor::seed_task_cost`): the next
//! placement of that graph weighs a seeded task with the seed instead,
//! and the fleet's admission estimate sums the same numbers. Nothing
//! inside the runtime writes to the table.

use parking_lot::Mutex;
use std::collections::HashMap;

/// True for a duration a placement can weigh: finite and non-negative.
/// Seeds arrive from outside the program (a persisted profile, say), so
/// [`CostDb`] refuses anything else and placement ignores one that got
/// through.
pub(crate) fn usable_cost(nanos: f64) -> bool {
    nanos.is_finite() && nanos >= 0.0
}

/// Thread-safe table of per-(graph, task) duration seeds in nanoseconds
/// of modeled device time.
#[derive(Debug, Default)]
pub struct CostDb {
    inner: Mutex<HashMap<(String, String), f64>>,
}

impl CostDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an estimate from external history (e.g. a persisted
    /// timing profile); the last usable value for a task wins. A NaN,
    /// infinite or negative `nanos` is dropped.
    pub fn seed(&self, graph: &str, task: &str, nanos: f64) {
        if usable_cost(nanos) {
            let key = (graph.to_string(), task.to_string());
            self.inner.lock().insert(key, nanos);
        }
    }

    /// Current estimate for one task, if any.
    pub fn get(&self, graph: &str, task: &str) -> Option<f64> {
        self.inner
            .lock()
            .get(&(graph.to_string(), task.to_string()))
            .copied()
    }

    /// Snapshot of every estimate for one graph, keyed by task name —
    /// the form the placement routines consume (no locking inside the
    /// packing loop).
    pub fn snapshot_for(&self, graph: &str) -> TaskCosts {
        let m = self.inner.lock();
        TaskCosts {
            by_task: m
                .iter()
                .filter(|((g, _), _)| g == graph)
                .map(|((_, t), &ns)| (t.clone(), ns))
                .collect(),
        }
    }

    /// Sum of all seeds for one graph, with the number of tasks covered:
    /// `(total_nanos, tasks_covered)`. Allocation-free — this sits on the
    /// fleet's per-submission admission path.
    pub fn sum_for(&self, graph: &str) -> (f64, usize) {
        let m = self.inner.lock();
        let mut total = 0.0f64;
        let mut covered = 0usize;
        for ((g, _), &ns) in m.iter() {
            if g == graph {
                total += ns.max(0.0);
                covered += 1;
            }
        }
        (total, covered)
    }

    /// Number of (graph, task) entries.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True when no estimates are recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Immutable per-graph snapshot of seeded task costs (nanoseconds),
/// consumed by [`crate::placement::place`]. Tasks absent
/// from the snapshot fall back to the analytic model.
#[derive(Debug, Clone, Default)]
pub struct TaskCosts {
    by_task: HashMap<String, f64>,
}

impl TaskCosts {
    /// Seeded estimate for `task`, if one exists.
    pub fn get(&self, task: &str) -> Option<f64> {
        self.by_task.get(task).copied()
    }

    /// True when no task has a seed.
    pub fn is_empty(&self) -> bool {
        self.by_task.is_empty()
    }

    /// A snapshot holding exactly `pairs`, unchecked — what [`CostDb`]
    /// would never store, for testing that placement ignores it anyway.
    #[cfg(test)]
    pub(crate) fn unchecked(pairs: &[(&str, f64)]) -> Self {
        Self { by_task: pairs.iter().map(|&(t, w)| (t.to_string(), w)).collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_seed_wins() {
        let db = CostDb::new();
        db.seed("g", "t", 100.0);
        assert_eq!(db.get("g", "t"), Some(100.0));
        db.seed("g", "t", 500.0);
        assert_eq!(db.get("g", "t"), Some(500.0));
        assert_eq!(db.get("g", "u"), None);
    }

    #[test]
    fn unusable_costs_are_not_stored() {
        let db = CostDb::new();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            db.seed("g", "t", bad);
        }
        assert!(db.is_empty());
        db.seed("g", "t", 10.0);
        db.seed("g", "t", f64::NAN);
        assert_eq!(db.get("g", "t"), Some(10.0));
    }

    #[test]
    fn snapshot_scopes_by_graph() {
        let db = CostDb::new();
        db.seed("a", "t1", 5.0);
        db.seed("a", "t2", 7.0);
        db.seed("b", "t1", 9.0);
        let snap = db.snapshot_for("a");
        assert_eq!(snap.get("t1"), Some(5.0));
        assert_eq!(snap.get("t2"), Some(7.0));
        assert_eq!(snap.get("t3"), None);
        assert!(!snap.is_empty());
        assert!(db.snapshot_for("c").is_empty());
        assert_eq!(db.sum_for("a"), (12.0, 2));
        assert_eq!(db.len(), 3);
    }
}
