//! Per-task cost estimation for locality-aware placement.
//!
//! Algorithm 1's bin packing weighs tasks with the analytic
//! [`hf_gpu::CostModel`] (bandwidth × bytes, throughput × work units)
//! computed from the graph's *current* shape. That estimate drifts from
//! reality whenever host tasks resize buffers between epochs or declared
//! work units are inaccurate. The [`CostDb`] closes the loop: the
//! executor records each executed task's modeled duration (the actual
//! bytes moved / work performed, not the placement-time guess) into a
//! per-(graph, task) [`Ewma`], and the next placement recomputation
//! weighs groups with the refined estimates.
//!
//! Seeding: estimates may be pre-loaded from external history — e.g. the
//! task-duration history that `hf-timing` persists from profiler runs —
//! via [`CostDb::seed`], so the very first placement of a known workload
//! is already informed.

use hf_gpu::Ewma;
use parking_lot::Mutex;
use std::collections::HashMap;

/// Default EWMA blend weight for new observations.
const DEFAULT_ALPHA: f64 = 0.3;

/// True for a duration a placement can weigh: finite and non-negative.
/// Estimates arrive from outside the program (`hf-timing` seeds them from
/// a persisted JSON profile), so [`CostDb`] refuses anything else and
/// placement ignores one that got through.
pub(crate) fn usable_cost(nanos: f64) -> bool {
    nanos.is_finite() && nanos >= 0.0
}

/// Thread-safe table of per-(graph, task) duration estimates in
/// nanoseconds of modeled device time.
#[derive(Debug, Default)]
pub struct CostDb {
    inner: Mutex<HashMap<(String, String), Ewma>>,
}

impl CostDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Seeds an estimate from external history (e.g. a persisted timing
    /// profile). A task that already has *observed* samples keeps them;
    /// an absent or still-seed-only entry takes the new seed. A NaN,
    /// infinite or negative `nanos` is dropped.
    pub fn seed(&self, graph: &str, task: &str, nanos: f64) {
        if !usable_cost(nanos) {
            return;
        }
        let mut m = self.inner.lock();
        let e = m
            .entry((graph.to_string(), task.to_string()))
            .or_insert_with(|| Ewma::seeded(nanos));
        if e.samples() == 0 {
            *e = Ewma::seeded(nanos);
        }
    }

    /// Records one executed task's modeled duration (dropped when NaN,
    /// infinite or negative).
    pub fn observe(&self, graph: &str, task: &str, nanos: f64) {
        if !usable_cost(nanos) {
            return;
        }
        self.inner
            .lock()
            .entry((graph.to_string(), task.to_string()))
            .or_insert_with(|| Ewma::seeded(nanos))
            .observe(nanos, DEFAULT_ALPHA);
    }

    /// Current estimate for one task, if any.
    pub fn get(&self, graph: &str, task: &str) -> Option<f64> {
        self.inner
            .lock()
            .get(&(graph.to_string(), task.to_string()))
            .map(|e| e.value())
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
                .map(|((_, t), e)| (t.clone(), e.value()))
                .collect(),
        }
    }

    /// Sum of all refined estimates for one graph, with the number of
    /// tasks covered: `(total_nanos, tasks_covered)`. Allocation-free —
    /// this sits on the fleet's per-submission admission path.
    pub fn sum_for(&self, graph: &str) -> (f64, usize) {
        let m = self.inner.lock();
        let mut total = 0.0f64;
        let mut covered = 0usize;
        for ((g, _), e) in m.iter() {
            if g == graph {
                total += e.value().max(0.0);
                covered += 1;
            }
        }
        (total, covered)
    }

    /// Exports every estimate as `(graph, task, nanos)` triples — the
    /// form external history stores (e.g. `hf-timing`'s persisted task
    /// profiles) consume when capturing a finished run.
    pub fn export(&self) -> Vec<(String, String, f64)> {
        self.inner
            .lock()
            .iter()
            .map(|((g, t), e)| (g.clone(), t.clone(), e.value()))
            .collect()
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

/// Immutable per-graph snapshot of refined task costs (nanoseconds),
/// consumed by [`crate::placement::place`]. Tasks absent
/// from the snapshot fall back to the analytic model.
#[derive(Debug, Clone, Default)]
pub struct TaskCosts {
    by_task: HashMap<String, f64>,
}

impl TaskCosts {
    /// Refined estimate for `task`, if one exists.
    pub fn get(&self, task: &str) -> Option<f64> {
        self.by_task.get(task).copied()
    }

    /// True when no task has a refined estimate.
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
    fn seed_then_observe() {
        let db = CostDb::new();
        db.seed("g", "t", 100.0);
        assert_eq!(db.get("g", "t"), Some(100.0));
        // First observation replaces the seed.
        db.observe("g", "t", 10.0);
        assert_eq!(db.get("g", "t"), Some(10.0));
        // A later seed does not clobber observed data.
        db.seed("g", "t", 500.0);
        assert_eq!(db.get("g", "t"), Some(10.0));
    }

    #[test]
    fn unusable_costs_are_not_stored() {
        let db = CostDb::new();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            db.seed("g", "t", bad);
            db.observe("g", "t", bad);
        }
        assert!(db.is_empty());
        db.observe("g", "t", 10.0);
        db.observe("g", "t", f64::NAN);
        assert_eq!(db.get("g", "t"), Some(10.0));
    }

    #[test]
    fn snapshot_scopes_by_graph() {
        let db = CostDb::new();
        db.observe("a", "t1", 5.0);
        db.observe("a", "t2", 7.0);
        db.observe("b", "t1", 9.0);
        let snap = db.snapshot_for("a");
        assert_eq!(snap.get("t1"), Some(5.0));
        assert_eq!(snap.get("t2"), Some(7.0));
        assert_eq!(snap.get("t3"), None);
        assert!(!snap.is_empty());
        assert!(db.snapshot_for("c").is_empty());
        assert_eq!(db.len(), 3);
    }

    #[test]
    fn observe_converges() {
        let db = CostDb::new();
        for _ in 0..60 {
            db.observe("g", "t", 1000.0);
        }
        assert!((db.get("g", "t").unwrap() - 1000.0).abs() < 1e-6);
    }
}
