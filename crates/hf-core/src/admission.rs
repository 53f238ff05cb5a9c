//! Pluggable admission policies for the multi-tenant [`crate::Fleet`].
//!
//! A fleet holds one queue per tenant and repeatedly asks its
//! [`AdmissionPolicy`] which queue's head submission to admit into the
//! shared executor next. The policy sees a snapshot of every *eligible*
//! lane (non-empty queue, tenant below its in-flight quota) as
//! [`LaneView`]s and returns an index; the fleet pops that lane's head,
//! dispatches it, and notifies the policy via
//! [`AdmissionPolicy::admitted`] so virtual-time bookkeeping can advance.
//!
//! Two policies ship in-tree:
//!
//! * [`Fifo`] — global arrival order, tenant-blind. The baseline: a
//!   large batch backlog starves small latency-sensitive tenants.
//! * [`WeightedFair`] — start-time fair queueing over per-tenant virtual
//!   time: each admission advances the tenant's virtual finish tag by
//!   `cost / weight`, and the lane with the smallest start tag wins.
//!   Idle tenants re-enter at the current virtual clock (no credit
//!   hoarding), so a latency-sensitive tenant submitting occasionally
//!   always schedules near the front regardless of batch backlog depth.
//!
//! Policies are `Send` objects owned by the fleet's state lock; they may
//! keep internal bookkeeping without further synchronization.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Identifies one tenant of a [`crate::Fleet`]. Cheap to clone (shared
/// string); compares and hashes by name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TenantId(pub(crate) Arc<str>);

impl TenantId {
    /// Creates a tenant id from a name.
    pub(crate) fn new(name: &str) -> Self {
        Self(Arc::from(name))
    }

    /// The tenant's name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for TenantId {
    fn from(s: &str) -> Self {
        Self::new(s)
    }
}

impl From<String> for TenantId {
    fn from(s: String) -> Self {
        Self(Arc::from(s.as_str()))
    }
}

/// Per-tenant configuration: the fairness input (weight) and
/// quotas (in-flight cap, queue bound, GPU-time budget).
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Weighted-fair share. A weight-4 tenant accrues virtual time at a
    /// quarter of the rate of a weight-1 tenant for equal work, so it is
    /// scheduled four times as often. Clamped to at least 1.
    pub weight: u32,
    /// Maximum submissions of this tenant in flight at once; further
    /// submissions park in the tenant's queue (backpressure, not an
    /// error).
    pub max_inflight: usize,
    /// Maximum submissions parked in the tenant's queue; beyond it
    /// `submit` returns [`crate::HfError::FleetSaturated`].
    pub max_queued: usize,
    /// Budget of modeled GPU-nanoseconds (cost-model estimates plus
    /// retry charges). `None` is unlimited; exceeding it returns
    /// [`crate::HfError::QuotaExceeded`].
    pub gpu_ns_budget: Option<u64>,
}

impl Default for TenantConfig {
    fn default() -> Self {
        Self {
            weight: 1,
            max_inflight: usize::MAX,
            max_queued: 1024,
            gpu_ns_budget: None,
        }
    }
}

/// Snapshot of one admissible tenant lane, handed to
/// [`AdmissionPolicy::pick`]. Only lanes that *can* be admitted appear
/// (non-empty queue, tenant under its in-flight quota, fleet under its
/// global cap).
#[derive(Debug)]
pub struct LaneView<'a> {
    /// The tenant's name.
    pub tenant: &'a str,
    /// Weighted-fair share (≥ 1).
    pub weight: u32,
    /// Submissions waiting in this lane (including the head).
    pub queued: usize,
    /// Submissions of this tenant currently in flight.
    pub inflight: usize,
    /// Global arrival sequence number of the head submission (smaller =
    /// older).
    pub head_seq: u64,
    /// Modeled cost of the head submission (GPU-nanoseconds from the
    /// seeded per-task costs, with a flat per-task fallback).
    pub head_cost_ns: u64,
}

/// Chooses which tenant's head submission the fleet admits next.
pub trait AdmissionPolicy: Send {
    /// Stable policy name (surfaced in fleet snapshots and `/tenants`).
    fn name(&self) -> &'static str;

    /// Picks the index (into `lanes`) of the lane to admit from, or
    /// `None` to admit nothing this round. `lanes` is never empty.
    fn pick(&mut self, lanes: &[LaneView<'_>]) -> Option<usize>;

    /// Notified after the picked lane's head was admitted with its
    /// modeled cost — the hook where virtual-time bookkeeping advances.
    fn admitted(&mut self, _lane: &LaneView<'_>, _cost_ns: u64) {}
}

/// Global arrival order, tenant-blind (the baseline policy).
#[derive(Debug, Default)]
pub struct Fifo;

impl AdmissionPolicy for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn pick(&mut self, lanes: &[LaneView<'_>]) -> Option<usize> {
        lanes
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l.head_seq)
            .map(|(i, _)| i)
    }
}

/// Start-time fair queueing (SFQ) over per-tenant virtual time.
///
/// Each admission is tagged with a start time `S = max(V, F_t)` where
/// `V` is the global virtual clock and `F_t` the tenant's previous
/// finish tag; the tenant's finish advances to `S + cost / weight` and
/// `V` jumps to the admitted start. The lane with the smallest start
/// tag is picked (ties broken by arrival order). Tenants idle for a
/// while re-enter at `V` — they get immediate service but no banked
/// credit, which is exactly the behavior that keeps a small
/// latency-sensitive tenant's p99 flat under a deep batch backlog.
#[derive(Debug, Default)]
pub struct WeightedFair {
    vclock: f64,
    finish: HashMap<String, f64>,
}

impl WeightedFair {
    fn start_tag(&self, lane: &LaneView<'_>) -> f64 {
        self.finish
            .get(lane.tenant)
            .copied()
            .unwrap_or(self.vclock)
            .max(self.vclock)
    }
}

impl AdmissionPolicy for WeightedFair {
    fn name(&self) -> &'static str {
        "weighted_fair"
    }

    fn pick(&mut self, lanes: &[LaneView<'_>]) -> Option<usize> {
        lanes
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                self.start_tag(a)
                    .total_cmp(&self.start_tag(b))
                    .then(a.head_seq.cmp(&b.head_seq))
            })
            .map(|(i, _)| i)
    }

    fn admitted(&mut self, lane: &LaneView<'_>, cost_ns: u64) {
        let s = self.start_tag(lane);
        self.vclock = s;
        let w = lane.weight.max(1) as f64;
        self.finish
            .insert(lane.tenant.to_string(), s + cost_ns as f64 / w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lane<'a>(tenant: &'a str, weight: u32, head_seq: u64, head_cost_ns: u64) -> LaneView<'a> {
        LaneView {
            tenant,
            weight,
            queued: 1,
            inflight: 0,
            head_seq,
            head_cost_ns,
        }
    }

    #[test]
    fn fifo_picks_oldest() {
        let mut p = Fifo;
        let lanes = [lane("a", 1, 9, 100), lane("b", 1, 3, 100)];
        assert_eq!(p.pick(&lanes), Some(1));
    }

    #[test]
    fn weighted_fair_interleaves_small_tenant_into_backlog() {
        // Batch tenant (weight 1) has a deep backlog of cost-1000 jobs;
        // the small tenant (weight 4) arrives later with cost-100 jobs.
        // SFQ must schedule the small tenant ahead of the remaining
        // backlog rather than behind all of it.
        let mut p = WeightedFair::default();
        let b = lane("batch", 1, 0, 1000);
        assert_eq!(p.pick(&[b]), Some(0));
        p.admitted(&lane("batch", 1, 0, 1000), 1000);

        // Small tenant shows up: its start tag is the current vclock,
        // batch's is its finish tag (1000) — small wins.
        let lanes = [lane("batch", 1, 1, 1000), lane("small", 4, 10, 100)];
        assert_eq!(p.pick(&lanes), Some(1));
        p.admitted(&lanes[1], 100);

        // Small's finish advanced only by cost/weight = 25; it keeps
        // winning until its virtual time catches the backlog's.
        let lanes = [lane("batch", 1, 1, 1000), lane("small", 4, 11, 100)];
        assert_eq!(p.pick(&lanes), Some(1));
    }

    #[test]
    fn weighted_fair_respects_weights_long_run() {
        // Equal cost jobs, weights 3:1 — over many admissions the
        // weight-3 tenant is picked ~3x as often.
        let mut p = WeightedFair::default();
        let mut counts = (0u32, 0u32);
        for seq in 0..400u64 {
            let lanes = [lane("heavy", 3, seq, 300), lane("light", 1, seq, 300)];
            let i = p.pick(&lanes).unwrap();
            p.admitted(&lanes[i], 300);
            if i == 0 {
                counts.0 += 1;
            } else {
                counts.1 += 1;
            }
        }
        assert!(
            counts.0 > counts.1 * 2 && counts.0 < counts.1 * 4,
            "expected ~3:1 split, got {counts:?}"
        );
    }

    #[test]
    fn tenant_id_semantics() {
        let a = TenantId::new("svc-a");
        let b: TenantId = "svc-a".into();
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "svc-a");
        assert_eq!(TenantId::from("x".to_string()).as_str(), "x");
    }
}
