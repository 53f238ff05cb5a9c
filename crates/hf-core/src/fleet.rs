//! Multi-tenant submission front-end: one shared executor fleet, many
//! concurrent client graphs, pluggable fair admission.
//!
//! The executor already runs any number of *different* graphs
//! concurrently — topologies share the workers, the lock-free injector,
//! the GPU engines, and the memory pools. What it lacks for serving is
//! *policy*: who gets in next when the fleet is saturated, and how much
//! of the shared hardware any one client may consume. The [`Fleet`]
//! supplies that layer:
//!
//! * **Per-tenant queues.** [`Fleet::submit`] parks the submission in
//!   the tenant's queue and returns a [`RunFuture`] immediately; the
//!   future settles when the run (eventually admitted and executed)
//!   completes. Cancelling a still-queued future settles it with
//!   [`HfError::Cancelled`] without it ever dispatching.
//! * **Pluggable admission** ([`crate::admission`]): FIFO or weighted-fair
//!   (start-time fair queueing over cost-model virtual time) decides
//!   which queue's head is admitted whenever an in-flight slot frees up.
//! * **Quotas and backpressure.** Per-tenant in-flight caps park excess
//!   submissions (backpressure); per-tenant queue bounds return
//!   [`HfError::FleetSaturated`]; a modeled GPU-nanosecond budget
//!   returns [`HfError::QuotaExceeded`]. Retry-policy re-dispatches are
//!   billed to the owning tenant's budget after the run completes.
//! * **Attribution.** Every lifecycle event of a fleet run carries the
//!   [`TenantId`], so flight recorders fold per-tenant queue-delay /
//!   exec / run-latency histograms, and [`Fleet::snapshot`] exposes
//!   per-tenant quota gauges.
//!
//! The fleet has no thread of its own: admission runs on whichever
//! thread submits, completes a run, or waits — the same
//! callback-chaining style the epoch drivers use.

use crate::admission::{AdmissionPolicy, Fifo, LaneView, TenantConfig, TenantId};
use crate::error::HfError;
use crate::executor::Executor;
use crate::graph::Heteroflow;
use crate::stream::run_until;
use crate::topology::{Completion, RunFuture};
use parking_lot::{Condvar, Mutex};
use serde::Serialize;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fleet-wide configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Maximum admitted-but-unfinished submissions across all tenants.
    /// Further submissions park in their tenant queues. Clamped to at
    /// least 1.
    pub max_inflight: usize,
    /// Modeled cost (nanoseconds) assumed per task nobody seeded
    /// (`Executor::seed_task_cost`) — the virtual-time currency when no
    /// profile exists.
    pub default_task_cost_ns: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            max_inflight: 8,
            default_task_cost_ns: 1_000,
        }
    }
}

/// One parked submission.
struct Queued {
    hf: Heteroflow,
    rounds: usize,
    core: Completion,
    est_ns: u64,
    retry_unit_ns: u64,
    seq: u64,
    enqueued: Instant,
}

/// One tenant's queue plus accounting.
struct Lane {
    id: TenantId,
    cfg: TenantConfig,
    queue: VecDeque<Queued>,
    inflight: usize,
    submitted: u64,
    admitted: u64,
    completed: u64,
    failed: u64,
    cancelled: u64,
    cancelled_queued: u64,
    rejected_quota: u64,
    rejected_saturated: u64,
    retries: u64,
    gpu_ns_charged: u64,
    queue_wait_ns_total: u64,
}

impl Lane {
    fn new(id: TenantId, cfg: TenantConfig) -> Self {
        Self {
            id,
            cfg,
            queue: VecDeque::new(),
            inflight: 0,
            submitted: 0,
            admitted: 0,
            completed: 0,
            failed: 0,
            cancelled: 0,
            cancelled_queued: 0,
            rejected_quota: 0,
            rejected_saturated: 0,
            retries: 0,
            gpu_ns_charged: 0,
            queue_wait_ns_total: 0,
        }
    }

    /// What the admission policy sees of this lane (its queue non-empty).
    fn view(&self) -> LaneView<'_> {
        let head = self.queue.front().expect("eligible lanes have a head");
        LaneView {
            tenant: self.id.as_str(),
            weight: self.cfg.weight.max(1),
            queued: self.queue.len(),
            inflight: self.inflight,
            head_seq: head.seq,
            head_cost_ns: head.est_ns,
        }
    }
}

struct FleetState {
    lanes: Vec<Lane>,
    index: HashMap<TenantId, usize>,
    inflight_total: usize,
    queued_total: usize,
    seq: u64,
    /// Re-entrancy guard: one thread drains the pump loop at a time;
    /// others just flag a re-run.
    pumping: bool,
    repump: bool,
}

struct FleetInner {
    exec: Executor,
    cfg: FleetConfig,
    policy: Mutex<Box<dyn AdmissionPolicy>>,
    policy_name: &'static str,
    state: Mutex<FleetState>,
    idle_cv: Condvar,
}

/// An admitted submission carried out of the state lock for dispatch.
struct Launch {
    hf: Heteroflow,
    rounds: usize,
    core: Completion,
    tenant: Arc<str>,
    lane: usize,
    retry_unit_ns: u64,
}

/// The multi-tenant submission front-end (see the [module docs](self)).
/// Owns the executor; all tenants share its workers, GPU engines, and
/// memory pools.
pub struct Fleet {
    inner: Arc<FleetInner>,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.state.lock();
        f.debug_struct("Fleet")
            .field("policy", &self.inner.policy_name)
            .field("tenants", &st.lanes.len())
            .field("inflight", &st.inflight_total)
            .field("queued", &st.queued_total)
            .finish()
    }
}

impl Fleet {
    /// Creates a fleet over `exec` with FIFO admission (the baseline;
    /// see [`Fleet::with_policy`] for weighted-fair).
    pub fn new(exec: Executor, cfg: FleetConfig) -> Self {
        Self::with_policy(exec, cfg, Box::new(Fifo))
    }

    /// Creates a fleet with an explicit admission policy.
    pub fn with_policy(
        exec: Executor,
        cfg: FleetConfig,
        policy: Box<dyn AdmissionPolicy>,
    ) -> Self {
        let name = policy.name();
        Self {
            inner: Arc::new(FleetInner {
                exec,
                cfg: FleetConfig {
                    max_inflight: cfg.max_inflight.max(1),
                    ..cfg
                },
                policy: Mutex::new(policy),
                policy_name: name,
                state: Mutex::new(FleetState {
                    lanes: Vec::new(),
                    index: HashMap::new(),
                    inflight_total: 0,
                    queued_total: 0,
                    seq: 0,
                    pumping: false,
                    repump: false,
                }),
                idle_cv: Condvar::new(),
            }),
        }
    }

    /// The shared executor (stats, cost model, telemetry wiring).
    pub fn executor(&self) -> &Executor {
        &self.inner.exec
    }

    /// The admission policy's stable name.
    pub fn policy_name(&self) -> &'static str {
        self.inner.policy_name
    }

    /// Registers (or reconfigures) a tenant. Submitting under an
    /// unregistered tenant registers it implicitly with
    /// [`TenantConfig::default`]; explicit registration is how weights,
    /// priorities, and quotas are set.
    pub fn register(&self, tenant: impl Into<TenantId>, cfg: TenantConfig) -> TenantId {
        let id = tenant.into();
        let mut st = self.inner.state.lock();
        let existing = st.index.get(&id).copied();
        match existing {
            Some(i) => st.lanes[i].cfg = cfg,
            None => {
                let i = st.lanes.len();
                st.lanes.push(Lane::new(id.clone(), cfg));
                st.index.insert(id.clone(), i);
            }
        }
        id
    }

    /// Submits one run of `hf` under `tenant`. Returns a parked
    /// [`RunFuture`] immediately — it settles when the run is admitted
    /// and completes — or a structured error when the tenant's queue
    /// bound ([`HfError::FleetSaturated`]) or GPU-time budget
    /// ([`HfError::QuotaExceeded`]) rejects the submission.
    pub fn submit(&self, tenant: &TenantId, hf: &Heteroflow) -> Result<RunFuture, HfError> {
        self.submit_n(tenant, hf, 1)
    }

    /// [`Fleet::submit`] running the graph `n` rounds back-to-back
    /// (the fleet analogue of [`Executor::run_n`]).
    pub fn submit_n(
        &self,
        tenant: &TenantId,
        hf: &Heteroflow,
        n: usize,
    ) -> Result<RunFuture, HfError> {
        let inner = &self.inner;
        let (per_run, per_task) = inner.estimate_ns(hf);
        let est = per_run.saturating_mul(n.max(1) as u64);
        let (core, fast) = {
            let mut st = inner.state.lock();
            let li = match st.index.get(tenant) {
                Some(&i) => i,
                None => {
                    let i = st.lanes.len();
                    st.lanes
                        .push(Lane::new(tenant.clone(), TenantConfig::default()));
                    st.index.insert(tenant.clone(), i);
                    i
                }
            };
            let lane = &mut st.lanes[li];
            if let Some(budget) = lane.cfg.gpu_ns_budget {
                let needed = lane.gpu_ns_charged.saturating_add(est);
                if needed > budget {
                    lane.rejected_quota += 1;
                    inner.exec.inner.stats.fleet_rejections.incr();
                    return Err(HfError::QuotaExceeded {
                        tenant: tenant.as_str().to_string(),
                        resource: "gpu_ns_budget".to_string(),
                        needed,
                        limit: budget,
                    });
                }
            }
            if lane.queue.len() >= lane.cfg.max_queued {
                lane.rejected_saturated += 1;
                inner.exec.inner.stats.fleet_rejections.incr();
                return Err(HfError::FleetSaturated {
                    tenant: tenant.as_str().to_string(),
                    queued: lane.queue.len(),
                    limit: lane.cfg.max_queued,
                });
            }
            // Reserve the budget at submission so concurrent submitters
            // see a deterministic quota; a queued-then-cancelled entry
            // refunds it.
            lane.gpu_ns_charged = lane.gpu_ns_charged.saturating_add(est);
            lane.submitted += 1;
            let run_id = inner.exec.inner.run_seq.fetch_add(1, Ordering::Relaxed) + 1;
            let core = Completion::new(run_id);
            let seq = st.seq;
            st.seq += 1;
            st.lanes[li].queue.push_back(Queued {
                hf: hf.clone(),
                rounds: n,
                core: core.clone(),
                est_ns: est,
                retry_unit_ns: per_task,
                seq,
                enqueued: Instant::now(),
            });
            st.queued_total += 1;
            // Quiet-fleet fast path: with nothing else queued, no pump
            // loop in flight, and a free slot for this lane, the policy's
            // pick is over exactly one lane — admit inline under the lock
            // we already hold instead of taking the pump's three extra
            // lock round-trips and per-admission allocations. The entry
            // cannot be cancelled yet (its future hasn't been returned),
            // so the sweep is vacuous too.
            let fast = if st.queued_total == 1
                && !st.pumping
                && st.inflight_total < inner.cfg.max_inflight
                && st.lanes[li].inflight < st.lanes[li].cfg.max_inflight
            {
                inner.admit_head(&mut st, li)
            } else {
                None
            };
            (core, fast)
        };
        match fast {
            Some(launch) => inner.dispatch(launch),
            None => inner.pump(),
        }
        Ok(core)
    }

    /// Blocks until every queued and in-flight submission has settled
    /// (including queued entries settled by cancellation), then drains
    /// the executor itself.
    pub fn wait_idle(&self) {
        self.inner.pump();
        let mut st = self.inner.state.lock();
        while st.inflight_total > 0 || st.queued_total > 0 {
            // A queued entry cancelled while the fleet is otherwise idle
            // is only swept by the pump; poll it on a short period.
            if self
                .inner
                .idle_cv
                .wait_for(&mut st, Duration::from_millis(5))
                .timed_out()
            {
                drop(st);
                self.inner.pump();
                st = self.inner.state.lock();
            }
        }
        drop(st);
        self.inner.exec.wait_for_all();
    }

    /// A point-in-time snapshot of fleet and per-tenant accounting
    /// (serializable; the `/tenants` health endpoint serves it).
    pub fn snapshot(&self) -> FleetSnapshot {
        let st = self.inner.state.lock();
        FleetSnapshot {
            policy: self.inner.policy_name.to_string(),
            max_inflight: self.inner.cfg.max_inflight,
            inflight: st.inflight_total,
            queued: st.queued_total,
            tenants: st
                .lanes
                .iter()
                .map(|l| TenantSnapshot {
                    tenant: l.id.as_str().to_string(),
                    weight: l.cfg.weight,
                    queued: l.queue.len(),
                    inflight: l.inflight,
                    submitted: l.submitted,
                    admitted: l.admitted,
                    completed: l.completed,
                    failed: l.failed,
                    cancelled: l.cancelled,
                    cancelled_queued: l.cancelled_queued,
                    rejected_quota: l.rejected_quota,
                    rejected_saturated: l.rejected_saturated,
                    retries: l.retries,
                    gpu_ns_charged: l.gpu_ns_charged,
                    gpu_ns_budget: l.cfg.gpu_ns_budget,
                    queue_wait_ns_total: l.queue_wait_ns_total,
                })
                .collect(),
        }
    }
}

impl FleetInner {
    /// Modeled cost of one run of `hf`: the sum of the per-task seeds
    /// (`Executor::seed_task_cost`) where they exist, with a flat
    /// [`FleetConfig::default_task_cost_ns`] fallback for the rest.
    /// Returns `(per_run_ns, per_task_ns)`; the latter is the unit a
    /// retry is billed at.
    fn estimate_ns(&self, hf: &Heteroflow) -> (u64, u64) {
        let n = hf.num_tasks() as u64;
        if n == 0 {
            return (1, 1);
        }
        let db = self.exec.cost_db();
        // Only `Executor::seed_task_cost` fills the table; skip the
        // graph-name allocation and scan when nobody has.
        let (refined, covered) = if db.is_empty() {
            (0.0, 0)
        } else {
            db.sum_for(&hf.name())
        };
        let covered = (covered as u64).min(n);
        let est = (refined as u64)
            .saturating_add((n - covered) * self.cfg.default_task_cost_ns)
            .max(1);
        (est, (est / n).max(1))
    }

    /// Admission loop: sweeps cancelled queued entries, then admits head
    /// submissions chosen by the policy until the fleet cap is reached
    /// or nothing is eligible. Dispatch happens outside the state lock;
    /// a re-entrancy guard collapses concurrent pumps into re-runs.
    fn pump(self: &Arc<Self>) {
        {
            let mut st = self.state.lock();
            if st.pumping {
                st.repump = true;
                return;
            }
            st.pumping = true;
        }
        loop {
            let mut cancelled: Vec<Completion> = Vec::new();
            let mut launches: Vec<Launch> = Vec::new();
            {
                let mut st = self.state.lock();
                self.sweep_cancelled(&mut st, &mut cancelled);
                let mut policy = self.policy.lock();
                while st.inflight_total < self.cfg.max_inflight {
                    let picked = {
                        let eligible: Vec<usize> = st
                            .lanes
                            .iter()
                            .enumerate()
                            .filter(|(_, l)| {
                                !l.queue.is_empty() && l.inflight < l.cfg.max_inflight
                            })
                            .map(|(i, _)| i)
                            .collect();
                        if eligible.is_empty() {
                            None
                        } else {
                            let views: Vec<LaneView<'_>> =
                                eligible.iter().map(|&i| st.lanes[i].view()).collect();
                            match policy.pick(&views) {
                                Some(k) if k < views.len() => {
                                    policy.admitted(&views[k], views[k].head_cost_ns);
                                    Some(eligible[k])
                                }
                                _ => None,
                            }
                        }
                    };
                    let Some(li) = picked else { break };
                    launches.push(self.take_head(&mut st, li));
                }
            }
            let had_cancels = !cancelled.is_empty();
            for c in cancelled {
                self.exec.inner.stats.cancelled.incr();
                c.promise.complete(Err(HfError::Cancelled));
            }
            if had_cancels {
                self.idle_cv.notify_all();
            }
            for l in launches {
                self.dispatch(l);
            }
            let mut st = self.state.lock();
            if st.repump {
                st.repump = false;
                continue;
            }
            st.pumping = false;
            return;
        }
    }

    /// Pops lane `li`'s head submission and performs the admission
    /// bookkeeping (counters, queue-wait attribution, fleet stats),
    /// returning the [`Launch`] to dispatch outside the lock. The caller
    /// has already consulted the admission policy.
    fn take_head(&self, st: &mut FleetState, li: usize) -> Launch {
        let q = st.lanes[li].queue.pop_front().expect("picked lane head");
        st.queued_total -= 1;
        st.inflight_total += 1;
        let lane = &mut st.lanes[li];
        lane.inflight += 1;
        lane.admitted += 1;
        lane.queue_wait_ns_total = lane
            .queue_wait_ns_total
            .saturating_add(q.enqueued.elapsed().as_nanos() as u64);
        let tenant = Arc::clone(&lane.id.0);
        self.exec.inner.stats.fleet_admissions.incr();
        Launch {
            hf: q.hf,
            rounds: q.rounds,
            core: q.core,
            tenant,
            lane: li,
            retry_unit_ns: q.retry_unit_ns,
        }
    }

    /// Single-lane admission used by the submit fast path: consults the
    /// policy with a one-element view (keeping its virtual-time
    /// accounting exact) without the pump loop's heap allocations. The
    /// caller holds the state lock and has verified eligibility.
    fn admit_head(&self, st: &mut FleetState, li: usize) -> Option<Launch> {
        let mut policy = self.policy.lock();
        let view = st.lanes[li].view();
        match policy.pick(std::slice::from_ref(&view)) {
            Some(0) => {
                policy.admitted(&view, view.head_cost_ns);
                drop(policy);
                Some(self.take_head(st, li))
            }
            _ => None,
        }
    }

    /// Settles cancelled queued entries without dispatching them and
    /// refunds their budget reservation. Cores are completed by the
    /// caller outside the lock.
    fn sweep_cancelled(&self, st: &mut FleetState, out: &mut Vec<Completion>) {
        for li in 0..st.lanes.len() {
            for qi in (0..st.lanes[li].queue.len()).rev() {
                if st.lanes[li].queue[qi].core.cancel_requested() {
                    let q = st.lanes[li].queue.remove(qi).expect("index checked");
                    st.queued_total -= 1;
                    let lane = &mut st.lanes[li];
                    lane.cancelled_queued += 1;
                    lane.cancelled += 1;
                    lane.gpu_ns_charged = lane.gpu_ns_charged.saturating_sub(q.est_ns);
                    out.push(q.core);
                }
            }
        }
    }

    /// Hands one admitted submission to the shared epoch driver. The
    /// driver reuses the pre-allocated completion core (the caller's
    /// future), stamps the tenant onto every lifecycle event, and calls
    /// back into the fleet when the run settles.
    fn dispatch(self: &Arc<Self>, l: Launch) {
        let me = Arc::clone(self);
        let li = l.lane;
        let retry_unit = l.retry_unit_ns;
        let mut remaining = l.rounds;
        let stop = Box::new(move || {
            if remaining == 0 {
                true
            } else {
                remaining -= 1;
                false
            }
        });
        // The returned future shares the caller's completion core; the
        // caller's RunFuture is the live handle, so this one is dropped.
        drop(run_until(
            &self.exec,
            &l.hf,
            stop,
            Some(l.core),
            Some(l.tenant),
            Some(Box::new(move |result, retries| {
                me.on_run_done(li, result, retries, retry_unit)
            })),
        ));
    }

    /// Run-completion callback (fires on whichever thread settled the
    /// run): releases the in-flight slot, bills retry work to the
    /// tenant's budget, and pumps the next admission.
    fn on_run_done(
        self: &Arc<Self>,
        lane_idx: usize,
        result: &Result<(), HfError>,
        retries: u32,
        retry_unit_ns: u64,
    ) {
        let work_waiting = {
            let mut st = self.state.lock();
            st.inflight_total -= 1;
            let lane = &mut st.lanes[lane_idx];
            lane.inflight -= 1;
            match result {
                Ok(()) => lane.completed += 1,
                Err(HfError::Cancelled) => lane.cancelled += 1,
                Err(_) => lane.failed += 1,
            }
            if retries > 0 {
                lane.retries += retries as u64;
                lane.gpu_ns_charged = lane
                    .gpu_ns_charged
                    .saturating_add(retries as u64 * retry_unit_ns);
            }
            st.queued_total > 0
        };
        self.idle_cv.notify_all();
        // Nothing queued means nothing to admit or sweep — skip the pump
        // on the (solo-tenant) fast path. A submission racing in after
        // the check runs its own pump and sees the slot we just freed.
        if work_waiting {
            self.pump();
        }
    }
}

/// Serializable point-in-time fleet accounting
/// (see [`Fleet::snapshot`]).
#[derive(Debug, Clone, Serialize)]
pub struct FleetSnapshot {
    /// Admission policy name.
    pub policy: String,
    /// Fleet-wide in-flight cap.
    pub max_inflight: usize,
    /// Admitted-but-unfinished submissions right now.
    pub inflight: usize,
    /// Parked submissions across all tenant queues.
    pub queued: usize,
    /// Per-tenant accounting.
    pub tenants: Vec<TenantSnapshot>,
}

/// Per-tenant accounting within a [`FleetSnapshot`].
#[derive(Debug, Clone, Serialize)]
pub struct TenantSnapshot {
    /// Tenant name.
    pub tenant: String,
    /// Weighted-fair share.
    pub weight: u32,
    /// Submissions parked in the queue right now.
    pub queued: usize,
    /// Submissions in flight right now.
    pub inflight: usize,
    /// Submissions accepted (queued or admitted) in total.
    pub submitted: u64,
    /// Submissions admitted to the executor.
    pub admitted: u64,
    /// Runs completed successfully.
    pub completed: u64,
    /// Runs that failed with an error other than cancellation.
    pub failed: u64,
    /// Runs settled as cancelled (queued or in-flight).
    pub cancelled: u64,
    /// Cancelled while still queued (never dispatched).
    pub cancelled_queued: u64,
    /// Submissions rejected by the GPU-time budget.
    pub rejected_quota: u64,
    /// Submissions rejected by the queue bound.
    pub rejected_saturated: u64,
    /// Retry-policy re-dispatches billed to this tenant.
    pub retries: u64,
    /// Modeled GPU-nanoseconds charged against the budget (reservations
    /// plus retry charges, minus refunds for queue-cancelled entries).
    pub gpu_ns_charged: u64,
    /// Budget, when configured.
    pub gpu_ns_budget: Option<u64>,
    /// Total nanoseconds submissions spent queued before admission.
    pub queue_wait_ns_total: u64,
}
