//! The flight recorder: the observer that captures lifecycle events and
//! the per-run flight logs, latency histograms and EWMAs `pump` folds
//! them into.

use super::tenants::TenantHists;
use crate::metrics::{duration_bounds_nanos, Histogram, MetricsRegistry};
use hf_core::{ExecutorObserver, LifecycleEvent, LifecyclePhase};
use hf_sync::EventRing;
use parking_lot::Mutex;
use serde_json::{Map, Value};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Default capacity of the lock-free event ring (events between pumps
/// beyond this are dropped and counted, never blocked on).
const DEFAULT_RING_CAPACITY: usize = 64 * 1024;

/// Default cap on events kept per run in the flight log. Timing and
/// counters keep updating past the cap; only the verbatim event list is
/// truncated (with a drop count).
const DEFAULT_PER_RUN_CAP: usize = 8 * 1024;

/// Completed runs retained for `/runs` summaries and dumps.
const DEFAULT_KEEP_COMPLETED: usize = 16;

/// EWMA smoothing for per-task execution-time estimates.
const EWMA_ALPHA: f64 = 0.25;

/// Per-task timing state inside one run's flight log.
#[derive(Debug, Default, Clone)]
struct TaskTiming {
    name: Option<Arc<str>>,
    ready_ns: Option<u64>,
    started_ns: Option<u64>,
    finished_ns: Option<u64>,
    retries: u32,
    failures: u32,
}

/// One run's flight log: the bounded event list plus derived state.
#[derive(Debug)]
struct RunFlight {
    run_id: u64,
    graph: Arc<str>,
    /// Tenant the run is attributed to, captured from the first
    /// lifecycle event that carries one (fleet submissions only).
    tenant: Option<Arc<str>>,
    events: Vec<LifecycleEvent>,
    events_applied: u64,
    events_dropped: u64,
    started_ns: u64,
    ended_ns: Option<u64>,
    ok: Option<bool>,
    detail: Option<Arc<str>>,
    failovers: u32,
    tasks: HashMap<u32, TaskTiming>,
    /// Admission time of in-flight streaming epochs (`EpochStart` seen,
    /// `EpochEnd` pending), keyed by epoch index.
    epoch_started: HashMap<u64, u64>,
    /// Streaming epochs completed in this run.
    epochs_completed: u64,
}

impl RunFlight {
    fn new(run_id: u64, graph: Arc<str>, t_ns: u64) -> Self {
        Self {
            run_id,
            graph,
            tenant: None,
            events: Vec::new(),
            events_applied: 0,
            events_dropped: 0,
            started_ns: t_ns,
            ended_ns: None,
            ok: None,
            detail: None,
            failovers: 0,
            tasks: HashMap::new(),
            epoch_started: HashMap::new(),
            epochs_completed: 0,
        }
    }

    fn done(&self) -> bool {
        self.ended_ns.is_some()
    }

    fn last_event_ns(&self) -> u64 {
        self.events.last().map(|e| e.t_ns).unwrap_or(self.started_ns)
    }
}

/// Point-in-time progress of one run, for monitors: how many events have
/// been applied, when the last one landed, and which tasks are in flight.
#[derive(Debug, Clone)]
pub struct RunProgress {
    /// Lifecycle events folded into the run so far.
    pub events: u64,
    /// Timestamp (lifecycle clock, ns) of the latest event.
    pub last_event_ns: u64,
    /// True once the run's `RunEnd` event has been applied.
    pub done: bool,
    /// Tasks with a `Started` but no terminal event yet:
    /// `(task id, name, started_ns)`.
    pub inflight: Vec<(u32, Arc<str>, u64)>,
}

/// Compact description of one recorded run, for `/runs` and JSON dumps.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Process-unique submission id.
    pub run_id: u64,
    /// Graph name.
    pub graph: String,
    /// Run start (lifecycle clock, ns).
    pub started_ns: u64,
    /// Run end, when finished.
    pub ended_ns: Option<u64>,
    /// Result, when finished.
    pub ok: Option<bool>,
    /// Error detail for failed runs.
    pub detail: Option<String>,
    /// Lifecycle events applied to this run.
    pub events: u64,
    /// Distinct tasks observed.
    pub tasks: usize,
    /// Task retries observed.
    pub retries: u64,
    /// Task failures observed (terminal and retried alike).
    pub failures: u64,
    /// Whole-run failovers (placement replays after device loss).
    pub failovers: u64,
    /// Tenant the run is attributed to (fleet submissions only).
    pub tenant: Option<String>,
}

/// Aggregated latency-attribution and EWMA state.
pub(super) struct FlightState {
    runs: Vec<RunFlight>,
    ewma: HashMap<(Arc<str>, u32), f64>,
    queue_delay: Histogram,
    exec: Histogram,
    run_latency: Histogram,
    /// Admission-to-completion latency of streaming epochs
    /// (`epoch_end − epoch_start`, ns).
    epoch_latency: Histogram,
    /// Per-tenant attribution, keyed by tenant name. Populated only by
    /// runs whose events carry a tenant (fleet submissions); direct
    /// submissions land solely in the unlabeled aggregates above.
    pub(super) tenants: HashMap<Arc<str>, TenantHists>,
}

impl FlightState {
    fn new() -> Self {
        Self {
            runs: Vec::new(),
            ewma: HashMap::new(),
            queue_delay: Histogram::new(duration_bounds_nanos()),
            exec: Histogram::new(duration_bounds_nanos()),
            run_latency: Histogram::new(duration_bounds_nanos()),
            epoch_latency: Histogram::new(duration_bounds_nanos()),
            tenants: HashMap::new(),
        }
    }

    fn tenant_mut(&mut self, tenant: &Arc<str>) -> &mut TenantHists {
        self.tenants
            .entry(Arc::clone(tenant))
            .or_insert_with(TenantHists::new)
    }

    fn run_mut(&mut self, ev: &LifecycleEvent) -> &mut RunFlight {
        if let Some(i) = self.runs.iter().position(|r| r.run_id == ev.run_id) {
            return &mut self.runs[i];
        }
        self.runs
            .push(RunFlight::new(ev.run_id, Arc::clone(&ev.graph), ev.t_ns));
        self.runs.last_mut().expect("just pushed")
    }
}

/// Bounded, structured "black box" for task execution.
///
/// Install on an executor with
/// `Executor::builder(..).observer(recorder.clone()).build()`; call
/// [`FlightRecorder::pump`] (or let a [`Watchdog`] do it) to fold the
/// raw ring into per-run flight logs and latency histograms. On a failed
/// or cancelled run the recorder can auto-write the run's black box as a
/// JSON artifact ([`FlightRecorder::set_blackbox_dir`]).
///
/// [`Watchdog`]: super::Watchdog
pub struct FlightRecorder {
    enabled: AtomicBool,
    ring: EventRing<LifecycleEvent>,
    recorded: AtomicU64,
    pub(super) state: Mutex<FlightState>,
    blackbox_dir: Mutex<Option<PathBuf>>,
    per_run_cap: usize,
    keep_completed: usize,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl FlightRecorder {
    /// An enabled recorder with default capacities.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// An enabled recorder with the given ring capacity.
    pub fn with_capacity(ring_capacity: usize) -> Self {
        Self {
            enabled: AtomicBool::new(true),
            ring: EventRing::new(ring_capacity),
            recorded: AtomicU64::new(0),
            state: Mutex::new(FlightState::new()),
            blackbox_dir: Mutex::new(None),
            per_run_cap: DEFAULT_PER_RUN_CAP,
            keep_completed: DEFAULT_KEEP_COMPLETED,
        }
    }

    /// A recorder in shared form, ready to hand to
    /// `ExecutorBuilder::observer`.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Enables or disables recording. Disabled, the recorder reports
    /// inactive through `is_active`, so an executor with no other active
    /// observer skips lifecycle emission entirely.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Release);
    }

    /// True when recording.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Directory where failed/cancelled runs auto-write their black-box
    /// JSON on pump (`None` disables; files are named
    /// `blackbox_run<id>.json`).
    pub fn set_blackbox_dir(&self, dir: Option<PathBuf>) {
        *self.blackbox_dir.lock() = dir;
    }

    /// Lifecycle events accepted by the hot path so far.
    pub fn events_recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Events lost to ring overflow (pump more often, or grow the ring).
    pub fn events_dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Drains the ring and folds events into per-run flight logs,
    /// latency histograms, and execution-time EWMAs. Returns the number
    /// of events applied. Cheap when idle; call from a monitor thread,
    /// on scrape, or after `wait()`.
    ///
    /// Draining and applying are one critical section, so concurrent
    /// pumpers apply events in ring order and, when `pump` returns, every
    /// event pushed before the call has been applied — by this call or by
    /// the pumper it waited for.
    pub fn pump(&self) -> usize {
        let mut st = self.state.lock();
        let mut drained = Vec::new();
        self.ring.drain(|ev| drained.push(ev));
        if drained.is_empty() {
            return 0;
        }
        let n = drained.len();
        let mut failed_runs = Vec::new();
        for ev in drained {
            let graph = Arc::clone(&ev.graph);
            let tenant = ev.tenant.clone();
            // Derived observations, applied after the run borrow ends.
            let mut queue_obs = None;
            let mut exec_obs = None;
            let mut run_obs = None;
            let mut epoch_obs = None;
            let mut ended = false;
            {
                let cap = self.per_run_cap;
                let run = st.run_mut(&ev);
                run.events_applied += 1;
                if run.tenant.is_none() {
                    if let Some(t) = &tenant {
                        run.tenant = Some(Arc::clone(t));
                    }
                }
                match ev.phase {
                    LifecyclePhase::RunStart => {
                        run.started_ns = ev.t_ns;
                    }
                    LifecyclePhase::Ready => {
                        if let Some(t) = ev.task {
                            let tt = run.tasks.entry(t).or_default();
                            tt.name = Some(Arc::clone(&ev.name));
                            tt.ready_ns = Some(ev.t_ns);
                            tt.started_ns = None;
                        }
                    }
                    LifecyclePhase::Started | LifecyclePhase::Dispatched => {
                        if let Some(t) = ev.task {
                            let tt = run.tasks.entry(t).or_default();
                            tt.name = Some(Arc::clone(&ev.name));
                            // A chain member gets Dispatched without its
                            // own Started; keep the earliest begin time.
                            if tt.started_ns.is_none() {
                                tt.started_ns = Some(ev.t_ns);
                            }
                        }
                    }
                    LifecyclePhase::Finished => {
                        if let Some(t) = ev.task {
                            let tt = run.tasks.entry(t).or_default();
                            tt.finished_ns = Some(ev.t_ns);
                            let started = tt.started_ns.take();
                            let ready = tt.ready_ns.take();
                            if ev.ok {
                                if let Some(s) = started {
                                    exec_obs =
                                        Some((t, ev.t_ns.saturating_sub(s) as f64));
                                    if let Some(r) = ready {
                                        queue_obs =
                                            Some(s.saturating_sub(r) as f64);
                                    }
                                }
                            }
                        }
                    }
                    LifecyclePhase::Retried => {
                        if let Some(t) = ev.task {
                            let tt = run.tasks.entry(t).or_default();
                            tt.retries += 1;
                            tt.failures += 1;
                            tt.started_ns = None;
                            tt.ready_ns = None;
                        }
                    }
                    LifecyclePhase::Failed => {
                        if let Some(t) = ev.task {
                            let tt = run.tasks.entry(t).or_default();
                            tt.failures += 1;
                            tt.started_ns = None;
                            tt.ready_ns = None;
                        }
                    }
                    LifecyclePhase::Failover => {
                        run.failovers += 1;
                    }
                    LifecyclePhase::EpochStart => {
                        if let Some(e) = ev.epoch {
                            run.epoch_started.insert(e, ev.t_ns);
                        }
                    }
                    LifecyclePhase::EpochEnd => {
                        if let Some(e) = ev.epoch {
                            run.epochs_completed += 1;
                            if let Some(s) = run.epoch_started.remove(&e) {
                                epoch_obs =
                                    Some(ev.t_ns.saturating_sub(s) as f64);
                            }
                        }
                    }
                    LifecyclePhase::RunEnd => {
                        run.ended_ns = Some(ev.t_ns);
                        run.ok = Some(ev.ok);
                        run.detail = ev.detail.clone();
                        run_obs = Some((
                            ev.t_ns.saturating_sub(run.started_ns) as f64,
                            ev.ok,
                        ));
                        if !ev.ok {
                            failed_runs.push(ev.run_id);
                        }
                        ended = true;
                    }
                    // `LifecyclePhase` is non_exhaustive: future phases
                    // still land in the event log below.
                    _ => {}
                }
                // Keep the verbatim event (bounded per run) — terminal
                // RunEnd included, so a pumped black box always carries
                // the run's outcome.
                if run.events.len() < cap {
                    run.events.push(ev);
                } else {
                    run.events_dropped += 1;
                }
            }
            if let Some(q) = queue_obs {
                st.queue_delay.observe(q);
                if let Some(t) = &tenant {
                    st.tenant_mut(t).queue_delay.observe(q);
                }
            }
            if let Some((task, e)) = exec_obs {
                st.exec.observe(e);
                if let Some(t) = &tenant {
                    st.tenant_mut(t).exec.observe(e);
                }
                let ewma = st.ewma.entry((graph, task)).or_insert(e);
                *ewma = (1.0 - EWMA_ALPHA) * *ewma + EWMA_ALPHA * e;
            }
            if let Some((l, run_ok)) = run_obs {
                st.run_latency.observe(l);
                if let Some(t) = &tenant {
                    let th = st.tenant_mut(t);
                    th.run_latency.observe(l);
                    th.runs += 1;
                    if !run_ok {
                        th.failed += 1;
                    }
                }
            }
            if let Some(l) = epoch_obs {
                st.epoch_latency.observe(l);
            }
            if ended {
                // Trim completed runs beyond the retention window
                // (active runs are never evicted).
                let completed =
                    st.runs.iter().filter(|r| r.done()).count();
                let mut excess = completed.saturating_sub(self.keep_completed);
                while excess > 0 {
                    if let Some(i) = st.runs.iter().position(|r| r.done()) {
                        st.runs.remove(i);
                    }
                    excess -= 1;
                }
            }
        }
        // Auto-dump black boxes for runs that just failed/cancelled.
        let dir = self.blackbox_dir.lock().clone();
        if let Some(dir) = dir {
            for run_id in failed_runs {
                if let Some(v) = Self::run_json_locked(&st, run_id) {
                    let path = dir.join(format!("blackbox_run{run_id}.json"));
                    let _ = std::fs::create_dir_all(&dir);
                    let _ = std::fs::write(
                        &path,
                        serde_json::to_string_pretty(&v).expect("infallible"),
                    );
                }
            }
        }
        n
    }

    /// Current progress of one run (after a pump), for monitors.
    pub fn run_progress(&self, run_id: u64) -> Option<RunProgress> {
        let st = self.state.lock();
        let run = st.runs.iter().find(|r| r.run_id == run_id)?;
        let inflight = run
            .tasks
            .iter()
            .filter_map(|(&t, tt)| {
                let s = tt.started_ns?;
                if tt.finished_ns.is_some() {
                    return None;
                }
                Some((t, tt.name.clone().unwrap_or_else(|| Arc::from("")), s))
            })
            .collect();
        Some(RunProgress {
            events: run.events_applied,
            last_event_ns: run.last_event_ns(),
            done: run.done(),
            inflight,
        })
    }

    /// EWMA execution-time estimate (ns) for `task` of `graph`, learned
    /// from finished executions. The watchdog compares in-flight runtimes
    /// against this to flag stragglers.
    pub fn exec_estimate(&self, graph: &str, task: u32) -> Option<f64> {
        let st = self.state.lock();
        st.ewma
            .iter()
            .find(|((g, t), _)| g.as_ref() == graph && *t == task)
            .map(|(_, &v)| v)
    }

    /// Summaries of all retained runs, newest last.
    pub fn summaries(&self) -> Vec<RunSummary> {
        let st = self.state.lock();
        st.runs
            .iter()
            .map(|r| RunSummary {
                run_id: r.run_id,
                graph: r.graph.to_string(),
                started_ns: r.started_ns,
                ended_ns: r.ended_ns,
                ok: r.ok,
                detail: r.detail.as_ref().map(|d| d.to_string()),
                events: r.events_applied,
                tasks: r.tasks.len(),
                retries: r.tasks.values().map(|t| t.retries as u64).sum(),
                failures: r.tasks.values().map(|t| t.failures as u64).sum(),
                failovers: r.failovers as u64,
                tenant: r.tenant.as_ref().map(|t| t.to_string()),
            })
            .collect()
    }

    /// The attribution histograms (queue delay, exec, run latency).
    pub fn latency_histograms(&self) -> (Histogram, Histogram, Histogram) {
        let st = self.state.lock();
        (
            st.queue_delay.clone(),
            st.exec.clone(),
            st.run_latency.clone(),
        )
    }

    /// The streaming epoch latency histogram (admission-to-completion per
    /// epoch, ns). Populated only by sessions opened with
    /// `Executor::run_stream`; sequential runs never emit epoch events.
    pub fn epoch_latency_histogram(&self) -> Histogram {
        self.state.lock().epoch_latency.clone()
    }

    /// Publishes the recorder's aggregates into a [`MetricsRegistry`]:
    /// `hf_task_queue_delay_nanos`, `hf_task_exec_nanos`,
    /// `hf_run_latency_nanos` histograms plus recorder counters.
    pub fn export_into(&self, reg: &MetricsRegistry) {
        let (qd, ex, rl) = self.latency_histograms();
        reg.set_histogram(
            "hf_task_queue_delay_nanos",
            "Ready-to-started queue delay per task execution (ns)",
            &[],
            qd,
        );
        reg.set_histogram(
            "hf_task_exec_nanos",
            "Started-to-finished execution time per task (ns; device time included for GPU tasks)",
            &[],
            ex,
        );
        reg.set_histogram(
            "hf_run_latency_nanos",
            "Submit-to-completion latency per run (ns)",
            &[],
            rl,
        );
        reg.set_histogram(
            "hf_epoch_latency_nanos",
            "Admission-to-completion latency per streaming epoch (ns)",
            &[],
            self.epoch_latency_histogram(),
        );
        // Per-tenant labeled series ride alongside the unlabeled
        // aggregates above (which keep folding every run, tenanted or
        // not, so existing dashboards stay stable).
        for t in self.tenant_latencies() {
            let labels = &[("tenant", t.tenant.as_str())];
            reg.set_histogram(
                "hf_task_queue_delay_nanos",
                "Ready-to-started queue delay per task execution (ns)",
                labels,
                t.queue_delay,
            );
            reg.set_histogram(
                "hf_task_exec_nanos",
                "Started-to-finished execution time per task (ns; device time included for GPU tasks)",
                labels,
                t.exec,
            );
            reg.set_histogram(
                "hf_run_latency_nanos",
                "Submit-to-completion latency per run (ns)",
                labels,
                t.run_latency,
            );
            reg.set_counter(
                "hf_tenant_runs_total",
                "Completed runs attributed to the tenant",
                labels,
                t.runs,
            );
            reg.set_counter(
                "hf_tenant_runs_failed_total",
                "Completed runs attributed to the tenant that failed or were cancelled",
                labels,
                t.failed,
            );
        }
        reg.set_counter(
            "hf_flight_events_recorded_total",
            "Lifecycle events accepted by the flight recorder",
            &[],
            self.events_recorded(),
        );
        reg.set_counter(
            "hf_flight_events_dropped_total",
            "Lifecycle events lost to ring overflow",
            &[],
            self.events_dropped(),
        );
    }

    fn event_json(ev: &LifecycleEvent) -> Value {
        let mut o = Map::new();
        o.insert("t_ns".into(), Value::UInt(ev.t_ns));
        o.insert("phase".into(), Value::Str(ev.phase.name().to_string()));
        o.insert("run_id".into(), Value::UInt(ev.run_id));
        o.insert("graph".into(), Value::Str(ev.graph.to_string()));
        if let Some(t) = ev.task {
            o.insert("task".into(), Value::UInt(t as u64));
        }
        o.insert("name".into(), Value::Str(ev.name.to_string()));
        if let Some(k) = ev.kind {
            o.insert("kind".into(), Value::Str(k.to_string()));
        }
        if let Some(d) = ev.device {
            o.insert("device".into(), Value::UInt(d as u64));
        }
        if let Some(w) = ev.worker {
            o.insert("worker".into(), Value::UInt(w as u64));
        }
        if let Some(c) = ev.chain {
            o.insert("chain".into(), Value::UInt(c as u64));
        }
        if let Some(e) = ev.epoch {
            o.insert("epoch".into(), Value::UInt(e));
        }
        if ev.bytes > 0 {
            o.insert("bytes".into(), Value::UInt(ev.bytes));
        }
        o.insert("ok".into(), Value::Bool(ev.ok));
        if let Some(d) = &ev.detail {
            o.insert("detail".into(), Value::Str(d.to_string()));
        }
        if let Some(t) = &ev.tenant {
            o.insert("tenant".into(), Value::Str(t.to_string()));
        }
        Value::Object(o)
    }

    fn run_json_locked(st: &FlightState, run_id: u64) -> Option<Value> {
        let run = st.runs.iter().find(|r| r.run_id == run_id)?;
        let mut o = Map::new();
        o.insert("run_id".into(), Value::UInt(run.run_id));
        o.insert("graph".into(), Value::Str(run.graph.to_string()));
        if let Some(t) = &run.tenant {
            o.insert("tenant".into(), Value::Str(t.to_string()));
        }
        o.insert("started_ns".into(), Value::UInt(run.started_ns));
        match run.ended_ns {
            Some(e) => o.insert("ended_ns".into(), Value::UInt(e)),
            None => o.insert("ended_ns".into(), Value::Null),
        };
        match run.ok {
            Some(ok) => o.insert("ok".into(), Value::Bool(ok)),
            None => o.insert("ok".into(), Value::Null),
        };
        if let Some(d) = &run.detail {
            o.insert("detail".into(), Value::Str(d.to_string()));
        }
        if run.epochs_completed > 0 {
            o.insert("epochs_completed".into(), Value::UInt(run.epochs_completed));
        }
        o.insert("events_applied".into(), Value::UInt(run.events_applied));
        o.insert("events_dropped".into(), Value::UInt(run.events_dropped));
        o.insert(
            "events".into(),
            Value::Array(run.events.iter().map(Self::event_json).collect()),
        );
        Some(Value::Object(o))
    }

    /// One run's flight log as JSON (its black box), if retained.
    pub fn dump_run_json(&self, run_id: u64) -> Option<Value> {
        let st = self.state.lock();
        Self::run_json_locked(&st, run_id)
    }

    /// Every retained run's flight log as one JSON document.
    pub fn dump_json(&self) -> Value {
        let st = self.state.lock();
        let ids: Vec<u64> = st.runs.iter().map(|r| r.run_id).collect();
        let mut o = Map::new();
        o.insert("schema".into(), Value::Str("hf-flight-recorder-v1".into()));
        o.insert(
            "events_recorded".into(),
            Value::UInt(self.recorded.load(Ordering::Relaxed)),
        );
        o.insert("events_dropped".into(), Value::UInt(self.ring.dropped()));
        o.insert(
            "runs".into(),
            Value::Array(
                ids.iter()
                    .filter_map(|&id| Self::run_json_locked(&st, id))
                    .collect(),
            ),
        );
        Value::Object(o)
    }

    /// Writes the full flight dump to `path` as pretty JSON.
    pub fn write_blackbox(&self, path: &Path) -> std::io::Result<()> {
        self.pump();
        let v = self.dump_json();
        std::fs::write(path, serde_json::to_string_pretty(&v).expect("infallible"))
    }
}

impl ExecutorObserver for FlightRecorder {
    fn is_active(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn on_lifecycle(&self, event: &LifecycleEvent) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.recorded.fetch_add(1, Ordering::Relaxed);
        // Push never blocks; overflow is counted by the ring.
        let _ = self.ring.push(event.clone());
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use hf_core::TaskKind;

    pub(in crate::health) fn ev(run_id: u64, phase: LifecyclePhase, task: Option<u32>, t_ns: u64) -> LifecycleEvent {
        LifecycleEvent {
            run_id,
            graph: Arc::from("g"),
            phase,
            task,
            name: Arc::from(task.map(|t| format!("t{t}")).unwrap_or_else(|| "g".into())),
            kind: task.map(|_| TaskKind::Host),
            device: None,
            worker: Some(0),
            chain: None,
            bytes: 0,
            ok: true,
            detail: None,
            epoch: None,
            tenant: None,
            t_ns,
        }
    }

    #[test]
    fn pump_attributes_latency_components() {
        let r = FlightRecorder::new();
        r.on_lifecycle(&ev(1, LifecyclePhase::RunStart, None, 1_000));
        r.on_lifecycle(&ev(1, LifecyclePhase::Ready, Some(0), 2_000));
        r.on_lifecycle(&ev(1, LifecyclePhase::Started, Some(0), 5_000));
        r.on_lifecycle(&ev(1, LifecyclePhase::Finished, Some(0), 9_000));
        r.on_lifecycle(&ev(1, LifecyclePhase::RunEnd, None, 10_000));
        assert_eq!(r.pump(), 5);
        let (qd, ex, rl) = r.latency_histograms();
        assert_eq!(qd.count, 1);
        assert!((qd.sum - 3_000.0).abs() < 1e-9, "queue delay = started - ready");
        assert_eq!(ex.count, 1);
        assert!((ex.sum - 4_000.0).abs() < 1e-9, "exec = finished - started");
        assert_eq!(rl.count, 1);
        assert!((rl.sum - 9_000.0).abs() < 1e-9, "run latency = end - start");
        let s = &r.summaries()[0];
        assert_eq!(s.run_id, 1);
        assert_eq!(s.ok, Some(true));
        assert_eq!(s.tasks, 1);
    }

    #[test]
    fn pump_attributes_epoch_latency() {
        let r = FlightRecorder::new();
        r.on_lifecycle(&ev(3, LifecyclePhase::RunStart, None, 1_000));
        let mut e0 = ev(3, LifecyclePhase::EpochStart, None, 2_000);
        e0.epoch = Some(0);
        r.on_lifecycle(&e0);
        let mut e1 = ev(3, LifecyclePhase::EpochStart, None, 3_000);
        e1.epoch = Some(1);
        r.on_lifecycle(&e1);
        let mut d0 = ev(3, LifecyclePhase::EpochEnd, None, 7_000);
        d0.epoch = Some(0);
        r.on_lifecycle(&d0);
        let mut d1 = ev(3, LifecyclePhase::EpochEnd, None, 12_000);
        d1.epoch = Some(1);
        r.on_lifecycle(&d1);
        r.on_lifecycle(&ev(3, LifecyclePhase::RunEnd, None, 13_000));
        assert_eq!(r.pump(), 6);
        let h = r.epoch_latency_histogram();
        assert_eq!(h.count, 2);
        assert!(
            (h.sum - 14_000.0).abs() < 1e-9,
            "epoch latency = end - start per epoch: 5000 + 9000"
        );
        let json = r.dump_run_json(3).expect("run retained");
        let text = serde_json::to_string(&json).expect("infallible");
        assert!(text.contains("\"epochs_completed\":2"), "{text}");
        assert!(text.contains("\"epoch\":1"), "{text}");
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = FlightRecorder::new();
        r.set_enabled(false);
        assert!(!r.is_active());
        r.on_lifecycle(&ev(1, LifecyclePhase::RunStart, None, 0));
        assert_eq!(r.events_recorded(), 0);
        assert_eq!(r.pump(), 0);
        assert!(r.summaries().is_empty());
    }

    #[test]
    fn failed_run_auto_dumps_blackbox() {
        let dir = std::env::temp_dir().join(format!(
            "hf_blackbox_test_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let r = FlightRecorder::new();
        r.set_blackbox_dir(Some(dir.clone()));
        r.on_lifecycle(&ev(7, LifecyclePhase::RunStart, None, 0));
        let mut end = ev(7, LifecyclePhase::RunEnd, None, 500);
        end.ok = false;
        end.detail = Some(Arc::from("device lost"));
        r.on_lifecycle(&end);
        r.pump();
        let path = dir.join("blackbox_run7.json");
        let text = std::fs::read_to_string(&path).expect("blackbox written");
        let v = serde_json::from_str(&text).expect("valid JSON");
        assert_eq!(v.get("run_id").and_then(|x| x.as_u64()), Some(7));
        assert_eq!(
            v.get("detail").and_then(|x| x.as_str()),
            Some("device lost")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn completed_runs_are_trimmed() {
        let r = FlightRecorder::new();
        for id in 1..=40u64 {
            r.on_lifecycle(&ev(id, LifecyclePhase::RunStart, None, id * 10));
            r.on_lifecycle(&ev(id, LifecyclePhase::RunEnd, None, id * 10 + 5));
        }
        r.pump();
        let s = r.summaries();
        assert!(s.len() <= DEFAULT_KEEP_COMPLETED, "retention window holds");
        assert_eq!(s.last().unwrap().run_id, 40, "newest run retained");
    }

    #[test]
    fn exec_estimate_learns_ewma() {
        let r = FlightRecorder::new();
        r.on_lifecycle(&ev(1, LifecyclePhase::RunStart, None, 0));
        for (i, dur) in [1_000u64, 2_000, 3_000].iter().enumerate() {
            let base = 10_000 * (i as u64 + 1);
            r.on_lifecycle(&ev(1, LifecyclePhase::Ready, Some(0), base));
            r.on_lifecycle(&ev(1, LifecyclePhase::Started, Some(0), base + 10));
            r.on_lifecycle(&ev(1, LifecyclePhase::Finished, Some(0), base + 10 + dur));
        }
        r.pump();
        let est = r.exec_estimate("g", 0).expect("estimate learned");
        assert!(est > 1_000.0 && est < 3_000.0, "EWMA between extremes: {est}");
    }
}
