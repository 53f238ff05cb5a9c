//! Executor observers: the lifecycle-event hook and the unified CPU+GPU
//! trace collector.
//!
//! An [`ExecutorObserver`] receives every [`LifecycleEvent`] the executor
//! emits — its only event output. [`TraceCollector`] is the built-in
//! observer that folds those events into worker spans, merges them with
//! the device-side op timings it receives as a [`hf_gpu::GpuTraceSink`],
//! and hands out one timeline ([`Track::Worker`] vs [`Track::Device`]);
//! `hf_telemetry::export::chrome_trace` serializes it for
//! `chrome://tracing` or Perfetto.
//!
//! ## Worker windows
//!
//! A worker's `Started` opens a window on that worker's lane; the first
//! of its `Finished` / `Retried` / `Failed` — or, for a GPU chain, the
//! head's `Dispatched` — closes it, both ends taken from the events' own
//! `t_ns`. A host task's window is its [`SpanCat::Task`] span. A GPU
//! task's window is a [`SpanCat::Dispatch`] span: what the worker did
//! before the first op could run (arena allocation, op construction).
//! A GPU task's [`SpanCat::Task`] span comes only from the device side,
//! where the op really executed — which is what makes CPU/GPU overlap
//! visible. Every closing event is emitted before the node is finished,
//! so a worker's span is recorded before its run can settle: the spans
//! are complete the moment `wait()` returns.
//!
//! Recording is designed for the hot path: spans go into per-worker and
//! per-device lock-free [`EventRing`]s (looked up under a read lock), and
//! a disabled collector ([`TraceCollector::set_enabled`]) costs one
//! atomic load per task.

use crate::graph::TaskKind;
use crate::lifecycle::{LifecycleEvent, LifecyclePhase};
use hf_gpu::trace::{GpuOpKind, GpuTraceEvent, GpuTraceSink};
use hf_sync::EventRing;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Default per-lane span buffer capacity (spans beyond this between
/// drains are dropped and counted).
const DEFAULT_LANE_CAPACITY: usize = 16 * 1024;

/// The executor's one event hook: every scheduling transition of every
/// task and run arrives as a [`LifecycleEvent`] (the transitions:
/// [`LifecyclePhase`]).
pub trait ExecutorObserver: Send + Sync {
    /// Fast-path gate: when every registered observer reports inactive,
    /// the executor constructs no event at all. Default `true`;
    /// [`TraceCollector`] returns its enabled flag so a wired-but-disabled
    /// tracer costs one relaxed load per task.
    fn is_active(&self) -> bool {
        true
    }
    /// Called on every lifecycle transition, on the thread that made it
    /// (a worker, a device engine's callback, or the submitter).
    fn on_lifecycle(&self, event: &LifecycleEvent);
}

/// The timeline a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// A CPU worker thread.
    Worker(usize),
    /// A GPU device engine (device-side execution).
    Device(u32),
}

/// What a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanCat {
    /// A task's execution: the host body on a worker, or the device-side
    /// op duration of a GPU task.
    Task,
    /// The worker-side window of a GPU task, up to the point its first
    /// op could run: arena allocation and op construction.
    Dispatch,
    /// A raw device op not tied to a graph task.
    DeviceOp,
    /// Time a device stream spent blocked on an event wait.
    Wait,
    /// A device pool allocation.
    Alloc,
    /// A device pool free.
    Free,
    /// A stream-ordered host callback (completion handlers).
    Callback,
}

impl SpanCat {
    /// Stable lowercase name (used as the chrome-trace category for
    /// non-task spans).
    pub fn name(self) -> &'static str {
        match self {
            SpanCat::Task => "task",
            SpanCat::Dispatch => "dispatch",
            SpanCat::DeviceOp => "device_op",
            SpanCat::Wait => "wait",
            SpanCat::Alloc => "alloc",
            SpanCat::Free => "free",
            SpanCat::Callback => "callback",
        }
    }
}

/// One recorded span on the unified CPU+GPU timeline.
#[derive(Debug, Clone)]
pub struct TraceSpan {
    /// Timeline this span belongs to.
    pub track: Track,
    /// Task (or op) name.
    pub name: String,
    /// What the span measures.
    pub cat: SpanCat,
    /// Task kind ([`TaskKind::Placeholder`] for non-task device spans).
    pub kind: TaskKind,
    /// Device, for GPU-related spans.
    pub device: Option<u32>,
    /// Stream index, for device-side spans.
    pub stream: Option<usize>,
    /// Microseconds since the process lifecycle epoch
    /// ([`TraceCollector::epoch`]).
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
    /// Bytes moved/allocated, when meaningful.
    pub bytes: u64,
    /// Epoch index of the streaming epoch that issued the op, when the
    /// span came from a labeled device op of a [`crate::Session`] run.
    /// Span *names* stay epoch-free; use this field to attribute overlap
    /// across pipelined epochs.
    pub epoch: Option<u64>,
}

impl TraceSpan {
    /// End timestamp in microseconds since the process lifecycle epoch.
    pub fn end_us(&self) -> u64 {
        self.start_us + self.dur_us
    }

    /// Worker id, when the span was recorded on a worker track.
    pub fn worker(&self) -> Option<usize> {
        match self.track {
            Track::Worker(w) => Some(w),
            Track::Device(_) => None,
        }
    }
}

/// Packs a task kind into the opaque device-op tag and back.
pub(crate) fn kind_to_tag(kind: TaskKind) -> u32 {
    match kind {
        TaskKind::Host => 0,
        TaskKind::Pull => 1,
        TaskKind::Push => 2,
        TaskKind::Kernel => 3,
        TaskKind::Placeholder => 4,
    }
}

fn kind_from_tag(tag: u32) -> TaskKind {
    match tag {
        0 => TaskKind::Host,
        1 => TaskKind::Pull,
        2 => TaskKind::Push,
        3 => TaskKind::Kernel,
        _ => TaskKind::Placeholder,
    }
}

/// A grow-only table of per-lane state: a read lock to record into a
/// lane, the write lock only to add lanes (once per worker and device).
struct LaneTable<T>(RwLock<Vec<Arc<T>>>);

impl<T> LaneTable<T> {
    fn new() -> Self {
        Self(RwLock::new(Vec::new()))
    }

    /// Lane `i`, creating lanes up to `i` with `make` if needed.
    fn get(&self, i: usize, make: impl Fn() -> T) -> Arc<T> {
        if let Some(lane) = self.0.read().get(i) {
            return Arc::clone(lane);
        }
        let mut lanes = self.0.write();
        while lanes.len() <= i {
            lanes.push(Arc::new(make()));
        }
        Arc::clone(&lanes[i])
    }

    /// Clone of the current lane set.
    fn lanes(&self) -> Vec<Arc<T>> {
        self.0.read().clone()
    }
}

/// Per-worker recording lane: a span ring plus the open window's
/// `Started` timestamp (lifecycle nanoseconds, +1 so 0 = none).
struct CpuLane {
    ring: EventRing<TraceSpan>,
    begin_ns: AtomicU64,
}

/// Per-device recording lane.
struct DevLane {
    ring: EventRing<TraceSpan>,
}

/// Built-in observer recording every task span on a unified CPU+GPU
/// timeline; see the module docs for how worker windows are folded from
/// lifecycle events.
pub struct TraceCollector {
    enabled: AtomicBool,
    cpu: LaneTable<CpuLane>,
    dev: LaneTable<DevLane>,
    /// Spans moved out of the rings (the rings are bounded; `spans()` and
    /// periodic drains migrate them here).
    drained: Mutex<Vec<TraceSpan>>,
    lane_capacity: usize,
}

impl Default for TraceCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceCollector {
    /// Creates an empty collector with the default per-lane capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_LANE_CAPACITY)
    }

    /// Creates an empty collector whose per-lane span rings hold
    /// `lane_capacity` spans between drains.
    pub fn with_capacity(lane_capacity: usize) -> Self {
        Self {
            enabled: AtomicBool::new(true),
            cpu: LaneTable::new(),
            dev: LaneTable::new(),
            drained: Mutex::new(Vec::new()),
            lane_capacity,
        }
    }

    /// Shareable handle for [`crate::ExecutorBuilder::observer`] /
    /// [`crate::ExecutorBuilder::tracer`].
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// The instant timestamps are measured from: the process lifecycle
    /// epoch, shared with every [`LifecycleEvent::t_ns`].
    pub fn epoch(&self) -> Instant {
        crate::lifecycle::epoch()
    }

    /// Enables/disables recording. Disabled, every callback returns after
    /// a single atomic load — telemetry can stay wired in production and
    /// be flipped on when needed.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Release);
    }

    /// True when recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Wires this collector into `rt` as the device-side trace sink:
    /// device engines report true op start/finish times, which become
    /// the GPU tasks' spans on device tracks.
    /// [`crate::ExecutorBuilder::tracer`] calls this automatically.
    pub fn connect_gpu(self: &Arc<Self>, rt: &hf_gpu::GpuRuntime) {
        rt.set_trace_sink(Some(Arc::clone(self) as Arc<dyn GpuTraceSink>));
    }

    /// Converts an instant to microseconds since the lifecycle epoch.
    fn us_since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch()).as_micros() as u64
    }

    /// Recorded spans so far (drains the lock-free rings), sorted by
    /// start time. Spans stay owned by the collector, so repeated calls
    /// return a growing history — for periodic scraping of a long-running
    /// executor use [`Self::take_spans`] instead.
    pub fn spans(&self) -> Vec<TraceSpan> {
        self.drain_rings().clone()
    }

    /// Moves every ring's spans into `drained` and returns it locked,
    /// sorted by start time.
    fn drain_rings(&self) -> parking_lot::MutexGuard<'_, Vec<TraceSpan>> {
        let mut drained = self.drained.lock();
        for lane in self.cpu.lanes() {
            lane.ring.drain(|s| drained.push(s));
        }
        for lane in self.dev.lanes() {
            lane.ring.drain(|s| drained.push(s));
        }
        drained.sort_by_key(|a| (a.start_us, a.track));
        drained
    }

    /// Removes and returns every span recorded since the last call
    /// (sorted by start time). Unlike [`Self::spans`] the collector
    /// forgets them, so periodic scrapes stay O(new spans) instead of
    /// re-copying the whole history.
    pub fn take_spans(&self) -> Vec<TraceSpan> {
        std::mem::take(&mut *self.drain_rings())
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans().len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans dropped because a lane ring overflowed between drains.
    pub fn dropped(&self) -> u64 {
        let cpu: u64 = self.cpu.lanes().iter().map(|l| l.ring.dropped()).sum();
        let dev: u64 = self.dev.lanes().iter().map(|l| l.ring.dropped()).sum();
        cpu + dev
    }

}

impl ExecutorObserver for TraceCollector {
    fn is_active(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn on_lifecycle(&self, ev: &LifecycleEvent) {
        // Only a worker's own task events move its window.
        let (Some(worker), Some(kind)) = (ev.worker, ev.kind) else {
            return;
        };
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let lane = self.cpu.get(worker as usize, || CpuLane {
            ring: EventRing::new(self.lane_capacity),
            begin_ns: AtomicU64::new(0),
        });
        match ev.phase {
            LifecyclePhase::Started => {
                lane.begin_ns.store(ev.t_ns + 1, Ordering::Release);
                return;
            }
            LifecyclePhase::Finished | LifecyclePhase::Retried | LifecyclePhase::Failed => {}
            LifecyclePhase::Dispatched if ev.chain == ev.task => {}
            _ => return,
        }
        // First closing event wins; the rest of a chain's events (member
        // `Dispatched`s, the `Finished` after a `Failed`) find it closed.
        let begin = lane.begin_ns.swap(0, Ordering::AcqRel);
        if begin == 0 {
            return;
        }
        let start_us = (begin - 1) / 1_000;
        lane.ring.push(TraceSpan {
            track: Track::Worker(worker as usize),
            name: ev.name.to_string(),
            cat: match kind {
                TaskKind::Pull | TaskKind::Push | TaskKind::Kernel => SpanCat::Dispatch,
                _ => SpanCat::Task,
            },
            kind,
            device: ev.device,
            stream: None,
            start_us,
            dur_us: (ev.t_ns / 1_000).saturating_sub(start_us),
            bytes: 0,
            epoch: None,
        });
    }
}

impl GpuTraceSink for TraceCollector {
    fn record(&self, ev: GpuTraceEvent) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let epoch = ev.label.as_ref().and_then(|l| l.epoch);
        let (name, cat, kind) = match (&ev.kind, &ev.label) {
            (GpuOpKind::Exec, Some(label)) => (
                label.name.to_string(),
                SpanCat::Task,
                kind_from_tag(label.tag),
            ),
            (GpuOpKind::Exec, None) => {
                ("exec".to_string(), SpanCat::DeviceOp, TaskKind::Placeholder)
            }
            (GpuOpKind::HostFn, _) => (
                "host_fn".to_string(),
                SpanCat::Callback,
                TaskKind::Placeholder,
            ),
            (GpuOpKind::EventRecord, _) => (
                "event_record".to_string(),
                SpanCat::DeviceOp,
                TaskKind::Placeholder,
            ),
            (GpuOpKind::EventWait, _) => {
                ("event_wait".to_string(), SpanCat::Wait, TaskKind::Placeholder)
            }
            (GpuOpKind::Alloc, _) => {
                ("alloc".to_string(), SpanCat::Alloc, TaskKind::Placeholder)
            }
            (GpuOpKind::Free, _) => {
                ("free".to_string(), SpanCat::Free, TaskKind::Placeholder)
            }
        };
        let start_us = self.us_since_epoch(ev.start);
        let end_us = self.us_since_epoch(ev.end);
        let lane = self.dev.get(ev.device as usize, || DevLane {
            ring: EventRing::new(self.lane_capacity),
        });
        lane.ring.push(TraceSpan {
            track: Track::Device(ev.device),
            name,
            cat,
            kind,
            device: Some(ev.device),
            stream: ev.stream,
            start_us,
            dur_us: end_us.saturating_sub(start_us),
            bytes: ev.bytes,
            epoch,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::HostVec;
    use crate::graph::Heteroflow;
    use crate::Executor;

    fn traced_run(fusion: bool) -> (Vec<TraceSpan>, u64) {
        let trace = TraceCollector::shared();
        let ex = Executor::builder(2, 1)
            .task_fusion(fusion)
            .tracer(Arc::clone(&trace))
            .build();
        let g = Heteroflow::new("traced");
        let d: HostVec<u32> = HostVec::from_vec(vec![0; 64]);
        let h = g.host("make", || {});
        let p = g.pull("pull", &d);
        let k = g.kernel("kernel", &[&p], |_, _| {});
        k.cover(64, 32);
        let s = g.push("push", &p, &d);
        h.precede(&p);
        p.precede(&k);
        k.precede(&s);
        ex.run(&g).wait().expect("runs");
        let fused = ex.snapshot().fused;
        (trace.spans(), fused)
    }

    /// One `cat=task` span per task by name: the host task on a worker
    /// track, GPU tasks on the device track.
    fn assert_one_task_span_each(spans: &[TraceSpan]) {
        for n in ["make", "pull", "kernel", "push"] {
            let mine: Vec<_> = spans
                .iter()
                .filter(|s| s.cat == SpanCat::Task && s.name == n)
                .collect();
            assert_eq!(mine.len(), 1, "{n} exactly once as a task span");
            let on_worker = matches!(mine[0].track, Track::Worker(_));
            assert_eq!(on_worker, n == "make", "{n} on the right track");
        }
        let kernel_span = spans
            .iter()
            .find(|s| s.cat == SpanCat::Task && s.name == "kernel")
            .expect("kernel");
        assert_eq!(kernel_span.kind, TaskKind::Kernel);
        assert_eq!(kernel_span.device, Some(0));
    }

    fn dispatch_names(spans: &[TraceSpan]) -> Vec<&str> {
        let mut names: Vec<&str> = spans
            .iter()
            .filter(|s| s.cat == SpanCat::Dispatch)
            .map(|s| s.name.as_str())
            .collect();
        names.sort_unstable();
        names
    }

    #[test]
    fn collects_spans_for_every_task_without_fusion() {
        let (spans, fused) = traced_run(false);
        assert_eq!(fused, 0);
        assert_one_task_span_each(&spans);
        // Unfused, every GPU task is its own chain head.
        assert_eq!(dispatch_names(&spans), ["kernel", "pull", "push"]);
    }

    #[test]
    fn fused_members_fold_into_head_span() {
        let (spans, fused) = traced_run(true);
        // pull -> kernel -> push fuse into one dispatch.
        assert_eq!(fused, 2);
        assert_one_task_span_each(&spans);
        assert_eq!(dispatch_names(&spans), ["pull"], "head only, no member windows");
    }

    #[test]
    fn disabled_collector_records_nothing() {
        let trace = TraceCollector::shared();
        trace.set_enabled(false);
        let ex = Executor::builder(2, 0)
            .observer(Arc::clone(&trace) as Arc<dyn ExecutorObserver>)
            .build();
        let g = Heteroflow::new("off");
        for i in 0..10 {
            g.host(&format!("t{i}"), || {});
        }
        ex.run(&g).wait().expect("runs");
        assert!(trace.is_empty());
        // Flipping it back on starts recording again.
        trace.set_enabled(true);
        ex.run(&g).wait().expect("runs");
        assert_eq!(trace.spans().len(), 10);
    }

    #[test]
    fn ring_overflow_drops_and_counts_instead_of_blocking() {
        let trace = Arc::new(TraceCollector::with_capacity(4));
        let ex = Executor::builder(1, 0)
            .observer(Arc::clone(&trace) as Arc<dyn ExecutorObserver>)
            .build();
        let g = Heteroflow::new("overflow");
        for i in 0..64 {
            g.host(&format!("t{i}"), || {});
        }
        ex.run(&g).wait().expect("runs");
        let spans = trace.spans();
        assert!(spans.len() <= 4, "bounded by lane capacity");
        assert!(trace.dropped() >= 60, "overflow counted");
    }

    #[test]
    fn stitched_mode_records_device_side_task_spans() {
        let trace = TraceCollector::shared();
        let ex = Executor::builder(2, 1)
            .task_fusion(false)
            .tracer(Arc::clone(&trace))
            .build();
        let g = Heteroflow::new("stitched");
        let d: HostVec<u32> = HostVec::from_vec(vec![0; 4096]);
        let p = g.pull("pull", &d);
        let k = g.kernel("kernel", &[&p], |_, _| {});
        k.cover(4096, 256);
        let s = g.push("push", &p, &d);
        p.precede(&k);
        k.precede(&s);
        ex.run(&g).wait().expect("runs");
        let spans = trace.spans();

        // Each GPU task appears exactly once as a device-side Task span.
        for name in ["pull", "kernel", "push"] {
            let task_spans: Vec<_> = spans
                .iter()
                .filter(|x| x.cat == SpanCat::Task && x.name == name)
                .collect();
            assert_eq!(task_spans.len(), 1, "{name} exactly once as Task");
            let t = task_spans[0];
            assert!(
                matches!(t.track, Track::Device(0)),
                "{name} Task span on device track"
            );
            // Worker-side window demoted to Dispatch.
            assert!(
                spans
                    .iter()
                    .any(|x| x.cat == SpanCat::Dispatch && x.name == name),
                "{name} has a dispatch span"
            );
        }
        let kernel = spans
            .iter()
            .find(|x| x.cat == SpanCat::Task && x.name == "kernel")
            .unwrap();
        assert_eq!(kernel.kind, TaskKind::Kernel);
        // Streams are per-worker; the index depends on which worker
        // dispatched, only its presence is deterministic.
        assert!(kernel.stream.is_some());
        // Pull allocates device memory: the pool traffic is traced too.
        assert!(spans.iter().any(|x| x.cat == SpanCat::Alloc && x.bytes > 0));
        // The completion callback is visible as device-side time.
        assert!(spans.iter().any(|x| x.cat == SpanCat::Callback));
    }

    #[test]
    fn lane_table_grows_concurrently() {
        let t: Arc<LaneTable<AtomicU64>> = Arc::new(LaneTable::new());
        let handles: Vec<_> = (0..8)
            .map(|k| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..200usize {
                        let lane = t.get((i * 7 + k) % 97, || AtomicU64::new(0));
                        lane.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total: u64 = t.lanes().iter().map(|l| l.load(Ordering::Relaxed)).sum();
        assert_eq!(total, 8 * 200);
    }
}
