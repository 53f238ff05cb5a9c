//! A software GPU device: memory arena + pool + engine thread.

use crate::arena::{Arena, DevicePtr};
use crate::cost::{CostModel, SimDuration};
use crate::error::GpuError;
use crate::event::Event;
use crate::fault::{FaultInjector, FaultSite};
use crate::pool::{MemoryPool, PoolStats};
use crate::stream::{Op, OpBody};
use crate::trace::{GpuOpKind, GpuTraceEvent, GpuTraceSink};
use parking_lot::{Condvar, Mutex};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Identifier of a device within a [`crate::GpuRuntime`].
pub type DeviceId = u32;

/// Aggregate device counters (modeled time, traffic) for tests and
/// calibration.
#[derive(Debug, Default)]
pub struct DeviceStats {
    /// Modeled busy nanoseconds accumulated by executed ops.
    pub busy_nanos: AtomicU64,
    /// Host-to-device bytes copied.
    pub h2d_bytes: AtomicU64,
    /// Device-to-host bytes copied.
    pub d2h_bytes: AtomicU64,
    /// Kernels launched.
    pub kernels: AtomicU64,
    /// Total ops executed.
    pub ops: AtomicU64,
}

/// One stream's FIFO state inside the engine.
#[derive(Default)]
pub(crate) struct StreamQueue {
    pub(crate) ops: VecDeque<Op>,
    pub(crate) enqueued: u64,
    pub(crate) completed: u64,
    /// When tracing: the instant the current head op was first observed
    /// blocked (a `WaitEvent` whose event has not fired yet).
    pub(crate) blocked_since: Option<Instant>,
}

pub(crate) struct EngineShared {
    pub(crate) streams: Mutex<Vec<StreamQueue>>,
    pub(crate) cv: Condvar,
    pub(crate) shutdown: AtomicBool,
}

/// Inner state of a device, shared between user handles and the engine
/// thread.
pub struct DeviceInner {
    id: DeviceId,
    arena: Mutex<Arena>,
    pool: MemoryPool,
    cost: CostModel,
    pub(crate) engine: Arc<EngineShared>,
    stats: DeviceStats,
    last_error: Mutex<Option<GpuError>>,
    /// Fast-path gate for device-side tracing: one relaxed load per op.
    trace_on: AtomicBool,
    /// Installed trace sink (see [`crate::trace`]).
    trace: Mutex<Option<Arc<dyn GpuTraceSink>>>,
    /// The device has failed as a whole: every subsequent operation
    /// returns [`GpuError::DeviceLost`].
    lost: AtomicBool,
    /// Fast-path gate for fault injection: one relaxed load per op.
    fault_on: AtomicBool,
    /// Installed fault injector, shared across the runtime's devices.
    fault: Mutex<Option<Arc<FaultInjector>>>,
    /// Exec ops executed, for scheduled device-loss triggers.
    op_seq: AtomicU64,
}

/// A handle to a software GPU device. Clones share the same device.
#[derive(Clone)]
pub struct Device {
    pub(crate) inner: Arc<DeviceInner>,
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device").field("id", &self.inner.id).finish()
    }
}

impl Device {
    pub(crate) fn create(id: DeviceId, mem_capacity: usize, min_block: usize, cost: CostModel) -> (Device, JoinHandle<()>) {
        let inner = Arc::new(DeviceInner {
            id,
            arena: Mutex::new(Arena::new(id, mem_capacity)),
            pool: MemoryPool::new(id, mem_capacity, min_block),
            cost,
            engine: Arc::new(EngineShared {
                streams: Mutex::new(Vec::new()),
                cv: Condvar::new(),
                shutdown: AtomicBool::new(false),
            }),
            stats: DeviceStats::default(),
            last_error: Mutex::new(None),
            trace_on: AtomicBool::new(false),
            trace: Mutex::new(None),
            lost: AtomicBool::new(false),
            fault_on: AtomicBool::new(false),
            fault: Mutex::new(None),
            op_seq: AtomicU64::new(0),
        });
        let engine_inner = Arc::clone(&inner);
        let handle = std::thread::Builder::new()
            .name(format!("hf-gpu-engine-{id}"))
            .spawn(move || engine_loop(engine_inner))
            .expect("spawn device engine thread");
        (Device { inner }, handle)
    }

    /// Device id.
    pub fn id(&self) -> DeviceId {
        self.inner.id
    }

    /// Allocates device memory from the pool.
    pub fn alloc(&self, bytes: usize) -> Result<DevicePtr, GpuError> {
        self.fault_check(FaultSite::Alloc)?;
        let res = self.inner.pool.alloc(bytes);
        if res.is_ok() {
            self.inner.trace_instant(GpuOpKind::Alloc, bytes as u64);
        }
        res
    }

    /// Frees a pool allocation.
    pub fn free(&self, ptr: DevicePtr) -> Result<(), GpuError> {
        let bytes = ptr.len;
        let res = self.inner.pool.free(ptr);
        if res.is_ok() {
            self.inner.trace_instant(GpuOpKind::Free, bytes);
        }
        res
    }

    /// Installs (or removes, with `None`) the device-side trace sink.
    /// While a sink is installed, the engine timestamps every stream op
    /// around its execution and reports alloc/free pool traffic; with no
    /// sink, the only cost on the op path is one relaxed atomic load.
    pub fn set_trace_sink(&self, sink: Option<Arc<dyn GpuTraceSink>>) {
        let mut slot = self.inner.trace.lock();
        self.inner.trace_on.store(sink.is_some(), Ordering::Release);
        *slot = sink;
    }

    /// True when a device-side trace sink is installed.
    pub fn tracing(&self) -> bool {
        self.inner.trace_on.load(Ordering::Relaxed)
    }

    /// Installs (or removes, with `None`) the fault injector. Installing
    /// a new injector also revives a lost device and resets its op
    /// counter, so plans compose cleanly across test runs.
    pub(crate) fn set_fault_injector(&self, inj: Option<Arc<FaultInjector>>) {
        let mut slot = self.inner.fault.lock();
        self.inner.fault_on.store(inj.is_some(), Ordering::Release);
        self.inner.lost.store(false, Ordering::Release);
        self.inner.op_seq.store(0, Ordering::Relaxed);
        *slot = inj;
    }

    /// Marks this device lost: every subsequent operation on it fails
    /// with [`GpuError::DeviceLost`] until a new fault plan is installed.
    /// Safe to call from any thread (chaos tests, health monitors).
    pub fn mark_lost(&self) {
        self.inner.lost.store(true, Ordering::Release);
    }

    /// True once the device has been marked lost.
    pub fn is_lost(&self) -> bool {
        self.inner.lost.load(Ordering::Acquire)
    }

    /// Checks whether an operation at `site` may proceed: fails with
    /// [`GpuError::DeviceLost`] on a lost device, or with
    /// [`GpuError::FaultInjected`] when the installed plan's next draw for
    /// the site fires. Callers invoke this *before* performing the
    /// operation's effect, which is what makes retries safe.
    pub fn fault_check(&self, site: FaultSite) -> Result<(), GpuError> {
        if self.is_lost() {
            return Err(GpuError::DeviceLost(self.id()));
        }
        if self.inner.fault_on.load(Ordering::Relaxed) {
            let inj = self.inner.fault.lock().clone();
            if let Some(inj) = inj {
                // Stall before the failure draw: the op wedges for the
                // plan's delay, then proceeds (or faults) as usual —
                // exercising the no-progress windows a watchdog must see.
                if let Some(delay) = inj.stall_duration(site) {
                    std::thread::sleep(delay);
                }
                if inj.should_fail(site) {
                    return Err(GpuError::FaultInjected {
                        device: self.id(),
                        site,
                    });
                }
            }
        }
        Ok(())
    }

    /// Memory pool statistics.
    pub fn pool_stats(&self) -> PoolStats {
        self.inner.pool.stats()
    }

    /// True when `other` is a handle to this same device instance (not
    /// merely the same id on another runtime). Residency checks use this to
    /// tell a cached device pointer still belongs to the live runtime.
    pub fn same_device(&self, other: &Device) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Flushes the memory pool's magazine caches back into the buddy
    /// allocator so parked blocks can coalesce. Called by the executor at
    /// topology completion.
    pub fn trim_pool(&self) {
        self.inner.pool.flush();
    }

    /// Modeled busy time accumulated by this device's ops.
    pub fn busy_time(&self) -> SimDuration {
        SimDuration::from_nanos(self.inner.stats.busy_nanos.load(Ordering::Relaxed))
    }

    /// Raw statistics counters.
    pub fn stats(&self) -> &DeviceStats {
        &self.inner.stats
    }

    /// Cost model used by this device.
    pub fn cost_model(&self) -> CostModel {
        self.inner.cost
    }

    /// First op error since the last [`Device::take_error`], if any —
    /// `cudaGetLastError` semantics.
    pub fn take_error(&self) -> Option<GpuError> {
        self.inner.last_error.lock().take()
    }

    /// Registers a new stream on this device; returns its index.
    pub(crate) fn register_stream(&self) -> usize {
        let mut qs = self.inner.engine.streams.lock();
        qs.push(StreamQueue::default());
        qs.len() - 1
    }

    pub(crate) fn enqueue(&self, stream: usize, op: Op) {
        let eng = &self.inner.engine;
        {
            let mut qs = eng.streams.lock();
            let q = &mut qs[stream];
            q.ops.push_back(op);
            q.enqueued += 1;
        }
        eng.cv.notify_all();
    }

    /// Blocks until stream `stream` has executed everything enqueued so far.
    pub(crate) fn synchronize_stream(&self, stream: usize) {
        let eng = &self.inner.engine;
        let mut qs = eng.streams.lock();
        let target = qs[stream].enqueued;
        while qs[stream].completed < target {
            eng.cv.wait(&mut qs);
        }
    }

    /// Blocks until every stream on this device has drained.
    pub fn synchronize(&self) {
        let eng = &self.inner.engine;
        let mut qs = eng.streams.lock();
        loop {
            let pending = qs.iter().any(|q| q.completed < q.enqueued);
            if !pending {
                return;
            }
            eng.cv.wait(&mut qs);
        }
    }
}

impl DeviceInner {
    /// Clone of the installed sink, if tracing is on.
    fn sink(&self) -> Option<Arc<dyn GpuTraceSink>> {
        if !self.trace_on.load(Ordering::Relaxed) {
            return None;
        }
        self.trace.lock().clone()
    }

    /// Emits a zero-duration event (pool alloc/free bookkeeping).
    fn trace_instant(&self, kind: GpuOpKind, bytes: u64) {
        if let Some(sink) = self.sink() {
            let now = Instant::now();
            sink.record(GpuTraceEvent {
                device: self.id,
                stream: None,
                label: None,
                kind,
                start: now,
                end: now,
                modeled_ns: 0,
                bytes,
            });
        }
    }
}

/// The engine loop: drains stream queues in order, honoring event waits.
/// One engine thread per device serializes that device's ops (a
/// single-compute-unit GPU); concurrency across devices is real.
fn engine_loop(dev: Arc<DeviceInner>) {
    let eng = Arc::clone(&dev.engine);
    let mut next_start = 0usize;
    loop {
        let tracing = dev.trace_on.load(Ordering::Relaxed);
        // Find a runnable head op, round-robin across streams for fairness.
        let mut op: Option<Op> = None;
        // When tracing: the instant the popped op's stream head first
        // blocked on an unfired event (the event-wait span start).
        let mut blocked_since: Option<Instant> = None;
        {
            let mut qs = eng.streams.lock();
            let n = qs.len();
            let mut any_pending = false;
            for k in 0..n {
                let i = (next_start + k) % n;
                let q = &mut qs[i];
                match q.ops.front() {
                    None => {}
                    Some(head) => {
                        any_pending = true;
                        if head.is_runnable() {
                            blocked_since = q.blocked_since.take();
                            op = Some(q.ops.pop_front().expect("head exists"));
                            next_start = (i + 1) % n.max(1);
                            break;
                        } else if tracing && q.blocked_since.is_none() {
                            q.blocked_since = Some(Instant::now());
                        }
                    }
                }
            }
            if op.is_none() {
                if eng.shutdown.load(Ordering::Acquire) && !any_pending {
                    return;
                }
                // Timed wait: an event this device is blocked on may be
                // fired by another device's engine or by the host, which
                // notifies no one here.
                eng.cv.wait_for(&mut qs, Duration::from_micros(200));
                continue;
            }
        }

        let mut op = op.expect("checked above");
        // Scheduled device loss: the plan loses this device after it has
        // executed a configured number of exec ops. The op still runs —
        // its closure observes the lost flag and fails fast — so stream
        // completion accounting never skips a beat.
        if dev.fault_on.load(Ordering::Relaxed) && matches!(op.body, OpBody::Exec(_)) {
            let seq = dev.op_seq.fetch_add(1, Ordering::Relaxed);
            let inj = dev.fault.lock().clone();
            if let Some(inj) = inj {
                if inj.loses(dev.id, seq) {
                    dev.lost.store(true, Ordering::Release);
                }
            }
        }
        let stream = op.stream;
        let label = op.label.take();
        let t0 = tracing.then(Instant::now);
        let (dur, kind, bytes) = execute(&dev, op);
        dev.stats.busy_nanos.fetch_add(dur.as_nanos(), Ordering::Relaxed);
        dev.stats.ops.fetch_add(1, Ordering::Relaxed);

        if let (Some(t0), Some(sink)) = (t0, dev.sink()) {
            // An event-wait span starts when the stream head blocked, not
            // when the engine finally consumed the (now runnable) op.
            let start = match kind {
                GpuOpKind::EventWait => blocked_since.unwrap_or(t0),
                _ => t0,
            };
            sink.record(GpuTraceEvent {
                device: dev.id,
                stream: Some(stream),
                label,
                kind,
                start,
                end: Instant::now(),
                modeled_ns: dur.as_nanos(),
                bytes,
            });
        }

        let mut qs = eng.streams.lock();
        qs[stream].completed += 1;
        drop(qs);
        eng.cv.notify_all();
    }
}

/// Executes one op; returns its modeled duration, trace category, and
/// bytes moved.
fn execute(dev: &Arc<DeviceInner>, op: Op) -> (SimDuration, GpuOpKind, u64) {
    match op.body {
        OpBody::Exec(f) => {
            let mut arena = dev.arena.lock();
            let mut view = arena.view();
            match f(&mut view, &dev.cost) {
                Ok(report) => {
                    dev.stats.h2d_bytes.fetch_add(report.h2d_bytes, Ordering::Relaxed);
                    dev.stats.d2h_bytes.fetch_add(report.d2h_bytes, Ordering::Relaxed);
                    dev.stats.kernels.fetch_add(report.kernels, Ordering::Relaxed);
                    (
                        report.duration,
                        GpuOpKind::Exec,
                        report.h2d_bytes + report.d2h_bytes,
                    )
                }
                Err(e) => {
                    let mut slot = dev.last_error.lock();
                    if slot.is_none() {
                        *slot = Some(e);
                    }
                    (SimDuration::ZERO, GpuOpKind::Exec, 0)
                }
            }
        }
        OpBody::Host(f) => {
            f();
            (SimDuration::ZERO, GpuOpKind::HostFn, 0)
        }
        OpBody::Record(ev) => {
            ev.fire();
            (SimDuration::ZERO, GpuOpKind::EventRecord, 0)
        }
        // WaitEvent ops are consumed only when already runnable.
        OpBody::WaitEvent { .. } => (SimDuration::ZERO, GpuOpKind::EventWait, 0),
    }
}

thread_local! {
    static DEVICE_STACK: RefCell<Vec<DeviceId>> = const { RefCell::new(Vec::new()) };
}

/// RAII device scope: the software analogue of the paper's
/// `ScopedDeviceContext` over `cudaSetDevice` (Listing 13). Pushes the
/// device onto a thread-local stack; [`current_device`] reports the top.
pub struct ScopedDeviceContext {
    _private: (),
}

impl ScopedDeviceContext {
    /// Enters `device`'s context on this thread.
    pub fn new(device: DeviceId) -> Self {
        DEVICE_STACK.with(|s| s.borrow_mut().push(device));
        Self { _private: () }
    }
}

impl Drop for ScopedDeviceContext {
    fn drop(&mut self) {
        DEVICE_STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// The device the calling thread is currently scoped to, if any.
pub fn current_device() -> Option<DeviceId> {
    DEVICE_STACK.with(|s| s.borrow().last().copied())
}

/// An [`Event`] wait marker used inside op queues.
#[derive(Debug, Clone)]
pub struct EventWait {
    pub(crate) event: Event,
    pub(crate) generation: u64,
}

impl EventWait {
    pub(crate) fn ready(&self) -> bool {
        self.event.reached(self.generation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_context_nests() {
        assert_eq!(current_device(), None);
        {
            let _a = ScopedDeviceContext::new(1);
            assert_eq!(current_device(), Some(1));
            {
                let _b = ScopedDeviceContext::new(3);
                assert_eq!(current_device(), Some(3));
            }
            assert_eq!(current_device(), Some(1));
        }
        assert_eq!(current_device(), None);
    }
}
