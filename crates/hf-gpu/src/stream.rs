//! Streams: ordered asynchronous operation queues, like `cudaStream_t`.
//!
//! Enqueue operations return immediately; the owning device's engine
//! thread executes them in per-stream FIFO order. Ordering across streams
//! is unconstrained except through [`Event`]s. The Heteroflow executor
//! keeps one stream per (worker, device) pair, the paper's "per-thread
//! CUDA stream" (§III-C).

use crate::arena::{ArenaView, DevicePtr};
use crate::cost::{CostModel, SimDuration};
use crate::device::{Device, EventWait};
use crate::error::GpuError;
use crate::event::Event;
use crate::kernel::{KernelArgs, KernelFn, LaunchConfig};
use crate::trace::OpLabel;

/// What an executed op did, for device statistics and cost accounting.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpReport {
    /// Modeled duration of the op.
    pub duration: SimDuration,
    /// Host-to-device traffic generated.
    pub h2d_bytes: u64,
    /// Device-to-host traffic generated.
    pub d2h_bytes: u64,
    /// Kernels launched (0 or 1).
    pub kernels: u64,
}

/// Closure type executed on the device engine with arena access.
pub type ExecFn =
    Box<dyn FnOnce(&mut ArenaView<'_>, &CostModel) -> Result<OpReport, GpuError> + Send>;

/// The payload of a stream operation.
pub enum OpBody {
    /// Device work: copies, kernels — anything touching the arena.
    Exec(ExecFn),
    /// A host callback executed in stream order (`cudaLaunchHostFunc`).
    Host(Box<dyn FnOnce() + Send>),
    /// Fires the event (`cudaEventRecord`).
    Record(Event),
    /// Blocks the stream until the event generation fires
    /// (`cudaStreamWaitEvent`).
    WaitEvent(EventWait),
}

impl std::fmt::Debug for OpBody {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpBody::Exec(_) => f.write_str("Exec"),
            OpBody::Host(_) => f.write_str("Host"),
            OpBody::Record(_) => f.write_str("Record"),
            OpBody::WaitEvent(_) => f.write_str("WaitEvent"),
        }
    }
}

/// One enqueued stream operation.
#[derive(Debug)]
pub struct Op {
    pub(crate) stream: usize,
    pub(crate) body: OpBody,
    /// Trace identity attached by the enqueuer (see [`crate::trace`]).
    pub(crate) label: Option<OpLabel>,
}

impl Op {
    /// A WaitEvent op is runnable only once its event fired; everything
    /// else is runnable when it reaches the head of its stream.
    pub(crate) fn is_runnable(&self) -> bool {
        match &self.body {
            OpBody::WaitEvent(w) => w.ready(),
            _ => true,
        }
    }
}

/// A stream handle. Cheap to clone; clones enqueue into the same queue.
#[derive(Debug, Clone)]
pub struct Stream {
    device: Device,
    index: usize,
}

impl Stream {
    /// Creates a new stream on `device`.
    pub fn new(device: &Device) -> Self {
        let index = device.register_stream();
        Self {
            device: device.clone(),
            index,
        }
    }

    /// The device this stream belongs to.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Stream index within its device (diagnostic).
    pub fn index(&self) -> usize {
        self.index
    }

    fn push(&self, body: OpBody) {
        self.push_labeled(body, None);
    }

    fn push_labeled(&self, body: OpBody, label: Option<OpLabel>) {
        self.device.enqueue(
            self.index,
            Op {
                stream: self.index,
                body,
                label,
            },
        );
    }

    /// Enqueues raw device work with arena access.
    pub fn exec(&self, f: ExecFn) {
        self.push(OpBody::Exec(f));
    }

    /// Enqueues raw device work carrying a trace label, so device-side
    /// trace events can be stitched back to the submitting task (see
    /// [`crate::trace`]).
    pub fn exec_labeled(&self, label: Option<OpLabel>, f: ExecFn) {
        self.push_labeled(OpBody::Exec(f), label);
    }

    /// Asynchronous host-to-device copy of an owned byte buffer
    /// (`cudaMemcpyAsync(dst, src, H2D, stream)` with a staging copy).
    pub fn h2d_async(&self, dst: DevicePtr, src: Vec<u8>) {
        self.exec(Box::new(move |view, cost| {
            let n = src.len();
            view.copy_in(dst, &src)?;
            Ok(OpReport {
                duration: cost.h2d(n),
                h2d_bytes: n as u64,
                ..Default::default()
            })
        }));
    }

    /// Stateful device-to-host copy: `consumer` receives the device bytes
    /// at execution time (push-task semantics, Listing 6).
    pub fn d2h_with(
        &self,
        src: DevicePtr,
        consumer: impl FnOnce(&[u8]) + Send + 'static,
    ) {
        self.exec(Box::new(move |view, cost| {
            let bytes = view.bytes(src)?;
            let n = bytes.len();
            consumer(bytes);
            Ok(OpReport {
                duration: cost.d2h(n),
                d2h_bytes: n as u64,
                ..Default::default()
            })
        }));
    }

    /// Launches a kernel over `cfg` with the given device arguments.
    /// `work_units` declares the kernel's modeled cost (abstract units;
    /// see [`CostModel::kernel`]).
    pub fn launch_kernel(
        &self,
        cfg: LaunchConfig,
        kernel: KernelFn,
        args: Vec<DevicePtr>,
        work_units: f64,
    ) {
        self.exec(Box::new(move |view, cost| {
            {
                let mut ka = KernelArgs::new(view, &args);
                kernel(&cfg, &mut ka);
            }
            Ok(OpReport {
                duration: cost.kernel(work_units),
                kernels: 1,
                ..Default::default()
            })
        }));
    }

    /// Enqueues a host callback executed in stream order.
    pub fn host_fn(&self, f: impl FnOnce() + Send + 'static) {
        self.push(OpBody::Host(Box::new(f)));
    }

    /// Records `event` into this stream; it fires when the engine reaches
    /// this point. Returns the generation that will fire.
    pub fn record_event(&self, event: &Event) -> u64 {
        let generation = event.mark_recorded();
        self.push(OpBody::Record(event.clone()));
        generation
    }

    /// Makes this stream wait (without blocking the host) until the
    /// event's most recent recording fires.
    pub fn wait_event(&self, event: &Event) {
        let generation = event.generation_target();
        self.push(OpBody::WaitEvent(EventWait {
            event: event.clone(),
            generation,
        }));
    }

    /// Blocks the calling thread until every op enqueued so far completes
    /// (`cudaStreamSynchronize`).
    pub fn synchronize(&self) {
        self.device.synchronize_stream(self.index);
    }
}

impl Event {
    /// Generation a `wait_event` enqueued now should wait for: the number
    /// of recordings made so far.
    pub(crate) fn generation_target(&self) -> u64 {
        // If never recorded, target 0 => immediately ready (CUDA treats a
        // wait on an unrecorded event as a no-op).
        self.recorded_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{GpuConfig, GpuRuntime};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn rt() -> GpuRuntime {
        GpuRuntime::new(2, GpuConfig::default())
    }

    #[test]
    fn h2d_then_d2h_round_trip() {
        let rt = rt();
        let dev = rt.device(0).unwrap();
        let s = Stream::new(&dev);
        let ptr = dev.alloc(16).unwrap();
        s.h2d_async(ptr, vec![7u8; 16]);
        let got = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let got2 = Arc::clone(&got);
        s.d2h_with(ptr, move |b| got2.lock().extend_from_slice(b));
        s.synchronize();
        assert_eq!(&*got.lock(), &vec![7u8; 16]);
        dev.free(ptr).unwrap();
    }

    #[test]
    fn fifo_order_within_stream() {
        let rt = rt();
        let dev = rt.device(0).unwrap();
        let s = Stream::new(&dev);
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        for i in 0..20 {
            let log = Arc::clone(&log);
            s.host_fn(move || log.lock().push(i));
        }
        s.synchronize();
        assert_eq!(&*log.lock(), &(0..20).collect::<Vec<_>>());
    }

    #[test]
    fn event_orders_across_streams() {
        let rt = rt();
        let dev = rt.device(0).unwrap();
        let s1 = Stream::new(&dev);
        let s2 = Stream::new(&dev);
        let ev = Event::new();
        let stage = Arc::new(AtomicUsize::new(0));

        // s2 must not run its op until s1 records the event.
        let (a, b) = (Arc::clone(&stage), Arc::clone(&stage));
        s1.host_fn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            a.store(1, Ordering::SeqCst);
        });
        s1.record_event(&ev);
        s2.wait_event(&ev);
        s2.host_fn(move || {
            assert_eq!(b.load(Ordering::SeqCst), 1, "ran before event fired");
        });
        s2.synchronize();
        s1.synchronize();
        assert!(dev.take_error().is_none());
    }

    #[test]
    fn wait_on_unrecorded_event_is_noop() {
        let rt = rt();
        let dev = rt.device(0).unwrap();
        let s = Stream::new(&dev);
        let ev = Event::new();
        s.wait_event(&ev); // never recorded: must not deadlock
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        s.host_fn(move || {
            r.store(1, Ordering::SeqCst);
        });
        s.synchronize();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn kernel_launch_executes_over_grid() {
        let rt = rt();
        let dev = rt.device(1).unwrap();
        let s = Stream::new(&dev);
        let n = 1000usize;
        let ptr = dev.alloc(n * 4).unwrap();
        s.h2d_async(ptr, vec![0u8; n * 4]);
        let cfg = LaunchConfig::cover(n, 128);
        let kernel: KernelFn = Arc::new(move |cfg, args| {
            let out = args.slice_mut::<u32>(0).unwrap();
            for i in cfg.threads() {
                if i < out.len() {
                    out[i] = i as u32 * 2;
                }
            }
        });
        s.launch_kernel(cfg, kernel, vec![ptr], n as f64);
        let got: Arc<parking_lot::Mutex<Vec<u32>>> = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let g = Arc::clone(&got);
        s.d2h_with(ptr, move |b| {
            g.lock().extend_from_slice(crate::plain::from_bytes::<u32>(b))
        });
        s.synchronize();
        let v = got.lock();
        assert_eq!(v.len(), n);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u32 * 2));
        assert_eq!(dev.stats().kernels.load(Ordering::Relaxed), 1);
        assert!(dev.busy_time() > SimDuration::ZERO);
    }

    #[test]
    fn errors_are_captured_not_panicked() {
        let rt = rt();
        let dev = rt.device(0).unwrap();
        let s = Stream::new(&dev);
        // Copy to a pointer owned by the other device.
        let bad = DevicePtr { device: 1, offset: 0, len: 4, capacity: 4 };
        s.h2d_async(bad, vec![0u8; 4]);
        s.synchronize();
        assert!(matches!(dev.take_error(), Some(GpuError::WrongDevice { .. })));
        assert!(dev.take_error().is_none(), "error is cleared after take");
    }
}
