//! Device-side execution tracing.
//!
//! CUDA profilers (CUPTI, Nsight) observe *device-side* activity: when a
//! kernel or copy actually ran on the GPU, not when the host enqueued it.
//! This module is the software equivalent for the simulated devices: when
//! a [`GpuTraceSink`] is installed, each device engine timestamps every
//! stream operation around its real execution — op start/finish, the time
//! a stream spent blocked on an event wait, and pool alloc/free traffic —
//! and hands the events to the sink.
//!
//! Recording is gated by one relaxed atomic load per op
//! ([`crate::Device`] keeps a `trace_on` flag), so the engine hot loop
//! pays ~nothing when tracing is off. Sinks must be non-blocking: the
//! executor's trace collector pushes into lock-free event rings.
//!
//! Enqueuers can attach an [`OpLabel`] to device work
//! ([`crate::Stream::exec_labeled`]) so device events can be stitched
//! back to the task that issued them; the `tag` travels opaquely (the
//! Heteroflow executor packs the task kind into it).

use std::sync::Arc;
use std::time::Instant;

/// Category of a device-side trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuOpKind {
    /// Device work: a copy or kernel executed through the arena.
    Exec,
    /// A stream-ordered host callback (`cudaLaunchHostFunc`).
    HostFn,
    /// An event fire (`cudaEventRecord` reached the head of the stream).
    EventRecord,
    /// Time a stream spent blocked at the head on `cudaStreamWaitEvent`.
    EventWait,
    /// A pool allocation.
    Alloc,
    /// A pool free.
    Free,
}

/// Identity attached by the enqueuer to a device op so the trace can be
/// stitched back to the submitting task.
#[derive(Debug, Clone)]
pub struct OpLabel {
    /// Task (or op) name.
    pub name: Arc<str>,
    /// Opaque tag; the Heteroflow executor packs the task kind here.
    pub tag: u32,
    /// Epoch index of the submitting streaming epoch, if any; travels
    /// opaquely into the trace so overlap across pipelined epochs can be
    /// attributed without renaming spans.
    pub epoch: Option<u64>,
}

/// One device-side event. Timestamps are raw [`Instant`]s — the sink
/// converts them to its own epoch, so devices and CPU workers share one
/// timeline without agreeing on a zero point up front.
#[derive(Debug, Clone)]
pub struct GpuTraceEvent {
    /// Device the event occurred on.
    pub device: u32,
    /// Stream index, when the event belongs to a stream.
    pub stream: Option<usize>,
    /// Label attached at enqueue time, if any.
    pub label: Option<OpLabel>,
    /// Event category.
    pub kind: GpuOpKind,
    /// Wall-clock start (for [`GpuOpKind::EventWait`], when the stream
    /// head first blocked).
    pub start: Instant,
    /// Wall-clock end.
    pub end: Instant,
    /// Bytes moved/allocated, when meaningful (copy traffic, alloc size).
    pub bytes: u64,
}

/// Receiver of device-side trace events. Implementations must be cheap
/// and non-blocking — they are called from engine threads between ops.
pub trait GpuTraceSink: Send + Sync {
    /// Records one device-side event.
    fn record(&self, ev: GpuTraceEvent);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{GpuConfig, GpuRuntime};
    use crate::stream::Stream;
    use hf_sync::sync::Mutex;

    #[derive(Default)]
    struct Capture(Mutex<Vec<GpuTraceEvent>>);

    impl GpuTraceSink for Capture {
        fn record(&self, ev: GpuTraceEvent) {
            self.0.lock().push(ev);
        }
    }

    #[test]
    fn engine_records_exec_and_callbacks_with_labels() {
        let rt = GpuRuntime::new(1, GpuConfig::default());
        let sink = Arc::new(Capture::default());
        rt.set_trace_sink(Some(Arc::clone(&sink) as Arc<dyn GpuTraceSink>));
        assert!(rt.tracing_enabled());

        let dev = rt.device(0).unwrap();
        let s = Stream::new(&dev);
        let ptr = dev.alloc(64).unwrap();
        s.exec_labeled(
            Some(OpLabel {
                name: Arc::from("fill"),
                tag: 7,
                epoch: None,
            }),
            Box::new(move |view, cost| {
                view.bytes_mut(ptr)?.fill(3);
                Ok(crate::stream::OpReport {
                    duration: cost.h2d(64),
                    h2d_bytes: 64,
                    ..Default::default()
                })
            }),
        );
        s.host_fn(|| {});
        s.synchronize();
        dev.free(ptr).unwrap();

        let events = sink.0.lock();
        let exec = events
            .iter()
            .find(|e| e.kind == GpuOpKind::Exec)
            .expect("exec event");
        assert_eq!(exec.device, 0);
        assert_eq!(exec.stream, Some(0));
        assert_eq!(exec.label.as_ref().unwrap().name.as_ref(), "fill");
        assert_eq!(exec.label.as_ref().unwrap().tag, 7);
        assert!(exec.end >= exec.start);
        assert_eq!(exec.bytes, 64);
        assert!(events.iter().any(|e| e.kind == GpuOpKind::HostFn));
        assert!(events
            .iter()
            .any(|e| e.kind == GpuOpKind::Alloc && e.bytes == 64));
        assert!(events.iter().any(|e| e.kind == GpuOpKind::Free));
    }

    #[test]
    fn event_wait_blocking_time_is_traced() {
        // The waiter lives on device 0, whose engine is otherwise idle —
        // it observes the blocked head while device 1 sleeps before
        // recording the event.
        let rt = GpuRuntime::new(2, GpuConfig::default());
        let sink = Arc::new(Capture::default());
        // Installed once both engines sleep: an engine that does not read
        // the tracing flag again after its wake misses the blocked span.
        for d in rt.devices() {
            while d.inner.engine.wake.num_waiters() == 0 {
                std::thread::yield_now();
            }
        }
        rt.set_trace_sink(Some(Arc::clone(&sink) as Arc<dyn GpuTraceSink>));
        let s1 = Stream::new(&rt.device(1).unwrap());
        let s2 = Stream::new(&rt.device(0).unwrap());
        let ev = crate::Event::new();
        s1.host_fn(|| std::thread::sleep(std::time::Duration::from_millis(15)));
        s1.record_event(&ev);
        s2.wait_event(&ev);
        s2.synchronize();
        s1.synchronize();

        let events = sink.0.lock();
        let wait = events
            .iter()
            .find(|e| e.kind == GpuOpKind::EventWait)
            .expect("wait event");
        assert!(
            wait.end.duration_since(wait.start).as_millis() >= 5,
            "wait span covers the blocked time"
        );
        assert!(events.iter().any(|e| e.kind == GpuOpKind::EventRecord));
    }

    #[test]
    fn uninstalling_sink_stops_recording() {
        let rt = GpuRuntime::new(1, GpuConfig::default());
        let sink = Arc::new(Capture::default());
        rt.set_trace_sink(Some(Arc::clone(&sink) as Arc<dyn GpuTraceSink>));
        rt.set_trace_sink(None);
        assert!(!rt.tracing_enabled());
        let dev = rt.device(0).unwrap();
        let s = Stream::new(&dev);
        s.host_fn(|| {});
        s.synchronize();
        assert!(sink.0.lock().is_empty());
    }
}
