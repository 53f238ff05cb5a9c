//! The GPU runtime: owns the set of software devices.

use crate::cost::CostModel;
use crate::device::{Device, DeviceId};
use crate::error::GpuError;
use crate::fault::{FaultInjector, FaultPlan};
use hf_sync::sync::Mutex;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Configuration for a [`GpuRuntime`].
#[derive(Debug, Clone, Copy)]
pub struct GpuConfig {
    /// Device memory capacity in bytes (power of two). Default 256 MiB.
    pub memory_per_device: usize,
    /// Minimum buddy block size (power of two). Default 256 B.
    pub min_block: usize,
    /// Cost model for op durations.
    pub cost: CostModel,
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self {
            memory_per_device: 256 << 20,
            min_block: 256,
            cost: CostModel::default(),
        }
    }
}

/// A set of `M` software GPUs with engine threads, created once and shared
/// by executors — the simulator's stand-in for the CUDA driver.
pub struct GpuRuntime {
    devices: Vec<Device>,
    engines: Vec<JoinHandle<()>>,
    /// Installed fault injector (shared with every device).
    fault: Mutex<Option<Arc<FaultInjector>>>,
}

impl std::fmt::Debug for GpuRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuRuntime")
            .field("num_devices", &self.devices.len())
            .finish()
    }
}

impl GpuRuntime {
    /// Creates `num_devices` devices with the given configuration.
    pub fn new(num_devices: u32, config: GpuConfig) -> Self {
        let mut devices = Vec::with_capacity(num_devices as usize);
        let mut engines = Vec::with_capacity(num_devices as usize);
        for id in 0..num_devices {
            let (d, h) =
                Device::create(id, config.memory_per_device, config.min_block, config.cost);
            devices.push(d);
            engines.push(h);
        }
        Self {
            devices,
            engines,
            fault: Mutex::new(None),
        }
    }

    /// Number of devices.
    pub fn num_devices(&self) -> u32 {
        self.devices.len() as u32
    }

    /// Device handle by id.
    pub fn device(&self, id: DeviceId) -> Result<Device, GpuError> {
        self.devices
            .get(id as usize)
            .cloned()
            .ok_or(GpuError::InvalidDevice(id))
    }

    /// All devices.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Blocks until every stream on every device has drained.
    pub fn synchronize_all(&self) {
        for d in &self.devices {
            d.synchronize();
        }
    }

    /// Installs (or removes, with `None`) a device-side trace sink on
    /// every device (see [`crate::trace`]).
    pub fn set_trace_sink(&self, sink: Option<std::sync::Arc<dyn crate::trace::GpuTraceSink>>) {
        for d in &self.devices {
            d.set_trace_sink(sink.clone());
        }
    }

    /// True when any device has a trace sink installed.
    pub fn tracing_enabled(&self) -> bool {
        self.devices.iter().any(|d| d.tracing())
    }

    /// Installs (or removes, with `None`) a seeded [`FaultPlan`] on every
    /// device. Installing a plan revives previously lost devices and
    /// resets their op counters; the plan's draw counters and fault cap
    /// are shared across devices so a plan behaves the same regardless of
    /// device count.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        let inj = plan.map(|p| Arc::new(FaultInjector::new(p)));
        for d in &self.devices {
            d.set_fault_injector(inj.clone());
        }
        *self.fault.lock() = inj;
    }

    /// Stalls injected by the installed plan so far.
    pub fn stalls_injected(&self) -> u64 {
        self.fault.lock().as_ref().map_or(0, |i| i.stalled())
    }

    /// Ids of devices currently marked lost.
    pub fn lost_devices(&self) -> Vec<DeviceId> {
        self.devices
            .iter()
            .filter(|d| d.is_lost())
            .map(|d| d.id())
            .collect()
    }
}

impl Drop for GpuRuntime {
    fn drop(&mut self) {
        for d in &self.devices {
            d.inner.engine.shutdown.store(true, Ordering::SeqCst);
            d.inner.engine.wake.notify_all();
        }
        for h in self.engines.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::Stream;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn devices_are_independent() {
        let rt = GpuRuntime::new(3, GpuConfig::default());
        assert_eq!(rt.num_devices(), 3);
        for id in 0..3 {
            let d = rt.device(id).unwrap();
            assert_eq!(d.id(), id);
            let p = d.alloc(1024).unwrap();
            assert_eq!(p.device, id);
            d.free(p).unwrap();
        }
        assert!(rt.device(5).is_err());
    }

    #[test]
    fn drop_joins_engines_cleanly() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let rt = GpuRuntime::new(2, GpuConfig::default());
            for id in 0..2 {
                let s = Stream::new(&rt.device(id).unwrap());
                let c = Arc::clone(&counter);
                s.host_fn(move || _ = c.fetch_add(1, Ordering::SeqCst));
            }
            rt.synchronize_all();
            // rt dropped here: engines must shut down without hanging.
        }
        assert_eq!(counter.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn streams_on_different_devices_run_concurrently() {
        let rt = GpuRuntime::new(2, GpuConfig::default());
        let s0 = Stream::new(&rt.device(0).unwrap());
        let s1 = Stream::new(&rt.device(1).unwrap());
        let gate = Arc::new(std::sync::Barrier::new(2));
        // Both ops block on the same barrier: only possible to finish if
        // the two device engines run them at the same time.
        let (g0, g1) = (Arc::clone(&gate), Arc::clone(&gate));
        s0.host_fn(move || _ = g0.wait());
        s1.host_fn(move || _ = g1.wait());
        s0.synchronize();
        s1.synchronize();
    }

    #[test]
    fn small_device_memory_exhausts() {
        let cfg = GpuConfig {
            memory_per_device: 1 << 12,
            min_block: 256,
            ..Default::default()
        };
        let rt = GpuRuntime::new(1, cfg);
        let d = rt.device(0).unwrap();
        let a = d.alloc(4096).unwrap();
        assert!(d.alloc(256).is_err());
        d.free(a).unwrap();
        assert!(d.alloc(256).is_ok());
    }
}
