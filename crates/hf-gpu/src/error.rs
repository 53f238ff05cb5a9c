//! Error type for the GPU substrate.

use crate::fault::FaultSite;
use std::fmt;

/// Errors surfaced by the software GPU runtime.
///
/// Non-exhaustive: match with a wildcard arm; new failure modes (like the
/// fault-injection variants) may be added without a breaking release.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GpuError {
    /// The device memory pool could not satisfy an allocation.
    OutOfMemory {
        /// Bytes requested.
        requested: usize,
        /// Bytes currently free in the pool (may be fragmented).
        free: usize,
    },
    /// A device id outside `0..num_devices` was used.
    InvalidDevice(u32),
    /// A device pointer was used on a device other than the one that
    /// allocated it — the software analogue of CUDA's
    /// `cudaErrorInvalidDevicePointer`.
    WrongDevice {
        /// Device owning the pointer.
        owner: u32,
        /// Device the operation ran on.
        used_on: u32,
    },
    /// A typed view was requested whose element size/alignment does not
    /// divide the underlying allocation.
    TypeMismatch {
        /// Bytes in the allocation.
        bytes: usize,
        /// Element size requested.
        elem: usize,
    },
    /// Copy size exceeds the device allocation or the host buffer.
    SizeMismatch {
        /// Bytes the destination can hold.
        dst: usize,
        /// Bytes the source provides.
        src: usize,
    },
    /// Two pointers of one [`crate::ArenaView::split`] share device bytes,
    /// or part `a == b` of it was asked for twice.
    Overlap {
        /// Position of one in the split's list (for
        /// [`crate::KernelArgs::split`], the kernel's argument index).
        a: usize,
        /// Position of the other.
        b: usize,
    },
    /// Operation on a runtime that has been shut down.
    ShutDown,
    /// A freed or never-allocated pointer was passed to `free`.
    InvalidFree(u64),
    /// The device has been marked lost (hardware failure, fault plan):
    /// every operation on it fails until the runtime is rebuilt.
    DeviceLost(u32),
    /// A fault injected by an installed [`crate::FaultPlan`]. Fires
    /// *before* the operation has any effect, so retrying is always safe.
    FaultInjected {
        /// Device the faulted operation targeted.
        device: u32,
        /// Where the fault fired.
        site: FaultSite,
    },
}

impl fmt::Display for GpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpuError::OutOfMemory { requested, free } => write!(
                f,
                "device out of memory: requested {requested} bytes, {free} free"
            ),
            GpuError::InvalidDevice(d) => write!(f, "invalid device id {d}"),
            GpuError::WrongDevice { owner, used_on } => write!(
                f,
                "device pointer owned by device {owner} used on device {used_on}"
            ),
            GpuError::TypeMismatch { bytes, elem } => write!(
                f,
                "allocation of {bytes} bytes cannot be viewed as elements of {elem} bytes"
            ),
            GpuError::SizeMismatch { dst, src } => {
                write!(f, "copy size mismatch: dst {dst} bytes, src {src} bytes")
            }
            GpuError::Overlap { a, b } => {
                write!(
                    f,
                    "arguments {a} and {b} of one split overlap in device memory"
                )
            }
            GpuError::ShutDown => write!(f, "GPU runtime has been shut down"),
            GpuError::InvalidFree(off) => {
                write!(f, "invalid free of device offset {off:#x}")
            }
            GpuError::DeviceLost(d) => write!(f, "device {d} has been lost"),
            GpuError::FaultInjected { device, site } => {
                write!(f, "injected {site} fault on device {device}")
            }
        }
    }
}

impl std::error::Error for GpuError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = GpuError::OutOfMemory {
            requested: 1024,
            free: 512,
        };
        let s = e.to_string();
        assert!(s.contains("1024") && s.contains("512"));
        assert!(GpuError::InvalidDevice(3).to_string().contains('3'));
    }
}
