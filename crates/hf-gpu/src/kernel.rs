//! Kernel launches: launch configuration and the execution context handed
//! to Rust "kernels".
//!
//! The paper launches native CUDA kernels as `f<<<grid, block, shm, s>>>
//! (args...)` (Listing 8). Here a kernel is a Rust closure
//! `Fn(&LaunchConfig, &mut KernelArgs)`; the launch configuration carries
//! the same `grid`/`block`/`shm` triple, and [`KernelArgs`] resolves the
//! bound [`DevicePtr`]s (the paper's pull-task gateways) to typed device
//! slices — the role `PointerCaster` plays in Listing 9.

use crate::arena::{ArenaView, DevicePtr, Split};
use crate::error::GpuError;
use crate::plain::Plain;
use std::sync::Arc;

/// A 3-component grid or block dimension, like CUDA's `dim3`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridDim {
    /// X extent.
    pub x: u32,
    /// Y extent.
    pub y: u32,
    /// Z extent.
    pub z: u32,
}

impl Default for GridDim {
    fn default() -> Self {
        Self { x: 1, y: 1, z: 1 }
    }
}

impl GridDim {
    /// Total number of indices in the dimension.
    pub(crate) fn count(&self) -> u64 {
        self.x as u64 * self.y as u64 * self.z as u64
    }
}

/// Kernel launch configuration: grid dimensions, block dimensions, and
/// shared-memory bytes — the `<<<grid, block, shm, stream>>>` triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LaunchConfig {
    /// Grid (blocks per launch).
    pub grid: GridDim,
    /// Block (threads per block).
    pub block: GridDim,
    /// Dynamic shared memory per block, in bytes (modelled, not enforced).
    pub shm: u32,
}

impl LaunchConfig {
    /// A 1-D launch with `grid_x` blocks of `block_x` threads.
    pub fn one_d(grid_x: u32, block_x: u32) -> Self {
        let dim = |x| GridDim { x, y: 1, z: 1 };
        Self {
            grid: dim(grid_x),
            block: dim(block_x),
            shm: 0,
        }
    }

    /// A launch covering at least `n` linear threads with the given block
    /// size (`grid_x = ceil(n / block_x)`), the idiom in Listing 1.
    pub fn cover(n: usize, block_x: u32) -> Self {
        let bx = block_x.max(1);
        let grid_x = n.div_ceil(bx as usize).max(1) as u32;
        Self::one_d(grid_x, bx)
    }

    /// Total threads in the launch.
    pub fn total_threads(&self) -> u64 {
        self.grid.count() * self.block.count()
    }

    /// Iterator over global linear thread indices `0..total_threads()` —
    /// the software stand-in for `blockIdx.x * blockDim.x + threadIdx.x`.
    pub fn threads(&self) -> impl Iterator<Item = usize> {
        0..self.total_threads() as usize
    }
}

/// The argument environment of an executing kernel: the device arena plus
/// the device pointers gathered from the kernel's source pull tasks.
pub struct KernelArgs<'a, 'v> {
    view: &'a mut ArenaView<'v>,
    ptrs: &'a [DevicePtr],
}

impl<'a, 'v> KernelArgs<'a, 'v> {
    /// Creates the environment (called by the stream engine at launch).
    pub fn new(view: &'a mut ArenaView<'v>, ptrs: &'a [DevicePtr]) -> Self {
        Self { view, ptrs }
    }

    /// Raw device pointer of argument `i`.
    pub fn ptr(&self, i: usize) -> DevicePtr {
        self.ptrs[i]
    }

    /// Immutable typed view of argument `i`.
    pub fn slice<T: Plain>(&self, i: usize) -> Result<&[T], GpuError> {
        self.view.slice(self.ptrs[i])
    }

    /// Mutable typed view of argument `i`.
    pub fn slice_mut<T: Plain>(&mut self, i: usize) -> Result<&mut [T], GpuError> {
        self.view.slice_mut(self.ptrs[i])
    }

    /// Every bound argument at once, as pairwise-disjoint parts indexed
    /// like the arguments: take the inputs with [`Split::read`] and the
    /// outputs with [`Split::write`] and hold them all together
    /// ([`ArenaView::split`]).
    pub fn split(&mut self) -> Result<Split<'_>, GpuError> {
        self.view.split(self.ptrs)
    }
}

/// A kernel function object: shareable, sendable, launched by engines.
pub type KernelFn = Arc<dyn Fn(&LaunchConfig, &mut KernelArgs<'_, '_>) + Send + Sync>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::Arena;

    #[test]
    fn cover_rounds_up() {
        let c = LaunchConfig::cover(65536, 256);
        assert_eq!(c.grid.x, 256);
        assert_eq!(c.block.x, 256);
        assert_eq!(c.total_threads(), 65536);
        let c2 = LaunchConfig::cover(100, 256);
        assert_eq!(c2.grid.x, 1);
        assert_eq!(c2.total_threads(), 256);
        let c0 = LaunchConfig::cover(0, 256);
        assert_eq!(c0.grid.x, 1);
    }

    #[test]
    fn threads_iterates_linear_space() {
        let c = LaunchConfig::one_d(2, 4);
        let v: Vec<usize> = c.threads().collect();
        assert_eq!(v, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn saxpy_through_kernel_args() {
        let mut arena = Arena::new(0, 1024);
        let ptr = |offset| DevicePtr {
            device: 0,
            offset,
            len: 16,
            capacity: 16,
        };
        let (px, py) = (ptr(0), ptr(16));
        {
            let mut view = arena.view();
            view.slice_mut::<i32>(px).unwrap().copy_from_slice(&[1; 4]);
            view.slice_mut::<i32>(py).unwrap().copy_from_slice(&[2; 4]);
        }
        let cfg = LaunchConfig::cover(4, 2);
        let mut view = arena.view();
        let ptrs = [px, py];
        let mut args = KernelArgs::new(&mut view, &ptrs);
        let mut parts = args.split().unwrap();
        let x = parts.read::<i32>(0).unwrap();
        let y = parts.write::<i32>(1).unwrap();
        let a = 2;
        for i in cfg.threads() {
            if i < 4 {
                y[i] += a * x[i];
            }
        }
        assert_eq!(args.slice::<i32>(1).unwrap(), &[4, 4, 4, 4]);
    }
}
