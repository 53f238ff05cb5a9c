//! Device memory: a byte-addressed arena per device and typed views into it.

use crate::copy::copy_bytes;
use crate::error::GpuError;
use crate::plain::{self, Plain};

/// A pointer into device memory — the software analogue of a raw CUDA
/// device pointer, made self-describing: it carries the owning device, the
/// byte offset inside that device's arena, and the logical length of the
/// allocation.
///
/// The paper's kernel tasks receive device pointers through
/// `PointerCaster` (Listing 9); here the kernel context resolves a
/// `DevicePtr` to a typed slice instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DevicePtr {
    /// Device that owns the allocation.
    pub device: u32,
    /// Byte offset inside the device arena.
    pub offset: u64,
    /// Logical allocation length in bytes (what the user asked for, not
    /// the rounded buddy block).
    pub len: u64,
    /// Reserved capacity in bytes — the rounded buddy block backing this
    /// allocation. Always `>= len`. Residency reuse may grow `len` up to
    /// `capacity` without reallocating, and `free` accounting matches the
    /// reservation rather than the request.
    pub capacity: u64,
}

impl DevicePtr {
    /// A null device pointer (no allocation).
    pub const NULL: DevicePtr = DevicePtr {
        device: u32::MAX,
        offset: u64::MAX,
        len: 0,
        capacity: 0,
    };

    /// True for the null pointer.
    pub(crate) fn is_null(&self) -> bool {
        self.device == u32::MAX
    }

    /// Number of `T` elements this allocation holds.
    pub fn len_as<T: Plain>(&self) -> usize {
        self.len as usize / std::mem::size_of::<T>()
    }
}

/// The raw memory of one device.
#[derive(Debug)]
pub struct Arena {
    mem: Box<[u8]>,
    device: u32,
}

impl Arena {
    /// Allocates a zeroed arena of `capacity` bytes for `device`.
    pub fn new(device: u32, capacity: usize) -> Self {
        Self {
            mem: vec![0u8; capacity].into_boxed_slice(),
            device,
        }
    }

    /// Mutable view over the whole arena.
    pub fn view(&mut self) -> ArenaView<'_> {
        ArenaView {
            device: self.device,
            mem: &mut self.mem,
        }
    }
}

/// A mutable window over a device arena, resolving [`DevicePtr`]s to byte
/// or typed slices. Handed to executing stream operations (copies and
/// kernels).
#[derive(Debug)]
pub struct ArenaView<'a> {
    device: u32,
    mem: &'a mut [u8],
}

impl<'a> ArenaView<'a> {
    fn check(&self, p: DevicePtr) -> Result<(usize, usize), GpuError> {
        if p.is_null() {
            return Err(GpuError::InvalidFree(p.offset));
        }
        if p.device != self.device {
            return Err(GpuError::WrongDevice {
                owner: p.device,
                used_on: self.device,
            });
        }
        let start = p.offset as usize;
        let end = start + p.len as usize;
        if end > self.mem.len() {
            return Err(GpuError::SizeMismatch {
                dst: self.mem.len().saturating_sub(start),
                src: p.len as usize,
            });
        }
        Ok((start, end))
    }

    /// Immutable byte view of an allocation.
    pub fn bytes(&self, p: DevicePtr) -> Result<&[u8], GpuError> {
        let (s, e) = self.check(p)?;
        Ok(&self.mem[s..e])
    }

    /// Mutable byte view of an allocation.
    pub fn bytes_mut(&mut self, p: DevicePtr) -> Result<&mut [u8], GpuError> {
        let (s, e) = self.check(p)?;
        Ok(&mut self.mem[s..e])
    }

    /// Immutable typed view.
    pub fn slice<T: Plain>(&self, p: DevicePtr) -> Result<&[T], GpuError> {
        let b = self.bytes(p)?;
        check_elem::<T>(b.len())?;
        Ok(plain::from_bytes(b))
    }

    /// Mutable typed view.
    pub fn slice_mut<T: Plain>(&mut self, p: DevicePtr) -> Result<&mut [T], GpuError> {
        let b = self.bytes_mut(p)?;
        check_elem::<T>(b.len())?;
        Ok(plain::from_bytes_mut(b))
    }

    /// The one borrow splitter: resolves every pointer of `ptrs` at once
    /// into pairwise-disjoint parts, each taken from the [`Split`] once,
    /// read-only or writable — how a kernel holds any number of input
    /// arrays beside its outputs without copying one out of the arena.
    /// Every pointer passes the checks of [`ArenaView::bytes`]; two that
    /// share a byte are [`GpuError::Overlap`] of their positions in `ptrs`.
    pub fn split(&mut self, ptrs: &[DevicePtr]) -> Result<Split<'_>, GpuError> {
        let mut order = Vec::with_capacity(ptrs.len());
        for (i, &p) in ptrs.iter().enumerate() {
            let (s, e) = self.check(p)?;
            order.push((s, e, i));
        }
        order.sort_unstable();
        // Walk the arena once in address order, cutting each range off
        // the front of what is left: disjointness is what `split_at_mut`
        // gives, not something asserted.
        let mut parts: Vec<Option<&mut [u8]>> = ptrs.iter().map(|_| None).collect();
        let (mut rest, mut at) = (&mut *self.mem, 0);
        for (k, &(s, e, i)) in order.iter().enumerate() {
            if s < at {
                let j = order[k - 1].2;
                return Err(GpuError::Overlap {
                    a: i.min(j),
                    b: i.max(j),
                });
            }
            let (part, tail) = std::mem::take(&mut rest)[s - at..].split_at_mut(e - s);
            parts[i] = Some(part);
            (rest, at) = (tail, e);
        }
        Ok(Split { parts })
    }

    /// Host-to-device copy into the allocation (the body of a pull task),
    /// on two cores from [`SPLIT`](crate::copy::SPLIT) bytes up
    /// ([`copy_bytes`]).
    pub fn copy_in(&mut self, p: DevicePtr, src: &[u8]) -> Result<(), GpuError> {
        let dst = self.bytes_mut(p)?;
        if dst.len() < src.len() {
            return Err(GpuError::SizeMismatch {
                dst: dst.len(),
                src: src.len(),
            });
        }
        copy_bytes(&mut dst[..src.len()], src);
        Ok(())
    }
}

/// The disjoint parts [`ArenaView::split`] cut out of an arena, indexed by
/// position in its pointer list. Each is lent once, for as long as the
/// arena is borrowed; asking again is [`GpuError::Overlap`] of it with itself.
#[derive(Debug)]
pub struct Split<'a> {
    parts: Vec<Option<&'a mut [u8]>>,
}

impl<'a> Split<'a> {
    fn take<T: Plain>(&mut self, i: usize) -> Result<&'a mut [u8], GpuError> {
        // Typed before taken: a wrong `T` leaves the part there to ask for again.
        check_elem::<T>(self.parts[i].as_ref().map_or(0, |b| b.len()))?;
        self.parts[i].take().ok_or(GpuError::Overlap { a: i, b: i })
    }

    /// Part `i` as a read-only typed slice.
    pub fn read<T: Plain>(&mut self, i: usize) -> Result<&'a [T], GpuError> {
        Ok(plain::from_bytes(self.take::<T>(i)?))
    }

    /// Part `i` as a writable typed slice.
    pub fn write<T: Plain>(&mut self, i: usize) -> Result<&'a mut [T], GpuError> {
        Ok(plain::from_bytes_mut(self.take::<T>(i)?))
    }
}

/// `TypeMismatch` unless `bytes` is a whole number of `T`s.
fn check_elem<T: Plain>(bytes: usize) -> Result<(), GpuError> {
    let elem = std::mem::size_of::<T>();
    if !bytes.is_multiple_of(elem) {
        return Err(GpuError::TypeMismatch { bytes, elem });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ptr(offset: u64, len: u64) -> DevicePtr {
        DevicePtr {
            device: 0,
            offset,
            len,
            capacity: len,
        }
    }

    #[test]
    fn copy_in_out_round_trip() {
        let mut a = Arena::new(0, 256);
        let mut v = a.view();
        let p = ptr(16, 8);
        v.copy_in(p, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        assert_eq!(v.bytes(p).unwrap(), [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn typed_views() {
        let mut a = Arena::new(0, 256);
        let mut v = a.view();
        let p = ptr(0, 16);
        v.slice_mut::<f32>(p)
            .unwrap()
            .copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(v.slice::<f32>(p).unwrap(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn wrong_device_rejected() {
        let mut a = Arena::new(1, 64);
        let v = a.view();
        let p = ptr(0, 8); // device 0
        assert!(matches!(v.bytes(p), Err(GpuError::WrongDevice { .. })));
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut a = Arena::new(0, 64);
        let v = a.view();
        assert!(v.bytes(ptr(60, 8)).is_err());
    }

    #[test]
    fn null_ptr_rejected() {
        let mut a = Arena::new(0, 64);
        let v = a.view();
        assert!(v.bytes(DevicePtr::NULL).is_err());
    }
}
