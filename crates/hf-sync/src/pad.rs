//! Cache-line padding to prevent false sharing between adjacent atomics.

/// Pads and aligns `T` to (a conservative estimate of) the cache-line
/// size, so two neighbouring values never share a line. 128 bytes covers
/// x86-64 spatial prefetcher pairs and Apple/ARM big cores.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in padding.
    pub const fn new(value: T) -> Self {
        Self { value }
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_and_size() {
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 128);
        assert_eq!(std::mem::size_of::<CachePadded<u64>>(), 128);
        // Adjacent array elements land on distinct lines.
        let pair = [CachePadded::new(0u64), CachePadded::new(1u64)];
        let a = &*pair[0] as *const u64 as usize;
        let b = &*pair[1] as *const u64 as usize;
        assert!(b - a >= 128);
    }

    #[test]
    fn deref_round_trip() {
        let mut p = CachePadded::new(41u32);
        *p += 1;
        assert_eq!(*p, 42);
    }
}
