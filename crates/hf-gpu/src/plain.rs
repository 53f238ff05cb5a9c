//! Plain-old-data marker trait for values that may live in device memory.
//!
//! The paper's `PointerCaster` (Listing 9) reinterprets raw device bytes as
//! the kernel argument's pointee type and notes it is "designed to operate
//! on plain old data (POD) pointers". [`Plain`] is the Rust-side contract:
//! any bit pattern is a valid value, so reinterpreting device bytes as
//! `[T]` is sound.

/// Types that can be transported through device memory as raw bytes.
///
/// # Safety
///
/// Implementors must be inhabited for every bit pattern (no padding with
/// validity requirements, no niches like `bool`/`char`/references), and
/// must be `Copy + 'static`.
pub unsafe trait Plain: Copy + Send + Sync + 'static {}

macro_rules! impl_plain {
    ($($t:ty),* $(,)?) => {
        // SAFETY: primitive integers and floats are inhabited for every
        // bit pattern and have no padding or niches.
        $(unsafe impl Plain for $t {})*
    };
}

impl_plain!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

// SAFETY: an array of a niche-free, padding-free type is itself niche-free
// and padding-free (array layout inserts no padding between elements).
unsafe impl<T: Plain, const N: usize> Plain for [T; N] {}

/// Reinterprets a `Plain` slice as raw bytes.
pub fn as_bytes<T: Plain>(s: &[T]) -> &[u8] {
    // SAFETY: Plain guarantees no padding-validity issues; lifetimes and
    // immutability are preserved.
    unsafe { std::slice::from_raw_parts(s.as_ptr().cast::<u8>(), std::mem::size_of_val(s)) }
}

/// Reinterprets a mutable `Plain` slice as raw bytes.
pub fn as_bytes_mut<T: Plain>(s: &mut [T]) -> &mut [u8] {
    // SAFETY: as above; exclusive access carries over.
    unsafe { std::slice::from_raw_parts_mut(s.as_mut_ptr().cast::<u8>(), std::mem::size_of_val(s)) }
}

/// Reinterprets raw bytes as a `Plain` slice. Panics if the byte length is
/// not a multiple of `size_of::<T>()` or the pointer is misaligned for `T`.
pub fn from_bytes<T: Plain>(b: &[u8]) -> &[T] {
    let sz = std::mem::size_of::<T>();
    assert!(
        sz > 0 && b.len().is_multiple_of(sz),
        "byte length not a multiple of element size"
    );
    assert_eq!(
        b.as_ptr() as usize % std::mem::align_of::<T>(),
        0,
        "misaligned view"
    );
    // SAFETY: length and alignment checked; Plain allows any bit pattern.
    unsafe { std::slice::from_raw_parts(b.as_ptr().cast::<T>(), b.len() / sz) }
}

/// Mutable variant of [`from_bytes`].
pub(crate) fn from_bytes_mut<T: Plain>(b: &mut [u8]) -> &mut [T] {
    let sz = std::mem::size_of::<T>();
    assert!(
        sz > 0 && b.len().is_multiple_of(sz),
        "byte length not a multiple of element size"
    );
    assert_eq!(
        b.as_ptr() as usize % std::mem::align_of::<T>(),
        0,
        "misaligned view"
    );
    // SAFETY: as above, with exclusive access.
    unsafe { std::slice::from_raw_parts_mut(b.as_mut_ptr().cast::<T>(), b.len() / sz) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_f32() {
        let v = [1.0f32, -2.5, 3.25];
        let b = as_bytes(&v);
        assert_eq!(b.len(), 12);
        let back: &[f32] = from_bytes(b);
        assert_eq!(back, &v);
    }

    #[test]
    fn mutate_through_bytes() {
        let mut v = [1u32, 2, 3];
        {
            let b = as_bytes_mut(&mut v);
            let ints: &mut [u32] = from_bytes_mut(b);
            ints[1] = 42;
        }
        assert_eq!(v, [1, 42, 3]);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn ragged_view_panics() {
        let b = [0u8; 7];
        let _: &[u32] = from_bytes(&b);
    }
}
