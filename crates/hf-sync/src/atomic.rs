//! Atomics indirection for model checking.
//!
//! The lock-free structures of this crate and every atomic of `hf-core`
//! import their atomic types (and `fence` / `yield_now`)
//! from here instead of `std`; locks come from [`crate::sync`]. By default
//! these are straight re-exports of the `std` primitives with zero
//! overhead. With the `loom` feature enabled they resolve to the in-repo
//! loom shim, whose atomics are scheduling points of a deterministic model
//! checker, for the [`crate::SlotCache`], [`crate::Injector`],
//! [`crate::EventRing`], [`crate::StealDeque`] and [`crate::Notifier`]
//! models of `tests/loom.rs` and the models in `hf-core`.
//!
//! The loom types are `#[repr(transparent)]` wrappers over the `std`
//! atomics, so zero-initialized allocation of structures containing them
//! (the injector's `Block`) remains valid under both configurations.

#[cfg(not(feature = "loom"))]
pub use std::sync::atomic::{
    fence, AtomicBool, AtomicIsize, AtomicPtr, AtomicU32, AtomicU64, AtomicU8, AtomicUsize,
    Ordering,
};

#[cfg(feature = "loom")]
pub use loom::sync::atomic::{
    fence, AtomicBool, AtomicIsize, AtomicPtr, AtomicU32, AtomicU64, AtomicU8, AtomicUsize,
    Ordering,
};

/// Cooperative yield: `std::thread::yield_now` normally; under loom the
/// model scheduler's yield, which guarantees another runnable thread is
/// scheduled before the caller runs again.
#[inline]
pub(crate) fn yield_now() {
    #[cfg(not(feature = "loom"))]
    std::thread::yield_now();
    #[cfg(feature = "loom")]
    loom::thread::yield_now();
}
