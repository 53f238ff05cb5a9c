//! Atomics indirection for model checking.
//!
//! All lock-free structures in this crate import their atomic types (and
//! `fence` / `spin_loop` / `yield_now`, and the notifier its `Mutex` /
//! `Condvar`) from here instead of `std` directly. By default these are straight re-exports of the `std`
//! primitives with zero overhead. With the `loom` feature enabled they
//! resolve to the in-repo loom shim, whose atomics are scheduling points
//! of a deterministic model checker — `cargo test -p hf-sync --features
//! loom --test loom` then explores bounded thread interleavings of the
//! [`crate::SlotCache`], [`crate::Injector`], [`crate::EventRing`],
//! [`crate::StealDeque`] and [`crate::Notifier`] models.
//!
//! The loom types are `#[repr(transparent)]` wrappers over the `std`
//! atomics, so zero-initialized allocation of structures containing them
//! (the injector's `Block`) remains valid under both configurations.

#[cfg(not(feature = "loom"))]
pub use std::sync::{
    atomic::{fence, AtomicIsize, AtomicPtr, AtomicU64, AtomicUsize, Ordering},
    Condvar, Mutex,
};

#[cfg(feature = "loom")]
pub use loom::sync::{
    atomic::{fence, AtomicIsize, AtomicPtr, AtomicU64, AtomicUsize, Ordering},
    Condvar, Mutex,
};

/// Spin hint: a CPU pause normally; under loom, a deprioritizing yield so
/// the model scheduler can run the thread being waited on.
#[inline]
pub fn spin_loop_hint() {
    #[cfg(not(feature = "loom"))]
    std::hint::spin_loop();
    #[cfg(feature = "loom")]
    loom::hint::spin_loop();
}

/// Cooperative yield: `std::thread::yield_now` normally; under loom the
/// model scheduler's yield, which guarantees another runnable thread is
/// scheduled before the caller runs again.
#[inline]
pub fn yield_now() {
    #[cfg(not(feature = "loom"))]
    std::thread::yield_now();
    #[cfg(feature = "loom")]
    loom::thread::yield_now();
}
