//! Low-level concurrency substrate for the Heteroflow runtime.
//!
//! This crate implements, from scratch, the synchronization building blocks
//! the Heteroflow scheduler (paper §III-C) is built on:
//!
//! * [`deque`] — a Chase–Lev work-stealing deque. Each executor worker owns
//!   one; idle workers become *thieves* and steal from a randomly chosen
//!   *victim* (paper refs \[20\], \[21\]).
//! * [`notifier`] — an eventcount used by the adaptive wake/sleep strategy
//!   ("ensure one thief exists as long as an active worker is running a
//!   task").
//! * [`unionfind`] — a disjoint-set forest used by Algorithm 1
//!   (*DevicePlacement*) to group each kernel task with its source pull
//!   tasks before bin packing onto GPUs.
//! * [`backoff`] — an exponential spin-then-yield helper for contended
//!   loops.
//! * [`injector`] — a segmented lock-free MPMC queue with single-CAS
//!   batch push/pop, serving as the executor's shared task inbox.
//! * [`counter`] — a cache-padded sharded counter for low-contention
//!   statistics (steal counts, wakeups) gathered by the executor.
//! * [`ring`] — a bounded lock-free MPMC event ring that drops (and
//!   counts) instead of blocking, backing the telemetry span buffers of
//!   workers and device engines.
//! * [`pad`] — cache-line padding ([`CachePadded`]) backing the counter
//!   shards and queue indices.

#![warn(missing_docs)]

pub mod atomic;
pub mod backoff;
pub mod counter;
pub mod deque;
pub mod injector;
pub mod magazine;
pub mod notifier;
pub mod pad;
pub mod ring;
pub mod unionfind;

pub use backoff::Backoff;
pub use counter::{GlobalCounter, ShardedCounter};
pub use deque::{Steal, StealDeque, Stealer};
pub use injector::Injector;
pub use magazine::SlotCache;
pub use notifier::{Notifier, WaitToken};
pub use pad::CachePadded;
pub use ring::EventRing;
pub use unionfind::UnionFind;
