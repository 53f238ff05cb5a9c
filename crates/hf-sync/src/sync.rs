//! The workspace's one lock vocabulary: `Mutex`, `RwLock` and `Condvar`
//! as thin newtypes over `std::sync` whose methods return `std`'s guards,
//! or, with the `loom` feature, over the in-repo loom shim's types, so
//! that locking and waiting inside a model are scheduling points of the
//! checker (the switch [`crate::atomic`] makes for atomics). A poisoned
//! lock is recovered: a host task's body may panic while it holds one (a
//! `HostVec`'s write lock, say), and its graph must still run again.

use std::sync::PoisonError;

#[cfg(not(feature = "loom"))]
use std::sync as imp;

#[cfg(feature = "loom")]
use loom::sync as imp;

pub use imp::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// A mutual-exclusion lock; [`lock`](Mutex::lock) returns the guard.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(imp::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Self(imp::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A reader-writer lock; [`read`](RwLock::read) and [`write`](RwLock::write)
/// return guards. (Under the model checker it is an exclusive lock.)
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(imp::RwLock<T>);

impl<T> RwLock<T> {
    /// Creates a new lock protecting `value`.
    pub const fn new(value: T) -> Self {
        Self(imp::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires exclusive access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A condition variable paired with [`Mutex`].
#[derive(Debug, Default)]
pub struct Condvar(imp::Condvar);

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Self(imp::Condvar::new())
    }

    /// Releases the guard's lock, blocks until notified, and returns the
    /// guard with the lock held again.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.0.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    /// As [`wait`](Condvar::wait), for at most `timeout`; the flag is true
    /// if it timed out. Under the model checker it is a scheduling point
    /// that times out, so every caller re-checks its condition in a loop.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: std::time::Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        let (guard, res) = self
            .0
            .wait_timeout(guard, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        #[cfg(not(feature = "loom"))]
        let res = res.timed_out();
        (guard, res)
    }

    /// Wakes one blocked waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes every blocked waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_and_condvar_roundtrip() {
        let m = Arc::new(Mutex::new(0));
        let cv = Arc::new(Condvar::new());
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let t = std::thread::spawn(move || {
            *m2.lock() = 5;
            cv2.notify_all();
        });
        let mut g = m.lock();
        while *g != 5 {
            g = cv.wait(g);
        }
        drop(g);
        t.join().unwrap();
    }

    #[test]
    fn rwlock_guards() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }

    #[test]
    fn poisoned_lock_recovers() {
        let m = Arc::new(Mutex::new(1));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison");
        })
        .join();
        assert_eq!(*m.lock(), 1);
    }
}
