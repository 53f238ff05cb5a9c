//! Optional CPU core pinning for executor workers.
//!
//! The paper's executor keeps one persistent thread per CPU core; pinning
//! each worker to a fixed core keeps its cache and NUMA locality stable
//! across the run, which matters once placement deliberately routes the
//! same data to the same device-driving worker (the locality policy).
//!
//! This crate deliberately has no `libc` dependency, so pinning is done
//! with a raw `sched_setaffinity` syscall on Linux/x86-64 behind the
//! `core_affinity` feature. Everywhere else [`pin_current_thread`] is a
//! no-op returning `false`; the scheduler is correct either way — pinning
//! is purely a locality hint to the OS.

/// Maximum CPU index representable in the affinity mask below.
#[cfg(all(feature = "core_affinity", target_os = "linux", target_arch = "x86_64"))]
const MAX_CPUS: usize = 1024;

/// Pins the calling thread to CPU core `core` (taken modulo the mask
/// width). Returns `true` when the kernel accepted the mask.
#[cfg(all(feature = "core_affinity", target_os = "linux", target_arch = "x86_64"))]
pub fn pin_current_thread(core: usize) -> bool {
    // Linux x86-64 syscall number for sched_setaffinity.
    const SYS_SCHED_SETAFFINITY: u64 = 203;
    let mut mask = [0u64; MAX_CPUS / 64];
    let core = core % MAX_CPUS;
    mask[core / 64] |= 1u64 << (core % 64);
    let ret: i64;
    // Safety: sched_setaffinity(0, len, mask) only reads `mask` and
    // affects scheduling of the calling thread (pid 0); no memory is
    // written by the kernel.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_SCHED_SETAFFINITY => ret,
            in("rdi") 0u64,
            in("rsi") core::mem::size_of_val(&mask) as u64,
            in("rdx") mask.as_ptr() as u64,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

/// Pinning stub for platforms or builds without the `core_affinity`
/// feature: always a no-op returning `false`.
#[cfg(not(all(feature = "core_affinity", target_os = "linux", target_arch = "x86_64")))]
pub fn pin_current_thread(_core: usize) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_is_safe_to_call() {
        // With the feature on Linux/x86-64 the call should succeed for
        // core 0 (every machine has one); elsewhere it must return false
        // without side effects. Either way it must not crash.
        let ok = pin_current_thread(0);
        if cfg!(all(
            feature = "core_affinity",
            target_os = "linux",
            target_arch = "x86_64"
        )) {
            assert!(ok, "sched_setaffinity to core 0 failed");
        } else {
            assert!(!ok);
        }
    }

    #[test]
    fn out_of_range_core_wraps() {
        // A huge index wraps modulo the mask width instead of faulting.
        let _ = pin_current_thread(usize::MAX - 3);
    }

    /// `pin_workers` must be a safe no-op knob regardless of whether the
    /// `core_affinity` feature (and thus real pinning) is compiled in.
    #[test]
    fn pinned_workers_still_schedule() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let ex = crate::Executor::builder(3, 1).pin_workers(true).build();
        let g = crate::Heteroflow::new("pin");
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        g.host("inc", move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
        ex.run_n(&g, 20).wait().unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 20);
    }
}
