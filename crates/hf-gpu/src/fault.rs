//! Seeded, deterministic GPU fault injection.
//!
//! Real accelerator deployments lose allocations, copies, kernel launches,
//! and whole boards; a runtime that claims fault tolerance needs a way to
//! *provoke* those failures on demand and reproducibly. A [`FaultPlan`]
//! installed on a [`crate::GpuRuntime`] makes every failure path a
//! first-class, testable code path:
//!
//! * per-site failure probabilities ([`FaultSite::Alloc`],
//!   [`FaultSite::H2d`], [`FaultSite::D2h`], [`FaultSite::Kernel`]) decide
//!   whether the *i*-th operation at a site fails — the verdict depends
//!   only on `(seed, site, i)`, never on thread interleaving, so a failing
//!   chaos run replays exactly from its seed;
//! * whole-device loss ([`FaultPlan::lose_device`]) marks a device lost
//!   after it has executed a configured number of stream ops; every
//!   subsequent operation on it fails with
//!   [`crate::GpuError::DeviceLost`].
//!
//! Injected faults fire *before* the faulted operation touches any device
//! or host state (the check precedes the copy/launch), so a caller
//! retrying a failed operation never double-applies its effect.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Where in the device substrate an injected fault can fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FaultSite {
    /// Device memory allocation (`Device::alloc`, pull staging).
    Alloc,
    /// A host-to-device copy (pull task execution).
    H2d,
    /// A device-to-host copy (push task execution).
    D2h,
    /// A kernel launch.
    Kernel,
}

impl FaultSite {
    /// The site's position in a per-site array.
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(["alloc", "h2d", "d2h", "kernel"][self.index()])
    }
}

/// A scheduled whole-device loss: the device is marked lost once it has
/// executed `after_ops` stream ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceLoss {
    /// Device to lose.
    pub(crate) device: u32,
    /// Stream ops the device completes before the loss takes effect
    /// (`0` loses it before its first op).
    pub(crate) after_ops: u64,
}

/// A seeded, deterministic fault plan. Install with
/// [`crate::GpuRuntime::set_fault_plan`]; remove with `None`.
///
/// ```
/// use hf_gpu::{FaultPlan, FaultSite};
/// let plan = FaultPlan::seeded(42)
///     .fail(FaultSite::Kernel, 0.05)
///     .fail(FaultSite::H2d, 0.01)
///     .lose_device(1, 100)
///     .max_faults(10);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    probs: [f64; 4],
    losses: Vec<DeviceLoss>,
    max_faults: Option<u64>,
    /// Per-site stall probabilities and delays (see [`FaultPlan::stall`]).
    stall_probs: [f64; 4],
    stall_delays: [Duration; 4],
    max_stalls: Option<u64>,
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given seed.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Fails operations at `site` with the given probability in `[0, 1]`.
    pub fn fail(mut self, site: FaultSite, probability: f64) -> Self {
        self.probs[site.index()] = probability.clamp(0.0, 1.0);
        self
    }

    /// Marks `device` lost after it executes `after_ops` stream ops.
    pub fn lose_device(mut self, device: u32, after_ops: u64) -> Self {
        self.losses.push(DeviceLoss { device, after_ops });
        self
    }

    /// Caps the total number of probabilistic faults injected across all
    /// sites and devices (device losses are not counted). Useful for
    /// "exactly one launch failure" style tests.
    pub fn max_faults(mut self, n: u64) -> Self {
        self.max_faults = Some(n);
        self
    }

    /// Stalls operations at `site` for `delay` with the given probability
    /// in `[0, 1]` — the op then proceeds normally. Stalls model the
    /// *slow* failure mode real accelerators exhibit (thermal throttling,
    /// contended links, a wedged firmware queue): nothing errors, work
    /// just stops making progress, which is exactly what a hang/straggler
    /// watchdog must detect. The verdict draw is deterministic on
    /// `(seed, site, i)` like [`FaultPlan::fail`], from an independent
    /// draw stream, so adding stalls never perturbs fault verdicts.
    pub fn stall(mut self, site: FaultSite, delay: Duration, probability: f64) -> Self {
        self.stall_probs[site.index()] = probability.clamp(0.0, 1.0);
        self.stall_delays[site.index()] = delay;
        self
    }

    /// Caps the total number of injected stalls across all sites.
    pub fn max_stalls(mut self, n: u64) -> Self {
        self.max_stalls = Some(n);
        self
    }
}

/// Runtime state of an installed [`FaultPlan`]: per-site draw counters and
/// the injected-fault total, shared by every device of a runtime so the
/// cap and the counters are global.
#[derive(Default)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    draws: [AtomicU64; 4],
    injected: AtomicU64,
    stall_draws: [AtomicU64; 4],
    stalled: AtomicU64,
}

impl FaultInjector {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            ..Self::default()
        }
    }

    /// Stalls injected so far.
    pub(crate) fn stalled(&self) -> u64 {
        self.stalled.load(Ordering::Relaxed)
    }

    /// Draws the next stall verdict for `site`: `Some(delay)` when the
    /// op should sleep before proceeding. Deterministic on
    /// `(seed, site, i)` over an independent draw stream (salted apart
    /// from the failure draws).
    pub(crate) fn stall_duration(&self, site: FaultSite) -> Option<Duration> {
        let (p, cap) = (self.plan.stall_probs[site.index()], self.plan.max_stalls);
        self.draw(site, 5, p, &self.stall_draws, cap, &self.stalled)
            .then_some(self.plan.stall_delays[site.index()])
    }

    /// Draws the next verdict for `site`. The i-th call for a site yields
    /// the same verdict for a given seed regardless of which thread makes
    /// it or how calls at other sites interleave.
    pub(crate) fn should_fail(&self, site: FaultSite) -> bool {
        let (p, cap) = (self.plan.probs[site.index()], self.plan.max_faults);
        self.draw(site, 1, p, &self.draws, cap, &self.injected)
    }

    /// The next draw of `site`'s stream `salt`: true with probability `p`
    /// while `tally` is below the cap, which it then counts.
    fn draw(
        &self,
        site: FaultSite,
        salt: u64,
        p: f64,
        draws: &[AtomicU64; 4],
        cap: Option<u64>,
        tally: &AtomicU64,
    ) -> bool {
        if p <= 0.0 {
            return false;
        }
        let idx = draws[site.index()].fetch_add(1, Ordering::Relaxed);
        let h = splitmix64(self.plan.seed ^ ((site.index() as u64 + salt) << 56) ^ idx);
        // Top 53 bits give a uniform draw in [0, 1).
        let x = (h >> 11) as f64 / (1u64 << 53) as f64;
        let cap = cap.unwrap_or(u64::MAX);
        x < p
            && tally
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                    (n < cap).then_some(n + 1)
                })
                .is_ok()
    }

    /// True when the plan loses `device` at or before op number `op_seq`.
    pub(crate) fn loses(&self, device: u32, op_seq: u64) -> bool {
        self.plan
            .losses
            .iter()
            .any(|l| l.device == device && op_seq >= l.after_ops)
    }
}

/// splitmix64 — the same dependency-free mixer used for seeded placement.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [FaultSite; 4] = [
        FaultSite::Alloc,
        FaultSite::H2d,
        FaultSite::D2h,
        FaultSite::Kernel,
    ];

    fn fail_all(plan: FaultPlan, probability: f64) -> FaultPlan {
        ALL.into_iter()
            .fold(plan, |p, site| p.fail(site, probability))
    }

    fn injected(inj: &FaultInjector) -> u64 {
        inj.injected.load(Ordering::Relaxed)
    }

    #[test]
    fn draws_are_deterministic_per_site_and_index() {
        let plan = fail_all(FaultPlan::seeded(7), 0.5);
        let a = FaultInjector::new(plan.clone());
        let b = FaultInjector::new(plan);
        for _ in 0..256 {
            for site in ALL {
                assert_eq!(a.should_fail(site), b.should_fail(site));
            }
        }
        assert_eq!(injected(&a), injected(&b));
        assert!(injected(&a) > 0, "p=0.5 over 1024 draws must fire");
    }

    /// Probability 0 never fires and 1 always does, for faults and for
    /// stalls (with faults firing beside them).
    #[test]
    fn probabilities_zero_and_one_are_exact() {
        let inj = FaultInjector::new(FaultPlan::seeded(2).fail(FaultSite::Alloc, 1.0));
        for site in ALL {
            for _ in 0..32 {
                assert_eq!(inj.should_fail(site), site == FaultSite::Alloc);
                assert!(inj.stall_duration(site).is_none());
            }
        }
        assert_eq!((injected(&inj), inj.stalled()), (32, 0));
    }

    #[test]
    fn max_faults_caps_injections() {
        let inj = FaultInjector::new(fail_all(FaultPlan::seeded(3), 1.0).max_faults(2));
        let fired: usize = (0..50).filter(|_| inj.should_fail(FaultSite::H2d)).count();
        assert_eq!(fired, 2);
        assert_eq!(injected(&inj), 2);
    }

    #[test]
    fn device_loss_matches_schedule() {
        let inj = FaultInjector::new(FaultPlan::seeded(0).lose_device(1, 3));
        assert!(!inj.loses(0, 100));
        assert!(!inj.loses(1, 2));
        assert!(inj.loses(1, 3));
        assert!(inj.loses(1, 4));
    }

    #[test]
    fn stall_draws_are_deterministic_and_capped() {
        let plan = FaultPlan::seeded(11)
            .stall(FaultSite::Kernel, Duration::from_millis(5), 0.5)
            .max_stalls(3);
        let a = FaultInjector::new(plan.clone());
        let b = FaultInjector::new(plan);
        for _ in 0..64 {
            assert_eq!(
                a.stall_duration(FaultSite::Kernel),
                b.stall_duration(FaultSite::Kernel)
            );
        }
        assert_eq!(a.stalled(), 3);
        assert_eq!(b.stalled(), 3);
    }

    #[test]
    fn stalls_do_not_perturb_fault_draws() {
        let base = fail_all(FaultPlan::seeded(21), 0.3);
        let with_stalls = base
            .clone()
            .stall(FaultSite::H2d, Duration::from_millis(1), 1.0);
        let a = FaultInjector::new(base);
        let b = FaultInjector::new(with_stalls);
        for _ in 0..128 {
            for site in ALL {
                let _ = b.stall_duration(site);
                assert_eq!(a.should_fail(site), b.should_fail(site));
            }
        }
    }
}
