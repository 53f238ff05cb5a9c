//! Seeded input generation. Everything a workload feeds the program is
//! drawn from [`Rng`], so `--seed` fixes every input bit for bit.

/// splitmix64: small, fast, and good enough to spread a seed over inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` so two inputs of one
    /// workload never share draws.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn vec_u32(&mut self, n: usize) -> Vec<u32> {
        (0..n).map(|_| self.next_u32()).collect()
    }

    /// Uniform `f32`s in `[0, 1)`.
    pub fn vec_f32(&mut self, n: usize) -> Vec<f32> {
        (0..n).map(|_| self.next_f64() as f32).collect()
    }
}

/// Arrival times (ns from the start of the window) of a Poisson process
/// of `rate_per_s` over `window_ns`.
pub fn poisson_schedule(rng: &mut Rng, rate_per_s: f64, window_ns: u64) -> Vec<u64> {
    let mut due = Vec::new();
    let mut t = 0.0f64;
    loop {
        // Inverse-CDF exponential gap; 1 - u is in (0, 1].
        t += -(1.0 - rng.next_f64()).ln() / rate_per_s * 1e9;
        if t >= window_ns as f64 {
            return due;
        }
        due.push(t as u64);
    }
}

/// The integer map every touching kernel applies (a 32-bit LCG step):
/// exact on the CPU replay, never overflows into a trap, never settles.
#[inline]
pub fn lcg(x: u32) -> u32 {
    x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let mut a = Rng::new(7, 3);
        let mut b = Rng::new(7, 3);
        assert_eq!(a.vec_u32(64), b.vec_u32(64));
        assert_eq!(a.vec_f32(64), b.vec_f32(64));
        assert_ne!(Rng::new(7, 3).vec_u32(8), Rng::new(8, 3).vec_u32(8));
        assert_ne!(Rng::new(7, 3).vec_u32(8), Rng::new(7, 4).vec_u32(8));
    }

    #[test]
    fn same_seed_same_poisson_schedule() {
        let s1 = poisson_schedule(&mut Rng::new(11, 0), 200.0, 3_000_000_000);
        let s2 = poisson_schedule(&mut Rng::new(11, 0), 200.0, 3_000_000_000);
        assert_eq!(s1, s2);
        assert!(s1.windows(2).all(|w| w[0] <= w[1]));
        assert!(*s1.last().unwrap() < 3_000_000_000);
        // 600 expected arrivals; five sigma is about 122.
        assert!((478..=722).contains(&s1.len()), "{} arrivals", s1.len());
    }

    #[test]
    fn unit_draws_stay_in_range() {
        let mut r = Rng::new(1, 1);
        assert!((0..10_000).all(|_| (0.0..1.0).contains(&r.next_f64())));
    }
}
