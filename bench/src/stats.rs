//! Order statistics for the ladder: one quantile rule, summaries over
//! windows, and the tail percentile a sample count can support.

use serde_json::{json, Value};

/// Quantile `q` in `[0, 1]` of an ascending slice, interpolating linearly
/// between the two nearest ranks (never beyond the data).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    v
}

pub fn median(v: Vec<f64>) -> f64 {
    quantile(&sorted(v), 0.5)
}

/// A reported number: its value, the quartiles of whatever was repeated
/// to obtain it, and how many samples stand behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Median and quartiles of `samples`.
    pub fn of(samples: Vec<f64>) -> Summary {
        let s = sorted(samples);
        Summary {
            value: quantile(&s, 0.5),
            q1: quantile(&s, 0.25),
            q3: quantile(&s, 0.75),
            n: s.len(),
        }
    }

    /// A single measurement with no spread of its own.
    pub fn single(value: f64) -> Summary {
        Summary {
            value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    pub fn to_json(self, unit: &str) -> Value {
        json!({"value": self.value, "q1": self.q1, "q3": self.q3, "n": self.n, "unit": unit})
    }

    pub fn from_json(v: &Value) -> Option<Summary> {
        Some(Summary {
            value: v.get("value")?.as_f64()?,
            q1: v.get("q1")?.as_f64()?,
            q3: v.get("q3")?.as_f64()?,
            n: v.get("n")?.as_f64()? as usize,
        })
    }
}

/// End-to-end timing figures of one measured pass.
pub struct PassStats {
    pub ops_per_s: Summary,
    pub lat_p50_ms: Summary,
    pub lat_p90_ms: Summary,
}

/// Folds per-window samples into the gated figures. Each window yields a
/// rate, a median latency and a p90 latency; the figure reported is the
/// *quiet quartile* of those: the third quartile of the rates, the first
/// quartile of the latency figures. The box is a few cores of a shared
/// host, and what the host does to a window only ever slows it (every
/// workload runs no more busy threads than the box has cores), while the
/// program's own variation from window to window is small and two-sided.
/// So the quiet quartile reads the same with up to three quarters of the
/// windows disturbed, where a median gives way at one half, and a change
/// to the program still moves it one for one.
/// Window `i` completed `counts[i]` ops in `secs[i]` seconds, and
/// `windows[i]` holds the latencies (ms) of those whose latency is reported.
pub fn fold_windows(counts: &[usize], secs: &[f64], windows: &[Vec<f64>]) -> PassStats {
    let rates = counts
        .iter()
        .zip(secs)
        .map(|(&c, s)| c as f64 / s)
        .collect();
    let filled: Vec<Vec<f64>> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| sorted(w.clone()))
        .collect();
    assert!(!filled.is_empty(), "no op completed in any window");
    let latencies: usize = filled.iter().map(Vec::len).sum();
    let quiet_latency = |q: f64| {
        let s = Summary::of(filled.iter().map(|w| quantile(w, q)).collect());
        Summary {
            value: s.q1,
            n: latencies,
            ..s
        }
    };
    let rates = Summary::of(rates);
    PassStats {
        ops_per_s: Summary {
            value: rates.q3,
            n: counts.iter().sum(),
            ..rates
        },
        lat_p50_ms: quiet_latency(0.5),
        lat_p90_ms: quiet_latency(0.9),
    }
}

/// Percentiles a tail may be reported at, in hundredths of a percent.
const TAIL_LADDER: [usize; 6] = [5000, 9000, 9500, 9900, 9990, 9999];

/// The highest percentile of the ladder that still has at least ten of
/// `n` samples beyond it; `None` below twenty samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rfind(|&&p| n * (10_000 - p) / 10_000 >= 10)
        .map(|&p| p as f64 / 10_000.0)
}

/// Latency diagnostics (not gated): p95, p99, the supported tail
/// percentile, and an 8-point CDF.
pub fn latency_diagnostics(latencies_ms: Vec<f64>) -> Value {
    let s = sorted(latencies_ms);
    if s.is_empty() {
        return json!({"n": 0});
    }
    let cdf: Vec<Value> = [0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.0]
        .iter()
        .map(|&p| json!({"p": p, "ms": quantile(&s, p)}))
        .collect();
    let tail = tail_percentile(s.len());
    json!({
        "n": s.len(),
        "p95_ms": quantile(&s, 0.95),
        "p99_ms": quantile(&s, 0.99),
        "tail_p": tail,
        "tail_ms": tail.map(|p| quantile(&s, p)),
        "cdf": cdf,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert!((quantile(&s, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn windows_fold_to_their_quiet_quartile() {
        // Five one-second windows; the host sat on the last two.
        let windows = vec![
            vec![1.0, 2.0, 3.0, 4.0],
            vec![1.0, 2.0, 3.0, 4.0],
            vec![1.0, 2.0, 3.0, 4.0],
            vec![2.0, 20.0],
            vec![30.0],
        ];
        let p = fold_windows(&[4, 4, 4, 2, 1], &[1.0; 5], &windows);
        // Rates 4 4 4 2 1: third quartile 4, as if nothing had happened.
        assert_eq!(p.ops_per_s.value, 4.0);
        assert_eq!((p.ops_per_s.q1, p.ops_per_s.q3), (2.0, 4.0));
        assert_eq!(p.ops_per_s.n, 15);
        // Window medians 2.5 2.5 2.5 11 30: first quartile 2.5.
        assert_eq!(p.lat_p50_ms.value, 2.5);
        assert_eq!(p.lat_p50_ms.q3, 11.0);
        assert_eq!(p.lat_p50_ms.n, 15);
        // Window p90s 3.7 3.7 3.7 18.2 30.
        assert!((p.lat_p90_ms.value - 3.7).abs() < 1e-9);
    }

    #[test]
    fn a_slower_program_moves_the_quiet_quartile_one_for_one() {
        let fold = |ms: f64| {
            let windows = vec![vec![ms; 10]; 8];
            fold_windows(&[10; 8], &[ms / 100.0; 8], &windows)
        };
        let (a, b) = (fold(1.0), fold(1.5));
        assert!((b.lat_p50_ms.value / a.lat_p50_ms.value - 1.5).abs() < 1e-12);
        assert!((a.ops_per_s.value / b.ops_per_s.value - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_windows_count_as_zero_rate_only() {
        let windows = vec![vec![], vec![4.0], vec![6.0]];
        let p = fold_windows(&[0, 1, 1], &[0.5, 0.5, 0.5], &windows);
        assert_eq!(p.ops_per_s.value, 2.0);
        assert_eq!(p.lat_p50_ms.value, 4.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(0.5));
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(199), Some(0.9));
        assert_eq!(tail_percentile(200), Some(0.95));
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        assert_eq!(tail_percentile(1_000_000), Some(0.9999));
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = Summary::of(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(Summary::from_json(&s.to_json("ms")), Some(s));
    }
}
