//! `--compare A.json B.json`: one row per (workload, end-to-end metric)
//! of two ladder files, A being the base.

use crate::metrics::END_TO_END;
use crate::stats::Summary;
use crate::workloads::WORKLOADS;
use serde_json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The medians are within the bound of each other, but a side's own
    /// spread (its quartile distance over its median) is wider than the
    /// bound, so "unchanged" cannot be claimed.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn spread(s: &Summary) -> f64 {
    (s.q3 - s.q1) / s.value.abs()
}

/// B against base A. A move counts only when it exceeds both the bound
/// and either side's own spread; within the bound it is `same` only when
/// both spreads are within the bound too.
pub fn verdict(a: &Summary, b: &Summary, higher_is_better: bool, bound: f64) -> Verdict {
    let change = (b.value - a.value) / a.value.abs();
    let worse_by = if higher_is_better { -change } else { change };
    let noise = spread(a).max(spread(b));
    if worse_by.abs() > bound.max(noise) {
        if worse_by > 0.0 {
            Verdict::Worse
        } else {
            Verdict::Better
        }
    } else if noise > bound {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub a: Summary,
    pub b: Summary,
    pub bound: f64,
    pub verdict: Verdict,
}

fn summary_in(ladder: &Value, workload: &str, metric: &str) -> Option<Summary> {
    Summary::from_json(
        ladder
            .get("workloads")?
            .get(workload)?
            .get("end_to_end")?
            .get(metric)?,
    )
}

/// Rows for every (workload, end-to-end metric) both files hold.
pub fn rows(a: &Value, b: &Value) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, _) in WORKLOADS {
        for (metric, _, better, bound) in END_TO_END {
            let (Some(sa), Some(sb)) = (
                summary_in(a, workload, metric),
                summary_in(b, workload, metric),
            ) else {
                continue;
            };
            rows.push(Row {
                workload,
                metric,
                a: sa,
                b: sb,
                bound,
                verdict: verdict(&sa, &sb, better == "higher", bound),
            });
        }
    }
    rows
}

pub fn print(rows: &[Row]) {
    println!(
        "{:<15} {:<13} {:>30} {:>30} {:>9} {:>6}  verdict",
        "workload", "metric", "A value [q1, q3]", "B value [q1, q3]", "B/A", "bound"
    );
    let cell = |s: &Summary| format!("{:.4} [{:.4}, {:.4}]", s.value, s.q1, s.q3);
    for r in rows {
        println!(
            "{:<15} {:<13} {:>30} {:>30} {:>9.4} {:>5.0}%  {}",
            r.workload,
            r.metric,
            cell(&r.a),
            cell(&r.b),
            r.b.value / r.a.value,
            r.bound * 100.0,
            r.verdict.name()
        );
    }
    println!("B/A is B's value over A's; A is the base.");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, q1: f64, q3: f64) -> Summary {
        Summary {
            value,
            q1,
            q3,
            n: 8,
        }
    }

    #[test]
    fn tight_runs_resolve_to_same_better_worse() {
        let a = s(100.0, 99.0, 101.0);
        assert_eq!(
            verdict(&a, &s(104.0, 103.0, 105.0), false, 0.10),
            Verdict::Same
        );
        assert_eq!(
            verdict(&a, &s(115.0, 114.0, 116.0), false, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &s(85.0, 84.0, 86.0), false, 0.10),
            Verdict::Better
        );
        // The same moves on a higher-is-better metric flip.
        assert_eq!(
            verdict(&a, &s(115.0, 114.0, 116.0), true, 0.10),
            Verdict::Better
        );
        assert_eq!(
            verdict(&a, &s(85.0, 84.0, 86.0), true, 0.10),
            Verdict::Worse
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_same() {
        let a = s(100.0, 90.0, 110.0);
        // Within the bound, but A spreads 20 %: cannot call it unchanged.
        assert_eq!(
            verdict(&a, &s(104.0, 103.0, 105.0), false, 0.10),
            Verdict::Unresolved
        );
        // Beyond the bound but inside the spread: still unresolved.
        assert_eq!(
            verdict(&a, &s(115.0, 114.0, 116.0), false, 0.10),
            Verdict::Unresolved
        );
        // Beyond both: a real move.
        assert_eq!(
            verdict(&a, &s(130.0, 129.0, 131.0), false, 0.10),
            Verdict::Worse
        );
    }

    #[test]
    fn identical_inputs_are_same() {
        let a = s(3.5, 3.5, 3.5);
        assert_eq!(verdict(&a, &a, true, 0.10), Verdict::Same);
    }
}
