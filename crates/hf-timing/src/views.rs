//! Analysis views: process corners × operating modes.
//!
//! "Each view represents a unique combination of a process variation
//! corner (e.g., temperature, voltage) and an analysis mode (e.g.,
//! testing, functional). Figure 4 shows the number of required analysis
//! views increases exponentially as the technology node advances" (§IV-A).

/// A process/voltage/temperature corner; scales all gate delays.
#[derive(Debug, Clone, PartialEq)]
pub struct Corner {
    /// Corner name, e.g. "ss_0.81v_125c".
    pub name: String,
    /// Multiplier applied to nominal gate delays (slow corners > 1).
    pub delay_scale: f32,
    /// Relative early/late split used by CPPR (on-chip variation).
    pub ocv: f32,
}

/// An analysis mode; fixes the clock period.
#[derive(Debug, Clone, PartialEq)]
pub struct Mode {
    /// Mode name, e.g. "func" or "test".
    pub name: String,
    /// Clock period in nanoseconds.
    pub clock_period: f32,
}

/// One timing view = corner × mode.
#[derive(Debug, Clone, PartialEq)]
pub struct View {
    /// The PVT corner.
    pub corner: Corner,
    /// The operating mode.
    pub mode: Mode,
    /// Per-view RNG salt (distinguishes dataset sampling between views).
    pub seed: u64,
}

impl View {
    /// Human-readable view id.
    pub fn name(&self) -> String {
        format!("{}:{}", self.corner.name, self.mode.name)
    }
}

/// Generates `n` distinct views by crossing synthesized corners and
/// modes; deterministic.
pub fn make_views(n: usize, base_clock: f32) -> Vec<View> {
    // Grids of plausible corners (slow..fast) and modes; the corner delay
    // scale walks 0.85..1.45 cyclically with drift.
    (0..)
        .flat_map(|c| (0..4).map(move |m| (c, m)))
        .take(n)
        .map(|(c, m)| View {
            corner: Corner {
                name: format!("corner{c}"),
                delay_scale: 0.85 + 0.6 * ((c * 37 % 100) as f32 / 100.0),
                ocv: 0.03 + 0.04 * ((c * 13 % 10) as f32 / 10.0),
            },
            mode: Mode {
                name: format!("mode{m}"),
                clock_period: base_clock * (0.9 + 0.1 * m as f32),
            },
            seed: (c as u64) << 8 | m as u64,
        })
        .collect()
}

/// One row of the Fig 4 table: views required per technology node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViewGrowthRow {
    /// Technology node in nanometers.
    pub node_nm: u32,
    /// Process corners analyzed at this node.
    pub corners: u32,
    /// Operating modes analyzed at this node.
    pub modes: u32,
}

impl ViewGrowthRow {
    /// Total views = corners × modes.
    pub fn views(&self) -> u32 {
        self.corners * self.modes
    }
}

/// The Fig 4 dataset: corners and modes grow with technology scaling,
/// making the required view count grow exponentially — from a handful at
/// 180 nm to thousands at 7 nm. (Values follow the industry trend the
/// figure plots; the paper's figure is qualitative.)
#[rustfmt::skip]
pub fn view_growth_table() -> Vec<ViewGrowthRow> {
    vec![
        ViewGrowthRow { node_nm: 180, corners: 2, modes: 2 },
        ViewGrowthRow { node_nm: 130, corners: 3, modes: 2 },
        ViewGrowthRow { node_nm: 90, corners: 4, modes: 3 },
        ViewGrowthRow { node_nm: 65, corners: 8, modes: 4 },
        ViewGrowthRow { node_nm: 40, corners: 16, modes: 6 },
        ViewGrowthRow { node_nm: 28, corners: 32, modes: 8 },
        ViewGrowthRow { node_nm: 20, corners: 64, modes: 12 },
        ViewGrowthRow { node_nm: 16, corners: 128, modes: 16 },
        ViewGrowthRow { node_nm: 7, corners: 256, modes: 24 },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn make_views_count_and_uniqueness() {
        let vs = make_views(32, 1.0);
        assert_eq!(vs.len(), 32);
        let names: std::collections::HashSet<String> = vs.iter().map(|v| v.name()).collect();
        assert_eq!(names.len(), 32, "duplicate view names");
        for v in &vs {
            assert!(v.corner.delay_scale > 0.5 && v.corner.delay_scale < 2.0);
            assert!(v.mode.clock_period > 0.0);
        }
    }

    #[test]
    fn growth_table_is_exponential() {
        let t = view_growth_table();
        assert_eq!(t.len(), 9);
        // Strictly decreasing node size, strictly increasing views.
        for w in t.windows(2) {
            assert!(w[1].node_nm < w[0].node_nm);
            assert!(w[1].views() > w[0].views());
        }
        // Exponential-ish: last/first ratio is huge.
        assert!(t.last().unwrap().views() / t[0].views() > 1000);
    }
}
