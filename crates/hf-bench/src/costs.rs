//! Name-pattern host-task cost profiles for the discrete-event model.
//!
//! Host tasks in the application graphs have stable name shapes
//! (`gen_v3`, `match[2][1]`, ...). A [`NameCosts`] maps name prefixes to
//! measured durations; the longest matching prefix wins.

use hf_core::FrozenGraph;
use hf_gpu::SimDuration;

/// Prefix → duration cost table.
#[derive(Debug, Clone, Default)]
pub struct NameCosts {
    entries: Vec<(String, SimDuration)>,
}

impl NameCosts {
    /// Empty table (all costs zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a prefix rule.
    pub fn set(mut self, prefix: &str, d: SimDuration) -> Self {
        self.entries.push((prefix.to_string(), d));
        // Longest prefix first.
        self.entries
            .sort_by_key(|(p, _)| std::cmp::Reverse(p.len()));
        self
    }

    /// Cost of a task name (longest matching prefix; zero if none).
    pub(crate) fn cost_of(&self, name: &str) -> SimDuration {
        self.entries
            .iter()
            .find(|(p, _)| name.starts_with(p.as_str()))
            .map(|(_, d)| *d)
            .unwrap_or(SimDuration::ZERO)
    }

    /// Builds the `host_cost` closure for [`hf_sim::simulate`] over a
    /// given frozen graph.
    pub fn for_graph<'a>(
        &'a self,
        graph: &'a FrozenGraph,
    ) -> impl Fn(usize) -> SimDuration + Copy + 'a {
        move |id| self.cost_of(graph.task_name(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longest_prefix_wins() {
        let c = NameCosts::new()
            .set("gen", SimDuration::from_millis(10))
            .set("gen_v1", SimDuration::from_millis(99));
        assert_eq!(c.cost_of("gen_v1"), SimDuration::from_millis(99));
        assert_eq!(c.cost_of("gen_v2"), SimDuration::from_millis(10));
        assert_eq!(c.cost_of("other"), SimDuration::ZERO);
    }
}
