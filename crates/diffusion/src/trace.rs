//! Activation traces: the outcome of a single cascade realisation.

use tcim_graph::NodeId;

use crate::deadline::Deadline;

/// Sentinel meaning "never activated" (the paper's `t_v = -1`).
pub const NOT_ACTIVATED: u32 = u32::MAX;

/// Outcome of one realisation of a diffusion process: the activation time of
/// every node, with [`NOT_ACTIVATED`] for nodes the cascade never reached.
///
/// Seeds are activated at time 0; a node activated at step `t` was influenced
/// by a node activated at step `t - 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActivationTrace {
    times: Vec<u32>,
}

impl ActivationTrace {
    /// Creates a trace from raw activation times (one entry per node).
    pub fn from_times(times: Vec<u32>) -> Self {
        ActivationTrace { times }
    }

    /// Number of nodes covered by the trace.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Returns `true` if the trace covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Activation time of `node`, or `None` if it was never activated.
    pub fn activation_time(&self, node: NodeId) -> Option<u32> {
        match self.times.get(node.index()) {
            Some(&t) if t != NOT_ACTIVATED => Some(t),
            _ => None,
        }
    }

    /// Returns `true` if `node` was activated no later than `deadline`.
    pub fn activated_by(&self, node: NodeId, deadline: Deadline) -> bool {
        self.activation_time(node).is_some_and(|t| deadline.allows(t))
    }

    /// Number of nodes activated no later than `deadline`.
    pub fn num_activated_by(&self, deadline: Deadline) -> usize {
        self.times.iter().filter(|&&t| t != NOT_ACTIVATED && deadline.allows(t)).count()
    }

    /// Largest activation time observed (`None` when nothing was activated).
    pub fn horizon(&self) -> Option<u32> {
        self.times.iter().filter(|&&t| t != NOT_ACTIVATED).max().copied()
    }

    /// Raw activation times slice.
    pub fn times(&self) -> &[u32] {
        &self.times
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activation_queries_respect_the_deadline() {
        let trace = ActivationTrace::from_times(vec![0, 1, NOT_ACTIVATED, 3, 2]);
        assert_eq!(trace.len(), 5);
        assert!(!trace.is_empty());
        assert_eq!(trace.activation_time(NodeId(0)), Some(0));
        assert_eq!(trace.activation_time(NodeId(2)), None);
        assert!(trace.activated_by(NodeId(1), Deadline::finite(1)));
        assert!(!trace.activated_by(NodeId(3), Deadline::finite(2)));
        assert_eq!(trace.num_activated_by(Deadline::finite(1)), 2);
        assert_eq!(trace.num_activated_by(Deadline::unbounded()), 4);
        assert_eq!(trace.horizon(), Some(3));
    }

    #[test]
    fn empty_trace_has_no_horizon() {
        let trace = ActivationTrace::from_times(vec![]);
        assert!(trace.is_empty());
        assert_eq!(trace.horizon(), None);
        assert_eq!(trace.activation_time(NodeId(0)), None);
    }
}
