//! Per-router hotspot telemetry.
//!
//! The paper's fault-tolerance story is about *localized* behaviour —
//! which routers absorb the retransmissions, probes and faults — so
//! network-wide averages are not enough. [`MeshTelemetry`] is a
//! harvested copy of every router's own counters, one
//! [`RouterTelemetry`] per node in node-id order, cheap enough to take
//! at interval boundaries.

crate::census! {
    /// One router's hotspot counters (cumulative since construction).
    pub struct RouterTelemetry {
        /// Flits that traversed this router's crossbar.
        flits_routed,
        /// Port-VC cycles spent blocked with buffered flits and no progress.
        buffer_stalls,
        /// Flits replayed from this router's retransmission buffers.
        retransmissions,
        /// NACKs this router signalled upstream.
        nacks,
        /// Deadlock probes this router launched.
        probes_sent,
        /// Deadlocks confirmed by probes returning to this router.
        deadlocks_confirmed,
        /// Faults injected into this router (all classes).
        faults_injected,
        /// Times this router entered deadlock recovery.
        recoveries,
        /// Cycles this router's compute phase actually ran (equal to the
        /// run's cycle count when activity gating is off; lower under
        /// gating — the gap is the skip rate).
        computed_cycles,
    }
}

/// Per-router telemetry for a whole `width × height` mesh, router
/// `(x, y)` at index `y * width + x` (node-id order).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MeshTelemetry {
    /// Grid width.
    pub width: usize,
    /// Grid height.
    pub height: usize,
    /// One entry per router, node-id order.
    pub routers: Vec<RouterTelemetry>,
    /// Whether each router, node-id order, has been killed by a
    /// whole-router fault. Death is state, not a counter: heatmaps
    /// render a dead router as `✖`, distinct from a merely idle `0` cell.
    pub dead: Vec<bool>,
}

impl MeshTelemetry {
    /// One metric's per-router values, node-id order (`None` for an
    /// unknown metric name on a mesh with routers).
    pub fn metric_values(&self, metric: &str) -> Option<Vec<u64>> {
        self.routers.iter().map(|r| r.get(metric)).collect()
    }

    /// Network-wide sum of one metric.
    pub fn total(&self, metric: &str) -> Option<u64> {
        self.metric_values(metric).map(|v| v.iter().sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> MeshTelemetry {
        MeshTelemetry {
            width: 2,
            height: 1,
            routers: vec![
                RouterTelemetry {
                    flits_routed: 10,
                    nacks: 2,
                    ..Default::default()
                },
                RouterTelemetry {
                    flits_routed: 5,
                    recoveries: 1,
                    ..Default::default()
                },
            ],
            dead: vec![false; 2],
        }
    }

    #[test]
    fn metric_access_by_name() {
        let m = mesh();
        assert_eq!(m.metric_values("flits_routed"), Some(vec![10, 5]));
        assert_eq!(m.total("nacks"), Some(2));
        assert_eq!(m.metric_values("bogus"), None);
    }
}
