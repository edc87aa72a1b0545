//! Fault events: one record per mid-run hard-fault change — each
//! scheduled link kill, each scheduled router kill, and each wear-out
//! kill the sim realizes online. The [`crate::FaultTimeline`] holds the
//! run's events in one sorted, append-only list
//! ([`crate::FaultTimeline::events`]); the network's snapshot carries
//! that list to the invariant oracle.
//!
//! At-reset faults are *state*, not events — consumers read them from
//! the timeline's base set.

use ftnoc_types::geom::{Direction, NodeId};

use crate::schedule::{ScheduledKill, ScheduledRouterKill};

/// What died.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEventKind {
    /// The link leaving `node` in `dir` (its mirror endpoint dies too).
    LinkDown {
        /// One endpoint of the link.
        node: NodeId,
        /// The direction of the link as seen from `node`.
        dir: Direction,
    },
    /// A whole router, taking all its links with it.
    RouterDown {
        /// The router.
        node: NodeId,
    },
}

/// Why it died.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultCause {
    /// Planted by the run configuration at a fixed cycle.
    Configured,
    /// Realized online by the wear-out model (budget exhausted).
    Wearout,
}

/// One mid-run hard-fault change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// The cycle the fault lands (local detection).
    pub at: u64,
    /// The cycle the fault is published network-wide.
    pub published_at: u64,
    /// Why.
    pub cause: FaultCause,
    /// What.
    pub kind: FaultEventKind,
}

impl FaultEvent {
    /// Deterministic total order: time, then routers before links (a
    /// router death subsumes link deaths), then node/dir — the order
    /// the timeline folds events in.
    pub(crate) fn sort_key(&self) -> (u64, u8, u16, u8) {
        match self.kind {
            FaultEventKind::RouterDown { node } => (self.at, 0, node.index() as u16, 0),
            FaultEventKind::LinkDown { node, dir } => {
                (self.at, 1, node.index() as u16, dir.index() as u8)
            }
        }
    }
}

/// Both kill schedules as [`FaultCause::Configured`] events publishing
/// `notify` cycles after they land, sorted by [`FaultEvent::sort_key`].
pub(crate) fn configured_events(
    kills: &[ScheduledKill],
    router_kills: &[ScheduledRouterKill],
    notify: u64,
) -> Vec<FaultEvent> {
    let event = |at: u64, kind| FaultEvent {
        at,
        published_at: at.saturating_add(notify),
        cause: FaultCause::Configured,
        kind,
    };
    let links = kills
        .iter()
        .map(|&ScheduledKill { at, node, dir }| event(at, FaultEventKind::LinkDown { node, dir }));
    let routers = router_kills
        .iter()
        .map(|&ScheduledRouterKill { at, node }| event(at, FaultEventKind::RouterDown { node }));
    let mut events: Vec<FaultEvent> = links.chain(routers).collect();
    events.sort_by_key(FaultEvent::sort_key);
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hard::HardFaults;
    use crate::schedule::FaultTimeline;
    use ftnoc_types::geom::Topology;

    #[test]
    fn timeline_events_are_time_ordered_and_append_only() {
        let topo = Topology::mesh(4, 4);
        let mut tl = FaultTimeline::with_events(
            topo,
            HardFaults::new(),
            &[ScheduledKill {
                at: 300,
                node: NodeId::new(5),
                dir: Direction::East,
            }],
            &[ScheduledRouterKill {
                at: 100,
                node: NodeId::new(9),
            }],
            8,
        );
        assert_eq!(tl.events().len(), 2);
        assert!(matches!(
            tl.events()[0].kind,
            FaultEventKind::RouterDown { node } if node == NodeId::new(9)
        ));
        assert_eq!(tl.events()[0].published_at, 108);

        // A wear-out kill realized between the two configured events
        // lands between them; the realized prefix never reorders.
        assert!(tl.push_link_kill(200, NodeId::new(1), Direction::South));
        let order: Vec<(u64, FaultCause)> = tl.events().iter().map(|e| (e.at, e.cause)).collect();
        assert_eq!(
            order,
            [
                (100, FaultCause::Configured),
                (200, FaultCause::Wearout),
                (300, FaultCause::Configured),
            ]
        );
        assert_eq!(tl.events()[1].published_at, 208);
    }
}
