//! The unified fault-event log: one public, ordered record of every
//! mid-run hard-fault change, consumed uniformly by the invariant
//! oracle, the metrics emitter, and the trace sink (each keeps its own
//! cursor into the same log instead of plumbing three ad-hoc paths
//! through the network).
//!
//! At-reset faults are *state*, not events — consumers read them from
//! the [`crate::FaultTimeline`]; the log records only changes: each
//! scheduled link kill, each scheduled router kill, and each wear-out
//! kill the sim realizes online.

use ftnoc_types::geom::{Direction, NodeId};

use crate::schedule::FaultTimeline;

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
    /// Deterministic total order: time, then routers before links, then
    /// node/dir — the same order the timeline folds events in.
    fn sort_key(&self) -> (u64, u8, u16, u8) {
        match self.kind {
            FaultEventKind::RouterDown { node } => (self.at, 0, node.index() as u16, 0),
            FaultEventKind::LinkDown { node, dir } => {
                (self.at, 1, node.index() as u16, dir.index() as u8)
            }
        }
    }
}

/// Append-only, time-ordered log of fault events. Configured events are
/// known up front; wear-out events are appended as the sim realizes
/// them (always at a cycle past everything already realized, so the
/// realized prefix of the log never reorders — consumers can keep a
/// plain index cursor).
#[derive(Debug, Clone, Default)]
pub struct FaultLog {
    events: Vec<FaultEvent>,
}

impl FaultLog {
    /// An empty log.
    pub fn new() -> Self {
        FaultLog::default()
    }

    /// The log of a configured timeline: every scheduled link and
    /// router kill, cause [`FaultCause::Configured`].
    pub fn from_timeline(tl: &FaultTimeline) -> Self {
        let notify = tl.notify_latency();
        let mut events: Vec<FaultEvent> = tl
            .kills()
            .iter()
            .map(|k| FaultEvent {
                at: k.at,
                published_at: k.at.saturating_add(notify),
                cause: FaultCause::Configured,
                kind: FaultEventKind::LinkDown {
                    node: k.node,
                    dir: k.dir,
                },
            })
            .chain(tl.router_kills().iter().map(|k| FaultEvent {
                at: k.at,
                published_at: k.at.saturating_add(notify),
                cause: FaultCause::Configured,
                kind: FaultEventKind::RouterDown { node: k.node },
            }))
            .collect();
        events.sort_by_key(FaultEvent::sort_key);
        FaultLog { events }
    }

    /// Records a wear-out kill realized at cycle `at`, keeping the log
    /// sorted. `at` must not precede an already-realized event (the sim
    /// realizes wear-out strictly forward in time).
    pub fn record_wearout(&mut self, at: u64, published_at: u64, node: NodeId, dir: Direction) {
        self.events.push(FaultEvent {
            at,
            published_at,
            cause: FaultCause::Wearout,
            kind: FaultEventKind::LinkDown { node, dir },
        });
        self.events.sort_by_key(FaultEvent::sort_key);
    }

    /// Every event, in time order (including ones not yet realized).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The realized prefix: every event with `at <= now`, in time
    /// order. Because wear-out appends never land inside the realized
    /// prefix, this slice only ever grows — a consumer holding a cursor
    /// at its previous length sees exactly the new events.
    pub fn realized(&self, now: u64) -> &[FaultEvent] {
        let end = self.events.partition_point(|ev| ev.at <= now);
        &self.events[..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hard::HardFaults;
    use crate::schedule::{ScheduledKill, ScheduledRouterKill};
    use ftnoc_types::geom::Topology;

    #[test]
    fn log_orders_and_slices_by_realization() {
        let topo = Topology::mesh(4, 4);
        let tl = FaultTimeline::with_events(
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
        let mut log = FaultLog::from_timeline(&tl);
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.realized(99).len(), 0);
        assert_eq!(log.realized(100).len(), 1);
        assert!(matches!(
            log.realized(100)[0].kind,
            FaultEventKind::RouterDown { node } if node == NodeId::new(9)
        ));
        assert_eq!(log.realized(100)[0].published_at, 108);

        // A wear-out kill realized between the two configured events
        // lands between them; the realized prefix stays append-only.
        let before = log.realized(250).len();
        log.record_wearout(200, 208, NodeId::new(1), Direction::South);
        assert_eq!(log.realized(250).len(), before + 1);
        assert_eq!(log.realized(250)[1].cause, FaultCause::Wearout);
        assert_eq!(log.realized(u64::MAX).len(), 3);
        assert_eq!(log.realized(u64::MAX)[2].at, 300);
    }
}
