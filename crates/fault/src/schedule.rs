//! Runtime hard-fault notification: links and routers that die *mid-run*.
//!
//! A [`ScheduledKill`] plants a hard link fault at a specific cycle and a
//! [`ScheduledRouterKill`] plants a whole-router death; the
//! [`FaultTimeline`] turns the static base registry plus the schedule
//! into the two views the router stack needs:
//!
//! * **Local detection** — the routers adjacent to a link observe its
//!   death the cycle it happens ([`FaultTimeline::link_dead_now`]).
//!   From that cycle on they stop granting new wormholes onto the port
//!   and stop offering it as a route candidate; wormholes allocated
//!   earlier drain gracefully (the control plane dies, the wires keep
//!   carrying already-committed flits). A dead *router* kills every one
//!   of its links at once, and additionally purges its buffered flits
//!   into the network's loss ledger (the drain story lives in the sim).
//! * **Network-wide publication** — `notify_latency` cycles later the
//!   fault is published to every router ([`FaultTimeline::epoch_at`]
//!   advances), at which point route plans are recomputed against the
//!   enlarged effective fault set ([`FaultTimeline::effective`]).
//!
//! The timeline built from configuration is a pure function of that
//! configuration. Wear-out kills are the one extension point: the sim
//! realizes them at runtime through [`FaultTimeline::push_link_kill`],
//! but only from the commit phase and only as a deterministic function
//! of traffic, so runs still stay byte-identical under activity gating.
//! Configured and realized kills share one append-only event list
//! ([`FaultTimeline::events`]), the run's only fault history.

use ftnoc_types::geom::{Direction, NodeId, Topology};

use crate::events::{configured_events, FaultCause, FaultEvent, FaultEventKind};
use crate::hard::HardFaults;

/// A hard link fault that lands at a specific cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledKill {
    /// The cycle the link dies. Detection at the adjacent routers is
    /// immediate; publication to the rest of the network lags by the
    /// timeline's notify latency.
    pub at: u64,
    /// One endpoint of the link.
    pub node: NodeId,
    /// The direction of the link as seen from `node`.
    pub dir: Direction,
}

/// A whole-router death that lands at a specific cycle: every link of
/// the router dies at once and the router stops computing. Flits
/// buffered inside it at that cycle are lost (the sim's drain story
/// counts them into the `flits_lost` ledger).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledRouterKill {
    /// The cycle the router dies.
    pub at: u64,
    /// The router.
    pub node: NodeId,
}

/// The complete hard-fault history of a run: the static base set plus
/// one append-only list of every mid-run fault event, configured or
/// realized online, folded once into per-epoch effective fault
/// registries and one dead-since table that answers every query at a
/// cycle.
#[derive(Debug, Clone)]
pub struct FaultTimeline {
    topo: Topology,
    notify_latency: u64,
    /// Every mid-run fault event sorted by `FaultEvent::sort_key`. A
    /// scheduled link kill pre-empted by an earlier wear-out death of
    /// the same link stays listed and folds as a no-op.
    events: Vec<FaultEvent>,
    /// Every event's `at` and `published_at`, sorted and deduplicated.
    boundaries: Vec<u64>,
    /// `(published_since, effective set)` — `epochs[0]` is `(0, base)`;
    /// each later entry folds in every kill published by that cycle.
    epochs: Vec<(u64, HardFaults)>,
    /// Per router, by [`Direction::CARDINAL`] index: the cycle the link
    /// leaving it died (`0` for a base fault, else the earliest
    /// detection cycle). `None` is alive, so a kill at `u64::MAX` still
    /// reads as one.
    port_since: Vec<[Option<u64>; 4]>,
    /// Per router: the cycle it died, as for `port_since`.
    router_since: Vec<Option<u64>>,
    /// Every dead link endpoint of `port_since`, in `(node, dir)` order:
    /// the tables a cycle asks for cost its deaths, not the topology.
    dead_ports: Vec<(NodeId, Direction, u64)>,
    /// Every dead router of `router_since`, in node order.
    dead_routers: Vec<(NodeId, u64)>,
}

/// The death cycle a dead-since entry records, when it is no later than
/// `now`.
fn died_by(since: Option<u64>, now: u64) -> Option<u64> {
    since.filter(|&at| at <= now)
}

impl FaultTimeline {
    /// Builds the timeline from a base set and both kill schedules.
    /// The inputs must already have passed [`crate::FaultPlan::check`]
    /// (this is what [`crate::FaultPlan::timeline`] hands over): nothing
    /// is re-checked here. A router kill may cover links that died
    /// earlier — the router death subsumes them.
    pub fn with_events(
        topo: Topology,
        base: HardFaults,
        kills: &[ScheduledKill],
        router_kills: &[ScheduledRouterKill],
        notify_latency: u64,
    ) -> Self {
        let mut tl = FaultTimeline {
            topo,
            notify_latency,
            events: configured_events(kills, router_kills, notify_latency),
            boundaries: Vec::new(),
            epochs: vec![(0, base)],
            port_since: Vec::new(),
            router_since: Vec::new(),
            dead_ports: Vec::new(),
            dead_routers: Vec::new(),
        };
        tl.rebuild();
        tl
    }

    /// Recomputes the boundaries, the per-epoch effective sets and the
    /// dead-since table from `self.events` and the base set in
    /// `epochs[0]`. A link kill whose link the fold already holds dead
    /// is skipped: it opens no epoch and keeps the earlier death cycle.
    fn rebuild(&mut self) {
        let topo = self.topo;
        let base = &self.epochs[0].1;
        self.port_since.clear();
        self.port_since.extend(
            topo.nodes().map(|node| {
                Direction::CARDINAL.map(|dir| base.link_is_dead(node, dir).then_some(0))
            }),
        );
        self.router_since.clear();
        self.router_since.extend(
            topo.nodes()
                .map(|node| base.router_is_dead(node).then_some(0)),
        );
        self.epochs.truncate(1);
        let ports = &mut self.port_since;
        let mut kill_link = |node: NodeId, dir: Direction, at: u64| {
            ports[node.index()][dir.index()].get_or_insert(at);
            if let Some(m) = topo.neighbor_id(node, dir) {
                ports[m.index()][dir.opposite().index()].get_or_insert(at);
            }
        };
        for ev in &self.events {
            let last = &self.epochs.last().unwrap().1;
            let mut next = match ev.kind {
                FaultEventKind::LinkDown { node, dir } if last.link_is_dead(node, dir) => continue,
                _ => last.clone(),
            };
            match ev.kind {
                FaultEventKind::LinkDown { node, dir } => {
                    next.kill_link(topo, node, dir);
                    kill_link(node, dir, ev.at);
                }
                FaultEventKind::RouterDown { node } => {
                    next.kill_router(topo, node);
                    self.router_since[node.index()].get_or_insert(ev.at);
                    for dir in Direction::CARDINAL {
                        if topo.neighbor_id(node, dir).is_some() {
                            kill_link(node, dir, ev.at);
                        }
                    }
                }
            }
            if self.epochs.last().unwrap().0 == ev.published_at {
                self.epochs.last_mut().unwrap().1 = next;
            } else {
                self.epochs.push((ev.published_at, next));
            }
        }
        self.dead_ports.clear();
        self.dead_ports.extend(
            topo.nodes()
                .zip(&self.port_since)
                .flat_map(|(node, ports)| {
                    Direction::CARDINAL
                        .into_iter()
                        .zip(ports)
                        .filter_map(move |(dir, &since)| Some((node, dir, since?)))
                }),
        );
        self.dead_routers.clear();
        self.dead_routers.extend(
            topo.nodes()
                .zip(&self.router_since)
                .filter_map(|(node, &since)| Some((node, since?))),
        );
        self.boundaries.clear();
        self.boundaries
            .extend(self.events.iter().flat_map(|ev| [ev.at, ev.published_at]));
        self.boundaries.sort_unstable();
        self.boundaries.dedup();
    }

    /// Realizes a runtime (wear-out) link kill at cycle `at`, appending a
    /// [`FaultCause::Wearout`] event. Returns `false` without changing
    /// anything when the link does not exist or is already dead by `at`
    /// (base fault, earlier kill, router death). A *later* scheduled kill
    /// of the same link stays listed and folds as a no-op. Only the
    /// commit phase may call this.
    pub fn push_link_kill(&mut self, at: u64, node: NodeId, dir: Direction) -> bool {
        if !dir.is_cardinal() || self.topo.neighbor_id(node, dir).is_none() {
            return false;
        }
        if self.link_dead_now(at, node, dir) {
            return false;
        }
        let ev = FaultEvent {
            at,
            published_at: at.saturating_add(self.notify_latency),
            cause: FaultCause::Wearout,
            kind: FaultEventKind::LinkDown { node, dir },
        };
        let i = self
            .events
            .partition_point(|e| e.sort_key() <= ev.sort_key());
        self.events.insert(i, ev);
        self.rebuild();
        true
    }

    /// The topology the timeline was built for.
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// The configured notification latency in cycles.
    pub fn notify_latency(&self) -> u64 {
        self.notify_latency
    }

    /// Every mid-run fault event, configured and realized, in time
    /// order: the run's one fault history.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of publication epochs (`1` when static).
    pub fn epoch_count(&self) -> usize {
        self.epochs.len()
    }

    /// The publication epoch in force at cycle `now`.
    pub fn epoch_at(&self, now: u64) -> usize {
        // Epochs are few (one per kill at most): a linear scan beats a
        // binary search at these sizes and is branch-predictable.
        let mut e = 0;
        while e + 1 < self.epochs.len() && self.epochs[e + 1].0 <= now {
            e += 1;
        }
        e
    }

    /// The network-wide published fault set of an epoch.
    pub fn effective(&self, epoch: usize) -> &HardFaults {
        &self.epochs[epoch].1
    }

    /// Ground truth at cycle `now`: whether the link leaving `node` in
    /// `dir` is dead — base faults plus every kill with `at <= now`,
    /// published or not. This is what the routers *adjacent* to the
    /// link know (detection is local and immediate), and therefore what
    /// route-candidate filtering and VC allocation at `node` consult
    /// for `node`'s own ports. A `Local` port is no link and never reads
    /// dead.
    pub fn link_dead_now(&self, now: u64, node: NodeId, dir: Direction) -> bool {
        let since = self.port_since[node.index()].get(dir.index());
        died_by(since.copied().flatten(), now).is_some()
    }

    /// Ground truth at cycle `now`: whether router `node` is dead —
    /// base dead routers plus every router kill with `at <= now`.
    pub fn router_dead_now(&self, now: u64, node: NodeId) -> bool {
        died_by(self.router_since[node.index()], now).is_some()
    }

    /// Every cycle at which fault state changes somewhere: each event's
    /// detection cycle and its publication cycle, sorted and deduped.
    /// The engine wakes the whole network at these boundaries so
    /// activity gating cannot sleep through a reconfiguration.
    pub fn boundaries(&self) -> &[u64] {
        &self.boundaries
    }

    /// Every directed dead link endpoint as of cycle `now`, in
    /// `(node, dir)` order, with the cycle its death became locally
    /// known: `(node, dir, since)`. Base faults carry `since == 0`; an
    /// endpoint killed twice (a link kill later subsumed by a router
    /// death) keeps its earliest `since`. This is the network's fault
    /// table as the snapshot exposes it to the invariant oracle.
    pub fn dead_ports_at(&self, now: u64) -> impl Iterator<Item = (NodeId, Direction, u64)> + '_ {
        self.dead_ports
            .iter()
            .copied()
            .filter(move |&(_, _, since)| since <= now)
    }

    /// Every dead router as of cycle `now` with the cycle it died:
    /// `(node, since)`, in node order. Base dead routers carry
    /// `since == 0`.
    pub fn dead_routers_at(&self, now: u64) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.dead_routers
            .iter()
            .copied()
            .filter(move |&(_, since)| since <= now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::mesh(4, 4)
    }

    fn kill(at: u64, node: u16, dir: Direction) -> ScheduledKill {
        ScheduledKill {
            at,
            node: NodeId::new(node),
            dir,
        }
    }

    fn rkill(at: u64, node: u16) -> ScheduledRouterKill {
        ScheduledRouterKill {
            at,
            node: NodeId::new(node),
        }
    }

    #[test]
    fn static_timeline_has_one_epoch() {
        let tl = FaultTimeline::with_events(topo(), HardFaults::new(), &[], &[], 0);
        assert_eq!(tl.epoch_count(), 1);
        assert_eq!(tl.epoch_at(0), 0);
        assert_eq!(tl.epoch_at(u64::MAX), 0);
        assert!(tl.boundaries().is_empty());
        assert_eq!(tl.dead_ports_at(u64::MAX).count(), 0);
        assert_eq!(tl.dead_routers_at(u64::MAX).count(), 0);
    }

    #[test]
    fn detection_precedes_publication() {
        let tl = FaultTimeline::with_events(
            topo(),
            HardFaults::new(),
            &[kill(100, 5, Direction::East)],
            &[],
            8,
        );
        // Before the kill: nothing is dead anywhere.
        assert!(!tl.link_dead_now(99, NodeId::new(5), Direction::East));
        // At the kill cycle: both endpoints know, the network does not.
        assert!(tl.link_dead_now(100, NodeId::new(5), Direction::East));
        assert!(tl.link_dead_now(100, NodeId::new(6), Direction::West));
        assert_eq!(tl.epoch_at(100), 0);
        assert!(!tl
            .effective(tl.epoch_at(100))
            .link_is_dead(NodeId::new(5), Direction::East));
        // After the latency: the whole network agrees.
        assert_eq!(tl.epoch_at(108), 1);
        assert!(tl
            .effective(tl.epoch_at(108))
            .link_is_dead(NodeId::new(5), Direction::East));
        assert_eq!(tl.boundaries(), [100, 108]);
    }

    #[test]
    fn dead_ports_table_lists_both_endpoints_with_since() {
        let mut base = HardFaults::new();
        base.kill_link(topo(), NodeId::new(0), Direction::East);
        let tl = FaultTimeline::with_events(topo(), base, &[kill(50, 9, Direction::South)], &[], 4);
        let before: Vec<_> = tl.dead_ports_at(49).collect();
        assert_eq!(before.len(), 2); // base endpoints only
        assert!(before.iter().all(|&(_, _, s)| s == 0));
        let after: Vec<_> = tl.dead_ports_at(50).collect();
        assert_eq!(after.len(), 4);
        assert!(after.contains(&(NodeId::new(9), Direction::South, 50)));
        assert!(after.contains(&(NodeId::new(13), Direction::North, 50)));
    }

    #[test]
    fn kills_merge_into_cumulative_epochs() {
        let tl = FaultTimeline::with_events(
            topo(),
            HardFaults::new(),
            &[
                kill(200, 10, Direction::North),
                kill(100, 5, Direction::East),
            ],
            &[],
            4,
        );
        assert_eq!(tl.epoch_count(), 3);
        let last = tl.effective(2);
        assert!(last.link_is_dead(NodeId::new(5), Direction::East));
        assert!(last.link_is_dead(NodeId::new(10), Direction::North));
        // Middle epoch only has the earlier kill.
        assert!(tl
            .effective(1)
            .link_is_dead(NodeId::new(5), Direction::East));
        assert!(!tl
            .effective(1)
            .link_is_dead(NodeId::new(10), Direction::North));
    }

    #[test]
    fn router_kill_kills_every_link_at_its_cycle() {
        let tl = FaultTimeline::with_events(topo(), HardFaults::new(), &[], &[rkill(100, 5)], 8);
        assert!(!tl.router_dead_now(99, NodeId::new(5)));
        assert!(tl.router_dead_now(100, NodeId::new(5)));
        // Node 5 of a 4x4 mesh is interior: all four links die, seen
        // from both endpoints.
        for dir in Direction::CARDINAL {
            assert!(tl.link_dead_now(100, NodeId::new(5), dir), "{dir}");
            assert!(!tl.link_dead_now(99, NodeId::new(5), dir), "{dir}");
        }
        assert!(tl.link_dead_now(100, NodeId::new(4), Direction::East));
        assert!(tl.link_dead_now(100, NodeId::new(6), Direction::West));
        assert!(tl.link_dead_now(100, NodeId::new(1), Direction::South));
        assert!(tl.link_dead_now(100, NodeId::new(9), Direction::North));
        // Publication lags by the notify latency.
        assert_eq!(tl.epoch_at(107), 0);
        assert_eq!(tl.epoch_at(108), 1);
        assert!(tl
            .effective(tl.epoch_at(108))
            .router_is_dead(NodeId::new(5)));
        assert_eq!(tl.boundaries(), [100, 108]);
        // The fault table lists all eight directed endpoints with since.
        let ports: Vec<_> = tl.dead_ports_at(100).collect();
        assert_eq!(ports.len(), 8);
        assert!(ports.iter().all(|&(_, _, s)| s == 100));
        assert!(tl.dead_routers_at(100).eq([(NodeId::new(5), 100)]));
        assert_eq!(tl.dead_routers_at(99).count(), 0);
    }

    #[test]
    fn router_kill_subsumes_an_earlier_link_kill() {
        // Link 5:e dies at 50, then router 5 dies at 100: legal — the
        // router death covers the already-dead link without relisting it.
        let tl = FaultTimeline::with_events(
            topo(),
            HardFaults::new(),
            &[kill(50, 5, Direction::East)],
            &[rkill(100, 5)],
            0,
        );
        assert_eq!(tl.epoch_count(), 3);
        let ports: Vec<_> = tl.dead_ports_at(100).collect();
        // 2 endpoints since 50, 6 more since 100 (no duplicates).
        assert_eq!(ports.len(), 8);
        assert!(ports.contains(&(NodeId::new(5), Direction::East, 50)));
        assert!(ports.contains(&(NodeId::new(6), Direction::West, 50)));
        assert!(ports.contains(&(NodeId::new(5), Direction::West, 100)));
    }

    #[test]
    fn wearout_push_realizes_and_preempts() {
        let mut tl = FaultTimeline::with_events(
            topo(),
            HardFaults::new(),
            &[kill(1000, 5, Direction::East)],
            &[],
            4,
        );
        // Realize a wear-out death of the same link at cycle 200: the
        // later scheduled kill is moot — it stays listed, opens no epoch
        // and folds as a no-op.
        assert!(tl.push_link_kill(200, NodeId::new(6), Direction::West));
        assert!(tl.link_dead_now(200, NodeId::new(5), Direction::East));
        assert!(!tl.link_dead_now(199, NodeId::new(5), Direction::East));
        let history: Vec<(u64, FaultCause)> = tl.events().iter().map(|e| (e.at, e.cause)).collect();
        assert_eq!(
            history,
            [(200, FaultCause::Wearout), (1000, FaultCause::Configured)]
        );
        assert_eq!(tl.epoch_count(), 2);
        assert!(tl.dead_ports_at(u64::MAX).eq([
            (NodeId::new(5), Direction::East, 200),
            (NodeId::new(6), Direction::West, 200),
        ]));
        // A second realization of the same (already dead) link is a no-op.
        assert!(!tl.push_link_kill(300, NodeId::new(5), Direction::East));
        // Nonexistent link: no-op.
        assert!(!tl.push_link_kill(300, NodeId::new(0), Direction::North));
        assert_eq!(tl.boundaries(), [200, 204, 1000, 1004]);
    }
}
