//! Permanent (hard) faults: dead links and dead routers.
//!
//! §3.2.2 of the paper notes that a hard failure can masquerade as a
//! deadlock (long blocking); the probe protocol discards probes at the
//! router adjacent to the fault and adaptive routing steers around it.
//! [`HardFaults`] is the registry the routing and probing logic consult.

use ftnoc_types::geom::{Direction, NodeId, Topology};
use ftnoc_types::FixedKey;

/// Registry of permanent failures in the network.
#[derive(Debug, Clone, Default)]
#[allow(
    clippy::disallowed_types,
    reason = "lookup-only: insert/contains/is_empty"
)]
pub struct HardFaults {
    dead_links: std::collections::HashSet<(NodeId, Direction), FixedKey>,
    dead_routers: std::collections::HashSet<NodeId, FixedKey>,
}

impl HardFaults {
    /// An empty (fault-free) registry.
    pub fn new() -> Self {
        HardFaults::default()
    }

    /// Marks the link leaving `node` in `dir` (and its reverse direction
    /// at the neighbour) as dead.
    ///
    /// `Local` directions are rejected: the PE port is not a link.
    ///
    /// # Panics
    ///
    /// Panics if `dir` is [`Direction::Local`].
    pub fn kill_link(&mut self, topo: Topology, node: NodeId, dir: Direction) {
        assert!(dir.is_cardinal(), "the PE port is not an inter-router link");
        self.dead_links.insert((node, dir));
        if let Some(neigh) = topo.neighbor_id(node, dir) {
            self.dead_links.insert((neigh, dir.opposite()));
        }
    }

    /// Marks a whole router dead: all four of its links fail.
    pub fn kill_router(&mut self, topo: Topology, node: NodeId) {
        self.dead_routers.insert(node);
        for dir in Direction::CARDINAL {
            if topo.neighbor_id(node, dir).is_some() {
                self.kill_link(topo, node, dir);
            }
        }
    }

    /// Whether the link leaving `node` in `dir` is dead.
    pub fn link_is_dead(&self, node: NodeId, dir: Direction) -> bool {
        self.dead_links.contains(&(node, dir))
    }

    /// Whether the router itself is dead.
    pub fn router_is_dead(&self, node: NodeId) -> bool {
        self.dead_routers.contains(&node)
    }

    /// Whether any hard fault is registered.
    pub fn is_empty(&self) -> bool {
        self.dead_links.is_empty() && self.dead_routers.is_empty()
    }

    /// Checks that the fault set leaves every live node pair connected
    /// (BFS over live links); used by tests and scenario validation so
    /// experiments do not accidentally partition the network.
    pub fn network_is_connected(&self, topo: Topology) -> bool {
        let n = topo.node_count();
        let live: Vec<NodeId> = topo
            .nodes()
            .filter(|id| !self.router_is_dead(*id))
            .collect();
        let Some(&start) = live.first() else {
            return true;
        };
        let mut visited = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        visited[start.index()] = true;
        queue.push_back(start);
        let mut reached = 1;
        while let Some(id) = queue.pop_front() {
            for dir in Direction::CARDINAL {
                if self.link_is_dead(id, dir) {
                    continue;
                }
                let Some(nid) = topo.neighbor_id(id, dir) else {
                    continue;
                };
                if self.router_is_dead(nid) || visited[nid.index()] {
                    continue;
                }
                visited[nid.index()] = true;
                reached += 1;
                queue.push_back(nid);
            }
        }
        reached == live.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftnoc_types::geom::Coord;

    fn topo() -> Topology {
        Topology::mesh(4, 4)
    }

    #[test]
    fn empty_registry_reports_nothing_dead() {
        let hf = HardFaults::new();
        assert!(hf.is_empty());
        assert!(!hf.link_is_dead(NodeId::new(0), Direction::East));
        assert!(!hf.router_is_dead(NodeId::new(0)));
        assert!(hf.network_is_connected(topo()));
    }

    #[test]
    fn killing_a_link_kills_both_endpoints() {
        let mut hf = HardFaults::new();
        hf.kill_link(topo(), NodeId::new(0), Direction::East);
        assert!(hf.link_is_dead(NodeId::new(0), Direction::East));
        assert!(hf.link_is_dead(NodeId::new(1), Direction::West));
        assert_eq!(hf.dead_links.len(), 2);
        assert!(hf.network_is_connected(topo()));
    }

    #[test]
    fn killing_an_edge_link_registers_one_endpoint() {
        let mut hf = HardFaults::new();
        // North link of a top-row node does not exist on a mesh; killing it
        // registers only the local endpoint.
        hf.kill_link(topo(), NodeId::new(0), Direction::North);
        assert_eq!(hf.dead_links.len(), 1);
    }

    #[test]
    fn killing_a_router_kills_its_links() {
        let mut hf = HardFaults::new();
        let center = topo().id_of(Coord::new(1, 1));
        hf.kill_router(topo(), center);
        assert!(hf.router_is_dead(center));
        for dir in Direction::CARDINAL {
            assert!(hf.link_is_dead(center, dir));
        }
        // Remaining 15 routers still mutually reachable.
        assert!(hf.network_is_connected(topo()));
    }

    #[test]
    fn partition_is_detected() {
        let mut hf = HardFaults::new();
        // Cut the 4x4 mesh along the full vertical seam between x=1 and x=2.
        for y in 0..4 {
            hf.kill_link(topo(), topo().id_of(Coord::new(1, y)), Direction::East);
        }
        assert!(!hf.network_is_connected(topo()));
    }

    #[test]
    #[should_panic(expected = "not an inter-router link")]
    fn local_port_cannot_be_killed() {
        let mut hf = HardFaults::new();
        hf.kill_link(topo(), NodeId::new(0), Direction::Local);
    }
}
