//! The recovery procedure of §3.2.1, modelled on a standalone ring so the
//! Figure 10 walk-through is reproducible step by step.
//!
//! A deadlocked cycle of `n` nodes holds full transmission buffers whose
//! head packets all wait on the next node. Recovery mode (entered after
//! the probe protocol confirms the deadlock):
//!
//! 1. each node moves flits from its transmission buffer into free slots
//!    of its (idle, hence empty) retransmission buffer — creating space;
//! 2. the space lets the *previous* node in the cycle transmit flits out
//!    of its retransmission buffer; transmitted flits rotate to the back
//!    of the barrel shifter (Figure 10's thick squares) and expire three
//!    cycles later;
//! 3. repeat: every flit advances, and in the real network some packet
//!    eventually turns off the cycle, breaking the deadlock.
//!
//! No new packets enter recovering buffers, and all transmissions drain
//! through the retransmission buffer so stream order is preserved.

use ftnoc_types::config::PortCapacity;
use ftnoc_types::flit::Flit;

use crate::buffers::PortBuffer;
use crate::retransmission::RetransmissionBuffer;

/// One node of the recovery ring: its transmission FIFO and
/// retransmission barrel shifter.
#[derive(Debug, Clone)]
pub struct RingNode {
    /// The normal transmission buffer: a one-VC port.
    pub tx: PortBuffer,
    /// The retransmission buffer shared with the HBH scheme.
    pub retx: RetransmissionBuffer,
}

impl RingNode {
    fn new(tx_capacity: usize, retx_depth: usize) -> Self {
        RingNode {
            tx: PortBuffer::new(1, PortCapacity::partitioned(1, tx_capacity)),
            retx: RetransmissionBuffer::new(retx_depth),
        }
    }

    /// Flits currently at this node (transmission + held retransmission).
    pub(crate) fn resident_flits(&self) -> usize {
        self.tx.len(0) + self.retx.held_count()
    }
}

/// A cyclic dependency of `n` nodes executing the recovery procedure.
///
/// Node `i`'s traffic flows into node `(i + 1) % n`.
#[derive(Debug, Clone)]
pub struct RecoveryRing {
    nodes: Vec<RingNode>,
    now: u64,
    recovery_active: bool,
    /// Flits that crossed any inter-node link since construction.
    advancements: u64,
}

impl RecoveryRing {
    /// Builds a ring of `n` identical nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` (a cycle needs at least two participants).
    pub fn new(n: usize, tx_capacity: usize, retx_depth: usize) -> Self {
        assert!(n >= 2, "a dependency cycle needs at least two nodes");
        RecoveryRing {
            nodes: (0..n)
                .map(|_| RingNode::new(tx_capacity, retx_depth))
                .collect(),
            now: 0,
            recovery_active: false,
            advancements: 0,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the ring is empty of nodes (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Read access to a node.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn node(&self, i: usize) -> &RingNode {
        &self.nodes[i]
    }

    /// The current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Total link crossings since construction.
    pub fn advancements(&self) -> u64 {
        self.advancements
    }

    /// Fills node `i`'s transmission buffer with the given flits (front
    /// first), as the deadlocked initial condition.
    ///
    /// # Panics
    ///
    /// Panics if the flits do not fit.
    pub fn preload(&mut self, i: usize, flits: impl IntoIterator<Item = Flit>) {
        for flit in flits {
            assert!(
                self.nodes[i].tx.push(0, flit),
                "preload overflows node {i}'s transmission buffer"
            );
        }
    }

    /// Switches every node into recovery mode (the activation signal has
    /// circulated).
    pub fn activate_recovery(&mut self) {
        self.recovery_active = true;
    }

    /// Advances one clock cycle of the recovery procedure.
    ///
    /// Without recovery active this is a no-op apart from time (the
    /// deadlocked steady state), which is exactly the point: the cycle
    /// cannot drain through full transmission buffers alone.
    pub fn step(&mut self) {
        let n = self.nodes.len();
        if self.recovery_active {
            // Phase 1: absorb — move flits from the transmission buffer
            // into every free retransmission slot (Figure 10's step 2
            // moves three at once).
            for node in self.nodes.iter_mut() {
                node.retx.expire(self.now);
                while !node.retx.is_full() {
                    let Some(flit) = node.tx.pop(0) else { break };
                    let accepted = node.retx.absorb(flit);
                    debug_assert!(accepted);
                }
            }
            // Phase 2: transmit — a node with a held flit at the front of
            // its barrel shifter sends it to the next node's transmission
            // buffer when a slot is free; the sent copy rotates back.
            for i in 0..n {
                let next = (i + 1) % n;
                if self.nodes[next].tx.free_slots(0) == 0 {
                    continue;
                }
                if let Some(flit) = self.nodes[i].retx.send_held(self.now, true) {
                    let pushed = self.nodes[next].tx.push(0, flit);
                    debug_assert!(pushed);
                    self.advancements += 1;
                }
            }
        }
        self.now += 1;
    }

    /// Runs `cycles` steps.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }

    /// Total flits resident in the ring (conservation check).
    pub fn total_flits(&self) -> usize {
        self.nodes.iter().map(|n| n.resident_flits()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftnoc_types::flit::FlitKind;
    use ftnoc_types::geom::NodeId;
    use ftnoc_types::packet::PacketId;
    use ftnoc_types::Header;

    /// Tag flits so their origin stream and index are recoverable:
    /// packet id = stream, seq = index within stream.
    fn flit(stream: u64, idx: u8) -> Flit {
        let kind = match idx {
            0 => FlitKind::Head,
            3 => FlitKind::Tail,
            _ => FlitKind::Body,
        };
        Flit::new(
            PacketId::new(stream),
            idx,
            kind,
            Header::new(NodeId::new(stream as u16), NodeId::new(63)),
            idx as u16,
            0,
        )
    }

    /// Figure 10's initial condition: 3 nodes, 4-flit buffers each full
    /// with one 4-flit packet (a, b, c), 3-deep retransmission buffers.
    fn figure10_ring() -> RecoveryRing {
        let mut ring = RecoveryRing::new(3, 4, 3);
        for (i, stream) in [0u64, 1, 2].iter().enumerate() {
            ring.preload(i, (0..4).map(|s| flit(*stream, s)));
        }
        ring
    }

    #[test]
    fn deadlock_without_recovery_never_moves() {
        let mut ring = figure10_ring();
        ring.run(100);
        assert_eq!(ring.advancements(), 0);
        for i in 0..3 {
            assert_eq!(ring.node(i).tx.free_slots(0), 0);
            assert!(ring.node(i).retx.is_empty());
        }
    }

    #[test]
    fn recovery_advances_every_stream() {
        let mut ring = figure10_ring();
        ring.activate_recovery();
        ring.run(30);
        // Every inter-node link must have carried flits.
        assert!(
            ring.advancements() >= 9,
            "only {} advancements",
            ring.advancements()
        );
        // Flit conservation: nothing lost, nothing duplicated.
        assert_eq!(ring.total_flits(), 12);
    }

    #[test]
    fn figure10_step2_absorbs_into_retransmission_buffers() {
        let mut ring = figure10_ring();
        ring.activate_recovery();
        ring.step();
        for i in 0..3 {
            // Step 2 of Figure 10: three flits absorbed per node; the
            // first (x1) was already transmitted onward in the same
            // cycle, so two held flits remain behind its sent copy.
            assert_eq!(ring.node(i).retx.occupancy(), 3);
            assert_eq!(ring.node(i).retx.held_count(), 2);
        }
    }

    #[test]
    fn figure10_flits_advance_by_three_slots_per_epoch() {
        // After the first full drain epoch, node i's buffer front is its
        // own 4th flit, followed by the predecessor's first flits —
        // Figure 10's step 7 ("every flit has advanced by 3 buffer
        // slots").
        let mut ring = figure10_ring();
        ring.activate_recovery();
        // One drain epoch: absorb 3 (cycle 0) and transmit one flit per
        // cycle over cycles 0-2.
        ring.run(3);
        for i in 0..3 {
            let tx: Vec<(u64, u8)> = ring
                .node(i)
                .tx
                .iter(0)
                .map(|f| (f.packet.raw(), f.seq))
                .collect();
            let own = i as u64;
            let pred = ((i + 3 - 1) % 3) as u64;
            assert_eq!(
                tx,
                vec![(own, 3), (pred, 0), (pred, 1), (pred, 2)],
                "node {i} buffer after one epoch"
            );
        }
        assert_eq!(ring.total_flits(), 12);
    }

    #[test]
    fn stream_order_is_preserved_across_the_ring() {
        let mut ring = figure10_ring();
        ring.activate_recovery();
        // Track everything that ever arrives at node 1 from node 0 by
        // stepping and recording node 1's buffer tail growth.
        let mut seen: Vec<u8> = Vec::new();
        for _ in 0..40 {
            ring.step();
            let stream0: Vec<u8> = ring
                .node(1)
                .tx
                .iter(0)
                .chain(ring.node(1).retx.iter_slots().map(|(f, _)| f))
                .filter(|f| f.packet.raw() == 0)
                .map(|f| f.seq)
                .collect();
            for s in stream0 {
                if !seen.contains(&s) {
                    seen.push(s);
                }
            }
        }
        // Stream 0's flits appear at node 1 in seq order.
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(seen, sorted, "reordered stream: {seen:?}");
        assert!(!seen.is_empty());
    }

    #[test]
    fn worst_case_figure11_configuration_drains() {
        // 4 nodes, 6-flit buffers with 1.5 packets each (partial packet
        // at the front), M=4, R=3: Eq. (1) gives 36 > 32, so the cycle
        // must drain.
        let mut ring = RecoveryRing::new(4, 6, 3);
        for i in 0..4u64 {
            // 6 flits: tail half of one packet + one full packet.
            let mut flits = vec![flit(10 + i, 2), flit(10 + i, 3)];
            flits.extend((0..4).map(|s| flit(i, s)));
            ring.preload(i as usize, flits);
        }
        ring.activate_recovery();
        ring.run(60);
        assert!(ring.advancements() >= 16);
        assert_eq!(ring.total_flits(), 24);
    }

    #[test]
    fn two_node_cycle_recovers() {
        let mut ring = RecoveryRing::new(2, 4, 3);
        ring.preload(0, (0..4).map(|s| flit(0, s)));
        ring.preload(1, (0..4).map(|s| flit(1, s)));
        ring.activate_recovery();
        ring.run(20);
        assert!(ring.advancements() > 0);
        assert_eq!(ring.total_flits(), 8);
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn single_node_ring_rejected() {
        let _ = RecoveryRing::new(1, 4, 3);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn preload_overflow_panics() {
        let mut ring = RecoveryRing::new(2, 2, 3);
        ring.preload(0, (0..3).map(|s| flit(0, s)));
    }
}
