//! The deadlock-probing protocol of §3.2.2.
//!
//! Threshold-only detectors produce false positives; the paper instead
//! sends a compact **probe** along the suspected dependency chain after a
//! flit has been blocked for `Cthres` cycles. Only if the probe comes
//! back around — proving a cyclic dependency whose every node is blocked
//! — is the deadlock real, and an **activation** signal then switches the
//! whole cycle into recovery mode. Four rules govern the exchange:
//!
//! 1. after `Cthres` blocked cycles, send a probe to the next node naming
//!    the VC buffer the blocked flit waits on;
//! 2. a node receiving a probe forwards it (updating the VC id) iff the
//!    named buffer is also blocked there or the node is already in
//!    recovery mode, and discards it otherwise;
//! 3. a node discards an activation signal unless it previously saw a
//!    probe from the same origin;
//! 4. a node that receives a valid activation while waiting for its own
//!    probe enters recovery mode and discards its own probe on return.
//!
//! Probes travel as regular single-flit packets through the (empty — the
//! path is blocked, so unused) retransmission buffers, protected by the
//! ECC blanket like all other flits; the simulator models that transport,
//! while this module owns the per-node protocol state machine.

use ftnoc_types::geom::NodeId;
use ftnoc_types::FixedKey;

use crate::ac::VcRef;

/// A probe travelling along the suspected deadlock path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeSignal {
    /// The node that started the probe (Rule 1).
    pub origin: NodeId,
    /// The VC buffer to examine at the receiving node (Rule 2 rewrites
    /// this hop by hop).
    pub vc: VcRef,
}

/// The recovery-activation signal sent once a probe has returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActivationSignal {
    /// The node whose probe confirmed the deadlock.
    pub origin: NodeId,
}

/// What to do with an incoming probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeAction {
    /// Forward the (rewritten) probe to the next node in the chain.
    Forward(ProbeSignal),
    /// Drop the probe: the local buffer is not blocked (no deadlock
    /// through here), or Rule 4 already put us in recovery.
    Discard,
    /// The probe was ours and came back: the deadlock is confirmed.
    /// Send an [`ActivationSignal`] along the same path.
    Confirmed,
}

/// What to do with an incoming activation signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivationAction {
    /// Enter recovery mode and forward the activation onward (Rules 3+4).
    EnterRecoveryAndForward,
    /// Our own activation returned: enter recovery mode; the whole cycle
    /// is now recovering.
    RecoveryComplete,
    /// Rule 3: no probe from this origin was seen here — drop it.
    Discard,
}

/// Per-node protocol state machine.
#[derive(Debug, Clone)]
pub struct ProbeProtocol {
    node: NodeId,
    cthres: u64,
    in_recovery: bool,
    /// Whether our own probe is outstanding (sent, not yet returned or
    /// voided by Rule 4).
    probe_outstanding: bool,
    /// Origins whose probes passed through us (Rule 3 evidence).
    #[allow(clippy::disallowed_types, reason = "lookup-only: membership tests")]
    seen_probes: std::collections::HashSet<NodeId, FixedKey>,
}

impl ProbeProtocol {
    /// Creates the state machine for `node` with blocking threshold
    /// `cthres` (its exact value is uncritical by design, §3.2.2).
    ///
    /// # Panics
    ///
    /// Panics if `cthres == 0` — every momentarily blocked flit would
    /// probe.
    pub fn new(node: NodeId, cthres: u64) -> Self {
        assert!(cthres > 0, "the blocking threshold must be non-zero");
        ProbeProtocol {
            node,
            cthres,
            in_recovery: false,
            probe_outstanding: false,
            seen_probes: Default::default(),
        }
    }

    /// The owning node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The blocking threshold `Cthres`.
    pub fn cthres(&self) -> u64 {
        self.cthres
    }

    /// Whether this node is in deadlock-recovery mode.
    pub fn in_recovery(&self) -> bool {
        self.in_recovery
    }

    /// Whether this node's own probe is outstanding: while it is,
    /// [`ProbeProtocol::should_probe`] refuses every VC.
    pub fn probe_outstanding(&self) -> bool {
        self.probe_outstanding
    }

    /// Rule 1: decides whether a probe should be launched for a flit that
    /// has been blocked `blocked_cycles` so far. Fires exactly once per
    /// suspicion (when the threshold is crossed and no probe of ours is
    /// outstanding).
    ///
    /// On `true`, the caller sends a [`ProbeSignal`] with
    /// `origin = self.node()` and the VC the blocked flit waits on.
    pub fn should_probe(&mut self, blocked_cycles: u64) -> bool {
        if self.in_recovery || self.probe_outstanding || blocked_cycles < self.cthres {
            return false;
        }
        self.probe_outstanding = true;
        true
    }

    /// Marks an outstanding own probe as lost (e.g. discarded at a node
    /// that was not blocked, observed via timeout). Re-arms Rule 1.
    pub fn probe_lost(&mut self) {
        self.probe_outstanding = false;
    }

    /// Rule 2 (and the origin-return case): processes an incoming probe.
    ///
    /// * `target_blocked` — whether the VC buffer named by the probe is
    ///   blocked at this node;
    /// * `forward_vc` — the VC that buffer's flit waits on at the *next*
    ///   node (the rewritten probe field), if known.
    pub fn on_probe(
        &mut self,
        probe: ProbeSignal,
        target_blocked: bool,
        forward_vc: Option<VcRef>,
    ) -> ProbeAction {
        if probe.origin == self.node {
            // Our probe came back around the cycle.
            if !self.probe_outstanding || self.in_recovery {
                // Rule 4: recovery already activated by someone else.
                self.probe_outstanding = false;
                return ProbeAction::Discard;
            }
            if !target_blocked {
                // Rule 2 applies at the origin like anywhere else: the
                // probe names one of our own buffers on its final hop,
                // and if that buffer drained while the probe was in
                // flight the chain is broken here — a false suspicion,
                // not a deadlock.
                self.probe_outstanding = false;
                return ProbeAction::Discard;
            }
            self.probe_outstanding = false;
            return ProbeAction::Confirmed;
        }
        if target_blocked || self.in_recovery {
            self.seen_probes.insert(probe.origin);
            match forward_vc {
                Some(vc) => ProbeAction::Forward(ProbeSignal {
                    origin: probe.origin,
                    vc,
                }),
                // Blocked but the onward dependency is unknown (e.g. the
                // named flit is still routing): be conservative, drop.
                None => ProbeAction::Discard,
            }
        } else {
            ProbeAction::Discard
        }
    }

    /// Rules 3 and 4: processes an incoming activation signal.
    pub fn on_activation(&mut self, activation: ActivationSignal) -> ActivationAction {
        if activation.origin == self.node {
            // Our activation made it around: the last node is switching.
            self.in_recovery = true;
            return ActivationAction::RecoveryComplete;
        }
        if !self.seen_probes.contains(&activation.origin) {
            // Rule 3.
            return ActivationAction::Discard;
        }
        // Rule 4: enter recovery; a still-outstanding own probe will be
        // discarded on return (on_probe checks in_recovery).
        self.in_recovery = true;
        ActivationAction::EnterRecoveryAndForward
    }

    /// Leaves recovery mode once the deadlock is broken (a packet left
    /// the cycle and normal progress resumed); clears probe evidence.
    pub fn exit_recovery(&mut self) {
        self.in_recovery = false;
        self.probe_outstanding = false;
        self.seen_probes.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftnoc_types::geom::Direction;

    fn vc(port: Direction, idx: u8) -> VcRef {
        VcRef::new(port, idx)
    }

    fn node(i: u16) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn rule1_fires_once_at_threshold() {
        let mut p = ProbeProtocol::new(node(0), 16);
        assert!(!p.should_probe(15));
        assert!(p.should_probe(16));
        // Already outstanding: no second probe.
        assert!(!p.should_probe(17));
        assert!(!p.should_probe(1000));
    }

    #[test]
    fn rule2_forwards_only_through_blocked_buffers() {
        let mut p = ProbeProtocol::new(node(1), 16);
        let probe = ProbeSignal {
            origin: node(0),
            vc: vc(Direction::East, 1),
        };
        // Not blocked here: discard (this is what kills false positives).
        assert_eq!(
            p.on_probe(probe, false, Some(vc(Direction::South, 0))),
            ProbeAction::Discard
        );
        // Blocked: forward with the rewritten VC.
        match p.on_probe(probe, true, Some(vc(Direction::South, 0))) {
            ProbeAction::Forward(fwd) => {
                assert_eq!(fwd.origin, node(0));
                assert_eq!(fwd.vc, vc(Direction::South, 0));
            }
            other => panic!("expected forward, got {other:?}"),
        }
    }

    #[test]
    fn returned_probe_confirms_deadlock() {
        let mut p = ProbeProtocol::new(node(0), 16);
        assert!(p.should_probe(16));
        let own = ProbeSignal {
            origin: node(0),
            vc: vc(Direction::North, 2),
        };
        assert_eq!(p.on_probe(own, true, None), ProbeAction::Confirmed);
    }

    #[test]
    fn unexpected_probe_return_is_discarded() {
        // A probe with our origin but no outstanding suspicion (e.g. we
        // already went through Rule 4) is dropped.
        let mut p = ProbeProtocol::new(node(0), 16);
        let own = ProbeSignal {
            origin: node(0),
            vc: vc(Direction::North, 2),
        };
        assert_eq!(p.on_probe(own, true, None), ProbeAction::Discard);
    }

    #[test]
    fn rule3_requires_prior_probe_evidence() {
        let mut p = ProbeProtocol::new(node(2), 16);
        let act = ActivationSignal { origin: node(0) };
        assert_eq!(p.on_activation(act), ActivationAction::Discard);
        assert!(!p.in_recovery());

        // After seeing node 0's probe, the activation is honoured.
        let probe = ProbeSignal {
            origin: node(0),
            vc: vc(Direction::West, 0),
        };
        let _ = p.on_probe(probe, true, Some(vc(Direction::West, 1)));
        assert_eq!(
            p.on_activation(act),
            ActivationAction::EnterRecoveryAndForward
        );
        assert!(p.in_recovery());
    }

    #[test]
    fn rule4_voids_own_probe_after_foreign_activation() {
        let mut p = ProbeProtocol::new(node(1), 16);
        assert!(p.should_probe(20)); // our own suspicion outstanding
                                     // Node 0's probe passed through us earlier.
        let probe = ProbeSignal {
            origin: node(0),
            vc: vc(Direction::East, 0),
        };
        let _ = p.on_probe(probe, true, Some(vc(Direction::East, 1)));
        // Node 0's activation arrives first.
        let act = ActivationSignal { origin: node(0) };
        assert_eq!(
            p.on_activation(act),
            ActivationAction::EnterRecoveryAndForward
        );
        // Our own probe finally returns: Rule 4 says discard it.
        let own = ProbeSignal {
            origin: node(1),
            vc: vc(Direction::North, 0),
        };
        assert_eq!(p.on_probe(own, true, None), ProbeAction::Discard);
    }

    #[test]
    fn own_activation_return_completes_recovery_setup() {
        let mut p = ProbeProtocol::new(node(0), 16);
        assert!(p.should_probe(16));
        let own = ProbeSignal {
            origin: node(0),
            vc: vc(Direction::North, 0),
        };
        assert_eq!(p.on_probe(own, true, None), ProbeAction::Confirmed);
        let act = ActivationSignal { origin: node(0) };
        assert_eq!(p.on_activation(act), ActivationAction::RecoveryComplete);
        assert!(p.in_recovery());
    }

    #[test]
    fn probes_forward_unconditionally_in_recovery_mode() {
        // Rule 2's second clause: a recovering node forwards even if the
        // named buffer has started moving again.
        let mut p = ProbeProtocol::new(node(3), 16);
        let probe0 = ProbeSignal {
            origin: node(0),
            vc: vc(Direction::East, 0),
        };
        let _ = p.on_probe(probe0, true, Some(vc(Direction::East, 1)));
        let _ = p.on_activation(ActivationSignal { origin: node(0) });
        assert!(p.in_recovery());
        let probe5 = ProbeSignal {
            origin: node(5),
            vc: vc(Direction::South, 2),
        };
        assert!(matches!(
            p.on_probe(probe5, false, Some(vc(Direction::South, 0))),
            ProbeAction::Forward(_)
        ));
    }

    #[test]
    fn lost_probe_rearms() {
        let mut p = ProbeProtocol::new(node(0), 16);
        assert!(p.should_probe(16));
        p.probe_lost();
        assert!(!p.probe_outstanding());
        // Blocking persists: a new probe may be sent.
        assert!(p.should_probe(40));
    }

    #[test]
    fn exit_recovery_clears_state() {
        let mut p = ProbeProtocol::new(node(1), 16);
        let probe = ProbeSignal {
            origin: node(0),
            vc: vc(Direction::East, 0),
        };
        let _ = p.on_probe(probe, true, Some(vc(Direction::East, 1)));
        let _ = p.on_activation(ActivationSignal { origin: node(0) });
        assert!(p.in_recovery());
        p.exit_recovery();
        assert!(!p.in_recovery());
        // Rule 3 evidence cleared: stale activations are discarded.
        assert_eq!(
            p.on_activation(ActivationSignal { origin: node(0) }),
            ActivationAction::Discard
        );
    }

    #[test]
    fn three_node_cycle_end_to_end() {
        // Full protocol walk over a 3-node cycle 0 → 1 → 2 → 0.
        let mut nodes: Vec<ProbeProtocol> =
            (0..3).map(|i| ProbeProtocol::new(node(i), 8)).collect();

        // Node 0 suspects a deadlock.
        assert!(nodes[0].should_probe(8));
        let mut probe = ProbeSignal {
            origin: node(0),
            vc: vc(Direction::East, 0),
        };
        // Travels through 1 and 2, both blocked.
        for i in [1usize, 2] {
            match nodes[i].on_probe(probe, true, Some(vc(Direction::East, 0))) {
                ProbeAction::Forward(f) => probe = f,
                other => panic!("node {i}: {other:?}"),
            }
        }
        // Back at node 0: confirmed.
        assert_eq!(nodes[0].on_probe(probe, true, None), ProbeAction::Confirmed);

        // Activation circulates.
        let act = ActivationSignal { origin: node(0) };
        assert_eq!(
            nodes[1].on_activation(act),
            ActivationAction::EnterRecoveryAndForward
        );
        assert_eq!(
            nodes[2].on_activation(act),
            ActivationAction::EnterRecoveryAndForward
        );
        assert_eq!(
            nodes[0].on_activation(act),
            ActivationAction::RecoveryComplete
        );
        assert!(nodes.iter().all(|n| n.in_recovery()));
    }

    #[test]
    fn hard_fault_blocking_is_not_mistaken_for_deadlock() {
        // A node blocked by a dead link downstream: its probe reaches the
        // router adjacent to the fault, whose buffer toward the fault is
        // *not* part of any cycle — the neighbour discards the probe and
        // no recovery is triggered (§3.2.2).
        let mut victim = ProbeProtocol::new(node(0), 8);
        let mut adjacent = ProbeProtocol::new(node(1), 8);
        assert!(victim.should_probe(8));
        let probe = ProbeSignal {
            origin: node(0),
            vc: vc(Direction::East, 0),
        };
        // The adjacent router is draining other traffic fine.
        assert_eq!(
            adjacent.on_probe(probe, false, Some(vc(Direction::East, 0))),
            ProbeAction::Discard
        );
        victim.probe_lost();
        assert!(!victim.probe_outstanding());
        assert!(!victim.in_recovery());
    }
}
