//! The structured event model and its hand-rolled JSONL serialization.

use std::fmt::Write as _;

/// Port index names, matching `Direction::index()` in `ftnoc-types`
/// (this crate stays dependency-free, so the mapping is by convention:
/// 0 north, 1 east, 2 south, 3 west, 4 local).
const DIR_NAMES: [&str; 5] = ["north", "east", "south", "west", "local"];

fn dir_name(port: u8) -> &'static str {
    DIR_NAMES.get(port as usize).copied().unwrap_or("invalid")
}

/// Why a flit was discarded at an input port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Uncorrectable corruption detected on arrival (schemes without
    /// retransmission have nothing to fall back on).
    Corrupt,
    /// Body flit with no live wormhole to join (upstream state upset).
    Stranded,
    /// Lost to a whole-router death: the flit sat inside (or was
    /// wormholing toward) a router that was killed mid-run.
    RouterDead,
}

impl DropReason {
    fn as_str(self) -> &'static str {
        match self {
            DropReason::Corrupt => "corrupt",
            DropReason::Stranded => "stranded",
            DropReason::RouterDead => "router_dead",
        }
    }
}

/// Which allocation stage the Allocation Comparator flagged (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcStage {
    /// Virtual-channel allocation table anomaly.
    Va,
    /// Switch-allocation grant anomaly.
    Sa,
    /// Routing-table anomaly caught against the VA request.
    Rt,
}

impl AcStage {
    fn as_str(self) -> &'static str {
        match self {
            AcStage::Va => "va",
            AcStage::Sa => "sa",
            AcStage::Rt => "rt",
        }
    }
}

/// One cycle-stamped occurrence inside a router or on a link.
///
/// Every variant is plain-old-data (`Copy`), so recording into the
/// flight-recorder ring never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A new packet entered a source queue.
    PacketInjected {
        /// Packet id.
        packet: u64,
        /// Source node.
        src: u16,
        /// Destination node.
        dest: u16,
    },
    /// A flit left this node on an output port (switch traversal).
    FlitSent {
        /// Packet id.
        packet: u64,
        /// Flit sequence number within the packet.
        seq: u8,
        /// Output port index (0 north … 4 local).
        port: u8,
        /// Virtual channel on the output port.
        vc: u8,
        /// True when this transmission is a barrel-shifter replay.
        replay: bool,
    },
    /// A flit arrived on an input port and was accepted.
    FlitReceived {
        /// Packet id.
        packet: u64,
        /// Flit sequence number within the packet.
        seq: u8,
        /// Input port index.
        port: u8,
        /// Virtual channel on the input port.
        vc: u8,
    },
    /// A flit was discarded at an input port.
    FlitDropped {
        /// Packet id (0 when the header was unreadable).
        packet: u64,
        /// Flit sequence number.
        seq: u8,
        /// Input port index.
        port: u8,
        /// Why it was dropped.
        reason: DropReason,
    },
    /// A NACK was sent upstream on the reverse channel (§3.1).
    NackSent {
        /// Input port whose upstream neighbour is being NACKed.
        port: u8,
        /// Virtual channel the corrupt flit targeted.
        vc: u8,
    },
    /// A NACK arrived and triggered a barrel-shifter replay (§3.1).
    ReplayTriggered {
        /// Output port whose retransmission buffer replays.
        port: u8,
        /// Virtual channel being replayed.
        vc: u8,
    },
    /// A deadlock probe was launched from a timed-out input VC (§3.2.2).
    ProbeLaunched {
        /// Node that originated the probe.
        origin: u16,
        /// Output port the probe follows.
        port: u8,
        /// Blocked virtual channel under suspicion.
        vc: u8,
    },
    /// A probe was discarded in flight (no cycle: some resource moved).
    ProbeDiscarded {
        /// Node that originated the probe.
        origin: u16,
    },
    /// A probe returned to its origin: a deadlock cycle is confirmed.
    DeadlockConfirmed {
        /// Node that originated the probe.
        origin: u16,
    },
    /// This router entered deadlock recovery (retransmission buffers
    /// begin draining the cycle, §3.2.1).
    RecoveryStarted,
    /// This router left deadlock recovery.
    RecoveryEnded,
    /// The Allocation Comparator flagged and repaired an allocation
    /// anomaly (§4).
    AcFlagged {
        /// Which allocation stage was anomalous.
        stage: AcStage,
        /// How many table entries were invalidated to repair it.
        removed: u32,
    },
    /// A packet fully left the network at its destination.
    PacketEjected {
        /// Packet id.
        packet: u64,
        /// End-to-end latency in cycles (injection to ejection).
        latency: u64,
    },
    /// A packet was delivered to the wrong node (unprotected schemes).
    Misdelivered {
        /// Packet id.
        packet: u64,
    },
    /// This router died (scheduled whole-router kill); `lost` is the
    /// network-wide flit count amputated by its drain purge.
    RouterKilled {
        /// Flits lost to this death across the whole network.
        lost: u64,
    },
    /// The link leaving this node on `port` exhausted its wear-out
    /// budget and failed permanently.
    LinkWoreOut {
        /// Outgoing port index of the worn-out link.
        port: u8,
    },
}

impl TraceEvent {
    /// The JSONL `kind` discriminator for this event.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::PacketInjected { .. } => "packet_injected",
            TraceEvent::FlitSent { .. } => "flit_sent",
            TraceEvent::FlitReceived { .. } => "flit_received",
            TraceEvent::FlitDropped { .. } => "flit_dropped",
            TraceEvent::NackSent { .. } => "nack_sent",
            TraceEvent::ReplayTriggered { .. } => "replay_triggered",
            TraceEvent::ProbeLaunched { .. } => "probe_launched",
            TraceEvent::ProbeDiscarded { .. } => "probe_discarded",
            TraceEvent::DeadlockConfirmed { .. } => "deadlock_confirmed",
            TraceEvent::RecoveryStarted => "recovery_start",
            TraceEvent::RecoveryEnded => "recovery_end",
            TraceEvent::AcFlagged { .. } => "ac_flagged",
            TraceEvent::PacketEjected { .. } => "packet_ejected",
            TraceEvent::Misdelivered { .. } => "misdelivered",
            TraceEvent::RouterKilled { .. } => "router_killed",
            TraceEvent::LinkWoreOut { .. } => "link_wearout",
        }
    }
}

/// A cycle-stamped event attributed to one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulation cycle at which the event occurred.
    pub cycle: u64,
    /// Node (router) the event belongs to.
    pub node: u16,
    /// What happened.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Appends this record as one JSON object (no trailing newline).
    ///
    /// All values are integers, booleans or fixed identifier strings, so
    /// the output is deterministic byte-for-byte for identical records.
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"cycle\":{},\"node\":{},\"kind\":\"{}\"",
            self.cycle,
            self.node,
            self.event.kind()
        );
        match self.event {
            TraceEvent::PacketInjected { packet, src, dest } => {
                let _ = write!(out, ",\"packet\":{packet},\"src\":{src},\"dest\":{dest}");
            }
            TraceEvent::FlitSent {
                packet,
                seq,
                port,
                vc,
                replay,
            } => {
                let _ = write!(
                    out,
                    ",\"packet\":{packet},\"seq\":{seq},\"port\":\"{}\",\"vc\":{vc},\"replay\":{replay}",
                    dir_name(port)
                );
            }
            TraceEvent::FlitReceived {
                packet,
                seq,
                port,
                vc,
            } => {
                let _ = write!(
                    out,
                    ",\"packet\":{packet},\"seq\":{seq},\"port\":\"{}\",\"vc\":{vc}",
                    dir_name(port)
                );
            }
            TraceEvent::FlitDropped {
                packet,
                seq,
                port,
                reason,
            } => {
                let _ = write!(
                    out,
                    ",\"packet\":{packet},\"seq\":{seq},\"port\":\"{}\",\"reason\":\"{}\"",
                    dir_name(port),
                    reason.as_str()
                );
            }
            TraceEvent::NackSent { port, vc } => {
                let _ = write!(out, ",\"port\":\"{}\",\"vc\":{vc}", dir_name(port));
            }
            TraceEvent::ReplayTriggered { port, vc } => {
                let _ = write!(out, ",\"port\":\"{}\",\"vc\":{vc}", dir_name(port));
            }
            TraceEvent::ProbeLaunched { origin, port, vc } => {
                let _ = write!(
                    out,
                    ",\"origin\":{origin},\"port\":\"{}\",\"vc\":{vc}",
                    dir_name(port)
                );
            }
            TraceEvent::ProbeDiscarded { origin } => {
                let _ = write!(out, ",\"origin\":{origin}");
            }
            TraceEvent::DeadlockConfirmed { origin } => {
                let _ = write!(out, ",\"origin\":{origin}");
            }
            TraceEvent::RecoveryStarted | TraceEvent::RecoveryEnded => {}
            TraceEvent::AcFlagged { stage, removed } => {
                let _ = write!(
                    out,
                    ",\"stage\":\"{}\",\"removed\":{removed}",
                    stage.as_str()
                );
            }
            TraceEvent::PacketEjected { packet, latency } => {
                let _ = write!(out, ",\"packet\":{packet},\"latency\":{latency}");
            }
            TraceEvent::Misdelivered { packet } => {
                let _ = write!(out, ",\"packet\":{packet}");
            }
            TraceEvent::RouterKilled { lost } => {
                let _ = write!(out, ",\"lost\":{lost}");
            }
            TraceEvent::LinkWoreOut { port } => {
                let _ = write!(out, ",\"port\":\"{}\"", dir_name(port));
            }
        }
        out.push('}');
    }

    /// This record as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        self.write_json(&mut s);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable_identifiers() {
        // The acceptance-critical sequence names are part of the schema.
        assert_eq!(
            TraceEvent::ProbeLaunched {
                origin: 0,
                port: 0,
                vc: 0
            }
            .kind(),
            "probe_launched"
        );
        assert_eq!(
            TraceEvent::DeadlockConfirmed { origin: 0 }.kind(),
            "deadlock_confirmed"
        );
        assert_eq!(TraceEvent::RecoveryStarted.kind(), "recovery_start");
        assert_eq!(TraceEvent::RecoveryEnded.kind(), "recovery_end");
    }

    #[test]
    fn json_shape_is_exact() {
        let rec = TraceRecord {
            cycle: 17,
            node: 5,
            event: TraceEvent::FlitSent {
                packet: 42,
                seq: 1,
                port: 1,
                vc: 0,
                replay: false,
            },
        };
        assert_eq!(
            rec.to_json(),
            "{\"cycle\":17,\"node\":5,\"kind\":\"flit_sent\",\"packet\":42,\
             \"seq\":1,\"port\":\"east\",\"vc\":0,\"replay\":false}"
        );
    }

    #[test]
    fn every_variant_serializes_with_its_kind() {
        let events = [
            TraceEvent::PacketInjected {
                packet: 1,
                src: 0,
                dest: 3,
            },
            TraceEvent::FlitSent {
                packet: 1,
                seq: 0,
                port: 4,
                vc: 2,
                replay: true,
            },
            TraceEvent::FlitReceived {
                packet: 1,
                seq: 0,
                port: 3,
                vc: 2,
            },
            TraceEvent::FlitDropped {
                packet: 1,
                seq: 2,
                port: 0,
                reason: DropReason::Corrupt,
            },
            TraceEvent::NackSent { port: 2, vc: 1 },
            TraceEvent::ReplayTriggered { port: 1, vc: 1 },
            TraceEvent::ProbeLaunched {
                origin: 9,
                port: 0,
                vc: 0,
            },
            TraceEvent::ProbeDiscarded { origin: 9 },
            TraceEvent::DeadlockConfirmed { origin: 9 },
            TraceEvent::RecoveryStarted,
            TraceEvent::RecoveryEnded,
            TraceEvent::AcFlagged {
                stage: AcStage::Va,
                removed: 2,
            },
            TraceEvent::PacketEjected {
                packet: 1,
                latency: 30,
            },
            TraceEvent::Misdelivered { packet: 1 },
            TraceEvent::RouterKilled { lost: 12 },
            TraceEvent::LinkWoreOut { port: 1 },
        ];
        for event in events {
            let rec = TraceRecord {
                cycle: 1,
                node: 0,
                event,
            };
            let json = rec.to_json();
            assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
            assert!(
                json.contains(&format!("\"kind\":\"{}\"", event.kind())),
                "{json}"
            );
            // Braces must balance (no nested objects in the schema).
            assert_eq!(json.matches('{').count(), 1, "{json}");
            assert_eq!(json.matches('}').count(), 1, "{json}");
        }
    }
}
