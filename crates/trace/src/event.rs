//! The structured event model and its hand-rolled JSONL serialization.

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
    /// No free slot in its virtual channel: a switch-allocator upset
    /// that no comparator caught sent it out of the wrong port (§4.3).
    Overflow,
}

impl DropReason {
    fn as_str(self) -> &'static str {
        match self {
            DropReason::Corrupt => "corrupt",
            DropReason::Stranded => "stranded",
            DropReason::RouterDead => "router_dead",
            DropReason::Overflow => "overflow",
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
    /// the output is ASCII and deterministic byte-for-byte for identical
    /// records. The record is encoded as bytes into a line buffer on the
    /// stack — fixed key pieces copied in, integers as decimal digits —
    /// and appended to `out` in one `extend_from_slice`.
    pub fn write_json(&self, out: &mut Vec<u8>) {
        let mut line = Line::new();
        line.num(b"{\"cycle\":", self.cycle);
        line.num(b",\"node\":", self.node.into());
        line.text(b",\"kind\":", self.event.kind());
        match self.event {
            TraceEvent::PacketInjected { packet, src, dest } => {
                line.num(b",\"packet\":", packet);
                line.num(b",\"src\":", src.into());
                line.num(b",\"dest\":", dest.into());
            }
            TraceEvent::FlitSent {
                packet,
                seq,
                port,
                vc,
                replay,
            } => {
                line.num(b",\"packet\":", packet);
                line.num(b",\"seq\":", seq.into());
                line.text(b",\"port\":", dir_name(port));
                line.num(b",\"vc\":", vc.into());
                line.put(if replay {
                    b",\"replay\":true"
                } else {
                    b",\"replay\":false"
                });
            }
            TraceEvent::FlitReceived {
                packet,
                seq,
                port,
                vc,
            } => {
                line.num(b",\"packet\":", packet);
                line.num(b",\"seq\":", seq.into());
                line.text(b",\"port\":", dir_name(port));
                line.num(b",\"vc\":", vc.into());
            }
            TraceEvent::FlitDropped {
                packet,
                seq,
                port,
                reason,
            } => {
                line.num(b",\"packet\":", packet);
                line.num(b",\"seq\":", seq.into());
                line.text(b",\"port\":", dir_name(port));
                line.text(b",\"reason\":", reason.as_str());
            }
            TraceEvent::NackSent { port, vc } | TraceEvent::ReplayTriggered { port, vc } => {
                line.text(b",\"port\":", dir_name(port));
                line.num(b",\"vc\":", vc.into());
            }
            TraceEvent::ProbeLaunched { origin, port, vc } => {
                line.num(b",\"origin\":", origin.into());
                line.text(b",\"port\":", dir_name(port));
                line.num(b",\"vc\":", vc.into());
            }
            TraceEvent::ProbeDiscarded { origin } | TraceEvent::DeadlockConfirmed { origin } => {
                line.num(b",\"origin\":", origin.into());
            }
            TraceEvent::RecoveryStarted | TraceEvent::RecoveryEnded => {}
            TraceEvent::AcFlagged { stage, removed } => {
                line.text(b",\"stage\":", stage.as_str());
                line.num(b",\"removed\":", removed.into());
            }
            TraceEvent::PacketEjected { packet, latency } => {
                line.num(b",\"packet\":", packet);
                line.num(b",\"latency\":", latency);
            }
            TraceEvent::Misdelivered { packet } => line.num(b",\"packet\":", packet),
            TraceEvent::RouterKilled { lost } => line.num(b",\"lost\":", lost),
            TraceEvent::LinkWoreOut { port } => line.text(b",\"port\":", dir_name(port)),
        }
        line.put(b"}");
        out.extend_from_slice(line.as_bytes());
    }

    /// This record as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut bytes = Vec::with_capacity(128);
        self.write_json(&mut bytes);
        ascii_string(bytes)
    }
}

/// One record's bytes, built on the stack. Copying each piece into a
/// fixed array and appending the line to the output once is faster than
/// appending every piece to the `Vec`, which re-checks its capacity and
/// re-stores its length per piece. The per-piece methods are `#[inline]`
/// so that each call folds into `write_json`; left to the compiler's
/// judgement they stay calls, and the line costs as much as the `Vec`.
struct Line {
    bytes: [u8; Line::CAPACITY],
    len: usize,
}

impl Line {
    /// Room for the longest record: a `flit_dropped` with every integer
    /// at its type's maximum, an `"invalid"` port and `"router_dead"` is
    /// 145 bytes.
    const CAPACITY: usize = 160;

    fn new() -> Self {
        Line {
            bytes: [0; Line::CAPACITY],
            len: 0,
        }
    }

    fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len]
    }

    #[inline]
    fn put(&mut self, piece: &[u8]) {
        let end = self.len + piece.len();
        self.bytes[self.len..end].copy_from_slice(piece);
        self.len = end;
    }

    /// `key` (which carries its leading comma or brace, the quoted name
    /// and the colon), then `v` in decimal.
    #[inline]
    fn num(&mut self, key: &[u8], v: u64) {
        self.put(key);
        self.decimal(v);
    }

    /// `key`, then `value` as a JSON string. Every value this crate
    /// writes is a fixed identifier, so nothing needs escaping.
    #[inline]
    fn text(&mut self, key: &[u8], value: &str) {
        self.put(key);
        self.put(b"\"");
        self.put(value.as_bytes());
        self.put(b"\"");
    }

    /// `v` as decimal digits, written right to left into their final
    /// place. Most fields (sequence numbers, VCs) are one digit.
    #[inline]
    fn decimal(&mut self, mut v: u64) {
        if v < 10 {
            self.put(&[b'0' + v as u8]);
            return;
        }
        let end = self.len + v.ilog10() as usize + 1;
        for digit in self.bytes[self.len..end].iter_mut().rev() {
            *digit = b'0' + (v % 10) as u8;
            v /= 10;
        }
        self.len = end;
    }
}

/// `records` as JSON Lines, one encoder pass and one conversion to
/// `String` for the lot.
pub(crate) fn jsonl<'a>(records: impl ExactSizeIterator<Item = &'a TraceRecord>) -> String {
    let mut out = Vec::with_capacity(records.len() * 96);
    for rec in records {
        rec.write_json(&mut out);
        out.push(b'\n');
    }
    ascii_string(out)
}

/// The encoder's output as a `String`. It writes only ASCII, so the
/// conversion cannot fail.
fn ascii_string(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).expect("the trace encoder writes only ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    /// The writer as it was before records became bytes: `write!` calls
    /// into `core::fmt`. The property test below holds the byte encoder
    /// to it.
    fn reference_json(rec: &TraceRecord) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"cycle\":{},\"node\":{},\"kind\":\"{}\"",
            rec.cycle,
            rec.node,
            rec.event.kind()
        );
        match rec.event {
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
        out
    }

    /// splitmix64: a few lines of seeded randomness for a crate with no
    /// dependencies.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A value up to `max` drawn from the digit-count edges (0, 9,
        /// 10, 99, 100, 10^k ± 1, `max`) or, one time in four, uniformly.
        fn edge(&mut self, max: u64) -> u64 {
            if self.below(4) == 0 {
                return self.next() % max.saturating_add(1);
            }
            let v = match self.below(5) {
                0 => 0,
                1 => max,
                k => {
                    let pow = 10u64.pow(self.below(20) as u32);
                    match k {
                        2 => pow - 1,
                        3 => pow,
                        _ => pow + 1,
                    }
                }
            };
            v.min(max)
        }

        fn u8(&mut self) -> u8 {
            self.edge(u8::MAX.into()) as u8
        }

        fn u16(&mut self) -> u16 {
            self.edge(u16::MAX.into()) as u16
        }

        /// A port index over 0..=255: the five named ports and every
        /// index that prints as `"invalid"`.
        fn port(&mut self) -> u8 {
            if self.below(2) == 0 {
                self.below(6) as u8
            } else {
                self.below(256) as u8
            }
        }
    }

    const REASONS: [DropReason; 4] = [
        DropReason::Corrupt,
        DropReason::Stranded,
        DropReason::RouterDead,
        DropReason::Overflow,
    ];
    const STAGES: [AcStage; 3] = [AcStage::Va, AcStage::Sa, AcStage::Rt];

    fn random_event(rng: &mut SplitMix, variant: u64) -> TraceEvent {
        match variant {
            0 => TraceEvent::PacketInjected {
                packet: rng.edge(u64::MAX),
                src: rng.u16(),
                dest: rng.u16(),
            },
            1 => TraceEvent::FlitSent {
                packet: rng.edge(u64::MAX),
                seq: rng.u8(),
                port: rng.port(),
                vc: rng.u8(),
                replay: rng.below(2) == 1,
            },
            2 => TraceEvent::FlitReceived {
                packet: rng.edge(u64::MAX),
                seq: rng.u8(),
                port: rng.port(),
                vc: rng.u8(),
            },
            3 => TraceEvent::FlitDropped {
                packet: rng.edge(u64::MAX),
                seq: rng.u8(),
                port: rng.port(),
                reason: REASONS[rng.below(4) as usize],
            },
            4 => TraceEvent::NackSent {
                port: rng.port(),
                vc: rng.u8(),
            },
            5 => TraceEvent::ReplayTriggered {
                port: rng.port(),
                vc: rng.u8(),
            },
            6 => TraceEvent::ProbeLaunched {
                origin: rng.u16(),
                port: rng.port(),
                vc: rng.u8(),
            },
            7 => TraceEvent::ProbeDiscarded { origin: rng.u16() },
            8 => TraceEvent::DeadlockConfirmed { origin: rng.u16() },
            9 => TraceEvent::RecoveryStarted,
            10 => TraceEvent::RecoveryEnded,
            11 => TraceEvent::AcFlagged {
                stage: STAGES[rng.below(3) as usize],
                removed: rng.edge(u32::MAX.into()) as u32,
            },
            12 => TraceEvent::PacketEjected {
                packet: rng.edge(u64::MAX),
                latency: rng.edge(u64::MAX),
            },
            13 => TraceEvent::Misdelivered {
                packet: rng.edge(u64::MAX),
            },
            14 => TraceEvent::RouterKilled {
                lost: rng.edge(u64::MAX),
            },
            _ => TraceEvent::LinkWoreOut { port: rng.port() },
        }
    }

    /// The byte encoder writes exactly what the `core::fmt` reference
    /// writes, over every variant, drop reason and AC stage, with each
    /// integer drawn from the edges where its digit count changes.
    #[test]
    fn byte_encoder_matches_the_fmt_reference() {
        let mut rng = SplitMix(0x7ACE);
        let mut line = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..120_000u64 {
            let rec = TraceRecord {
                cycle: rng.edge(u64::MAX),
                node: rng.u16(),
                event: random_event(&mut rng, i % 16),
            };
            seen.insert(rec.event.kind());
            match rec.event {
                TraceEvent::FlitDropped { reason, .. } => seen.insert(reason.as_str()),
                TraceEvent::AcFlagged { stage, .. } => seen.insert(stage.as_str()),
                _ => false,
            };
            line.clear();
            rec.write_json(&mut line);
            assert_eq!(
                std::str::from_utf8(&line).unwrap(),
                reference_json(&rec),
                "record {i}: {rec:?}"
            );
        }
        assert_eq!(
            seen.len(),
            16 + 4 + 3,
            "every variant, reason and stage was drawn"
        );
    }

    #[test]
    fn the_longest_record_fits_the_line() {
        let rec = TraceRecord {
            cycle: u64::MAX,
            node: u16::MAX,
            event: TraceEvent::FlitDropped {
                packet: u64::MAX,
                seq: u8::MAX,
                port: u8::MAX,
                reason: DropReason::RouterDead,
            },
        };
        let len = rec.to_json().len();
        assert_eq!(len, 145);
        assert!(len <= Line::CAPACITY);
    }

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
