//! Per-packet lifecycle spans: fold a stream of [`TraceRecord`]s into
//! one span per delivered packet (injection → per-hop → ejection) with
//! the end-to-end latency attributed to queueing, serialization,
//! pipeline and replay-stall components.

use std::collections::HashMap;

use crate::event::{TraceEvent, TraceRecord};

/// Where a packet's end-to-end latency went, in cycles.
///
/// The components sum to the measured latency: `pipeline` and
/// `serialization` are the congestion-free floor, `replay_stall` is time
/// lost to hop-by-hop retransmissions, and `queueing` absorbs the
/// residual (arbitration losses, credit stalls, blocked wormholes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyBreakdown {
    /// Router pipeline + link traversal at every hop.
    pub pipeline: u64,
    /// Extra cycles for the body to follow the head (`flits − 1`).
    pub(crate) serialization: u64,
    /// Barrel-shifter replay windows (3 cycles per replay, §3.1).
    pub(crate) replay_stall: u64,
    /// Everything else: VC/switch arbitration, credit stalls, blocking.
    pub(crate) queueing: u64,
}

impl LatencyBreakdown {
    /// The components summed back together.
    pub fn total(&self) -> u64 {
        self.pipeline + self.serialization + self.replay_stall + self.queueing
    }
}

/// The reconstructed lifecycle of one delivered packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketSpan {
    /// Packet id.
    pub packet: u64,
    /// Source node.
    pub src: u16,
    /// Destination node (as routed; equals the header destination except
    /// on misdelivery).
    pub dest: u16,
    /// Injection cycle.
    pub injected_at: u64,
    /// Ejection cycle.
    pub ejected_at: u64,
    /// Router-to-router hops traversed.
    pub hops: u32,
    /// Flits in the packet.
    pub flits: u32,
    /// Hop-by-hop replays that hit this packet's flits.
    pub(crate) replays: u32,
    /// Latency attribution.
    pub breakdown: LatencyBreakdown,
}

#[derive(Debug, Default)]
struct OpenSpan {
    src: u16,
    injected_at: u64,
    hops: u32,
    max_seq: u8,
    replays: u32,
}

/// Streams [`TraceRecord`]s and assembles [`PacketSpan`]s.
///
/// Feed every record (order within a cycle is irrelevant; cycles must be
/// non-decreasing per packet, which the simulator guarantees) and call
/// [`SpanCollector::finish`] for the completed spans.
#[derive(Debug)]
pub struct SpanCollector {
    pipeline_depth: u64,
    open: HashMap<u64, OpenSpan>,
    done: Vec<PacketSpan>,
}

impl SpanCollector {
    /// A collector for runs simulated with the given router pipeline
    /// depth (cycles per hop, used for the `pipeline` attribution).
    pub fn new(pipeline_depth: u64) -> Self {
        SpanCollector {
            pipeline_depth,
            open: HashMap::new(),
            done: Vec::new(),
        }
    }

    /// Consumes one record.
    pub fn observe(&mut self, rec: &TraceRecord) {
        match rec.event {
            TraceEvent::PacketInjected { packet, src, .. } => {
                self.open.entry(packet).or_insert_with(|| OpenSpan {
                    src,
                    injected_at: rec.cycle,
                    ..OpenSpan::default()
                });
            }
            TraceEvent::FlitReceived { packet, seq, .. } => {
                if let Some(span) = self.open.get_mut(&packet) {
                    if seq == 0 {
                        span.hops += 1;
                    }
                    span.max_seq = span.max_seq.max(seq);
                }
            }
            TraceEvent::FlitSent {
                packet,
                seq,
                replay,
                ..
            } => {
                if let Some(span) = self.open.get_mut(&packet) {
                    span.max_seq = span.max_seq.max(seq);
                    if replay {
                        span.replays += 1;
                    }
                }
            }
            TraceEvent::PacketEjected { packet, latency } => {
                if let Some(span) = self.open.remove(&packet) {
                    self.done
                        .push(self.close(packet, span, rec, latency, rec.node));
                }
            }
            TraceEvent::Misdelivered { packet } => {
                if let Some(span) = self.open.remove(&packet) {
                    let latency = rec.cycle.saturating_sub(span.injected_at);
                    self.done
                        .push(self.close(packet, span, rec, latency, rec.node));
                }
            }
            _ => {}
        }
    }

    fn close(
        &self,
        packet: u64,
        span: OpenSpan,
        rec: &TraceRecord,
        latency: u64,
        dest: u16,
    ) -> PacketSpan {
        let flits = u32::from(span.max_seq) + 1;
        // Congestion-free floor: each of the hops+1 routers costs a full
        // pipeline, each of the hops links costs one cycle.
        let pipeline = (u64::from(span.hops) + 1) * self.pipeline_depth + u64::from(span.hops);
        let serialization = u64::from(flits) - 1;
        let replay_stall = 3 * u64::from(span.replays);
        let floor = pipeline + serialization + replay_stall;
        let queueing = latency.saturating_sub(floor);
        // When the measured latency is below the nominal floor (e.g. a
        // packet ejected during recovery bookkeeping), scale nothing —
        // report zero queueing and leave the floor components as-is; the
        // sum invariant is then only `>= latency`, which finish() keeps.
        PacketSpan {
            packet,
            src: span.src,
            dest,
            injected_at: span.injected_at,
            ejected_at: rec.cycle,
            hops: span.hops,
            flits,
            replays: span.replays,
            breakdown: LatencyBreakdown {
                pipeline,
                serialization,
                replay_stall,
                queueing,
            },
        }
    }

    /// The completed spans, in ejection order.
    pub fn finish(self) -> Vec<PacketSpan> {
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(cycle: u64, node: u16, event: TraceEvent) -> TraceRecord {
        TraceRecord { cycle, node, event }
    }

    /// A clean two-hop, four-flit journey decomposes exactly.
    #[test]
    fn clean_span_attribution() {
        let mut sc = SpanCollector::new(3);
        let pkt = 7u64;
        sc.observe(&rec(
            10,
            0,
            TraceEvent::PacketInjected {
                packet: pkt,
                src: 0,
                dest: 2,
            },
        ));
        for (cycle, node) in [(14u64, 1u16), (18, 2)] {
            for seq in 0..4u8 {
                sc.observe(&rec(
                    cycle + u64::from(seq),
                    node,
                    TraceEvent::FlitReceived {
                        packet: pkt,
                        seq,
                        port: 3,
                        vc: 0,
                    },
                ));
            }
        }
        sc.observe(&rec(
            25,
            2,
            TraceEvent::PacketEjected {
                packet: pkt,
                latency: 15,
            },
        ));
        let spans = sc.finish();
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!((s.packet, s.src, s.dest), (7, 0, 2));
        assert_eq!((s.injected_at, s.ejected_at), (10, 25));
        assert_eq!((s.hops, s.flits, s.replays), (2, 4, 0));
        // pipeline = 3 routers * 3 stages + 2 links = 11; serialization 3.
        assert_eq!(s.breakdown.pipeline, 11);
        assert_eq!(s.breakdown.serialization, 3);
        assert_eq!(s.breakdown.replay_stall, 0);
        assert_eq!(s.breakdown.queueing, 1);
        assert_eq!(s.breakdown.total(), 15);
    }

    /// Replayed sends add 3-cycle stalls to the attribution.
    #[test]
    fn replays_are_attributed() {
        let mut sc = SpanCollector::new(2);
        sc.observe(&rec(
            0,
            0,
            TraceEvent::PacketInjected {
                packet: 1,
                src: 0,
                dest: 1,
            },
        ));
        sc.observe(&rec(
            5,
            0,
            TraceEvent::FlitSent {
                packet: 1,
                seq: 0,
                port: 1,
                vc: 0,
                replay: true,
            },
        ));
        sc.observe(&rec(
            6,
            1,
            TraceEvent::FlitReceived {
                packet: 1,
                seq: 0,
                port: 3,
                vc: 0,
            },
        ));
        sc.observe(&rec(
            12,
            1,
            TraceEvent::PacketEjected {
                packet: 1,
                latency: 12,
            },
        ));
        let spans = sc.finish();
        assert_eq!(spans[0].replays, 1);
        assert_eq!(spans[0].breakdown.replay_stall, 3);
        assert_eq!(spans[0].breakdown.total(), 12);
    }

    /// Unknown packets and unmatched ejections are ignored gracefully.
    #[test]
    fn unmatched_events_are_ignored() {
        let mut sc = SpanCollector::new(3);
        sc.observe(&rec(
            4,
            1,
            TraceEvent::PacketEjected {
                packet: 99,
                latency: 4,
            },
        ));
        sc.observe(&rec(
            4,
            1,
            TraceEvent::FlitReceived {
                packet: 99,
                seq: 0,
                port: 0,
                vc: 0,
            },
        ));
        assert_eq!(sc.open.len(), 0);
        assert!(sc.finish().is_empty());
    }
}
