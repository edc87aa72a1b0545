//! Single-router micro-tests: drive one router's phases by hand and pin
//! pipeline timing, credit flow and wormhole exclusivity.

use ftnoc_core::hbh::ReceiverVerdict;
use ftnoc_ecc::protect_flit;
use ftnoc_fault::FaultRates;
use ftnoc_sim::router::{Ctx, LinkDrive, Router};
use ftnoc_sim::routing::FaultState;
use ftnoc_sim::snapshot::{RouterSnapshot, VcStateView};
use ftnoc_sim::{ErrorScheme, SimConfig};
use ftnoc_types::flit::FlitKind;
use ftnoc_types::geom::{Direction, NodeId, Topology};
use ftnoc_types::packet::PacketId;
use ftnoc_types::{Flit, Header};

/// A single-router bench: node 9 of the 8×8 mesh (all four links exist).
struct Harness {
    router: Router,
    config: SimConfig,
    faults: FaultState,
    now: u64,
}

impl Harness {
    fn new() -> Self {
        Harness::with_config(SimConfig::builder().build().expect("valid config"))
    }

    fn with_config(config: SimConfig) -> Self {
        Harness {
            router: Router::new(NodeId::new(9), &config, [true; 4]),
            faults: FaultState::fault_free(Topology::mesh(8, 8)),
            config,
            now: 0,
        }
    }

    fn step(&mut self) -> Vec<LinkDrive> {
        let ctx = Ctx {
            config: &self.config,
            topo: Topology::mesh(8, 8),
            now: self.now,
            faults: &self.faults,
        };
        self.router.begin_cycle(self.now);
        self.router.control_phase(&ctx);
        self.router.va_phase(&ctx, [false; 4]);
        self.router.sa_phase(&ctx);
        self.router.st_phase(&ctx);
        let _ = self.router.end_cycle(&ctx);
        self.now += 1;
        self.router.drives.clone()
    }
}

fn flit(packet: u64, seq: u8, len: u8, dest: u16) -> Flit {
    let kind = if len == 1 {
        FlitKind::Single
    } else if seq == 0 {
        FlitKind::Head
    } else if seq == len - 1 {
        FlitKind::Tail
    } else {
        FlitKind::Body
    };
    let mut f = Flit::new(
        PacketId::new(packet),
        seq,
        kind,
        Header::new(NodeId::new(9), NodeId::new(dest)),
        seq as u16,
        0,
    );
    protect_flit(&mut f);
    f
}

/// 3-stage pipeline timing: a head injected at cycle 0 is VC-allocated
/// at 1, switch-allocated at 2 and drives the link at cycle 3.
#[test]
fn head_flit_drives_link_at_cycle_three() {
    let mut h = Harness::new();
    // Node 9 = (1,1); dest node 14 = (6,1): XY says East.
    h.router.inject_local(4, 0, flit(1, 0, 4, 14));
    for now in 0..3 {
        let drives = h.step();
        assert!(drives.is_empty(), "premature drive at cycle {now}");
    }
    let drives = h.step(); // cycle 3
    assert_eq!(drives.len(), 1);
    assert_eq!(drives[0].dir, Direction::East);
    assert_eq!(drives[0].flit.seq, 0);
    assert!(!drives[0].is_replay);
}

/// Body flits stream one per cycle behind the head.
#[test]
fn packet_streams_one_flit_per_cycle() {
    let mut h = Harness::new();
    for seq in 0..4 {
        h.router.inject_local(4, 0, flit(1, seq, 4, 14));
    }
    let mut sent = Vec::new();
    for _ in 0..10 {
        for d in h.step() {
            sent.push((d.flit.seq, h.now - 1));
        }
    }
    assert_eq!(
        sent,
        vec![(0, 3), (1, 4), (2, 5), (3, 6)],
        "flits must stream back to back after the 3-cycle ramp"
    );
}

/// Credit exhaustion stalls the stream: the downstream buffer depth (4)
/// bounds in-flight flits until credits return.
#[test]
fn credit_exhaustion_stalls_at_buffer_depth() {
    let mut h = Harness::new();
    let mut queued = 0u8;
    let mut sent = 0;
    let mut out_vc = None;
    for _ in 0..16 {
        // Feed the 6-flit packet in as local buffer space allows.
        while queued < 6 && h.router.local_free_slots(4, 0) > 0 {
            h.router.inject_local(4, 0, flit(1, queued, 6, 14));
            queued += 1;
        }
        for d in h.step() {
            out_vc = Some(d.vc);
            sent += 1;
        }
    }
    assert_eq!(sent, 4, "exactly buffer-depth flits may be in flight");
    // Return two credits on the wire VC: two more flits flow.
    let vc = out_vc.expect("a flit was driven");
    h.router.handle_credit(Direction::East, vc);
    h.router.handle_credit(Direction::East, vc);
    let mut more = 0;
    for _ in 0..8 {
        while queued < 6 && h.router.local_free_slots(4, 0) > 0 {
            h.router.inject_local(4, 0, flit(1, queued, 6, 14));
            queued += 1;
        }
        more += h.step().len();
    }
    assert_eq!(more, 2);
}

/// Two packets contending for one output port interleave across VCs on
/// the link but never share a VC mid-wormhole.
#[test]
fn wormholes_never_share_a_vc() {
    let mut h = Harness::new();
    // Both packets go East (dest 14), injected on different local VCs.
    for seq in 0..4 {
        h.router.inject_local(4, 0, flit(1, seq, 4, 14));
        h.router.inject_local(4, 1, flit(2, seq, 4, 14));
    }
    let mut per_vc: std::collections::BTreeMap<u8, Vec<u64>> = std::collections::BTreeMap::new();
    for _ in 0..30 {
        for d in h.step() {
            per_vc.entry(d.vc).or_default().push(d.flit.packet.raw());
        }
    }
    // Each output VC carried exactly one packet id (possibly repeated).
    for (vc, packets) in &per_vc {
        let first = packets[0];
        assert!(
            packets.iter().all(|&p| p == first),
            "VC {vc} interleaved packets {packets:?}"
        );
    }
    // And both packets got through in full.
    let total: usize = per_vc.values().map(|v| v.len()).sum();
    assert_eq!(total, 8);
}

/// After a tail passes, the output VC is released and a new packet can
/// claim it.
#[test]
fn tail_releases_output_vc() {
    let mut h = Harness::new();
    for seq in 0..4 {
        h.router.inject_local(4, 0, flit(1, seq, 4, 14));
    }
    for _ in 0..10 {
        h.step();
    }
    // Second packet on the same local VC reuses the path.
    for seq in 0..4 {
        h.router.inject_local(4, 0, flit(2, seq, 4, 14));
    }
    // Return credits on every VC so it can flow wherever allocated.
    for vc in 0..3 {
        for _ in 0..4 {
            h.router.handle_credit(Direction::East, vc);
        }
    }
    let mut sent = 0;
    for _ in 0..12 {
        sent += h.step().len();
    }
    assert_eq!(sent, 4, "second packet must flow after the first released");
}

/// A NACK triggers replay with priority over new traffic, and replayed
/// drives are marked as such.
#[test]
fn nack_replay_preempts_new_traffic() {
    let mut h = Harness::new();
    for seq in 0..4 {
        h.router.inject_local(4, 0, flit(1, seq, 4, 14));
    }
    // Let the head and one body go out (cycles 3 and 4).
    let mut out_vc = None;
    for _ in 0..5 {
        for d in h.step() {
            out_vc = Some(d.vc);
        }
    }
    // NACK for the stream's VC arrives before cycle 5's expiry.
    h.router
        .handle_nack(Direction::East, out_vc.expect("flits were driven"), h.now);
    let drives = h.step();
    assert_eq!(drives.len(), 1);
    assert!(drives[0].is_replay, "replay must win the link");
    assert_eq!(drives[0].flit.seq, 0, "oldest window flit first");
    assert_eq!(drives[0].flit.retransmissions, 1);
}

/// FEC arrival (§3 / Figure 5): a single-bit upset is corrected at the
/// hop and counted; an uncorrectable word is buffered as it came — no
/// drop, no NACK — for the destination to reject.
#[test]
fn fec_arrival_corrects_single_flips_and_passes_double_flips() {
    let mut b = SimConfig::builder();
    b.scheme(ErrorScheme::Fec);
    let mut h = Harness::with_config(b.build().expect("valid config"));
    let ctx = Ctx {
        config: &h.config,
        topo: Topology::mesh(8, 8),
        now: 0,
        faults: &h.faults,
    };
    let (head, body) = (flit(1, 0, 4, 14), flit(1, 1, 4, 14));
    let (mut one_flip, mut two_flips) = (head, body);
    one_flip.payload.flip_bit(9);
    two_flips.payload.flip_bit(2);
    two_flips.payload.flip_bit(9);

    let verdict = h.router.accept_flit(&ctx, Direction::West, 0, one_flip);
    assert_eq!(verdict, ReceiverVerdict::AcceptCorrected);
    assert_eq!(h.router.errors.link_corrected_inline, 1);
    let verdict = h.router.accept_flit(&ctx, Direction::West, 0, two_flips);
    assert_eq!(verdict, ReceiverVerdict::Accept);
    assert_eq!(h.router.errors.link_corrected_inline, 1);
    assert_eq!(h.router.errors.flits_dropped, 0);
    assert_eq!((h.router.events.ecc_check, h.router.events.nack), (2, 0));

    let mut snap = RouterSnapshot::default();
    h.router.snapshot_into(&mut snap);
    let buffered = &snap.inputs[Direction::West.index()][0].flits;
    assert_eq!(buffered.len(), 2);
    assert_eq!(buffered[0].payload, head.payload, "corrected in place");
    assert_eq!(buffered[1].payload.hamming_distance(body.payload), 2);
}

/// The ejection port delivers to the PE queue instead of a link.
#[test]
fn local_delivery_ejects() {
    let mut h = Harness::new();
    // Packet destined to this very node.
    for seq in 0..4 {
        h.router.inject_local(4, 0, flit(1, seq, 4, 9));
    }
    let mut ejected = 0;
    for _ in 0..12 {
        let drives = h.step();
        assert!(drives.is_empty(), "nothing must leave on a link");
        ejected += h.router.ejected.len();
    }
    assert_eq!(ejected, 4);
}

/// §4.3 with the AC off: a switch-allocator upset on every grant
/// suppresses or misroutes flits, yet every VC index the router's
/// snapshot exposes stays inside the configured range.
#[test]
fn sa_upsets_without_the_ac_keep_vc_indices_in_range() {
    let mut b = SimConfig::builder();
    b.faults(FaultRates {
        sa: 1.0,
        ..FaultRates::none()
    })
    .ac_enabled(false);
    let mut h = Harness::with_config(b.build().expect("valid config"));
    let (ports, vcs) = (h.config.router.ports(), h.config.router.vcs_per_port());
    let mut packet = 0;
    let mut granted = 0;
    let mut snap = RouterSnapshot::default();
    for _ in 0..200 {
        for v in 0..vcs {
            if h.router.local_vc_idle(4, v) {
                packet += 1;
                for seq in 0..4 {
                    h.router.inject_local(4, v, flit(packet, seq, 4, 14));
                }
            }
        }
        for d in h.step() {
            h.router.handle_credit(d.dir, d.vc);
        }
        h.router.snapshot_into(&mut snap);
        for ivc in snap.inputs.iter().flatten() {
            if let VcStateView::Active { out_port, out_vc } = ivc.state {
                assert!(out_port < ports && out_vc < vcs, "{:?}", ivc.state);
            }
        }
        for out in &snap.outputs {
            for (p, v) in out.vcs.iter().filter_map(|ovc| ovc.allocated) {
                assert!(p < ports && v < vcs, "reservation names input {p}.{v}");
            }
            for e in &out.st_queue {
                assert!(usize::from(e.out_vc) < vcs, "ST entry on VC {}", e.out_vc);
                granted += 1;
            }
        }
    }
    assert!(granted > 0, "some grant must survive to the ST queue");
}
