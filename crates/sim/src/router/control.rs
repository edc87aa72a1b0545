//! Control: packet bring-up — route computation at the current node,
//! with the §4.2 routing-unit upsets — online re-routing after a fault
//! publication, and §3.2.1 deadlock-recovery absorption.

use ftnoc_trace::{AcStage, DropReason, TraceEvent};
use ftnoc_types::flit::{Flit, PackedFields};
use ftnoc_types::geom::{DirSet, Direction, NodeId};

use super::ports::VcState;
use super::{Ctx, Router};
use crate::arbiter::ones;
use crate::config::{ErrorScheme, RoutingAlgorithm};
use crate::routing::{route_candidates, xy_minimal_progress};

impl Router {
    /// The destination field a router actually routes on (and ejection
    /// compares against): schemes without per-hop checking latch it from
    /// the raw (possibly corrupted) word.
    pub(crate) fn routed_dest(scheme: ErrorScheme, flit: &Flit) -> NodeId {
        match scheme {
            ErrorScheme::Hbh | ErrorScheme::Fec => flit.header.dest,
            ErrorScheme::E2e | ErrorScheme::Unprotected => {
                PackedFields::unpack(flit.payload.data()).dest
            }
        }
    }

    /// Packet bring-up and deadlock-recovery absorption.
    pub(super) fn control_phase(&mut self, ctx: &Ctx<'_>) {
        let epoch = ctx.faults.epoch_at(ctx.now);
        if epoch != self.seen_epoch {
            self.seen_epoch = epoch;
            self.reroute_waiting(ctx);
        }
        if self.inputs.iter().any(|input| input.fresh() != 0) {
            self.bring_up(ctx);
        }
        if self.probe.in_recovery() {
            self.recovery_absorb(ctx);
        }
    }

    /// Route computation for every fresh head, with the §4.2 upsets;
    /// a fresh body flit is stranded and discarded.
    fn bring_up(&mut self, ctx: &Ctx<'_>) {
        let ports = self.cfg.ports();
        let (topo, pipeline) = (ctx.config.topology, ctx.config.router.pipeline());
        let timing = pipeline.timing();
        for p in 0..ports {
            for v in ones(self.inputs[p].fresh()) {
                let front = *self.inputs[p].buffer.front(v).expect("nonempty VC");
                if !front.kind.is_head() {
                    // Stranded flit: no wormhole to follow (possible only
                    // under corruption without full protection). Discard.
                    self.inputs[p].buffer.pop(v);
                    self.errors.stranded_flits += 1;
                    self.trace.emit(|| TraceEvent::FlitDropped {
                        packet: front.packet.raw(),
                        seq: front.seq,
                        port: p as u8,
                        reason: DropReason::Stranded,
                    });
                    if p < 4 {
                        self.freed_credits.push((Direction::for_port(p), v as u8));
                    }
                    continue;
                }
                // Route computation at the current node in the arrival
                // cycle, plus `rc_extra` where RT is a stage of its own.
                let dest = Self::routed_dest(ctx.config.scheme, &front);
                let mut candidates = self.route(ctx, p, dest);
                let mut ready_at = ctx.now + timing.rc_extra + 1;

                // §4.2: routing-unit soft error.
                let rt_before = self.errors.rt_corrected;
                if self.fi.rt_upset() && !candidates.is_empty() {
                    let correct = candidates[0].index();
                    let wrong_port = self.fi.corrupt_choice(correct, ports);
                    let wrong = Direction::for_port(wrong_port);
                    let link_missing = wrong != Direction::Local
                        && !self.outputs[wrong_port].exists
                        || ctx.faults.link_dead_now(ctx.now, self.id, wrong);
                    // Ejecting through any local port is benign only when
                    // the routed destination is a terminal attached to
                    // this router (out-of-range destinations are never).
                    let wrong_ejection = wrong == Direction::Local
                        && !(dest.index() < topo.terminal_count()
                            && topo.router_of_terminal(dest) == self.id);
                    if link_missing || wrong_ejection {
                        // Caught by the VA's link-state knowledge: re-route.
                        ready_at += timing.rt_blocked;
                        self.errors.rt_corrected += 1;
                        self.events.route += 1;
                    } else if ctx.config.routing == RoutingAlgorithm::FullyAdaptive
                        && wrong != Direction::Local
                    {
                        // Adaptive routing absorbs the detour (§4.2): the
                        // packet really goes the wrong way and re-routes
                        // minimally from there. Undetected by design.
                        candidates = DirSet::from_iter([wrong]);
                    } else if wrong != Direction::Local {
                        // Deterministic (or turn-model) routing: the next
                        // router detects the illegal move and NACKs; the
                        // header is still in this router's retransmission
                        // buffer, so recovery costs 1 + n cycles. Modelled
                        // as a stall + corrected route (the misdirected
                        // transmission and its NACK are charged).
                        debug_assert!(
                            !xy_minimal_progress(
                                topo,
                                topo.neighbor_id(self.id, wrong).unwrap_or(self.id),
                                wrong.opposite(),
                                dest
                            ) || ctx.config.routing != RoutingAlgorithm::XyDeterministic
                                || dest == self.id
                        );
                        ready_at += 1 + u64::from(pipeline.stages());
                        self.errors.rt_corrected += 1;
                        self.events.link += 2; // wrong-way hop + NACK path
                        self.events.nack += 1;
                        self.events.route += 1;
                    } else {
                        // `wrong == Local` at the destination: benign.
                        self.errors.rt_corrected += 1;
                    }
                }
                if self.errors.rt_corrected > rt_before {
                    let removed = (self.errors.rt_corrected - rt_before) as u32;
                    self.trace.emit(|| TraceEvent::AcFlagged {
                        stage: AcStage::Rt,
                        removed,
                    });
                }

                self.inputs[p].set(
                    v,
                    VcState::VaWait {
                        candidates,
                        ready_at,
                    },
                );
            }
        }
    }

    /// Route computation for a head that arrived through input port `p`
    /// and routes on `dest`: the routing function's answer, counted.
    fn route(&mut self, ctx: &Ctx<'_>, p: usize, dest: NodeId) -> DirSet {
        self.events.route += 1;
        route_candidates(
            ctx.config.routing,
            ctx.config.topology,
            self.id,
            Direction::for_port(p),
            dest,
            ctx.faults,
            ctx.now,
        )
    }

    /// Online reconfiguration: a new fault epoch was published, so every
    /// head still waiting for VC allocation recomputes its candidates
    /// against the new routing plan (its old list may steer into the
    /// enlarged fault set, or a previously-empty list may now have legal
    /// continuations). RNG-free and a no-op when nothing is waiting, so
    /// static-fault runs are byte-identical with or without this pass.
    fn reroute_waiting(&mut self, ctx: &Ctx<'_>) {
        for p in 0..self.cfg.ports() {
            for v in ones(self.inputs[p].wait) {
                let VcState::VaWait { ready_at, .. } = self.inputs[p].vcs[v].state else {
                    unreachable!("`wait` names VaWait VCs");
                };
                let Some(front) = self.inputs[p].buffer.front(v).copied() else {
                    continue;
                };
                let dest = Self::routed_dest(ctx.config.scheme, &front);
                let candidates = self.route(ctx, p, dest);
                self.inputs[p].set(
                    v,
                    VcState::VaWait {
                        candidates,
                        ready_at,
                    },
                );
            }
        }
    }

    /// Blocking level at which recovery absorbs a VC (and below which a
    /// recovering node considers its deadlock resolved).
    pub(super) fn stuck_threshold(&self, ctx: &Ctx<'_>) -> u64 {
        (ctx.config.deadlock.cthres / 4).max(2)
    }

    /// §3.2.1: move blocked flits from transmission buffers into idle
    /// retransmission slots, freeing space (and upstream credits).
    fn recovery_absorb(&mut self, ctx: &Ctx<'_>) {
        let ports = self.cfg.ports();
        let vcs = self.cfg.vcs_per_port();
        let stuck = self.stuck_threshold(ctx);

        // A head stuck in VC allocation may take over an output VC whose
        // previous owner was fully absorbed and is merely draining held
        // flits (a stale reservation): the new packet's flits simply
        // queue behind the old packet's in the same barrel shifter, so
        // stream order per VC is preserved. This is the input-buffered
        // analogue of the paper's "move flits into the retransmission
        // buffer to create space": without it, rings of stale
        // reservations and waiting heads stay wedged forever.
        for p in 0..ports {
            for v in ones(self.inputs[p].wait & self.inputs[p].blocked) {
                if self.blocked_cycles(p, v) < stuck {
                    continue;
                }
                let VcState::VaWait { candidates, .. } = self.inputs[p].vcs[v].state else {
                    unreachable!("`wait` names VaWait VCs");
                };
                let mut takeover = None;
                'search: for cand in candidates {
                    if cand == Direction::Local {
                        continue;
                    }
                    let op = cand.index();
                    if !self.outputs[op].exists || ctx.faults.link_dead_now(ctx.now, self.id, cand)
                    {
                        continue;
                    }
                    for ov in 0..vcs {
                        let stale = match self.outputs[op].allocated[ov] {
                            Some((ip, iv)) => !self.owns(ip, iv, op, ov),
                            None => true,
                        };
                        if stale {
                            takeover = Some((op, ov));
                            break 'search;
                        }
                    }
                }
                if let Some((op, ov)) = takeover {
                    self.reserve(op, ov, Some((p, v)));
                    self.outputs[op].allocated_at[ov] = ctx.now;
                    let packet = self.inputs[p].buffer.front(v).expect("VaWait head").packet;
                    self.inputs[p].set(
                        v,
                        VcState::Active {
                            out_port: op,
                            out_vc: ov,
                            sa_ready_at: ctx.now + 1,
                            packet,
                        },
                    );
                    self.events.va += 1;
                }
            }
        }

        for p in 0..ports {
            for v in ones(self.inputs[p].active & self.inputs[p].blocked) {
                let (op, ov) = match self.inputs[p].vcs[v].state {
                    VcState::Active {
                        out_port, out_vc, ..
                    } if self.blocked_cycles(p, v) >= stuck && out_vc < vcs => (out_port, out_vc),
                    _ => continue,
                };
                if op >= 4 {
                    continue;
                }
                // A switch-granted flit of this VC may still be queued for
                // traversal; absorbing now would overtake it and reorder
                // the stream. Wait until the queue drains.
                if self.outputs[op]
                    .st_queue
                    .iter()
                    .any(|e| e.out_vc as usize == ov)
                {
                    continue;
                }
                while !self.outputs[op].retrans[ov].is_full() {
                    let Some(front) = self.inputs[p].buffer.front(v).copied() else {
                        break;
                    };
                    let flit = self.inputs[p].buffer.pop(v).expect("front exists");
                    let absorbed = self.outputs[op].retrans[ov].absorb(flit);
                    debug_assert!(absorbed);
                    self.outputs[op].sync(ov);
                    self.inputs[p].progressed |= 1 << v;
                    self.events.retrans_shift += 1;
                    if p < 4 {
                        self.freed_credits.push((Direction::for_port(p), v as u8));
                    }
                    if front.kind.is_tail() {
                        // Whole packet absorbed; the input VC is free. The
                        // output VC stays reserved until the tail is sent.
                        self.inputs[p].set(v, VcState::Idle);
                        break;
                    }
                }
            }
        }
    }
}
