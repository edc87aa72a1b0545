//! Switch traversal: replays, then deadlock-recovery held flits, then
//! switch-granted flits cross the crossbar onto their links, with the
//! §4.4 crossbar upsets and link soft errors applied on the way out.

use ftnoc_trace::TraceEvent;
use ftnoc_types::flit::Flit;
use ftnoc_types::geom::Direction;

use super::{Ctx, LinkDrive, Router};
use crate::arbiter::ones;
use crate::config::ErrorScheme;

impl Router {
    /// Crossbar/link traversal: replays, then recovery held flits, then
    /// granted flits. Fills [`Router::drives`] with the link drives for
    /// the network's commit phase to carry (crossbar and link fault
    /// injection applied here, from this router's own fault stream).
    pub(super) fn st_phase(&mut self, ctx: &Ctx<'_>) {
        // No replay, held flit or granted flit on any output: nothing
        // crosses, nothing is drawn.
        if self
            .outputs
            .iter()
            .all(|out| (out.replaying | out.held) == 0 && out.st_queue.is_empty())
        {
            return;
        }
        for port in 0..self.cfg.ports() {
            let dir = Direction::for_port(port);
            if !self.outputs[port].exists {
                continue;
            }
            if dir != Direction::Local {
                // Priority 1: NACK-triggered replay. An empty request
                // would leave the arbiter as it is, so it is not made.
                let replay = match self.outputs[port].replaying {
                    0 => None,
                    req => self.replay_rr[port].grant(&[req]),
                };
                if let Some(v) = replay {
                    let out = &mut self.outputs[port];
                    let replayed = out.retrans[v].next_replay(ctx.now);
                    out.sync(v);
                    if let Some(flit) = replayed {
                        self.stamp(port, v, ctx.now);
                        self.events.retransmission += 1;
                        self.events.link += 1;
                        self.emit_drive(dir, flit, v as u8, true);
                    }
                    continue;
                }
                // Priority 2: deadlock-recovery held flits.
                let out = &self.outputs[port];
                let held = ones(out.held)
                    .filter(|&v| out.retrans[v].front_held().is_some() && out.credits.available(v))
                    .fold(0u64, |m, v| m | 1 << v);
                let send = match held {
                    0 => None,
                    req => self.replay_rr[port].grant(&[req]),
                };
                if let Some(v) = send {
                    // The sent flit keeps a protective copy exactly when a
                    // switch-allocated send would (priority 3 below).
                    let keep_copy = ctx.config.scheme == ErrorScheme::Hbh;
                    let out = &mut self.outputs[port];
                    let sent = out.retrans[v].send_held(ctx.now, keep_copy);
                    out.sync(v);
                    if let Some(flit) = sent {
                        if keep_copy {
                            self.stamp(port, v, ctx.now);
                        }
                        self.outputs[port].credits.consume(v);
                        if flit.kind.is_tail() {
                            // Release the reservation — unless a recovery
                            // takeover already handed this VC to a new
                            // packet that queued behind the departing one
                            // (its owner is Active on this VC and must
                            // keep it).
                            let reassigned = self.outputs[port].allocated[v]
                                .is_some_and(|(ip, iv)| self.owns(ip, iv, port, v));
                            if !reassigned {
                                self.reserve(port, v, None);
                            }
                        }
                        self.events.link += 1;
                        self.events.crossbar += 1;
                        self.emit_drive(dir, flit, v as u8, false);
                    }
                    continue;
                }
            }
            // Priority 3: the switch-allocated flit whose cycle has come.
            // Under HBH the protective copy needs a free window slot; a
            // recovery absorption may have filled it after the grant —
            // stall the entry until a slot expires.
            let due = self.outputs[port].st_queue.front().is_some_and(|e| {
                e.execute_at <= ctx.now
                    && (dir == Direction::Local
                        || ctx.config.scheme != ErrorScheme::Hbh
                        || !self.outputs[port].retrans[e.out_vc as usize].is_full())
            });
            if due {
                let entry = self.outputs[port].st_queue.pop_front().expect("due entry");
                self.events.crossbar += 1;
                if dir == Direction::Local {
                    self.ejected.push((entry.flit, port as u8));
                } else {
                    if ctx.config.scheme == ErrorScheme::Hbh {
                        let out = &mut self.outputs[port];
                        out.retrans[entry.out_vc as usize].record_transmission(entry.flit, ctx.now);
                        out.sync(entry.out_vc as usize);
                        self.stamp(port, entry.out_vc as usize, ctx.now);
                        self.events.retrans_shift += 1;
                    }
                    self.events.link += 1;
                    self.emit_drive(dir, entry.flit, entry.out_vc, false);
                }
            }
        }
    }

    /// Finalizes one outgoing flit on `(dir, vc)`: trace it, apply §4.4
    /// crossbar upsets and link soft errors from this router's fault
    /// stream, and queue the drive for the commit phase.
    fn emit_drive(&mut self, dir: Direction, mut flit: Flit, vc: u8, is_replay: bool) {
        self.trace.emit(|| TraceEvent::FlitSent {
            packet: flit.packet.raw(),
            seq: flit.seq,
            port: dir.index() as u8,
            vc,
            replay: is_replay,
        });
        // §4.4: crossbar single-bit upsets (corrected downstream).
        if self.fi.crossbar_upset() {
            let bit = self.fi.random_bit();
            flit.payload.flip_bit(bit);
            self.errors.crossbar_corrected += 1;
        }
        // Link soft errors (injection counted by the fault injector).
        let _ = self.fi.corrupt_on_link(&mut flit.payload);
        self.drives.push(LinkDrive {
            dir,
            flit,
            vc,
            is_replay,
        });
    }
}
