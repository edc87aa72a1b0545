//! Switch allocation, with the §4.3 switch-allocator upsets.

use ftnoc_trace::{AcStage, TraceEvent};
use ftnoc_types::geom::Direction;

use super::ports::{StEntry, VcState};
use super::{Ctx, Router};
use crate::arbiter::ones;
use crate::config::ErrorScheme;

/// Cached `FTNOC_DEMO_SKIP_CREDIT` flag: a deliberately planted
/// credit-accounting bug (the SA stage stops decrementing credits) used
/// to validate the invariant oracle end to end — `ftnoc fuzz` must catch
/// it with a shrunk reproducer. Off unless the variable is set, so
/// normal runs are unaffected.
fn demo_skip_credit() -> bool {
    use std::sync::OnceLock;
    static FLAG: OnceLock<bool> = OnceLock::new();
    *FLAG.get_or_init(|| std::env::var_os("FTNOC_DEMO_SKIP_CREDIT").is_some())
}

/// Reusable SA storage (part of the lent `StageScratch`),
/// never reallocated in the steady state.
#[derive(Debug, Default)]
pub(super) struct SaScratch {
    /// Stage 1 winner per input port: (vc, out vc), read only for the
    /// ports that requested this cycle.
    port_winner: Vec<(usize, usize)>,
    /// Stage 2 requests: bit `p` of `req[op]` when input port `p`'s
    /// winner wants output `op`; left clear.
    req: Vec<u64>,
    /// Grants: (input port, input vc, out port, out vc).
    grants: Vec<(usize, usize, usize, usize)>,
}

impl Router {
    /// Switch allocation (§4.3 faults + AC protection).
    pub(super) fn sa_phase(&mut self, ctx: &Ctx<'_>, sc: &mut SaScratch) {
        // No buffered flit of an open wormhole: no request, no grant, no
        // upset draw.
        if self
            .inputs
            .iter()
            .all(|input| input.active & input.buffer.nonempty() == 0)
        {
            return;
        }
        let ports = self.cfg.ports();
        let vcs = self.cfg.vcs_per_port();
        let scheme = ctx.config.scheme;

        // Stage 1: per input port, pick one eligible VC; the winner's
        // output port gains this port's request bit.
        sc.port_winner.resize(ports, (0, 0));
        sc.req.resize(ports, 0);
        let mut requested = 0u64;
        for p in 0..ports {
            let mut eligible = 0u64;
            let input = &self.inputs[p];
            for v in ones(input.active & input.buffer.nonempty()) {
                let VcState::Active {
                    out_port,
                    out_vc,
                    sa_ready_at,
                    ..
                } = input.vcs[v].state
                else {
                    unreachable!("`active` names Active VCs");
                };
                let out = &self.outputs[out_port];
                if sa_ready_at > ctx.now
                    || out_vc >= vcs
                    || !out.exists
                    || !out.credits.available(out_vc)
                    || (out.replaying | out.held) != 0
                    || out.st_queue.len() >= 2
                {
                    continue;
                }
                // The protective copy needs a free slot (no VC of the port
                // is replaying: ruled out above).
                if scheme == ErrorScheme::Hbh && out_port < 4 && out.retrans[out_vc].is_full() {
                    continue;
                }
                eligible |= 1 << v;
            }
            // An empty request would leave the arbiter as it is.
            if eligible == 0 {
                continue;
            }
            if let Some(v) = self.sa_in_arbiters[p].grant(&[eligible]) {
                if let VcState::Active {
                    out_port, out_vc, ..
                } = self.inputs[p].vcs[v].state
                {
                    sc.port_winner[p] = (v, out_vc);
                    sc.req[out_port] |= 1 << p;
                    requested |= 1 << out_port;
                }
            }
        }

        // Stage 2: per requested output port, in ascending order, pick
        // one requesting input port.
        sc.grants.clear();
        for op in ones(requested) {
            let req = std::mem::take(&mut sc.req[op]);
            if let Some(p) = self.sa_out_arbiters[op].grant(&[req]) {
                let (v, ov) = sc.port_winner[p];
                sc.grants.push((p, v, op, ov));
            }
        }
        let grants = &mut sc.grants;

        // §4.3: switch-allocator soft errors. `corrupt_choice(0, 4)`
        // returns 1 to 3, so the (c) collision case is never drawn.
        let sa_before = self.errors.sa_corrected;
        let mut i = 0;
        while i < grants.len() {
            if !self.fi.sa_upset() {
                i += 1;
                continue;
            }
            if self.fi.corrupt_choice(0, 4) == 1 {
                // (a) grant suppressed: the flit retries next cycle.
                grants.remove(i);
                self.errors.sa_corrected += 1;
            } else if ctx.config.ac_enabled {
                // (b)/(d): wrong output / multicast — caught by the AC
                // (grant disagrees with the VA state); without the AC
                // the flit departs the wrong way and strands.
                self.events.ac_check += 1;
                grants.remove(i);
                self.errors.sa_corrected += 1;
            } else {
                let wrong = self.fi.corrupt_choice(grants[i].2, ports);
                grants[i].2 = wrong;
                i += 1;
            }
        }
        if self.errors.sa_corrected > sa_before {
            let removed = (self.errors.sa_corrected - sa_before) as u32;
            self.trace.emit(|| TraceEvent::AcFlagged {
                stage: AcStage::Sa,
                removed,
            });
        }

        // Commit grants: pop flits, reserve credits, queue for ST.
        let st_gap = ctx.config.router.pipeline().timing().sa_to_st;
        for &(p, v, op, ov) in grants.iter() {
            if !self.outputs[op].exists || ov >= vcs {
                continue;
            }
            let Some(flit) = self.inputs[p].buffer.pop(v) else {
                continue;
            };
            self.inputs[p].progressed |= 1 << v;
            self.events.buffer_read += 1;
            self.events.sa += 1;
            if p < 4 {
                self.freed_credits.push((Direction::for_port(p), v as u8));
            }
            // Ejection bypasses credit flow, so only a link's ledger is
            // charged: an ejection VC's credits stay at their start and
            // its snapshot view reads idle once its packet has left.
            if op < 4 && !demo_skip_credit() {
                self.outputs[op].credits.consume(ov);
            }
            self.outputs[op].st_queue.push_back(StEntry {
                flit,
                out_vc: ov as u8,
                execute_at: ctx.now + st_gap,
            });
            if flit.kind.is_tail() {
                self.release_if_owner(op, ov, (p, v));
                self.inputs[p].set(v, VcState::Idle);
            }
        }
    }
}
