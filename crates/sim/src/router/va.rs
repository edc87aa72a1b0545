//! VC allocation, with the §4.1 VC-allocator upsets and the Allocation
//! Comparator's check of the RT and VA state (Figure 12).

use ftnoc_core::ac::{AcFinding, AllocationComparator, RtEntry, VaEntry, VcRef};
use ftnoc_trace::{AcStage, TraceEvent};
use ftnoc_types::geom::Direction;

use super::ports::VcState;
use super::{Ctx, Router};
use crate::arbiter::ones;

/// Reusable VA storage (part of the lent `StageScratch`),
/// left clear after every use, so the steady-state stage performs no
/// heap allocation.
#[derive(Debug, Default)]
pub(super) struct VaScratch {
    /// Request masks, one run of words per output VC `op * vcs + ov`,
    /// a bit per nominating input VC `ip * vcs + iv`; left clear.
    req: Vec<u64>,
    /// A bit per output VC with at least one nomination; left clear.
    requested: Vec<u64>,
    /// Winners: (input port, input vc, out port, out vc, rt port).
    winners: Vec<(usize, usize, usize, usize, Direction)>,
    /// Which winners were corrupted by an injected VA upset.
    corrupted: Vec<bool>,
    /// This cycle's RT and VA rows for the AC.
    rt_entries: Vec<RtEntry>,
    va_entries: Vec<VaEntry>,
}

impl Router {
    /// VC allocation (§4.1 faults + AC protection).
    ///
    /// `neighbor_recovering[d]` gates admission: no **new** packet may be
    /// steered toward a neighbour in deadlock-recovery mode (§3.2.1:
    /// "no new packets are allowed to enter the transmission buffers that
    /// are involved in the deadlock recovery"). Flits of already-admitted
    /// packets keep flowing — they are the recovery's working set.
    pub(super) fn va_phase(
        &mut self,
        ctx: &Ctx<'_>,
        sc: &mut VaScratch,
        neighbor_recovering: [bool; 4],
    ) {
        let ports = self.cfg.ports();
        let vcs = self.cfg.vcs_per_port();
        let total = ports * vcs;
        // No head waits: nothing to nominate, grant, upset or commit.
        // The comparator still evaluates the held rows, as below.
        if self.inputs.iter().all(|input| input.wait == 0) {
            if ctx.config.ac_enabled && self.ac.holds_any() {
                self.ac_evaluate(&[], &[], vcs);
            }
            return;
        }

        // Stage 1: each waiting input VC nominates one free output VC by
        // setting its bit in that output VC's request mask.
        let words = total.div_ceil(64);
        sc.req.resize(total * words, 0);
        sc.requested.resize(words, 0);
        // Rotate the preferred output VC by the cycle count rather than a
        // stateful per-phase counter: the same fairness rotation, but
        // derived from `now`, so a router skipped by activity gating
        // resumes at exactly the offset a full-sweep run would have.
        let rotation = ctx.now as usize % vcs;
        let all_vcs = u64::MAX >> (64 - vcs);
        for p in 0..ports {
            for v in ones(self.inputs[p].wait) {
                let VcState::VaWait {
                    candidates,
                    ready_at,
                } = self.inputs[p].vcs[v].state
                else {
                    unreachable!("`wait` names VaWait VCs");
                };
                if ready_at > ctx.now {
                    continue;
                }
                'cand: for cand in candidates {
                    let op = if cand == Direction::Local {
                        // Deliver through the local port the destination
                        // terminal hangs off; port 4 everywhere except a
                        // concentrated mesh.
                        let front = self.inputs[p].buffer.front(v).expect("VaWait head");
                        let dest = Self::routed_dest(ctx.config.scheme, front);
                        ctx.config.topology.local_port_of_terminal(dest)
                    } else {
                        cand.index()
                    };
                    if !self.outputs[op].exists {
                        continue;
                    }
                    if cand != Direction::Local
                        && (neighbor_recovering[op]
                            // The fault-status table: no new wormhole may
                            // be granted onto a locally-known-dead port
                            // (the stale candidate list of a head routed
                            // before the kill could still name it).
                            || ctx.faults.link_dead_now(ctx.now, self.id, cand))
                    {
                        continue;
                    }
                    // The first free output VC at or after the rotation,
                    // wrapping round.
                    let free = all_vcs & !(self.outputs[op].reserved | self.outputs[op].sending);
                    if let Some(ov) = ones(free & (u64::MAX << rotation)).chain(ones(free)).next() {
                        let (input, out) = (p * vcs + v, op * vcs + ov);
                        sc.req[out * words + input / 64] |= 1 << (input % 64);
                        sc.requested[out / 64] |= 1 << (out % 64);
                        break 'cand;
                    }
                }
            }
        }

        // Stage 2: arbitrate per requested output VC, in ascending
        // `op * vcs + ov` order; idle output VCs never touch their
        // arbiter's round-robin pointer.
        sc.winners.clear();
        for w in 0..words {
            for bit in ones(std::mem::take(&mut sc.requested[w])) {
                let out = w * 64 + bit;
                let req = &mut sc.req[out * words..(out + 1) * words];
                let winner = self.va_arbiters[out]
                    .grant(req)
                    .expect("a requested output VC has a requester");
                // A one-word run (every port up to 64 input VCs) is one
                // store; `fill` of a run whose length only the config
                // knows compiles to a `memset` call.
                if let [word] = req {
                    *word = 0;
                } else {
                    req.fill(0);
                }
                // The routing port the winner asked for (its RT row): the
                // uncorrupted output port, every local port reading `Local`.
                let rt_port = Direction::for_port(out / vcs);
                sc.winners
                    .push((winner / vcs, winner % vcs, out / vcs, out % vcs, rt_port));
            }
        }
        let winners = &mut sc.winners;

        // §4.1: VC-allocator soft errors corrupt committed pairings.
        sc.corrupted.clear();
        for w in winners.iter_mut() {
            let upset = self.fi.va_upset();
            sc.corrupted.push(upset);
            if !upset {
                continue;
            }
            // Scenario mix, drawn uniformly via the corrupted field
            // (`corrupt_choice(0, 3)` returns 1 or 2): an invalid output
            // VC id, or the wrong physical channel (4b).
            if self.fi.corrupt_choice(0, 3) == 1 {
                w.3 = vcs;
            } else {
                let wrong = self.fi.corrupt_choice(w.2, ports);
                w.2 = wrong;
                w.3 = w.3.min(vcs - 1);
            }
        }

        // Allocation Comparator: evaluate the RT/VA/SA state (Figure 12).
        // The comparator holds the reservations' VA rows; this cycle's
        // winners are its new RT and VA rows.
        if ctx.config.ac_enabled {
            sc.rt_entries.clear();
            sc.va_entries.clear();
            for &(ip, iv, op, ov, rt_port) in winners.iter() {
                sc.rt_entries.push(RtEntry {
                    input_vc: VcRef::new(Direction::for_port(ip), iv as u8),
                    valid_out_port: rt_port,
                });
                sc.va_entries.push(va_row(ip, iv, op, ov));
            }
            // An idle router presents the AC with an empty table; skip
            // the comparator (and its census tick) so a quiescent cycle
            // stays a complete no-op — the property activity gating
            // relies on to make skipped and computed cycles equivalent.
            if !winners.is_empty() || self.ac.holds_any() {
                let findings = self.ac_evaluate(&sc.rt_entries, &sc.va_entries, vcs);
                if !findings.is_empty() {
                    // Invalidate this cycle's (corrupted) allocations: the
                    // affected inputs retry next cycle — 1-cycle penalty.
                    let removed = sc.corrupted.iter().filter(|&&c| c).count() as u32;
                    if removed > 0 {
                        self.errors.va_corrected += u64::from(removed);
                        self.trace.emit(|| TraceEvent::AcFlagged {
                            stage: AcStage::Va,
                            removed,
                        });
                        let mut corrupted = sc.corrupted.iter();
                        winners.retain(|_| !corrupted.next().expect("a flag per winner"));
                    }
                }
            }
        }

        // Commit.
        let sa_gap = ctx.config.router.pipeline().timing().va_to_sa;
        for &(p, v, op, ov, _) in winners.iter() {
            if ov < vcs {
                self.reserve(op, ov, Some((p, v)));
                self.outputs[op].allocated_at[ov] = ctx.now;
            }
            let packet = self.inputs[p].buffer.front(v).expect("VA winner").packet;
            self.inputs[p].set(
                v,
                VcState::Active {
                    out_port: op,
                    out_vc: ov,
                    sa_ready_at: ctx.now + sa_gap,
                    packet,
                },
            );
            self.events.va += 1;
        }
    }

    /// One census-counted Allocation Comparator evaluation of this
    /// cycle's RT and VA rows behind the held ones.
    fn ac_evaluate(&mut self, rt: &[RtEntry], va: &[VaEntry], vcs: usize) -> Vec<AcFinding> {
        self.events.ac_check += 1;
        let findings = self.ac.check(rt, va, &[], vcs);
        self.debug_check_findings(rt, va, &findings);
        findings
    }

    /// Debug builds: the evaluation over the held VA table equals the
    /// one it replaced — every reservation rebuilt as a row, in (output
    /// port, VC) order, ahead of this cycle's rows, on a comparator
    /// holding nothing.
    fn debug_check_findings(&self, rt: &[RtEntry], va: &[VaEntry], findings: &[AcFinding]) {
        if !cfg!(debug_assertions) {
            return;
        }
        let mut rows = Vec::new();
        for (op, output) in self.outputs.iter().enumerate() {
            for ov in ones(output.reserved) {
                let (ip, iv) = output.allocated[ov].expect("`reserved` names owned VCs");
                rows.push(va_row(ip, iv, op, ov));
            }
        }
        rows.extend_from_slice(va);
        let vcs = self.cfg.vcs_per_port();
        let rebuilt = AllocationComparator::new().check(rt, &rows, &[], vcs);
        assert_eq!(
            findings, rebuilt,
            "{}: the held VA table changed the comparator's findings",
            self.id
        );
    }
}

/// The VA row of input VC `(ip, iv)` holding output VC `(op, ov)`,
/// every local port reading `Local`.
pub(super) fn va_row(ip: usize, iv: usize, op: usize, ov: usize) -> VaEntry {
    VaEntry {
        input_vc: VcRef::new(Direction::for_port(ip), iv as u8),
        out_port: Direction::for_port(op),
        out_vc: ov as u8,
    }
}
