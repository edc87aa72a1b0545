//! End of cycle: blocked tracking, the §3.2.2 probe-launch decision
//! (Rule 1) and the deadlock-recovery exit, plus the wait-for edges the
//! probe chase and the oracle read.

use ftnoc_core::ac::VcRef;
use ftnoc_types::geom::Direction;

use super::ports::VcState;
use super::{BlockedVcSummary, Ctx, Router};
use crate::arbiter::ones;

impl Router {
    /// How many consecutive `end_cycle`s, up to the last, found input
    /// VC `(p, v)` blocked; 0 when it is not blocked. A blocked VC waits
    /// for or holds an output VC, so its router is never quiescent: it
    /// runs `end_cycle` every cycle of the run, and the run's length in
    /// cycles is the count.
    pub(super) fn blocked_cycles(&self, p: usize, v: usize) -> u64 {
        let port = &self.inputs[p];
        if port.blocked & (1 << v) == 0 {
            return 0;
        }
        self.last_end - port.vcs[v].blocked_since + 1
    }

    /// End-of-cycle blocked tracking and statistics sampling. Returns a
    /// probe request `(origin, named VC at the downstream node, via
    /// direction)` when Rule 1 fires.
    pub(super) fn end_cycle(&mut self, ctx: &Ctx<'_>) -> Option<(Direction, VcRef)> {
        let vcs = self.cfg.vcs_per_port();
        let mut probe_request = None;
        self.last_end = ctx.now;
        for port in &mut self.inputs {
            // A VC waits when it holds a packet's flits but moved none.
            let waiting = (port.wait | port.active) & port.buffer.nonempty() & !port.progressed;
            port.track_blocked(waiting, ctx.now);
            self.buffer_stalls += u64::from(waiting.count_ones());
        }
        if ctx.config.deadlock.enabled && !self.probe.in_recovery() {
            if let Some((idx, dir, named)) = self.rule1_candidate(ctx.now) {
                let (p, v) = (idx / vcs, idx % vcs);
                if self.probe.should_probe(self.blocked_cycles(p, v)) {
                    self.errors.probes_sent += 1;
                    // Cool down: this VC is not re-suspected until another
                    // Cthres window has passed.
                    self.inputs[p].vcs[v].probe_cooldown_until = ctx.now + self.probe.cthres();
                    self.probe_scan_offset = (idx + 1) % (self.cfg.ports() * vcs);
                    probe_request = Some((dir, named));
                }
            }
        }
        // Leave recovery once the held flits drained AND no channel is
        // stuck any more. Mid-shuffle waits (a few cycles between drain
        // epochs) must not end recovery, so the exit threshold matches
        // the absorb threshold: a VC that still cannot move will climb
        // back above it and keep the node recovering.
        if self.probe.in_recovery() {
            let stuck = self.stuck_threshold(ctx);
            let drained = self.outputs.iter().all(|o| o.held == 0);
            let unblocked = self.inputs.iter().enumerate().all(|(p, port)| {
                ones(port.blocked & port.buffer.nonempty())
                    .all(|v| self.blocked_cycles(p, v) < stuck)
            });
            // Track whether this recovery round is still making progress.
            if self.inputs.iter().any(|p| p.progressed != 0) {
                self.recovery_stall = 0;
            } else {
                self.recovery_stall += 1;
            }
            // A round that stalls too long drained what it could but the
            // residual knot needs a fresh detection pass (the dependency
            // graph has changed): leave recovery so Rule 1 re-arms. Held
            // flits keep draining opportunistically either way.
            if (drained && unblocked) || self.recovery_stall >= 2 * ctx.config.deadlock.cthres {
                self.probe.exit_recovery();
                self.recovery_stall = 0;
            }
        } else {
            self.recovery_stall = 0;
        }
        probe_request
    }

    /// The VC Rule 1 suspects at cycle `now`, as `(p * vcs + v, via
    /// direction, named VC downstream)`: the first input VC, in index
    /// order from `probe_scan_offset` round (so successive suspicions
    /// probe different blocked VCs — the deadlock cycle may not pass
    /// through the first one), that has been blocked `cthres` cycles, is
    /// past its cooldown and has an onward edge. Only `blocked` bits are
    /// walked, since any other VC counts 0 blocked cycles, and nothing
    /// while the router's own probe is outstanding, since `should_probe`
    /// would refuse every VC.
    fn rule1_candidate(&self, now: u64) -> Option<(usize, Direction, VcRef)> {
        if self.probe.probe_outstanding() {
            return None;
        }
        let (ports, vcs) = (self.inputs.len(), self.cfg.vcs_per_port());
        let (first, from) = (self.probe_scan_offset / vcs, self.probe_scan_offset % vcs);
        // The start port from VC `from` up, every other port, then the
        // start port below `from`.
        let upper = u64::MAX << from;
        (0..=ports)
            .flat_map(|k| {
                let p = (first + k) % ports;
                let part = match k {
                    0 => upper,
                    k if k == ports => !upper,
                    _ => u64::MAX,
                };
                ones(self.inputs[p].blocked & part).map(move |v| (p, v))
            })
            .find_map(|(p, v)| {
                if self.blocked_cycles(p, v) < self.probe.cthres()
                    || self.inputs[p].vcs[v].probe_cooldown_until > now
                {
                    return None;
                }
                let (dir, named) = self.forward_edge(p, v)?;
                Some((p * vcs + v, dir, named))
            })
    }

    /// Probe Rule 2 support: whether input VC `(p, v)` is blocked here,
    /// and its onward dependency edge (where a probe travels next).
    /// Addressed by raw port index, so local ports beyond 4 resolve.
    pub(crate) fn port_wait_info(&self, p: usize, v: usize) -> (bool, Option<(Direction, VcRef)>) {
        let vcs = self.cfg.vcs_per_port();
        if p >= self.inputs.len() || v >= vcs {
            return (false, None);
        }
        let input = &self.inputs[p];
        let blocked = (input.blocked & input.buffer.nonempty()) & (1 << v) != 0;
        (blocked, self.forward_edge(p, v))
    }

    /// The onward dependency of input VC `(p, v)`: the downstream VC it
    /// streams toward (`Active`), or for a head waiting for VC
    /// allocation (`VaWait`), a busy output VC of a wanted port. That
    /// head waits for the channel to drain into the downstream input
    /// buffer, whether the reservation's owner is still streaming, has
    /// been fully absorbed by deadlock recovery (a stale reservation
    /// with held flits), or anything in between.
    fn forward_edge(&self, p: usize, v: usize) -> Option<(Direction, VcRef)> {
        match self.inputs[p].vcs[v].state {
            VcState::Active {
                out_port, out_vc, ..
            } => {
                let dir = Direction::for_port(out_port);
                if dir == Direction::Local || out_vc >= self.cfg.vcs_per_port() {
                    None
                } else {
                    Some((dir, VcRef::new(dir.opposite(), out_vc as u8)))
                }
            }
            VcState::VaWait { candidates, .. } => candidates.into_iter().find_map(|cand| {
                let out = &self.outputs[cand.index()];
                if cand == Direction::Local || !out.exists {
                    return None;
                }
                let ov = ones(out.reserved | out.sending).next()?;
                Some((cand, VcRef::new(cand.opposite(), ov as u8)))
            }),
            VcState::Idle => None,
        }
    }

    /// The live wait-for rows, appended to `out` in (port, VC) order:
    /// every input VC that is blocked or has an onward dependency edge,
    /// with its reference, blocked-cycle count and that edge (as the
    /// probe chase sees it). A VC with neither can neither launch nor
    /// forward a probe, so it has no row; only a VC waiting for or
    /// holding an output VC can have an edge.
    pub fn blocked_summary(&self, out: &mut Vec<BlockedVcSummary>) {
        for (p, port) in self.inputs.iter().enumerate() {
            for v in ones((port.blocked & port.buffer.nonempty()) | port.wait | port.active) {
                let (blocked, fwd) = self.port_wait_info(p, v);
                if blocked || fwd.is_some() {
                    let named = VcRef::new(Direction::for_port(p), v as u8);
                    out.push((named, self.blocked_cycles(p, v), blocked, fwd));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use ftnoc_types::config::RouterConfig;
    use ftnoc_types::geom::{NodeId, Topology};

    use super::*;
    use crate::{DeadlockConfig, Network, RoutingAlgorithm, SimConfig};

    /// The reference view: one row per input VC, whatever its state.
    fn every_row(r: &Router) -> Vec<BlockedVcSummary> {
        let vcs = r.cfg.vcs_per_port();
        (0..r.cfg.ports())
            .flat_map(|p| (0..vcs).map(move |v| (p, v)))
            .map(|(p, v)| {
                let (blocked, fwd) = r.port_wait_info(p, v);
                let named = VcRef::new(Direction::for_port(p), v as u8);
                (named, r.blocked_cycles(p, v), blocked, fwd)
            })
            .collect()
    }

    /// The reference Rule 1 scan: every input VC in index order from
    /// `probe_scan_offset` round, each put to a copy of the protocol.
    fn rule1_reference(r: &Router, now: u64) -> Option<(usize, Direction, VcRef)> {
        let vcs = r.cfg.vcs_per_port();
        let total = r.cfg.ports() * vcs;
        (0..total)
            .map(|k| (r.probe_scan_offset + k) % total)
            .find_map(|idx| {
                let (p, v) = (idx / vcs, idx % vcs);
                let blocked = r.blocked_cycles(p, v);
                if blocked < r.probe.cthres() || r.inputs[p].vcs[v].probe_cooldown_until > now {
                    return None;
                }
                let (dir, named) = r.forward_edge(p, v)?;
                r.probe
                    .clone()
                    .should_probe(blocked)
                    .then_some((idx, dir, named))
            })
    }

    /// A saturated two-VC 4×4 with deadlock detection: at every cycle
    /// and router outside recovery, the VC Rule 1 would suspect is the
    /// one the full index scan picks, and probes do fire, from starts
    /// inside a port as well as at its first VC.
    #[test]
    fn rule1_suspects_what_the_full_scan_suspects() {
        let mut router = RouterConfig::builder();
        router.vcs_per_port(2);
        let mut b = SimConfig::builder();
        b.topology(Topology::mesh(4, 4))
            .router(router.build().expect("valid router"))
            .routing(RoutingAlgorithm::FullyAdaptive)
            .injection_rate(0.4)
            .deadlock(DeadlockConfig {
                enabled: true,
                cthres: 8,
            })
            .seed(3)
            .warmup_packets(0)
            .measure_packets(u64::MAX);
        let mut net = Network::new(b.build().expect("valid config"));
        let (mut chosen, mut mid_port, mut outstanding) = (0, 0, 0);
        for _ in 0..3_000 {
            net.step();
            let now = net.now();
            for n in 0..16 {
                let r = net.router(NodeId::new(n));
                if r.probe.in_recovery() {
                    continue;
                }
                let pick = r.rule1_candidate(now);
                assert_eq!(pick, rule1_reference(r, now), "node {n} at cycle {now}");
                chosen += usize::from(pick.is_some());
                mid_port += usize::from(
                    pick.is_some() && !r.probe_scan_offset.is_multiple_of(r.cfg.vcs_per_port()),
                );
                outstanding += usize::from(r.probe.probe_outstanding());
            }
        }
        let sent: u64 = (0..16)
            .map(|n| net.router(NodeId::new(n)).errors.probes_sent)
            .sum();
        assert!(
            chosen > 0 && mid_port > 0 && outstanding > 0 && sent > 0,
            "chosen {chosen}, from mid-port {mid_port}, outstanding {outstanding}, sent {sent}"
        );
    }

    /// A saturated single-VC 4×4 under fully adaptive routing deadlocks
    /// and recovers over and over: at every cycle and router, the live
    /// rows are the full per-VC scan in order, minus rows that are
    /// neither blocked nor have an onward edge (the rows the probe chase
    /// can neither seed from nor forward through).
    #[test]
    fn live_rows_are_the_full_scan_less_inert_rows() {
        let mut router = RouterConfig::builder();
        router.vcs_per_port(1);
        let mut b = SimConfig::builder();
        b.topology(Topology::mesh(4, 4))
            .router(router.build().expect("valid router"))
            .routing(RoutingAlgorithm::FullyAdaptive)
            .injection_rate(0.4)
            .deadlock(DeadlockConfig {
                enabled: true,
                cthres: 32,
            })
            .seed(2)
            .warmup_packets(0)
            .measure_packets(u64::MAX);
        let mut net = Network::new(b.build().expect("valid config"));
        let (mut kept, mut dropped, mut blocked, mut recovering) = (0, 0, 0, 0);
        let mut live = Vec::new();
        for _ in 0..2_000 {
            net.step();
            for n in 0..16 {
                let r = net.router(NodeId::new(n));
                live.clear();
                r.blocked_summary(&mut live);
                let mut rest = live.iter();
                let mut next = rest.next();
                for row in every_row(r) {
                    if next == Some(&row) {
                        assert!(row.2 || row.3.is_some(), "node {n}: inert row {row:?}");
                        next = rest.next();
                        kept += 1;
                        blocked += usize::from(row.2);
                    } else {
                        assert!(
                            !row.2 && row.3.is_none(),
                            "node {n}: live row {row:?} missing (next live {next:?})"
                        );
                        dropped += 1;
                    }
                }
                assert_eq!(next, None, "node {n}: a live row out of scan order");
                recovering += usize::from(r.probe.in_recovery());
            }
        }
        assert!(
            kept > 0 && dropped > 0 && blocked > 0 && recovering > 0,
            "kept {kept}, dropped {dropped}, blocked {blocked}, recovering {recovering}"
        );
    }
}
