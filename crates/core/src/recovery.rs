//! Recovery-latency model for intra-router logic upsets (§4.1–§4.3).
//!
//! The paper analyses, per router pipeline organisation, how many cycles
//! each detected logic error costs to repair. This module encodes those
//! closed forms over the pipeline-timing table of `ftnoc-types`, the same
//! rows the cycle-accurate router charges when its RT recovery paths
//! fire, and unit tests pin every row of the analysis.

use ftnoc_types::config::PipelineDepth;
use ftnoc_types::units::Cycles;

/// A detected intra-router logic fault, classified by which recovery
/// path handles it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogicFaultKind {
    /// VA mis-allocation caught by the Allocation Comparator (§4.1):
    /// invalidate and repeat the allocation.
    VaCaughtByAc,
    /// SA mis-allocation caught by the Allocation Comparator (§4.3 cases
    /// b/d): invalidate and redo the switch allocation.
    SaCaughtByAc,
    /// Routing misdirection toward a blocked or non-existent link,
    /// caught by the VA's link-state knowledge (§4.2).
    RtMisdirectBlocked,
    /// Routing misdirection onto a functional path under deterministic
    /// routing: detected at the *next* router (a non-XY-compliant
    /// arrival) and NACKed back (§4.2).
    RtMisdirectOpenDeterministic,
    /// Routing misdirection onto a functional path under adaptive
    /// routing: undetectable and harmless — the flit is merely delayed
    /// (§4.2).
    RtMisdirectOpenAdaptive,
    /// SA error that sent two flits to one output (§4.3 case c): the
    /// collision corrupts the flit, the next router's ECC detects it and
    /// the retransmission buffer replays (NACK + retransmission). The
    /// simulator never draws this case.
    SaCollisionCaughtByEcc,
}

impl LogicFaultKind {
    /// All fault kinds, for sweeps and reports.
    pub const ALL: [LogicFaultKind; 6] = [
        LogicFaultKind::VaCaughtByAc,
        LogicFaultKind::SaCaughtByAc,
        LogicFaultKind::RtMisdirectBlocked,
        LogicFaultKind::RtMisdirectOpenDeterministic,
        LogicFaultKind::RtMisdirectOpenAdaptive,
        LogicFaultKind::SaCollisionCaughtByEcc,
    ];
}

/// Latency overhead of recovering from `fault` in a router with the
/// given pipeline organisation, per §4.1–§4.3. The blocked-direction RT
/// row is [`PipelineDepth::timing`]'s, the table the router's stages
/// read; the open-path RT row is `1 + n` for an `n`-stage router.
///
/// The 2-/1-stage figures assume successful speculative allocation during
/// the recovery phase, as the paper does; mis-speculation costs extra but
/// "occurs during normal operation as well and is unpredictable".
pub fn recovery_latency(fault: LogicFaultKind, pipeline: PipelineDepth) -> Cycles {
    let n = pipeline.stages() as u64;
    match fault {
        // §4.1: the AC operates in parallel with (or before) crossbar
        // traversal; recovery repeats the previous allocation — one cycle
        // in every organisation.
        LogicFaultKind::VaCaughtByAc | LogicFaultKind::SaCaughtByAc => Cycles(1),

        // §4.2: blocked/invalid direction. The 4- and 3-stage routers
        // route at the current node and catch it before transmission:
        // one cycle of re-routing. Look-ahead routing (2- and 1-stage)
        // learns from the next router's VA: NACK + re-route
        // (+ retransmission), i.e. 3 cycles for 2-stage, 2 for 1-stage.
        LogicFaultKind::RtMisdirectBlocked => Cycles(pipeline.timing().rt_blocked),

        // §4.2: misdirection onto an open path under deterministic
        // routing is detected by the *receiving* router: NACK (1) plus a
        // full re-route and retransmission through the n-stage pipe.
        LogicFaultKind::RtMisdirectOpenDeterministic => Cycles(1 + n),

        // §4.2: adaptive routing absorbs the detour; no recovery action.
        LogicFaultKind::RtMisdirectOpenAdaptive => Cycles(0),

        // §4.3 case (c): ECC at the next router detects the collision;
        // NACK + retransmission — two cycles regardless of depth. A model
        // entry only: the simulator's SA upsets never draw a collision.
        LogicFaultKind::SaCollisionCaughtByEcc => Cycles(2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ac_recovery_is_one_cycle_for_every_pipeline() {
        for p in PipelineDepth::ALL {
            assert_eq!(recovery_latency(LogicFaultKind::VaCaughtByAc, p), Cycles(1));
            assert_eq!(recovery_latency(LogicFaultKind::SaCaughtByAc, p), Cycles(1));
        }
    }

    #[test]
    fn rt_blocked_matches_section_4_2() {
        // "a single-cycle delay for re-routing" with current-node routing,
        // 3 cycles for a 2-stage router, 2 for a single-stage router.
        assert_eq!(
            recovery_latency(LogicFaultKind::RtMisdirectBlocked, PipelineDepth::Four),
            Cycles(1)
        );
        assert_eq!(
            recovery_latency(LogicFaultKind::RtMisdirectBlocked, PipelineDepth::Three),
            Cycles(1)
        );
        assert_eq!(
            recovery_latency(LogicFaultKind::RtMisdirectBlocked, PipelineDepth::Two),
            Cycles(3)
        );
        assert_eq!(
            recovery_latency(LogicFaultKind::RtMisdirectBlocked, PipelineDepth::One),
            Cycles(2)
        );
    }

    #[test]
    fn rt_open_deterministic_is_one_plus_n() {
        for p in PipelineDepth::ALL {
            assert_eq!(
                recovery_latency(LogicFaultKind::RtMisdirectOpenDeterministic, p),
                Cycles(1 + p.stages() as u64)
            );
        }
    }

    #[test]
    fn rt_open_adaptive_costs_nothing() {
        for p in PipelineDepth::ALL {
            assert_eq!(
                recovery_latency(LogicFaultKind::RtMisdirectOpenAdaptive, p),
                Cycles(0)
            );
        }
    }

    #[test]
    fn sa_collision_is_two_cycles_everywhere() {
        // "Regardless of the number of pipeline stages, this error
        // recovery process will incur two cycles."
        for p in PipelineDepth::ALL {
            assert_eq!(
                recovery_latency(LogicFaultKind::SaCollisionCaughtByEcc, p),
                Cycles(2)
            );
        }
    }
}
