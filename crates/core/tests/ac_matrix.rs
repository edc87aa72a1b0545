//! The §4 symptom matrix end to end: each allocator-corruption class of
//! the paper — invalid VC id, duplicate VC grant, wrong physical
//! channel, crossbar multicast and duplicate crossbar grant — is (1)
//! flagged by the Allocation Comparator with the *right* finding class
//! and (2) priced with the recovery latency §4.1–§4.3 derives for every
//! router pipeline organisation.

use ftnoc_core::ac::{AcFinding, AllocationComparator, RtEntry, SaEntry, VaEntry, VcRef};
use ftnoc_core::recovery::{recovery_latency, LogicFaultKind};
use ftnoc_types::config::PipelineDepth;
use ftnoc_types::geom::Direction;
use ftnoc_types::units::Cycles;
use Direction::{East, North, South, West};

const VCS: usize = 4;

fn vc(port: Direction, vc: u8) -> VcRef {
    VcRef::new(port, vc)
}

/// The healthy Figure 12 state: N_1→S_2 and W_3→E_2 with matching
/// crossbar grants.
fn healthy() -> (Vec<RtEntry>, Vec<VaEntry>, Vec<SaEntry>) {
    let rt = vec![
        RtEntry {
            input_vc: vc(North, 1),
            valid_out_port: South,
        },
        RtEntry {
            input_vc: vc(West, 3),
            valid_out_port: East,
        },
    ];
    let va = vec![
        VaEntry {
            input_vc: vc(North, 1),
            out_port: South,
            out_vc: 2,
        },
        VaEntry {
            input_vc: vc(West, 3),
            out_port: East,
            out_vc: 2,
        },
    ];
    let sa = vec![
        SaEntry {
            input_port: North,
            winning_vc: 2,
            out_port: South,
        },
        SaEntry {
            input_port: West,
            winning_vc: 2,
            out_port: East,
        },
    ];
    (rt, va, sa)
}

/// One row of the matrix: a corruption, the finding class it must
/// raise, and the recovery path that repairs it.
struct Symptom {
    name: &'static str,
    corrupt: fn(&mut Vec<RtEntry>, &mut Vec<VaEntry>, &mut Vec<SaEntry>),
    matches: fn(&AcFinding) -> bool,
    repaired_by: LogicFaultKind,
}

fn matrix() -> Vec<Symptom> {
    vec![
        Symptom {
            name: "invalid output VC id (§4.1 scenario 1)",
            corrupt: |_, va, _| va[0].out_vc = VCS as u8,
            matches: |f| matches!(f, AcFinding::InvalidOutputVc { out_vc: 4, .. }),
            repaired_by: LogicFaultKind::VaCaughtByAc,
        },
        Symptom {
            name: "duplicate output VC grant (§4.1 scenarios 2/3)",
            corrupt: |_, va, _| {
                va[1].out_port = South;
                va[1].out_vc = 2;
            },
            matches: |f| {
                matches!(
                    f,
                    AcFinding::DuplicateOutputVc {
                        out: VcRef { port: South, vc: 2 },
                        ..
                    }
                )
            },
            repaired_by: LogicFaultKind::VaCaughtByAc,
        },
        Symptom {
            name: "wrong physical channel (§4.1 scenario 4b)",
            corrupt: |_, va, _| va[0].out_port = North,
            matches: |f| {
                matches!(
                    f,
                    AcFinding::VaDisagreesWithRt {
                        va_port: North,
                        rt_port: South,
                        ..
                    }
                )
            },
            repaired_by: LogicFaultKind::VaCaughtByAc,
        },
        Symptom {
            name: "crossbar multicast (§4.3 case d)",
            corrupt: |_, _, sa| {
                sa.push(SaEntry {
                    input_port: North,
                    winning_vc: 2,
                    out_port: West,
                })
            },
            matches: |f| matches!(f, AcFinding::Multicast { input_port: North }),
            repaired_by: LogicFaultKind::SaCaughtByAc,
        },
        Symptom {
            name: "duplicate crossbar grant (§4.3 case c)",
            corrupt: |_, _, sa| sa[1].out_port = South,
            matches: |f| {
                matches!(
                    f,
                    AcFinding::DuplicateOutputPort {
                        out_port: South,
                        ..
                    }
                )
            },
            repaired_by: LogicFaultKind::SaCaughtByAc,
        },
    ]
}

/// Every symptom class raises its finding — and only corrupted states
/// raise anything at all.
#[test]
fn every_symptom_class_is_flagged_with_the_right_finding() {
    let mut ac = AllocationComparator::new();
    let (rt, va, sa) = healthy();
    assert!(ac.check(&rt, &va, &sa, VCS).is_empty(), "healthy baseline");

    for symptom in matrix() {
        let (mut rt, mut va, mut sa) = healthy();
        (symptom.corrupt)(&mut rt, &mut va, &mut sa);
        let findings = ac.check(&rt, &va, &sa, VCS);
        assert!(
            findings.iter().any(|f| (symptom.matches)(f)),
            "{}: expected finding missing from {findings:?}",
            symptom.name
        );
    }
    // One flag per corrupted evaluation, none for the healthy one.
    assert_eq!(ac.errors_flagged(), matrix().len() as u64);
}

/// The held VA table changes nothing the comparator finds: in the
/// healthy state and every symptom, each split of the VA rows into a
/// held prefix and a given suffix finds what a comparator holding
/// nothing finds over all of them, in the same order — with every RT
/// row, and with only the given rows' RT rows, as the router gives
/// them. Releasing every held row restores that empty-table answer.
#[test]
fn held_rows_find_what_given_rows_find() {
    let mut states = vec![healthy()];
    for symptom in matrix() {
        let (mut rt, mut va, mut sa) = healthy();
        (symptom.corrupt)(&mut rt, &mut va, &mut sa);
        states.push((rt, va, sa));
    }
    for (all_rt, va, sa) in states {
        for split in 0..=va.len() {
            let (held, given) = va.split_at(split);
            let given_rt: Vec<RtEntry> = all_rt
                .iter()
                .filter(|r| given.iter().any(|v| v.input_vc == r.input_vc))
                .copied()
                .collect();
            for rt in [&all_rt, &given_rt] {
                let all_given = AllocationComparator::new().check(rt, &va, &sa, VCS);
                let mut ac = AllocationComparator::new();
                for (slot, row) in held.iter().enumerate() {
                    ac.hold(slot, *row);
                }
                let findings = ac.check(rt, given, &sa, VCS);
                assert_eq!(findings, all_given, "{held:?} held, RT {rt:?}");
                for slot in 0..split {
                    ac.release(slot);
                }
                assert!(!ac.holds_any());
                assert_eq!(ac.check(rt, &va, &sa, VCS), all_given);
            }
        }
    }
}

/// AC-caught symptoms cost one cycle to repair in *every* pipeline
/// organisation: the comparator works in parallel with crossbar
/// traversal and recovery merely repeats the previous allocation.
#[test]
fn ac_caught_symptoms_cost_one_cycle_in_every_pipeline() {
    for symptom in matrix() {
        for pipeline in PipelineDepth::ALL {
            assert_eq!(
                recovery_latency(symptom.repaired_by, pipeline),
                Cycles(1),
                "{} under {pipeline:?}",
                symptom.name
            );
        }
    }
}

/// The full recovery-latency table of §4.1–§4.3, pinned per pipeline
/// depth — the costs the cycle engine charges when each recovery path
/// fires.
#[test]
fn recovery_latency_matrix_matches_section_4() {
    use LogicFaultKind::*;
    use PipelineDepth::{Four, One, Three, Two};
    let expected: &[(LogicFaultKind, &[(PipelineDepth, u64)])] = &[
        (VaCaughtByAc, &[(Four, 1), (Three, 1), (Two, 1), (One, 1)]),
        (SaCaughtByAc, &[(Four, 1), (Three, 1), (Two, 1), (One, 1)]),
        (
            RtMisdirectBlocked,
            &[(Four, 1), (Three, 1), (Two, 3), (One, 2)],
        ),
        (
            RtMisdirectOpenDeterministic,
            &[(Four, 5), (Three, 4), (Two, 3), (One, 2)],
        ),
        (
            RtMisdirectOpenAdaptive,
            &[(Four, 0), (Three, 0), (Two, 0), (One, 0)],
        ),
        (
            SaCollisionCaughtByEcc,
            &[(Four, 2), (Three, 2), (Two, 2), (One, 2)],
        ),
    ];
    // The table covers every fault kind exactly once.
    assert_eq!(expected.len(), LogicFaultKind::ALL.len());
    for (kind, rows) in expected {
        for &(pipeline, cycles) in *rows {
            assert_eq!(
                recovery_latency(*kind, pipeline),
                Cycles(cycles),
                "{kind:?} under {pipeline:?}"
            );
        }
    }
}

/// Benign corruptions stay silent: a different-but-valid VC inside the
/// intended physical channel (§4.1 scenario 4a) is harmless and must
/// not trigger recovery.
#[test]
fn benign_vc_swap_is_not_a_symptom() {
    let (rt, mut va, mut sa) = healthy();
    va[0].out_vc = 0; // still South, still valid, still unreserved
    sa[0].winning_vc = 0;
    let mut ac = AllocationComparator::new();
    assert!(ac.check(&rt, &va, &sa, VCS).is_empty());
    assert_eq!(ac.errors_flagged(), 0);
}
