//! The Allocation Comparator (AC) unit of Figure 12 / §4.
//!
//! The AC is purely combinational: every cycle it cross-checks the state
//! tables of the routing unit (RT), the VC allocator (VA) and the switch
//! allocator (SA) and raises an error flag that invalidates the previous
//! cycle's allocation. Three comparisons run in parallel:
//!
//! 1. **VA vs RT agreement** — the output VC the VA assigned must lie in
//!    the physical channel returned by the routing function (catches
//!    scenario 4b of §4.1, a mis-directed but otherwise valid VC);
//! 2. **VA state validity** — no invalid output-VC ids (scenario 1) and
//!    no output VC assigned to two input VCs (scenarios 2 and 3);
//! 3. **SA state validity** — no invalid output port, no two grants to
//!    one output (crossbar conflict), and no input granted several
//!    outputs (multicast), per §4.3 cases (b)–(d).

use std::fmt;

use ftnoc_types::geom::Direction;

/// Reference to one virtual channel of one physical port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VcRef {
    /// The physical port.
    pub port: Direction,
    /// VC index within the port.
    pub vc: u8,
}

impl VcRef {
    /// Creates a VC reference.
    pub const fn new(port: Direction, vc: u8) -> Self {
        VcRef { port, vc }
    }
}

impl fmt::Display for VcRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}_{}", self.port, self.vc)
    }
}

/// One row of the routing-unit state: the valid output PC for an input VC
/// (the routing function returns all VCs of a single PC, `R ⇒ P`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtEntry {
    /// The packet's input VC.
    pub input_vc: VcRef,
    /// The physical channel the routing function selected.
    pub valid_out_port: Direction,
}

/// One row of the VC-allocator state: a reserved pairing between an input
/// VC and an allocated output VC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VaEntry {
    /// The packet's input VC.
    pub input_vc: VcRef,
    /// The allocated output VC (port + VC id as driven by the VA — the id
    /// may be invalid if a soft error struck).
    pub out_port: Direction,
    /// Output VC id within `out_port`.
    pub out_vc: u8,
}

/// One row of the switch-allocator state: a crossbar grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaEntry {
    /// Input port granted access.
    pub input_port: Direction,
    /// VC within the input port that won arbitration.
    pub winning_vc: u8,
    /// Output port the grant connects to.
    pub out_port: Direction,
}

/// A defect found by the comparator, with enough context to invalidate
/// the offending allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcFinding {
    /// VA assigned an output VC outside the PC chosen by the routing
    /// function (§4.1 scenario 4b).
    VaDisagreesWithRt {
        /// The affected input VC.
        input_vc: VcRef,
        /// Port the VA drove.
        va_port: Direction,
        /// Port the routing function required.
        rt_port: Direction,
    },
    /// VA assigned an out-of-range output VC id (§4.1 scenario 1).
    InvalidOutputVc {
        /// The affected input VC.
        input_vc: VcRef,
        /// The invalid id.
        out_vc: u8,
    },
    /// Two input VCs hold the same output VC (§4.1 scenarios 2 and 3).
    DuplicateOutputVc {
        /// First claimant.
        first: VcRef,
        /// Second claimant.
        second: VcRef,
        /// The double-booked output VC.
        out: VcRef,
    },
    /// SA granted two inputs to one output port (§4.3 case c).
    DuplicateOutputPort {
        /// First granted input.
        first: Direction,
        /// Second granted input.
        second: Direction,
        /// The double-booked output.
        out_port: Direction,
    },
    /// SA granted one input several outputs — multicast (§4.3 case d).
    Multicast {
        /// The multicasting input port.
        input_port: Direction,
    },
    /// SA granted a VC id that does not exist (defensive check).
    InvalidWinningVc {
        /// The granting input port.
        input_port: Direction,
        /// The invalid VC id.
        vc: u8,
    },
}

/// The Allocation Comparator.
///
/// It holds the VA table: one row per reservation it was told about
/// ([`AllocationComparator::hold`], [`AllocationComparator::release`]),
/// each in its slot, beside the output and input VCs those rows use.
/// Each call to [`AllocationComparator::check`] is one combinational
/// evaluation of the held rows, in slot order, followed by the given
/// rows; a comparator holding nothing evaluates the given tables alone.
#[derive(Debug, Clone, Default)]
pub struct AllocationComparator {
    checks: u64,
    errors_flagged: u64,
    /// The held VA table, indexed by slot.
    rows: Vec<Option<VaEntry>>,
    /// Rows held.
    held: usize,
    /// The output VCs of the held rows.
    outs: VcCounts,
    /// The input VCs of the held rows.
    ins: VcCounts,
}

impl AllocationComparator {
    /// Creates a comparator holding nothing.
    pub fn new() -> Self {
        AllocationComparator::default()
    }

    /// Evaluations performed.
    pub fn check_count(&self) -> u64 {
        self.checks
    }

    /// Evaluations that flagged at least one defect.
    pub fn errors_flagged(&self) -> u64 {
        self.errors_flagged
    }

    /// Puts `row` in slot `slot` of the held VA table, replacing what
    /// the slot held. Held rows are evaluated in ascending slot order.
    #[inline]
    pub fn hold(&mut self, slot: usize, row: VaEntry) {
        self.release(slot);
        if self.rows.len() <= slot {
            self.rows.resize(slot + 1, None);
        }
        self.rows[slot] = Some(row);
        self.held += 1;
        self.outs.insert(VcRef::new(row.out_port, row.out_vc));
        self.ins.insert(row.input_vc);
    }

    /// Empties slot `slot` of the held VA table.
    #[inline]
    pub fn release(&mut self, slot: usize) {
        if let Some(row) = self.rows.get_mut(slot).and_then(Option::take) {
            self.held -= 1;
            self.outs.remove(VcRef::new(row.out_port, row.out_vc));
            self.ins.remove(row.input_vc);
        }
    }

    /// The held rows with their slots, in slot order.
    pub fn held(&self) -> impl Iterator<Item = (usize, VaEntry)> + '_ {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(slot, row)| row.map(|row| (slot, row)))
    }

    /// Whether the held VA table has a row.
    #[inline]
    pub fn holds_any(&self) -> bool {
        self.held > 0
    }

    /// One combinational evaluation over the three state tables, the
    /// held VA rows ahead of `va`.
    ///
    /// `vcs_per_port` bounds valid VC ids. As in Fig. 12's hardware, each
    /// table is held as bit sets and each row read once. Findings come in
    /// row order, VA rows before SA rows; a double booking names its first
    /// claimant. An empty vector means the error flag stays low.
    pub fn check(
        &mut self,
        rt: &[RtEntry],
        va: &[VaEntry],
        sa: &[SaEntry],
        vcs_per_port: usize,
    ) -> Vec<AcFinding> {
        self.checks += 1;
        let (mut findings, vcs) = (Vec::new(), vcs_per_port);

        // One pass over the VA rows, the held ones first, checks (1)
        // agreement with the RT row of the same input VC and (2) VA
        // validity. A held row can raise a finding only if it repeats an
        // earlier row's output VC, carries an invalid id or shares its
        // input VC with an RT row; otherwise the pass starts at the given
        // rows, the held ones standing in as output VCs already seen.
        let (mut walk_held, mut seen) = (false, VcSet::default());
        if self.held > 0 {
            walk_held = self.outs.repeats > 0
                || self.outs.set.any_from(vcs)
                || rt.iter().any(|r| self.ins.set.contains(r.input_vc));
            if !walk_held {
                seen = self.outs.set;
            }
        }
        if !walk_held && va.is_empty() && sa.is_empty() {
            return findings;
        }
        let mut routed = VcSet::default();
        for r in rt {
            routed.insert(r.input_vc);
        }
        let rows = || self.rows.iter().flatten().chain(va);
        if walk_held {
            for v in self.rows.iter().flatten() {
                va_rules(v, rt, &routed, &mut seen, vcs, rows(), &mut findings);
            }
        }
        for v in va {
            va_rules(v, rt, &routed, &mut seen, vcs, rows(), &mut findings);
        }

        // (3) SA validity: invalid winners, duplicate outputs, multicast.
        let (mut outs, mut ins) = (0u8, 0u8);
        for (i, s) in sa.iter().enumerate() {
            if s.winning_vc as usize >= vcs {
                findings.push(AcFinding::InvalidWinningVc {
                    input_port: s.input_port,
                    vc: s.winning_vc,
                });
            }
            let out = 1u8 << s.out_port.index();
            if outs & out != 0 {
                let first = sa[..i].iter().find(|a| a.out_port == s.out_port);
                findings.push(AcFinding::DuplicateOutputPort {
                    first: first.expect("an earlier claimant").input_port,
                    second: s.input_port,
                    out_port: s.out_port,
                });
            }
            outs |= out;
            let input = 1u8 << s.input_port.index();
            if ins & input != 0 {
                // One input connected to two outputs in the same cycle.
                findings.push(AcFinding::Multicast {
                    input_port: s.input_port,
                });
            }
            ins |= input;
        }

        if !findings.is_empty() {
            self.errors_flagged += 1;
        }
        findings
    }
}

/// The VA rules for row `v`: (1) agreement with the RT row of its
/// input VC, looked up only when `routed` has it, and (2) validity — an
/// invalid id, or an output VC already `seen`, whose first claimant is
/// the first of `rows` to hold it.
#[inline(always)]
fn va_rules<'a>(
    v: &VaEntry,
    rt: &[RtEntry],
    routed: &VcSet,
    seen: &mut VcSet,
    vcs_per_port: usize,
    mut rows: impl Iterator<Item = &'a VaEntry>,
    findings: &mut Vec<AcFinding>,
) {
    if routed.contains(v.input_vc) {
        let r = rt.iter().find(|r| r.input_vc == v.input_vc);
        if let Some(r) = r.filter(|r| r.valid_out_port != v.out_port) {
            findings.push(AcFinding::VaDisagreesWithRt {
                input_vc: v.input_vc,
                va_port: v.out_port,
                rt_port: r.valid_out_port,
            });
        }
    }
    if v.out_vc as usize >= vcs_per_port {
        findings.push(AcFinding::InvalidOutputVc {
            input_vc: v.input_vc,
            out_vc: v.out_vc,
        });
    }
    let out = VcRef::new(v.out_port, v.out_vc);
    if !seen.insert(out) {
        let first = rows.find(|a| a.out_port == out.port && a.out_vc == out.vc);
        findings.push(AcFinding::DuplicateOutputVc {
            first: first.expect("an earlier claimant").input_vc,
            second: v.input_vc,
            out,
        });
    }
}

/// A set of (port, VC id) pairs: four words per port give every id a
/// `u8` can carry its own bit, so caller-built tables with ids of 64
/// and up stay exact.
#[derive(Debug, Clone, Copy, Default)]
struct VcSet([[u64; 4]; 5]);

impl VcSet {
    fn word(&mut self, r: VcRef) -> (&mut u64, u64) {
        (
            &mut self.0[r.port.index()][usize::from(r.vc >> 6)],
            1 << (r.vc & 63),
        )
    }

    /// Adds `r`; `false` if it was already there.
    fn insert(&mut self, r: VcRef) -> bool {
        let (word, bit) = self.word(r);
        let new = *word & bit == 0;
        *word |= bit;
        new
    }

    fn remove(&mut self, r: VcRef) {
        let (word, bit) = self.word(r);
        *word &= !bit;
    }

    fn contains(&self, r: VcRef) -> bool {
        self.0[r.port.index()][usize::from(r.vc >> 6)] & 1 << (r.vc & 63) != 0
    }

    /// Whether an id of `from` or more is in the set.
    fn any_from(&self, from: usize) -> bool {
        let mut ids = [0u64; 4];
        for port in &self.0 {
            for (all, word) in ids.iter_mut().zip(port) {
                *all |= word;
            }
        }
        ids.iter().enumerate().any(|(w, &word)| {
            let below = from.saturating_sub(64 * w);
            below < 64 && word >> below != 0
        })
    }
}

/// A multiset of (port, VC id) pairs: the pairs present, and those
/// present more than once with their extra count (rare, so a list).
#[derive(Debug, Clone, Default)]
struct VcCounts {
    set: VcSet,
    extra: Vec<(VcRef, usize)>,
    /// The sum of the extra counts: rows whose pair an earlier row has.
    repeats: usize,
}

impl VcCounts {
    fn insert(&mut self, r: VcRef) {
        if self.set.insert(r) {
            return;
        }
        self.repeats += 1;
        match self.extra.iter_mut().find(|(key, _)| *key == r) {
            Some((_, n)) => *n += 1,
            None => self.extra.push((r, 1)),
        }
    }

    fn remove(&mut self, r: VcRef) {
        match self.extra.iter().position(|(key, _)| *key == r) {
            Some(i) => {
                self.repeats -= 1;
                self.extra[i].1 -= 1;
                if self.extra[i].1 == 0 {
                    self.extra.swap_remove(i);
                }
            }
            None => self.set.remove(r),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Direction::{East, Local, North, South, West};

    fn vc(port: Direction, vc: u8) -> VcRef {
        VcRef::new(port, vc)
    }

    /// The healthy running example from Figure 12: N_1→S_2 and W_3→E_2.
    fn figure12_tables() -> (Vec<RtEntry>, Vec<VaEntry>, Vec<SaEntry>) {
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

    #[test]
    fn healthy_figure12_state_raises_no_flag() {
        let (rt, va, sa) = figure12_tables();
        let mut ac = AllocationComparator::new();
        assert!(ac.check(&rt, &va, &sa, 4).is_empty());
        assert_eq!(ac.check_count(), 1);
        assert_eq!(ac.errors_flagged(), 0);
    }

    #[test]
    fn scenario_1_invalid_output_vc() {
        // 3 VCs (00,01,10); a soft error assigns invalid VC 11.
        let (rt, mut va, sa) = figure12_tables();
        va[0].out_vc = 3;
        let mut ac = AllocationComparator::new();
        let findings = ac.check(&rt, &va, &sa, 3);
        assert!(findings
            .iter()
            .any(|f| matches!(f, AcFinding::InvalidOutputVc { out_vc: 3, .. })));
        assert_eq!(ac.errors_flagged(), 1);
    }

    #[test]
    fn scenario_2_unreserved_vc_assigned_twice() {
        // Packets from North and West both assigned the same South VC.
        let (rt, mut va, sa) = figure12_tables();
        va[1].out_port = South;
        va[1].out_vc = 2;
        let mut ac = AllocationComparator::new();
        let findings = ac.check(&rt, &va, &sa, 4);
        assert!(findings
            .iter()
            .any(|f| matches!(f, AcFinding::DuplicateOutputVc { .. })));
    }

    #[test]
    fn scenario_3_reserved_vc_reassigned() {
        // The VA state already pairs N_1 -> S_2; a new allocation hands
        // S_2 to another requester — visible as a duplicate in the state.
        let (rt, mut va, sa) = figure12_tables();
        va.push(VaEntry {
            input_vc: vc(East, 0),
            out_port: South,
            out_vc: 2,
        });
        let mut ac = AllocationComparator::new();
        let findings = ac.check(&rt, &va, &sa, 4);
        let dup = findings
            .iter()
            .find_map(|f| match f {
                AcFinding::DuplicateOutputVc { first, second, out } => {
                    Some((*first, *second, *out))
                }
                _ => None,
            })
            .expect("duplicate must be found");
        assert_eq!(dup.2, vc(South, 2));
    }

    #[test]
    fn scenario_4a_wrong_vc_same_pc_is_benign() {
        // The wrong output VC but the intended PC: the packet still goes
        // the right way; the AC correctly stays quiet.
        let (rt, mut va, sa) = figure12_tables();
        va[0].out_vc = 0; // intended was 2, still within South
        let mut sa2 = sa.clone();
        sa2[0].winning_vc = 0;
        let mut ac = AllocationComparator::new();
        assert!(ac.check(&rt, &va, &sa2, 4).is_empty());
    }

    #[test]
    fn scenario_4b_wrong_pc_caught_by_rt_comparison() {
        // VA assigns a North VC while the RT unit said South.
        let (rt, mut va, sa) = figure12_tables();
        va[0].out_port = North;
        let mut ac = AllocationComparator::new();
        let findings = ac.check(&rt, &va, &sa, 4);
        assert!(findings.iter().any(|f| matches!(
            f,
            AcFinding::VaDisagreesWithRt {
                va_port: North,
                rt_port: South,
                ..
            }
        )));
    }

    #[test]
    fn sa_case_c_two_grants_to_one_output() {
        let (rt, va, mut sa) = figure12_tables();
        sa[1].out_port = South; // both inputs now drive South
        let mut ac = AllocationComparator::new();
        let findings = ac.check(&rt, &va, &sa, 4);
        assert!(findings.iter().any(|f| matches!(
            f,
            AcFinding::DuplicateOutputPort {
                out_port: South,
                ..
            }
        )));
    }

    #[test]
    fn sa_case_d_multicast_detected() {
        let (rt, va, mut sa) = figure12_tables();
        sa.push(SaEntry {
            input_port: North,
            winning_vc: 2,
            out_port: West,
        }); // North granted to South AND West
        let mut ac = AllocationComparator::new();
        let findings = ac.check(&rt, &va, &sa, 4);
        assert!(findings
            .iter()
            .any(|f| matches!(f, AcFinding::Multicast { input_port: North })));
    }

    #[test]
    fn invalid_winning_vc_detected() {
        let (rt, va, mut sa) = figure12_tables();
        sa[0].winning_vc = 9;
        let mut ac = AllocationComparator::new();
        let findings = ac.check(&rt, &va, &sa, 4);
        assert!(findings
            .iter()
            .any(|f| matches!(f, AcFinding::InvalidWinningVc { vc: 9, .. })));
    }

    #[test]
    fn multiple_defects_reported_together() {
        let (rt, mut va, mut sa) = figure12_tables();
        va[0].out_vc = 7;
        sa[1].out_port = South;
        let mut ac = AllocationComparator::new();
        let findings = ac.check(&rt, &va, &sa, 4);
        assert!(findings.len() >= 2);
        assert_eq!(ac.errors_flagged(), 1, "one flag per cycle");
    }

    #[test]
    fn local_port_entries_participate() {
        // Ejection (Local) port allocations are checked like any other.
        let rt = vec![RtEntry {
            input_vc: vc(East, 0),
            valid_out_port: Local,
        }];
        let va = vec![VaEntry {
            input_vc: vc(East, 0),
            out_port: Local,
            out_vc: 0,
        }];
        let mut ac = AllocationComparator::new();
        assert!(ac.check(&rt, &va, &[], 4).is_empty());
    }

    #[test]
    fn vcref_display() {
        assert_eq!(vc(North, 1).to_string(), "N_1");
        assert_eq!(vc(South, 2).to_string(), "S_2");
    }

    /// The comparator as it was before its tables became bit sets:
    /// pairwise scans over the rows. The property test below holds
    /// [`AllocationComparator::check`] to it.
    fn pairwise(rt: &[RtEntry], va: &[VaEntry], sa: &[SaEntry], vcs: usize) -> Vec<AcFinding> {
        let mut findings = Vec::new();
        for v in va {
            if let Some(r) = rt.iter().find(|r| r.input_vc == v.input_vc) {
                if r.valid_out_port != v.out_port {
                    findings.push(AcFinding::VaDisagreesWithRt {
                        input_vc: v.input_vc,
                        va_port: v.out_port,
                        rt_port: r.valid_out_port,
                    });
                }
            }
        }
        for v in va.iter().filter(|v| v.out_vc as usize >= vcs) {
            findings.push(AcFinding::InvalidOutputVc {
                input_vc: v.input_vc,
                out_vc: v.out_vc,
            });
        }
        for (i, a) in va.iter().enumerate() {
            for b in &va[i + 1..] {
                if a.out_port == b.out_port && a.out_vc == b.out_vc {
                    findings.push(AcFinding::DuplicateOutputVc {
                        first: a.input_vc,
                        second: b.input_vc,
                        out: VcRef::new(a.out_port, a.out_vc),
                    });
                }
            }
        }
        for s in sa.iter().filter(|s| s.winning_vc as usize >= vcs) {
            findings.push(AcFinding::InvalidWinningVc {
                input_port: s.input_port,
                vc: s.winning_vc,
            });
        }
        for (i, a) in sa.iter().enumerate() {
            for b in &sa[i + 1..] {
                if a.out_port == b.out_port {
                    findings.push(AcFinding::DuplicateOutputPort {
                        first: a.input_port,
                        second: b.input_port,
                        out_port: a.out_port,
                    });
                }
                if a.input_port == b.input_port {
                    findings.push(AcFinding::Multicast {
                        input_port: a.input_port,
                    });
                }
            }
        }
        findings
    }

    /// No key occurs more than twice.
    fn at_most_two<K: PartialEq>(keys: &[K]) -> bool {
        keys.iter()
            .all(|k| keys.iter().filter(|other| *other == k).count() <= 2)
    }

    /// The bit-set evaluation raises the flag exactly when the pairwise
    /// scans do, and finds the same set when no output or input has more
    /// than two claimants. The random tables hold invalid ids, repeated
    /// claimants, duplicated RT rows, ids of 64 and up, and the local
    /// ports of a concentrated router collapsed onto `Local`. Splitting
    /// the VA rows into held and given ones changes no finding.
    #[test]
    fn check_matches_the_pairwise_scans() {
        use ftnoc_rng::Rng;
        let mut rng = Rng::seed_from_u64(0xAC12);
        let mut held_rng = Rng::seed_from_u64(0xAC13);
        // Ports 4 and 5 are a concentrated router's local ports: both
        // map to Local.
        let port = |rng: &mut Rng| Direction::for_port(rng.gen_range(0..6usize));
        let id = |rng: &mut Rng| {
            if rng.gen_bool(0.1) {
                rng.next_u64() as u8
            } else {
                rng.gen_range(0..8u8)
            }
        };
        let (mut flagged, mut compared) = (0, 0);
        for case in 0..20_000 {
            let vcs = [1, 3, 4, 8, 64, 100][case % 6];
            let mut rt: Vec<RtEntry> = (0..rng.gen_range(0..6usize))
                .map(|_| RtEntry {
                    input_vc: vc(port(&mut rng), id(&mut rng)),
                    valid_out_port: port(&mut rng),
                })
                .collect();
            if !rt.is_empty() && rng.gen_bool(0.3) {
                let input_vc = rt[rng.gen_range(0..rt.len())].input_vc;
                rt.push(RtEntry {
                    input_vc,
                    valid_out_port: port(&mut rng),
                });
            }
            let va: Vec<VaEntry> = (0..rng.gen_range(0..7usize))
                .map(|_| VaEntry {
                    input_vc: if !rt.is_empty() && rng.gen_bool(0.5) {
                        rt[rng.gen_range(0..rt.len())].input_vc
                    } else {
                        vc(port(&mut rng), id(&mut rng))
                    },
                    out_port: port(&mut rng),
                    out_vc: id(&mut rng),
                })
                .collect();
            let sa: Vec<SaEntry> = (0..rng.gen_range(0..4usize))
                .map(|_| SaEntry {
                    input_port: port(&mut rng),
                    winning_vc: id(&mut rng),
                    out_port: port(&mut rng),
                })
                .collect();

            let got = AllocationComparator::new().check(&rt, &va, &sa, vcs);
            let want = pairwise(&rt, &va, &sa, vcs);
            // Held in ascending slots with gaps, a prefix of the VA rows
            // finds exactly what the all-given evaluation does; so do the
            // rows left after releasing some of them.
            let split = held_rng.gen_range(0..va.len() + 1);
            let mut held = AllocationComparator::new();
            let mut slots = Vec::new();
            for row in &va[..split] {
                let slot = slots.last().map_or(0, |s| s + 1) + held_rng.gen_range(0..3usize);
                held.hold(slot, *row);
                slots.push(slot);
            }
            assert_eq!(held.check(&rt, &va[split..], &sa, vcs), got, "case {case}");
            let mut kept = Vec::new();
            for (slot, row) in slots.iter().zip(&va) {
                if held_rng.gen_bool(0.5) {
                    held.release(*slot);
                } else {
                    kept.push(*row);
                }
            }
            kept.extend_from_slice(&va[split..]);
            let fresh = AllocationComparator::new().check(&rt, &kept, &sa, vcs);
            assert_eq!(
                held.check(&rt, &va[split..], &sa, vcs),
                fresh,
                "case {case}"
            );
            assert_eq!(got.is_empty(), want.is_empty(), "case {case}");
            flagged += usize::from(!got.is_empty());
            let outs: Vec<VcRef> = va.iter().map(|v| vc(v.out_port, v.out_vc)).collect();
            let sa_outs: Vec<Direction> = sa.iter().map(|s| s.out_port).collect();
            let sa_ins: Vec<Direction> = sa.iter().map(|s| s.input_port).collect();
            if at_most_two(&outs) && at_most_two(&sa_outs) && at_most_two(&sa_ins) {
                compared += 1;
                assert_eq!(got.len(), want.len(), "case {case}");
                for f in &want {
                    let count = |list: &[AcFinding]| list.iter().filter(|g| *g == f).count();
                    assert_eq!(count(&got), count(&want), "case {case}: {f:?}");
                }
            }
        }
        // Both outcomes are well represented, and most tables compare
        // their findings in full.
        assert!((1_000..19_000).contains(&flagged), "{flagged} flagged");
        assert!(compared > 10_000, "{compared} compared in full");
    }
}
