//! Per-event energies for the cycle-accurate simulator's accounting.
//!
//! The paper imports synthesized per-component power into its simulator
//! and traces the power profile of the whole network (§2.2). We do the
//! same: every micro-architectural event (buffer write, crossbar
//! traversal, link flit, allocator pass, …) charges a fixed energy taken
//! from the primitive library, and the simulator sums them per packet.

use ftnoc_types::flit::FLIT_TOTAL_BITS;
use ftnoc_types::units::Picojoules;

use crate::primitives::Primitives;

/// A chargeable micro-architectural event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnergyEvent {
    /// Writing one flit into an input-buffer slot.
    BufferWrite,
    /// Reading one flit out of an input buffer.
    BufferRead,
    /// One flit crossing the crossbar.
    CrossbarTraversal,
    /// One flit driven over an inter-router link.
    LinkTraversal,
    /// One routing computation.
    RouteCompute,
    /// One VC-allocation arbitration pass.
    VcAllocation,
    /// One switch-allocation arbitration pass.
    SwitchAllocation,
    /// One flit pushed through the retransmission barrel shifter.
    RetransBufferShift,
    /// One flit replayed from the retransmission buffer (read + drive).
    Retransmission,
    /// One SEC/DED decode at an error-check unit.
    EccCheck,
    /// One NACK side-band transfer.
    NackSignal,
    /// One Allocation Comparator check cycle.
    AcCheck,
}

impl EnergyEvent {
    /// Every event kind (for reports).
    pub const ALL: [EnergyEvent; 12] = [
        EnergyEvent::BufferWrite,
        EnergyEvent::BufferRead,
        EnergyEvent::CrossbarTraversal,
        EnergyEvent::LinkTraversal,
        EnergyEvent::RouteCompute,
        EnergyEvent::VcAllocation,
        EnergyEvent::SwitchAllocation,
        EnergyEvent::RetransBufferShift,
        EnergyEvent::Retransmission,
        EnergyEvent::EccCheck,
        EnergyEvent::NackSignal,
        EnergyEvent::AcCheck,
    ];
}

/// Maps events to energies.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    prims: Primitives,
}

impl EnergyModel {
    /// The default 90 nm model.
    pub fn new() -> Self {
        EnergyModel {
            prims: Primitives::default(),
        }
    }

    /// Energy charged for one event.
    pub fn cost(&self, event: EnergyEvent) -> Picojoules {
        let b = FLIT_TOTAL_BITS as f64;
        let p = &self.prims;
        let pj = match event {
            EnergyEvent::BufferWrite => b * p.sram_bit_write,
            EnergyEvent::BufferRead => b * p.sram_bit_read,
            EnergyEvent::CrossbarTraversal => b * p.crosspoint_bit,
            EnergyEvent::LinkTraversal => b * p.link_bit,
            EnergyEvent::RouteCompute => 160.0 * p.gate_switch,
            EnergyEvent::VcAllocation => 120.0 * p.gate_switch,
            EnergyEvent::SwitchAllocation => 90.0 * p.gate_switch,
            EnergyEvent::RetransBufferShift => b * p.flipflop_toggle * 0.5,
            EnergyEvent::Retransmission => b * (p.flipflop_toggle * 0.5 + p.link_bit),
            EnergyEvent::EccCheck => 420.0 * p.gate_switch * 0.5,
            EnergyEvent::NackSignal => 8.0 * p.link_bit,
            EnergyEvent::AcCheck => 300.0 * p.gate_switch * 0.5,
        };
        Picojoules(pj)
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_traversal_dominates_per_flit_costs() {
        let m = EnergyModel::new();
        let link = m.cost(EnergyEvent::LinkTraversal).raw();
        for ev in [
            EnergyEvent::BufferWrite,
            EnergyEvent::BufferRead,
            EnergyEvent::CrossbarTraversal,
            EnergyEvent::EccCheck,
        ] {
            assert!(link > m.cost(ev).raw(), "{ev:?}");
        }
    }

    #[test]
    fn all_costs_are_positive() {
        let m = EnergyModel::new();
        for ev in EnergyEvent::ALL {
            assert!(m.cost(ev).raw() > 0.0, "{ev:?}");
        }
    }

    #[test]
    fn retransmission_costs_more_than_plain_link() {
        let m = EnergyModel::new();
        assert!(
            m.cost(EnergyEvent::Retransmission).raw() > m.cost(EnergyEvent::LinkTraversal).raw()
        );
    }

    #[test]
    fn per_packet_energy_lands_in_paper_range() {
        // A 4-flit packet over ~6.3 hops (8x8 uniform average + ejection)
        // should land within the sub-nanojoule scale of Figure 7.
        let m = EnergyModel::new();
        let per_flit_hop = m.cost(EnergyEvent::BufferWrite)
            + m.cost(EnergyEvent::BufferRead)
            + m.cost(EnergyEvent::CrossbarTraversal)
            + m.cost(EnergyEvent::LinkTraversal)
            + m.cost(EnergyEvent::EccCheck);
        let packet = per_flit_hop * (4.0 * 6.3);
        let nj = packet.to_nanojoules().raw();
        assert!(
            (0.1..1.5).contains(&nj),
            "4-flit packet energy {nj:.3} nJ outside Figure 7's scale"
        );
    }

    #[test]
    fn nack_is_cheap() {
        // The NACK side-band is 8 wires, not a full flit.
        let m = EnergyModel::new();
        assert!(
            m.cost(EnergyEvent::NackSignal).raw() < m.cost(EnergyEvent::LinkTraversal).raw() / 5.0
        );
    }
}
