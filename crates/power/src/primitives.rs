//! The 90 nm primitive library.
//!
//! Figures are representative of published 90 nm characterisations
//! (ITRS-era cell libraries, Orion-style router models): an SRAM bit cell
//! near 1.1 µm² plus periphery, a NAND2-equivalent near 4.4 µm², register
//! bits near 9 µm², and switching energies of tens of femtojoules per
//! bit-event at 1 V. Absolute accuracy is *not* assumed — the router
//! total is calibrated against the paper (see [`crate::area`]) — but the
//! ratios between primitives are what published libraries report.

/// Areas in µm², energies in pJ per event, power in mW.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Primitives {
    /// Area of one SRAM bit cell including amortised periphery (µm²).
    pub(crate) sram_bit_area: f64,
    /// Area of one D flip-flop (register bit) (µm²).
    pub(crate) flipflop_area: f64,
    /// Area of one NAND2-equivalent gate (µm²).
    pub(crate) gate_area: f64,
    /// Area of one crossbar crosspoint per bit (pass-gate + wiring) (µm²).
    pub(crate) crosspoint_area: f64,

    /// Energy to read one SRAM bit (pJ).
    pub(crate) sram_bit_read: f64,
    /// Energy to write one SRAM bit (pJ).
    pub(crate) sram_bit_write: f64,
    /// Energy of one flip-flop clock+data toggle (pJ).
    pub(crate) flipflop_toggle: f64,
    /// Switching energy of one NAND2-equivalent (pJ).
    pub(crate) gate_switch: f64,
    /// Energy to move one bit across the crossbar (pJ).
    pub(crate) crosspoint_bit: f64,
    /// Energy to drive one bit over a 1 mm inter-router wire (pJ).
    pub(crate) link_bit: f64,

    /// Leakage power density (mW per mm²) at 90 nm, 1 V.
    pub(crate) leakage_per_mm2: f64,
    /// Clock frequency (Hz) for energy→power conversions.
    pub(crate) clock_hz: f64,
}

impl Primitives {
    /// The default 90 nm / 1 V / 500 MHz library used throughout.
    pub(crate) const fn tsmc90_500mhz() -> Self {
        Primitives {
            sram_bit_area: 1.5,
            flipflop_area: 9.0,
            gate_area: 4.4,
            crosspoint_area: 2.2,

            sram_bit_read: 0.011,
            sram_bit_write: 0.013,
            flipflop_toggle: 0.015,
            gate_switch: 0.003,
            crosspoint_bit: 0.016,
            link_bit: 0.12,

            leakage_per_mm2: 28.0,
            clock_hz: 500.0e6,
        }
    }

    /// Converts a per-cycle switched energy (pJ) into average dynamic
    /// power (mW) at this clock: `P[mW] = E[pJ] × f[GHz]`.
    pub(crate) fn dynamic_power_mw(&self, energy_pj_per_cycle: f64) -> f64 {
        energy_pj_per_cycle * (self.clock_hz / 1e9)
    }
}

impl Default for Primitives {
    fn default() -> Self {
        Primitives::tsmc90_500mhz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_library_is_500mhz() {
        let p = Primitives::default();
        assert_eq!(p.clock_hz, 500.0e6);
    }

    #[test]
    fn dynamic_power_conversion() {
        let p = Primitives::tsmc90_500mhz();
        // 2 pJ switched every cycle at 500 MHz = 1 mW.
        assert!((p.dynamic_power_mw(2.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn relative_magnitudes_are_sane() {
        let p = Primitives::tsmc90_500mhz();
        assert!(p.sram_bit_area < p.gate_area);
        assert!(p.gate_area < p.flipflop_area);
        assert!(p.link_bit > p.crosspoint_bit, "wires dominate");
        assert!(p.sram_bit_write >= p.sram_bit_read);
    }
}
