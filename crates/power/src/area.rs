//! Component-composition area/power model of the generic NoC router and
//! the Allocation Comparator, reproducing Table 1.
//!
//! Components are counted in primitives (the `primitives` module) exactly as
//! a structural-RTL implementation would instantiate them: synthesized
//! (flip-flop based) buffers, a pass-gate crossbar, matrix arbiters, and
//! the AC's comparator planes. A calibration pass then scales the raw
//! totals so the *generic router* matches the paper's synthesized budget
//! (119.55 mW, 0.374862 mm²); the AC unit inherits the same scale, so its
//! relative overhead — Table 1's actual claim — comes from the model.

use ftnoc_types::config::RouterConfig;
use ftnoc_types::flit::FLIT_TOTAL_BITS;
use ftnoc_types::units::{Millimeters2, Milliwatts};

use crate::primitives::Primitives;

/// Paper's synthesized router power (Table 1).
pub(crate) const PAPER_ROUTER_POWER_MW: f64 = 119.55;
/// Paper's synthesized router area (Table 1).
pub(crate) const PAPER_ROUTER_AREA_MM2: f64 = 0.374862;

/// Raw (uncalibrated) area/power of one router component.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct ComponentBudget {
    /// Component name.
    pub(crate) name: &'static str,
    /// Area in µm² (raw model units before calibration).
    pub(crate) area_um2: f64,
    /// Average switched energy per cycle in pJ (dynamic activity already
    /// folded in).
    pub(crate) energy_pj_per_cycle: f64,
}

impl ComponentBudget {
    fn new(name: &'static str, area_um2: f64, energy_pj_per_cycle: f64) -> Self {
        ComponentBudget {
            name,
            area_um2,
            energy_pj_per_cycle,
        }
    }
}

/// Primitive-composition model of the generic router of Figure 1.
#[derive(Debug, Clone)]
pub struct RouterModel {
    config: RouterConfig,
    prims: Primitives,
    /// Wiring/clock-tree/control overhead multiplier on synthesized area.
    pub(crate) overhead_factor: f64,
}

impl RouterModel {
    /// Builds the model for a router configuration with the default 90 nm
    /// library.
    pub fn new(config: RouterConfig) -> Self {
        RouterModel {
            config,
            prims: Primitives::default(),
            overhead_factor: 1.35,
        }
    }

    /// The configuration being modelled.
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    /// Per-component raw budgets (synthesized-RTL inventory).
    pub(crate) fn components(&self) -> Vec<ComponentBudget> {
        let p = self.config.ports() as f64;
        let v = self.config.vcs_per_port() as f64;
        let d = self.config.buffer_depth() as f64;
        let r = self.config.retrans_depth() as f64;
        let b = FLIT_TOTAL_BITS as f64;
        let pr = &self.prims;
        let pv = p * v;

        // Input (transmission) buffers: flip-flop based, as synthesized RTL.
        let buf_bits = pv * d * b;
        let input_buffers = ComponentBudget::new(
            "input buffers",
            buf_bits * pr.flipflop_area,
            // Activity: ~0.5 flit write + 0.5 read per port per cycle under load.
            p * b * (pr.sram_bit_write + pr.sram_bit_read) * 0.5 * 6.0,
        );

        // Retransmission buffers: barrel shifters, shift every transmission.
        let retrans_bits = pv * r * b;
        let retrans_buffers = ComponentBudget::new(
            "retransmission buffers",
            retrans_bits * pr.flipflop_area,
            p * b * pr.flipflop_toggle * 0.4 * r,
        );

        // Crossbar: P×P crosspoints, b bits wide, plus drive wiring.
        let crossbar = ComponentBudget::new(
            "crossbar",
            p * p * b * pr.crosspoint_area * 2.0,
            p * b * pr.crosspoint_bit * 0.5,
        );

        // VC allocator: PV:1 arbiter per output VC (matrix cells) + state.
        let va_cells = pv * pv;
        let vc_allocator = ComponentBudget::new(
            "vc allocator",
            va_cells * 2.5 * pr.gate_area + pv * 6.0 * pr.flipflop_area,
            va_cells * pr.gate_switch * 0.3 + pv * pr.flipflop_toggle * 0.2,
        );

        // Switch allocator: V:1 per input + P:1 per output, matrix arbiters.
        let sa_cells = p * v * v + p * p * p;
        let sw_allocator = ComponentBudget::new(
            "switch allocator",
            sa_cells * 2.5 * pr.gate_area + p * 4.0 * pr.flipflop_area,
            sa_cells * pr.gate_switch * 0.5,
        );

        // Routing unit: per-port comparator/decision logic.
        let routing = ComponentBudget::new(
            "routing unit",
            p * 160.0 * pr.gate_area,
            p * 160.0 * pr.gate_switch * 0.2,
        );

        // SEC/DED codecs: encoder at injection + decoder per input port.
        let ecc_gates_per_codec = 420.0;
        let ecc = ComponentBudget::new(
            "ecc codecs",
            (p + 1.0) * ecc_gates_per_codec * pr.gate_area,
            p * ecc_gates_per_codec * pr.gate_switch * 0.4,
        );

        // Output latches and credit/handshake logic (incl. TMR wires).
        let output_units = ComponentBudget::new(
            "output/credit units",
            p * b * pr.flipflop_area + p * 90.0 * pr.gate_area,
            p * b * pr.flipflop_toggle * 0.4,
        );

        vec![
            input_buffers,
            retrans_buffers,
            crossbar,
            vc_allocator,
            sw_allocator,
            routing,
            ecc,
            output_units,
        ]
    }

    /// Raw (uncalibrated) totals with the overhead factor applied.
    pub(crate) fn raw_totals(&self) -> (f64, f64) {
        let comps = self.components();
        let area: f64 = comps.iter().map(|c| c.area_um2).sum::<f64>() * self.overhead_factor;
        let energy: f64 = comps.iter().map(|c| c.energy_pj_per_cycle).sum();
        (area, energy)
    }

    /// Raw power in mW: dynamic (energy × f) + leakage (area-proportional).
    pub(crate) fn raw_power_mw(&self) -> f64 {
        let (area_um2, energy) = self.raw_totals();
        self.prims.dynamic_power_mw(energy) + self.prims.leakage_per_mm2 * (area_um2 / 1e6)
    }

    /// Calibrated budget: scaled so the paper's reference configuration
    /// (5 PCs × 4 VCs) hits the synthesized totals exactly.
    pub fn calibrated(&self) -> RouterBudget {
        let cal = Calibration::to_paper();
        let (area_um2, _) = self.raw_totals();
        RouterBudget {
            area: Millimeters2(area_um2 / 1e6 * cal.area_scale),
            power: Milliwatts(self.raw_power_mw() * cal.power_scale),
        }
    }

    /// The §4.5 "fool-proof" option: duplicate retransmission buffers so
    /// a multi-bit upset inside the buffer itself cannot poison a replay.
    /// Returns the calibrated cost of the duplication (the paper: "this
    /// will double the buffer area and power overhead").
    #[cfg(test)]
    fn duplicate_retrans_cost(&self) -> RouterBudget {
        let retrans = self
            .components()
            .into_iter()
            .find(|c| c.name == "retransmission buffers")
            .expect("retransmission buffers are modelled");
        let cal = Calibration::to_paper();
        let area_um2 = retrans.area_um2 * self.overhead_factor;
        let power = self.prims.dynamic_power_mw(retrans.energy_pj_per_cycle)
            + self.prims.leakage_per_mm2 * (area_um2 / 1e6);
        RouterBudget {
            area: Millimeters2(area_um2 / 1e6 * cal.area_scale),
            power: Milliwatts(power * cal.power_scale),
        }
    }
}

/// Scale factors anchoring the raw model to the paper's synthesis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Calibration {
    /// Multiplier on raw area.
    pub(crate) area_scale: f64,
    /// Multiplier on raw power.
    pub(crate) power_scale: f64,
}

impl Calibration {
    /// Computes the scales that map the reference router (5 PCs, 4 VCs per
    /// PC as in Table 1) onto the paper's synthesized totals.
    pub(crate) fn to_paper() -> Calibration {
        let reference = RouterModel::new(table1_router_config());
        let (raw_area_um2, _) = reference.raw_totals();
        let raw_power = reference.raw_power_mw();
        Calibration {
            area_scale: PAPER_ROUTER_AREA_MM2 / (raw_area_um2 / 1e6),
            power_scale: PAPER_ROUTER_POWER_MW / raw_power,
        }
    }
}

/// The Table 1 router configuration: 5 PCs, **4** VCs per PC.
pub(crate) fn table1_router_config() -> RouterConfig {
    RouterConfig::builder()
        .vcs_per_port(4)
        .buffer_depth(4)
        .build()
        .expect("table 1 configuration is valid")
}

/// A calibrated (paper-unit) area/power pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterBudget {
    /// Total area.
    pub area: Millimeters2,
    /// Total (dynamic + leakage) power.
    pub power: Milliwatts,
}

/// Primitive-composition model of the Allocation Comparator (Figure 12).
///
/// The AC's three parallel checks are pure combinational logic over the
/// `P×V` state entries, each only a few bits wide (§4.1):
///
/// 1. VA-output vs routing-function agreement: one small comparator per
///    entry,
/// 2. invalid / duplicate output-VC detection: per-entry range check plus
///    a one-hot occupancy plane,
/// 3. invalid / duplicate / multicast switch-grant detection over the
///    `P×P` grant matrix.
#[derive(Debug, Clone)]
pub(crate) struct AcUnitModel {
    config: RouterConfig,
    prims: Primitives,
}

impl AcUnitModel {
    /// Builds the AC model for a router configuration.
    pub(crate) fn new(config: RouterConfig) -> Self {
        AcUnitModel {
            config,
            prims: Primitives::default(),
        }
    }

    /// NAND2-equivalent gate count of the comparator planes.
    pub(crate) fn gate_count(&self) -> f64 {
        let p = self.config.ports() as f64;
        let v = self.config.vcs_per_port() as f64;
        let pv = p * v;
        let vc_bits = (self.config.vcs_per_port() as f64).log2().ceil().max(1.0);
        let port_bits = (self.config.ports() as f64).log2().ceil().max(1.0);

        // (1) agreement comparators: XOR + reduce per entry over port bits.
        let agreement = pv * (port_bits * 3.0);
        // (2) invalid-VC range checks + duplicate one-hot plane per output PC.
        let invalid = pv * (vc_bits * 2.0);
        let duplicate = p * v * v * 1.5;
        // (3) SA grant-matrix checks: multicast (row population) and
        // duplicate-column detection.
        let sa_checks = p * p * 3.0;
        // Error-flag aggregation and invalidation drivers.
        let flags = pv + 12.0;
        agreement + invalid + duplicate + sa_checks + flags
    }

    /// Pipeline/staging flip-flops (error flags latched per port).
    pub(crate) fn flipflop_count(&self) -> f64 {
        self.config.ports() as f64
    }

    /// Raw area in µm².
    pub(crate) fn raw_area_um2(&self) -> f64 {
        self.gate_count() * self.prims.gate_area + self.flipflop_count() * self.prims.flipflop_area
    }

    /// Raw average switched energy per cycle (the AC checks every cycle;
    /// comparator activity is high by design).
    pub(crate) fn raw_energy_pj_per_cycle(&self) -> f64 {
        self.gate_count() * self.prims.gate_switch * 0.5
            + self.flipflop_count() * self.prims.flipflop_toggle
    }

    /// Raw power in mW.
    pub(crate) fn raw_power_mw(&self) -> f64 {
        self.prims.dynamic_power_mw(self.raw_energy_pj_per_cycle())
            + self.prims.leakage_per_mm2 * (self.raw_area_um2() / 1e6)
    }

    /// Calibrated budget in paper units.
    pub(crate) fn calibrated(&self) -> RouterBudget {
        let cal = Calibration::to_paper();
        RouterBudget {
            area: Millimeters2(self.raw_area_um2() / 1e6 * cal.area_scale),
            power: Milliwatts(self.raw_power_mw() * cal.power_scale),
        }
    }
}

/// The reproduction of Table 1: router vs AC-unit budgets and overheads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1 {
    /// Generic router budget (5 PCs, 4 VCs per PC).
    pub router: RouterBudget,
    /// Allocation Comparator budget.
    pub ac: RouterBudget,
}

impl Table1 {
    /// Computes the table with the calibrated models.
    pub fn compute() -> Table1 {
        let config = table1_router_config();
        Table1 {
            router: RouterModel::new(config).calibrated(),
            ac: AcUnitModel::new(config).calibrated(),
        }
    }

    /// AC power overhead in percent (paper: 1.69 %).
    pub fn power_overhead_percent(&self) -> f64 {
        self.ac.power.raw() / self.router.power.raw() * 100.0
    }

    /// AC area overhead in percent (paper: 1.19 %).
    pub fn area_overhead_percent(&self) -> f64 {
        self.ac.area.raw() / self.router.area.raw() * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_router_matches_paper_totals_exactly() {
        let budget = RouterModel::new(table1_router_config()).calibrated();
        assert!((budget.power.raw() - PAPER_ROUTER_POWER_MW).abs() < 1e-9);
        assert!((budget.area.raw() - PAPER_ROUTER_AREA_MM2).abs() < 1e-12);
    }

    #[test]
    fn table1_overheads_are_near_paper() {
        let t = Table1::compute();
        let area_pct = t.area_overhead_percent();
        let power_pct = t.power_overhead_percent();
        // Paper: 1.19 % area, 1.69 % power. The model must land in the
        // same "minimal overhead" regime (same claim, ±1 percentage point).
        assert!(
            (0.4..=2.4).contains(&area_pct),
            "area overhead {area_pct:.2} % too far from paper's 1.19 %"
        );
        assert!(
            (0.7..=2.9).contains(&power_pct),
            "power overhead {power_pct:.2} % too far from paper's 1.69 %"
        );
    }

    #[test]
    fn buffers_dominate_router_area() {
        // Sanity on the inventory: storage is the dominant consumer in
        // synthesized NoC routers.
        let model = RouterModel::new(table1_router_config());
        let comps = model.components();
        let total: f64 = comps.iter().map(|c| c.area_um2).sum();
        let buffers: f64 = comps
            .iter()
            .filter(|c| c.name.contains("buffer"))
            .map(|c| c.area_um2)
            .sum();
        assert!(
            buffers / total > 0.5,
            "buffers are {:.0} %",
            buffers / total * 100.0
        );
    }

    #[test]
    fn more_vcs_cost_more_area() {
        let small = RouterModel::new(RouterConfig::builder().vcs_per_port(2).build().unwrap());
        let big = RouterModel::new(RouterConfig::builder().vcs_per_port(8).build().unwrap());
        assert!(big.raw_totals().0 > small.raw_totals().0 * 2.0);
    }

    #[test]
    fn ac_scales_quadratically_with_vcs_but_stays_small() {
        let cfg4 = table1_router_config();
        let cfg8 = RouterConfig::builder().vcs_per_port(8).build().unwrap();
        let ac4 = AcUnitModel::new(cfg4).gate_count();
        let ac8 = AcUnitModel::new(cfg8).gate_count();
        assert!(ac8 > ac4);
        // Even at 8 VCs the AC stays a tiny fraction of the router.
        let router8 = RouterModel::new(cfg8).raw_totals().0;
        assert!(AcUnitModel::new(cfg8).raw_area_um2() / router8 < 0.05);
    }

    #[test]
    fn ac_gate_count_is_compact() {
        // §4.1 stresses compactness: a few hundred gates, not thousands.
        let gates = AcUnitModel::new(table1_router_config()).gate_count();
        assert!(
            (150.0..1500.0).contains(&gates),
            "AC gate count {gates} outside the compact range"
        );
    }

    #[test]
    fn duplicate_retrans_buffers_cost_a_visible_fraction() {
        // §4.5: duplicating the retransmission buffers doubles *their*
        // overhead — a real but bounded cost (well under half the router,
        // far above the AC's ~1 %).
        let model = RouterModel::new(table1_router_config());
        let dup = model.duplicate_retrans_cost();
        let total = model.calibrated();
        let frac = dup.area.raw() / total.area.raw();
        assert!(
            (0.02..0.40).contains(&frac),
            "duplicate retrans buffers are {:.1} % of the router",
            frac * 100.0
        );
        assert!(dup.power.raw() > 0.0);
    }

    #[test]
    fn calibration_scales_are_positive_and_moderate() {
        let cal = Calibration::to_paper();
        assert!(cal.area_scale > 0.2 && cal.area_scale < 20.0, "{cal:?}");
        assert!(cal.power_scale > 0.2 && cal.power_scale < 20.0, "{cal:?}");
    }
}
