//! Analytical energy, power and area models for the NoC router.
//!
//! # Why this crate exists (substitution notice)
//!
//! The paper obtains its power/area numbers by synthesizing structural RTL
//! Verilog with Synopsys Design Compiler against a TSMC 90 nm library
//! (1 V, 500 MHz) and importing the results into its network simulator
//! (§2.2). Neither the proprietary library nor the synthesis flow is
//! available here, so this crate substitutes a **primitive-composition
//! model**: router components are expressed as counts of 90 nm primitives
//! (SRAM bits, flip-flops, NAND2-equivalent gates, crossbar crosspoints,
//! link wires), each with a defensible area/energy figure, and a single
//! calibration pass anchors the *generic router total* to the paper's
//! synthesized values (119.55 mW, 0.374862 mm²). Relative overheads —
//! which is what Table 1 and Figures 7/13b actually claim — then follow
//! from the model's structure rather than from the calibration.
//!
//! - [`primitives`]: the 90 nm primitive library.
//! - [`area`]: component-by-component router area/power and Table 1.
//! - [`energy`]: per-event energies consumed by the cycle-accurate
//!   simulator's accounting.
//! - [`report`]: the pretty-printed Table 1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod energy;
pub mod primitives;
pub mod report;

pub use area::{AcUnitModel, RouterBudget, RouterModel, Table1};
pub use energy::{EnergyEvent, EnergyModel};
pub use primitives::Primitives;
