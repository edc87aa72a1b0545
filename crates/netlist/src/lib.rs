//! Gate-level netlists: the structural-RTL substrate behind the paper's
//! §2.2 synthesis methodology, in miniature.
//!
//! The paper implements its router and the Allocation Comparator in
//! structural Verilog and synthesizes them to get Table 1's area and
//! power. This crate provides the same two ingredients for the parts of
//! the design that are pure combinational logic:
//!
//! - [`circuit`]: a tiny netlist builder/evaluator (AND/OR/XOR/NOT over
//!   named inputs), with topological evaluation and NAND2-equivalent gate
//!   counting;
//! - [`hamming`]: the SEC/DED encoder as an XOR-tree netlist, matched
//!   bit-for-bit against `ftnoc-ecc`;
//! - [`ac`]: the Allocation Comparator of Figure 12 *as a netlist*,
//!   constructed structurally (field comparators, one-hot decoders,
//!   pairwise-conflict planes) and cross-validated bit-for-bit against
//!   the behavioral [`ftnoc_core::ac::AllocationComparator`].
//!
//! The netlist's gate count is an independent check on the hand
//! inventory in `ftnoc-power`'s [`AcUnitModel`]: both land in the same
//! few-hundred-NAND2 range that makes the AC's ~1 % overhead credible.
//!
//! [`AcUnitModel`]: https://docs.rs/ftnoc-power
//!
//! # Examples
//!
//! ```
//! use ftnoc_netlist::circuit::Circuit;
//!
//! // A 2-bit equality comparator: eq = !(a0^b0) & !(a1^b1).
//! let mut c = Circuit::new();
//! let a0 = c.input("a0");
//! let a1 = c.input("a1");
//! let b0 = c.input("b0");
//! let b1 = c.input("b1");
//! let x0 = c.xor(a0, b0);
//! let x1 = c.xor(a1, b1);
//! let n0 = c.not(x0);
//! let n1 = c.not(x1);
//! let eq = c.and(n0, n1);
//! c.output("eq", eq);
//!
//! let out = c.evaluate(&[("a0", true), ("a1", false), ("b0", true), ("b1", false)]);
//! assert!(out["eq"]);
//! assert!(c.nand2_equivalents() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

pub mod ac;
pub mod circuit;
pub mod hamming;

pub use ac::AcNetlist;
pub use circuit::Circuit;
