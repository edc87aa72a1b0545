//! # ftnoc-metrics — deterministic observability for the simulator
//!
//! A zero-dependency metrics substrate with one hard rule: **enabling
//! metrics must never perturb the simulation**. Every collector in this
//! crate is a pure *reader* of simulator state (or of wall-clock time,
//! which lives strictly outside the simulated machine), so traces,
//! reports and fuzz outcomes are byte-identical metrics-on vs
//! metrics-off. `tests/metrics.rs` pins this.
//!
//! The pieces:
//!
//! - [`profile`] — [`profile::ProfileSnapshot`], the wall-clock time
//!   the cycle engine spent in its pre, compute and commit phases.
//! - [`telemetry`] — [`telemetry::MeshTelemetry`] per-router hotspot
//!   counters (flits routed, buffer stalls, retransmissions, NACKs,
//!   probes, faults, recoveries) harvested from the routers' own
//!   censuses.
//! - `heatmap` — ASCII router-grid heatmaps of any per-router
//!   metric, with topology-aware layouts (torus wrap annotations,
//!   cmesh concentration notes, chiplet tile separators).
//! - [`emit`] — hand-rolled JSONL serialization of the periodic
//!   interval snapshots (`--metrics-out`).
//! - [`json`] — the shared JSON value writers and a minimal reader.
//! - [`census!`] — declares a struct of `u64` counters once and derives
//!   its sum, difference, names and JSON; the simulator's event, error
//!   and fault censuses and [`RouterTelemetry`] are declared through it.
//! - [`report`] — the `ftnoc report` renderer: summary tables, phase
//!   timing totals, interval deltas and router heatmaps from a metrics
//!   JSONL file.
//!
//! Determinism argument, in one paragraph: counters and telemetry are
//! derived from simulator state that already exists (they add reads,
//! never writes, and consume no RNG draws); the profiler reads
//! `std::time::Instant`, whose values flow only into these metrics and
//! never back into simulation or trace state. Wall-clock numbers are
//! therefore *excluded* from determinism checks — two runs of the same
//! seed produce identical traces and identical metric *counts* but
//! different nanosecond readings, and that is the intended contract.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

mod census;
pub mod emit;
pub(crate) mod heatmap;
pub mod json;
pub mod profile;
pub mod report;
pub mod telemetry;

pub use emit::{IntervalLine, MetaLine};
pub use heatmap::LayoutKind;
pub use profile::ProfileSnapshot;
pub use telemetry::{MeshTelemetry, RouterTelemetry};
