//! Correctness tooling for the NoC simulator: a cycle-level invariant
//! oracle and a deterministic fault-campaign fuzzer.
//!
//! The [`Oracle`] validates, at every commit boundary, the architectural
//! invariants the paper's fault-tolerance machinery is supposed to
//! uphold: flit conservation across links and buffers, per-VC credit
//! accounting, wormhole ordering, allocation exclusivity (the §4 AC
//! symptom classes), HBH go-back-N replay equivalence, and soundness of
//! the §3.2.2 deadlock probes. A [`CampaignPlan`] describes a fuzz run
//! — thousands of short randomized simulations across the configuration
//! space, checking the oracle every cycle — and [`CampaignPlan::run`]
//! executes it on a worker pool, stops at the first failing campaign
//! and shrinks it to a minimal, replayable reproducer spec. The report
//! is identical at any thread count.
//!
//! The seam to the simulator is state in, closure out: the oracle reads
//! run state from one [`ftnoc_sim::NetSnapshot`] per cycle and takes
//! everything the configuration fixes (router shape, neighbour table,
//! fault plan) from the [`ftnoc_sim::SimConfig`] it is built from.
//!
//! # Examples
//!
//! Replaying a single reproducer spec:
//!
//! ```
//! use ftnoc_check::CampaignParams;
//!
//! let params = CampaignParams::from_spec("w=3,h=3,scheme=hbh,link=0.01,cycles=400,seed=7")?;
//! params.check().expect("invariants hold");
//! # Ok::<(), String>(())
//! ```
//!
//! Sweeping sampled campaigns on a worker pool:
//!
//! ```
//! use ftnoc_check::CampaignPlan;
//!
//! let report = CampaignPlan::new()
//!     .campaigns(4)
//!     .threads(2)
//!     .run();
//! assert_eq!(report.campaigns_run, 4);
//! assert!(report.failure.is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod oracle;
pub mod runner;

pub use campaign::{CampaignParams, FuzzTopology, OrgFilter, ScenarioFilter};
pub use oracle::{ArmedInvariants, Oracle, Violation};
pub use runner::{CampaignPlan, Failure, FuzzReport};
