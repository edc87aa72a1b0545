//! Fault injection for the NoC: soft upsets on links and router logic,
//! plus hard (permanent) link/router failures.
//!
//! The paper's evaluation (§2.2, §4) randomly generates soft faults both
//! within routers and on inter-router links. This crate centralises that
//! randomness behind a seeded, reproducible [`FaultInjector`]: the
//! simulator asks it, per event (flit traversal, route computation,
//! allocation, …), whether a fault fires, and the injector keeps the
//! injected-fault census used by Figure 13a.
//!
//! # Examples
//!
//! ```
//! use ftnoc_fault::{FaultInjector, FaultRates};
//!
//! // A link-error-only scenario at rate 0.01 per flit traversal:
//! let mut inj = FaultInjector::new(FaultRates::link_only(0.01), 42);
//! let events = 100_000;
//! let fired = (0..events).filter(|_| inj.link_error().is_some()).count();
//! assert!((800..1200).contains(&fired)); // ~1 %
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod hard;
pub mod injector;
pub mod plan;
pub mod rates;
pub mod schedule;

pub use events::{FaultCause, FaultEvent, FaultEventKind};
pub use hard::HardFaults;
pub use injector::{FaultCounts, FaultInjector, LinkErrorKind};
pub use plan::{FaultPlan, WearoutSpec};
pub use rates::{ErrorMix, FaultRates};
pub use schedule::{FaultTimeline, ScheduledKill, ScheduledRouterKill};
