//! The fault-tolerance mechanisms of Park et al., *"Exploring
//! Fault-Tolerant Network-on-Chip Architectures"* (DSN 2006).
//!
//! This crate is the paper's primary contribution as a library of
//! cycle-level, individually testable components:
//!
//! - [`retransmission`]: the 3-deep barrel-shifter retransmission
//!   buffer of Figure 3;
//! - [`buffers`]: the input port's per-VC transmission FIFOs and the
//!   sender's credit ledger, both under one slot-sharing rule whose two
//!   values are the static per-VC partition and the DAMQ shared pool;
//! - [`hbh`]: the receiver half of the flit-based hop-by-hop
//!   retransmission protocol of §3.1 (drop window + verdict) and its
//!   Figure 4 timing; the sender half is the barrel shifter itself;
//! - [`e2e`]: the end-to-end retransmission baseline (source-side packet
//!   buffer, destination checker, ACK/NACK bookkeeping);
//! - [`deadlock`]: the probing protocol (Rules 1–4), the
//!   retransmission-buffer recovery procedure of Figure 10, and the
//!   buffer-sizing theorem of Eq. (1);
//! - [`ac`]: the Allocation Comparator of Figure 12;
//! - [`recovery`]: the §4 recovery-latency model per pipeline depth.
//!
//! The cycle-accurate simulator (`ftnoc-sim`) composes these components
//! into full routers; every component here is also usable standalone.
//!
//! # Examples
//!
//! ```
//! use ftnoc_core::deadlock::DeadlockCycleSpec;
//!
//! // Figure 10's configuration: 3 nodes, 4-flit transmission buffers,
//! // 3-deep retransmission buffers, 4-flit packets.
//! let spec = DeadlockCycleSpec::uniform(3, 4, 3, 4);
//! assert_eq!(spec.total_buffer_size(), 21);
//! assert_eq!(spec.required_size(), 12);
//! assert!(spec.recovery_is_guaranteed());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

pub mod ac;
pub mod buffers;
pub mod deadlock;
pub mod e2e;
pub mod hbh;
pub mod recovery;
pub mod retransmission;

pub use ac::{AcFinding, AllocationComparator, SaEntry, VaEntry, VcRef};
pub use buffers::{CreditLedger, PortBuffer};
pub use hbh::{HbhReceiver, ReceiverVerdict};
pub use recovery::{recovery_latency, LogicFaultKind};
pub use retransmission::RetransmissionBuffer;
