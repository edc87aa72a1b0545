//! Typed progress events for fuzz runs.
//!
//! [`crate::CampaignPlan::run`] hands every structured [`FuzzEvent`] to
//! the one `FnMut(&FuzzEvent)` its caller passes: the CLI prints
//! [`FuzzEvent::terminal_lines`], tests collect the events with
//! `|e| events.push(e.clone())`, a quiet sweep passes `|_| {}`.
//!
//! Events are always delivered in **campaign-index order**, whatever the
//! plan's thread count: the batched scheduler completes campaigns out
//! of order but buffers their outcomes and replays them in order (see
//! [`crate::runner`]). The closure therefore sees the exact same event
//! sequence at `--threads 1` and `--threads 16`.

use crate::oracle::Violation;

/// One structured progress event of a fuzz run.
///
/// Owned (no borrowed payloads): the batched run records events on
/// worker threads and replays them on the aggregation thread.
#[derive(Debug, Clone, PartialEq)]
pub enum FuzzEvent {
    /// Campaign `index` of `total` is about to execute (in replay
    /// order; in a batched run the campaign has in fact already
    /// finished when this is delivered).
    CampaignStarted {
        /// Campaign index (the RNG stream of the master seed).
        index: u64,
        /// Total campaigns planned.
        total: u64,
    },
    /// Campaign `index` completed with every invariant intact.
    CampaignPassed {
        /// Campaign index.
        index: u64,
    },
    /// Campaign `index` violated an invariant (pre-shrink).
    ViolationFound {
        /// Campaign index.
        index: u64,
        /// The violation as first observed.
        violation: Violation,
        /// The unshrunk reproducer spec.
        spec: String,
    },
    /// A shrink transform was kept: the failure still reproduces on a
    /// strictly smaller configuration.
    ShrinkStep {
        /// Campaign index being shrunk.
        index: u64,
        /// Campaign reruns consumed so far (of the shrink budget).
        reruns: usize,
        /// The violation observed on the reduced parameters.
        violation: Violation,
        /// The reduced reproducer spec.
        spec: String,
    },
    /// Shrinking finished: the minimal reproducer for campaign `index`.
    FailureShrunk {
        /// Campaign index.
        index: u64,
        /// The violation on the minimal parameters.
        violation: Violation,
        /// The minimal reproducer spec (feed to `ftnoc fuzz --repro`).
        spec: String,
    },
    /// The run is over.
    Summary {
        /// Campaigns executed (≤ planned when failures stopped the run).
        campaigns_run: u64,
        /// Failures collected.
        failures: usize,
    },
}

impl FuzzEvent {
    /// The `ftnoc fuzz` terminal lines this event prints (none for most
    /// events). `total` is the planned campaign count. Byte-stable
    /// across thread counts because the event stream itself is.
    pub fn terminal_lines(&self, total: u64) -> Vec<String> {
        match self {
            FuzzEvent::ViolationFound {
                index,
                violation,
                spec,
            } => vec![
                format!("campaign {index}/{total}: FAILED — {violation}"),
                format!("  unshrunk spec: {spec}"),
            ],
            FuzzEvent::FailureShrunk {
                violation, spec, ..
            } => vec![
                format!("  shrunk to: {violation}"),
                format!("  reproduce with: ftnoc fuzz --repro \"{spec}\""),
            ],
            FuzzEvent::CampaignStarted { .. }
            | FuzzEvent::CampaignPassed { .. }
            | FuzzEvent::ShrinkStep { .. }
            | FuzzEvent::Summary { .. } => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The four lines `ftnoc fuzz` prints for one failing campaign,
    /// byte for byte.
    #[test]
    fn a_failure_renders_as_four_terminal_lines() {
        let violation = Violation {
            cycle: 10,
            node: Some(3),
            invariant: "credit-accounting",
            detail: "link East vc 0: 5 > 4".into(),
        };
        let events = [
            FuzzEvent::CampaignStarted {
                index: 7,
                total: 60,
            },
            FuzzEvent::ViolationFound {
                index: 7,
                violation: violation.clone(),
                spec: "w=4,h=4".into(),
            },
            FuzzEvent::ShrinkStep {
                index: 7,
                reruns: 1,
                violation: violation.clone(),
                spec: "w=2,h=2".into(),
            },
            FuzzEvent::FailureShrunk {
                index: 7,
                violation,
                spec: "w=2,h=2".into(),
            },
            FuzzEvent::Summary {
                campaigns_run: 8,
                failures: 1,
            },
        ];
        let lines: Vec<String> = events.iter().flat_map(|e| e.terminal_lines(60)).collect();
        assert_eq!(
            lines,
            [
                "campaign 7/60: FAILED — [credit-accounting] cycle 10 node 3: link East vc 0: 5 > 4",
                "  unshrunk spec: w=4,h=4",
                "  shrunk to: [credit-accounting] cycle 10 node 3: link East vc 0: 5 > 4",
                "  reproduce with: ftnoc fuzz --repro \"w=2,h=2\"",
            ]
        );
    }
}
