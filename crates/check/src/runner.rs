//! The campaign runner: [`CampaignPlan`] describes a fuzz sweep and
//! [`CampaignPlan::run`] executes it on a scoped worker pool, stopping
//! at the first failing campaign and handing it back in a
//! [`FuzzReport`] that is **identical at any thread count**.
//!
//! # Determinism argument
//!
//! Campaign `i` of master seed `m` derives every parameter from RNG
//! stream `i` of `m` ([`CampaignParams::sample`]), runs its own private
//! simulator, and shares no state with any other campaign; shrinking is
//! a pure function of the failing parameters. Workers claim indices from
//! a shared counter and exit once the claimed index reaches `bound`. A
//! worker whose campaign `i` fails shrinks it, lowers `bound` to
//! `i + 1`, and returns the failure. Let `f` be the first failing index:
//! no failure below `f` exists, so `bound` never falls below `f + 1`,
//! every index up to `f` is claimed and run, and the smallest returned
//! index is `f` — exactly where one worker walking `0..campaigns` would
//! stop.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::campaign::{
    apply_org_filter, apply_scenario_filter, shrink, CampaignParams, OrgFilter, ScenarioFilter,
};
use crate::oracle::Violation;

/// The first failing campaign of a sweep, shrunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// Index of the campaign that failed.
    pub campaign: u64,
    /// The violation as first observed, before shrinking.
    pub first: Violation,
    /// The unshrunk reproducer spec.
    pub unshrunk_spec: String,
    /// Violation observed on the shrunk parameters.
    pub violation: Violation,
    /// Shrunk reproducer spec (feed to `ftnoc fuzz --repro`).
    pub spec: String,
}

impl Failure {
    /// The four lines `ftnoc fuzz` prints for this failure; `total` is
    /// the planned campaign count.
    pub fn terminal_lines(&self, total: u64) -> [String; 4] {
        [
            format!(
                "campaign {}/{total}: FAILED — {}",
                self.campaign, self.first
            ),
            format!("  unshrunk spec: {}", self.unshrunk_spec),
            format!("  shrunk to: {}", self.violation),
            format!("  reproduce with: ftnoc fuzz --repro \"{}\"", self.spec),
        ]
    }

    /// The `--failures-out` artifact body: the failure with its replay
    /// command.
    pub fn artifact(&self) -> String {
        format!(
            "campaign {}: {}\nftnoc fuzz --repro \"{}\"\n",
            self.campaign, self.violation, self.spec
        )
    }
}

/// Result of a fuzz run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzReport {
    /// Campaigns that count: up to and including the first failure, or
    /// every planned campaign when none failed.
    pub campaigns_run: u64,
    /// The first failing campaign, shrunk.
    pub failure: Option<Failure>,
}

/// Describes a fuzz run: how many campaigns, from which master seed,
/// under which filters, on how many threads.
///
/// Build one with the chainable methods and call [`CampaignPlan::run`]:
///
/// ```
/// use ftnoc_check::CampaignPlan;
///
/// let report = CampaignPlan::new()
///     .campaigns(3)
///     .master_seed(7)
///     .threads(2)
///     .run();
/// assert_eq!(report.campaigns_run, 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignPlan {
    /// Number of campaigns to run.
    pub campaigns: u64,
    /// Master seed (campaign `i` uses RNG stream `i` of this seed).
    pub seed: u64,
    /// Coerce every campaign onto one buffer organisation (`None`
    /// keeps the sampler's natural static/DAMQ mix).
    pub org: Option<OrgFilter>,
    /// Coerce every campaign into one scenario class (`None` keeps the
    /// sampler's natural mix).
    pub scenario: Option<ScenarioFilter>,
    /// Worker threads executing campaigns (`0` runs one; any value
    /// produces the identical report).
    pub threads: usize,
}

impl Default for CampaignPlan {
    fn default() -> Self {
        CampaignPlan {
            campaigns: 500,
            seed: 0xF70C,
            org: None,
            scenario: None,
            threads: 1,
        }
    }
}

impl CampaignPlan {
    /// The default plan (500 campaigns, master seed `0xF70C`, one
    /// worker).
    pub fn new() -> Self {
        CampaignPlan::default()
    }

    /// Sets the number of campaigns.
    pub fn campaigns(mut self, campaigns: u64) -> Self {
        self.campaigns = campaigns;
        self
    }

    /// Sets the master seed; campaign `i` samples RNG stream `i` of it.
    pub fn master_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Coerces every campaign onto one buffer organisation.
    pub fn org(mut self, org: Option<OrgFilter>) -> Self {
        self.org = org;
        self
    }

    /// Coerces every campaign into one scenario class.
    pub fn scenario(mut self, scenario: Option<ScenarioFilter>) -> Self {
        self.scenario = scenario;
        self
    }

    /// Sets the worker-thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Runs the plan until its first failure or its last campaign. See
    /// the module docs for why the report does not depend on the thread
    /// count.
    pub fn run(&self) -> FuzzReport {
        // Campaigns legitimately convert engine panics into violations;
        // keep the default hook from spraying backtraces.
        let quiet = QuietPanics::install();
        let workers = self
            .threads
            .max(1)
            .min(usize::try_from(self.campaigns).unwrap_or(usize::MAX));
        let next = AtomicU64::new(0);
        let bound = AtomicU64::new(self.campaigns);
        let failure = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| scope.spawn(|| self.work(&next, &bound)))
                .collect();
            handles
                .into_iter()
                .filter_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .min_by_key(|f| f.campaign)
        });
        drop(quiet);
        FuzzReport {
            campaigns_run: failure.as_ref().map_or(self.campaigns, |f| f.campaign + 1),
            failure,
        }
    }

    /// One worker: claims campaign indices below `bound` until they run
    /// out or one fails. The counters publish no other data (a failure
    /// comes home through `join`), hence `Relaxed`.
    fn work(&self, next: &AtomicU64, bound: &AtomicU64) -> Option<Failure> {
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= bound.load(Ordering::Relaxed) {
                return None;
            }
            if let Some(failure) = self.execute(i) {
                bound.fetch_min(i + 1, Ordering::Relaxed);
                return Some(failure);
            }
        }
    }

    /// Executes campaign `index` of the plan: sample, filter, run, and
    /// shrink on failure.
    fn execute(&self, index: u64) -> Option<Failure> {
        let mut params = CampaignParams::sample(self.seed, index);
        apply_org_filter(&mut params, self.org);
        apply_scenario_filter(&mut params, self.scenario);
        let first = params.check().err()?;
        let (small, violation) = shrink(&params);
        Some(Failure {
            campaign: index,
            first,
            unshrunk_spec: params.to_spec(),
            violation,
            spec: small.to_spec(),
        })
    }
}

/// The previously installed panic hook, restored on drop.
type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>;

/// RAII guard that swaps in a no-op panic hook.
struct QuietPanics {
    prev: Option<PanicHook>,
}

impl QuietPanics {
    fn install() -> Self {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        QuietPanics { prev: Some(prev) }
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            std::panic::set_hook(prev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_plan(threads: usize) -> CampaignPlan {
        CampaignPlan::new()
            .campaigns(8)
            .master_seed(0xF70C)
            .threads(threads)
    }

    #[test]
    fn plan_builder_chains() {
        let plan = CampaignPlan::new()
            .campaigns(10)
            .master_seed(42)
            .org(Some(OrgFilter::Static))
            .threads(3);
        assert_eq!(plan.campaigns, 10);
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.org, Some(OrgFilter::Static));
        assert_eq!(plan.threads, 3);
    }

    #[test]
    fn reports_match_across_thread_counts_on_a_healthy_engine() {
        let r1 = quick_plan(1).run();
        assert_eq!(r1, quick_plan(4).run());
        assert_eq!(r1.campaigns_run, 8);
        assert_eq!(r1.failure, None);
    }

    /// `threads(0)` runs one worker, not none (which would report every
    /// campaign as passed without running it; `tests/campaign_parity.rs`
    /// checks the planted-bug sweep at `--threads 0`).
    #[test]
    fn zero_threads_runs_one_worker() {
        assert_eq!(quick_plan(0).run(), quick_plan(1).run());
    }

    #[test]
    fn empty_plan_reports_zero_campaigns() {
        let report = CampaignPlan::new().campaigns(0).threads(4).run();
        assert_eq!(report.campaigns_run, 0);
        assert_eq!(report.failure, None);
    }

    /// The four lines `ftnoc fuzz` prints for a failing campaign, and
    /// its `--failures-out` body, byte for byte.
    #[test]
    fn a_failure_renders_as_four_terminal_lines() {
        let violation = Violation {
            cycle: 10,
            node: Some(3),
            invariant: "credit-accounting",
            detail: "link East vc 0: 5 > 4".into(),
        };
        let failure = Failure {
            campaign: 7,
            first: violation.clone(),
            unshrunk_spec: "w=4,h=4".into(),
            violation,
            spec: "w=2,h=2".into(),
        };
        assert_eq!(
            failure.terminal_lines(60),
            [
                "campaign 7/60: FAILED — [credit-accounting] cycle 10 node 3: link East vc 0: 5 > 4",
                "  unshrunk spec: w=4,h=4",
                "  shrunk to: [credit-accounting] cycle 10 node 3: link East vc 0: 5 > 4",
                "  reproduce with: ftnoc fuzz --repro \"w=2,h=2\"",
            ]
        );
        assert_eq!(
            failure.artifact(),
            "campaign 7: [credit-accounting] cycle 10 node 3: link East vc 0: 5 > 4\n\
             ftnoc fuzz --repro \"w=2,h=2\"\n"
        );
    }
}
