//! The batched campaign engine: [`CampaignPlan`] describes a fuzz run
//! and [`CampaignPlan::run`] executes it — serially or across a worker
//! pool — producing a [`FuzzReport`] that is **identical at any thread
//! count**.
//!
//! # Determinism argument
//!
//! Campaigns are embarrassingly parallel: campaign `i` of master seed
//! `m` derives every parameter from RNG stream `i` of `m`
//! ([`CampaignParams::sample`]), runs its own private simulator, and
//! shares no state with any other campaign. Shrinking is a pure
//! function of the failing parameters and the rerun budget. The only
//! sources of nondeterminism a pool could introduce are therefore
//! *ordering* (which campaign's result is looked at first) and the
//! *stopping rule* (`max_failures` truncates the run).
//!
//! [`CampaignPlan::run`] removes both: workers claim campaign indices from a
//! shared counter and complete them out of order, but every outcome is
//! buffered and **aggregated strictly in campaign-index order** on the
//! driving thread. The stopping rule is applied during that in-order
//! replay — exactly where the serial loop applies it — so the set of
//! campaigns that *count* (and the report, the [`FuzzEvent`] stream,
//! and the `--failures-out` artifact derived from them) is byte-for-byte
//! the serial one. Results for indices at or beyond the in-order cutoff
//! are discarded, and the claim bound is lowered so workers stop
//! picking up work that cannot matter.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;

use crate::campaign::{
    apply_org_filter, apply_scenario_filter, run_campaign, shrink, CampaignParams, OrgFilter,
    ScenarioFilter, ShrinkStepRec,
};
use crate::observer::FuzzEvent;
use crate::oracle::Violation;

/// One collected (and shrunk) failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// Index of the campaign that failed.
    pub campaign: u64,
    /// Violation observed on the shrunk parameters.
    pub violation: Violation,
    /// Shrunk reproducer spec (feed to `ftnoc fuzz --repro`).
    pub spec: String,
}

/// Result of a fuzz run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FuzzReport {
    /// Campaigns executed (in the in-order aggregation sense: campaigns
    /// past the `max_failures` cutoff are not counted even if a worker
    /// speculatively ran them).
    pub campaigns_run: u64,
    /// Collected failures (shrunk), in campaign-index order.
    pub failures: Vec<Failure>,
}

impl FuzzReport {
    /// The `--failures-out` artifact body: one paragraph per failure
    /// with its replay command. Byte-identical across thread counts
    /// because the failure list is.
    pub fn failures_artifact(&self) -> String {
        let mut body = String::new();
        for f in &self.failures {
            body.push_str(&format!(
                "campaign {}: {}\nftnoc fuzz --repro \"{}\"\n",
                f.campaign, f.violation, f.spec
            ));
        }
        body
    }
}

/// Describes a fuzz run: how many campaigns, from which master seed,
/// under which filters and budgets, on how many threads.
///
/// Build one with the chainable methods and call
/// [`CampaignPlan::run`] with a closure that receives the progress
/// events:
///
/// ```
/// use ftnoc_check::CampaignPlan;
///
/// let report = CampaignPlan::new()
///     .campaigns(3)
///     .master_seed(7)
///     .threads(2)
///     .run(&mut |_| {});
/// assert_eq!(report.campaigns_run, 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignPlan {
    /// Number of campaigns to run.
    pub campaigns: u64,
    /// Master seed (campaign `i` uses RNG stream `i` of this seed).
    pub seed: u64,
    /// Maximum failures to collect before stopping (≥ 1).
    pub max_failures: usize,
    /// Rerun budget for shrinking each failure.
    pub shrink_budget: usize,
    /// Coerce every campaign onto one buffer organisation (`None`
    /// keeps the sampler's natural static/DAMQ mix).
    pub org: Option<OrgFilter>,
    /// Coerce every campaign into one scenario class (`None` keeps the
    /// sampler's natural mix).
    pub scenario: Option<ScenarioFilter>,
    /// Worker threads executing campaigns (`<= 1` runs serially on the
    /// calling thread; any value produces the identical report).
    pub threads: usize,
}

impl Default for CampaignPlan {
    fn default() -> Self {
        CampaignPlan {
            campaigns: 500,
            seed: 0xF70C,
            max_failures: 1,
            shrink_budget: 80,
            org: None,
            scenario: None,
            threads: 1,
        }
    }
}

impl CampaignPlan {
    /// The default plan (500 campaigns, master seed `0xF70C`, serial).
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

    /// Sets how many shrunk failures to collect before stopping
    /// (clamped to ≥ 1).
    pub fn max_failures(mut self, max_failures: usize) -> Self {
        self.max_failures = max_failures.max(1);
        self
    }

    /// Sets the rerun budget for shrinking each failure.
    pub fn shrink_budget(mut self, shrink_budget: usize) -> Self {
        self.shrink_budget = shrink_budget;
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

    /// Sets the worker-thread count (`<= 1` = serial on the caller).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Everything a worker reports back about one campaign.
struct Outcome {
    index: u64,
    failure: Option<FailureData>,
}

/// The failure side of an [`Outcome`]: first violation, full shrink
/// trace, minimal reproducer. Workers compute all of it so the
/// aggregation thread can replay the event stream without re-running
/// anything.
struct FailureData {
    first: Violation,
    unshrunk_spec: String,
    steps: Vec<ShrinkStepRec>,
    violation: Violation,
    spec: String,
}

impl CampaignPlan {
    /// Runs the plan to completion, streaming [`FuzzEvent`]s (always in
    /// campaign-index order, at any thread count) to `on_event`. See
    /// the module docs for the determinism argument.
    pub fn run(&self, on_event: &mut dyn FnMut(&FuzzEvent)) -> FuzzReport {
        // Campaigns legitimately convert engine panics into violations;
        // keep the default hook from spraying backtraces.
        let quiet = QuietPanics::install();
        let report = if self.threads <= 1 {
            self.run_serial(on_event)
        } else {
            self.run_batched(on_event)
        };
        drop(quiet);
        on_event(&FuzzEvent::Summary {
            campaigns_run: report.campaigns_run,
            failures: report.failures.len(),
        });
        report
    }

    /// Executes campaign `index` of the plan: sample, filter, run, and
    /// shrink on failure. Pure — safe to call from any thread.
    fn execute(&self, index: u64) -> Outcome {
        let mut params = CampaignParams::sample(self.seed, index);
        apply_org_filter(&mut params, self.org);
        apply_scenario_filter(&mut params, self.scenario);
        let failure = run_campaign(&params).err().map(|first| {
            let unshrunk_spec = params.to_spec();
            let (small, violation, steps) = shrink(&params, self.shrink_budget);
            FailureData {
                first,
                unshrunk_spec,
                steps,
                violation,
                spec: small.to_spec(),
            }
        });
        Outcome { index, failure }
    }

    /// The serial path: execute and aggregate in one loop.
    fn run_serial(&self, on_event: &mut dyn FnMut(&FuzzEvent)) -> FuzzReport {
        let mut agg = Aggregator::new(self);
        for i in 0..self.campaigns {
            agg.ingest(self.execute(i), on_event);
            if agg.cutoff.is_some() {
                break;
            }
        }
        agg.report
    }

    /// The batched path: workers claim indices from a shared counter,
    /// outcomes come home over a channel, and the driving thread
    /// re-orders them for in-order aggregation.
    fn run_batched(&self, on_event: &mut dyn FnMut(&FuzzEvent)) -> FuzzReport {
        let campaigns = self.campaigns;
        let workers = self
            .threads
            .min(usize::try_from(campaigns).unwrap_or(usize::MAX));
        // Next unclaimed campaign index.
        let next = AtomicU64::new(0);
        // One past the last index that can still matter; shrinks when
        // the in-order cutoff is discovered.
        let bound = AtomicU64::new(campaigns);
        let (tx, rx) = mpsc::channel::<Outcome>();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let bound = &bound;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= bound.load(Ordering::Acquire) {
                        break;
                    }
                    let outcome = self.execute(i);
                    // The cutoff may have been discovered while this
                    // campaign ran; a discarded send just means the
                    // driver has already stopped listening.
                    if tx.send(outcome).is_err() {
                        break;
                    }
                });
            }
            drop(tx);

            let mut agg = Aggregator::new(self);
            let mut parked: BTreeMap<u64, Outcome> = BTreeMap::new();
            let mut expect = 0u64;
            'aggregate: while expect < agg.cutoff.unwrap_or(campaigns) {
                let Ok(outcome) = rx.recv() else {
                    // All workers exited and the channel is drained
                    // (contiguous outcomes were ingested eagerly).
                    break;
                };
                parked.insert(outcome.index, outcome);
                while let Some(outcome) = parked.remove(&expect) {
                    agg.ingest(outcome, on_event);
                    expect += 1;
                    if let Some(cutoff) = agg.cutoff {
                        // Stop workers claiming indices that cannot
                        // count toward the report.
                        bound.fetch_min(cutoff, Ordering::AcqRel);
                        break 'aggregate;
                    }
                }
            }
            // Dropping the receiver unblocks any worker mid-send; the
            // scope join waits for in-flight campaigns to finish.
            drop(rx);
            agg.report
        })
    }
}

/// In-order aggregation: turns a stream of index-ordered [`Outcome`]s
/// into the report and the [`FuzzEvent`] stream. Both execution paths
/// funnel through here, which is what makes them byte-identical.
struct Aggregator<'p> {
    plan: &'p CampaignPlan,
    report: FuzzReport,
    /// One past the last campaign index that counts, once the
    /// `max_failures`-th failure has been aggregated.
    cutoff: Option<u64>,
}

impl<'p> Aggregator<'p> {
    fn new(plan: &'p CampaignPlan) -> Self {
        Aggregator {
            plan,
            report: FuzzReport::default(),
            cutoff: None,
        }
    }

    fn ingest(&mut self, outcome: Outcome, on_event: &mut dyn FnMut(&FuzzEvent)) {
        debug_assert!(self.cutoff.is_none(), "ingest past the cutoff");
        let index = outcome.index;
        on_event(&FuzzEvent::CampaignStarted {
            index,
            total: self.plan.campaigns,
        });
        self.report.campaigns_run += 1;
        let Some(fail) = outcome.failure else {
            on_event(&FuzzEvent::CampaignPassed { index });
            return;
        };
        on_event(&FuzzEvent::ViolationFound {
            index,
            violation: fail.first,
            spec: fail.unshrunk_spec,
        });
        for step in fail.steps {
            on_event(&FuzzEvent::ShrinkStep {
                index,
                reruns: step.reruns,
                violation: step.violation,
                spec: step.spec,
            });
        }
        on_event(&FuzzEvent::FailureShrunk {
            index,
            violation: fail.violation.clone(),
            spec: fail.spec.clone(),
        });
        self.report.failures.push(Failure {
            campaign: index,
            violation: fail.violation,
            spec: fail.spec,
        });
        if self.report.failures.len() >= self.plan.max_failures {
            self.cutoff = Some(index + 1);
        }
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
    fn plan_builder_clamps_and_chains() {
        let plan = CampaignPlan::new()
            .campaigns(10)
            .master_seed(42)
            .max_failures(0)
            .shrink_budget(5)
            .org(Some(OrgFilter::Static))
            .threads(3);
        assert_eq!(plan.campaigns, 10);
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.max_failures, 1, "max_failures clamps to >= 1");
        assert_eq!(plan.shrink_budget, 5);
        assert_eq!(plan.org, Some(OrgFilter::Static));
        assert_eq!(plan.threads, 3);
    }

    #[test]
    fn serial_and_batched_reports_match_on_a_healthy_engine() {
        let (mut events1, mut events4) = (Vec::new(), Vec::new());
        let r1 = quick_plan(1).run(&mut |e| events1.push(e.clone()));
        let r4 = quick_plan(4).run(&mut |e| events4.push(e.clone()));
        assert_eq!(r1, r4);
        assert_eq!(events1, events4);
        assert_eq!(r1.campaigns_run, 8);
        assert!(r1.failures.is_empty());
    }

    #[test]
    fn observer_sees_campaigns_in_index_order() {
        let mut events = Vec::new();
        quick_plan(4).run(&mut |e| events.push(e.clone()));
        let starts: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                FuzzEvent::CampaignStarted { index, .. } => Some(*index),
                _ => None,
            })
            .collect();
        assert_eq!(starts, (0..8).collect::<Vec<_>>());
        assert!(matches!(events.last(), Some(FuzzEvent::Summary { .. })));
    }

    #[test]
    fn empty_plan_reports_zero_campaigns() {
        let report = CampaignPlan::new().campaigns(0).threads(4).run(&mut |_| {});
        assert_eq!(report.campaigns_run, 0);
        assert!(report.failures.is_empty());
    }
}
