//! The six canonical workloads: what each configures and why it exists.
//!
//! Every simulation workload runs a fixed cycle count with
//! `warmup_packets(0)` / `measure_packets(u64::MAX)`, so its simulated
//! statistics repeat exactly for a seed; only host time varies.

use ftnoc_check::CampaignParams;
use ftnoc_fault::{FaultPlan, FaultRates};
use ftnoc_rng::Rng;
use ftnoc_sim::{RoutingAlgorithm, SimConfig};
use ftnoc_types::geom::Topology;

/// One canonical workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Sparse8,
    Sat8,
    Sparse16,
    Faulted8,
    Observed8,
    FuzzBatch,
}

/// Divides every cycle and campaign count. `FULL` is what the benchmark
/// measures; the unit tests cut 100×.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    pub div: u64,
}

impl Sizing {
    pub const FULL: Sizing = Sizing { div: 1 };
}

/// Cycles a `fuzz_batch` campaign runs at most.
const FUZZ_CYCLES: u64 = 300;

/// Cycles between two metrics emissions of `observed8` at full size.
const OBSERVE_EVERY: u64 = 500;

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::Sparse8,
        Workload::Sat8,
        Workload::Sparse16,
        Workload::Faulted8,
        Workload::Observed8,
        Workload::FuzzBatch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Sparse8 => "sparse8",
            Workload::Sat8 => "sat8",
            Workload::Sparse16 => "sparse16",
            Workload::Faulted8 => "faulted8",
            Workload::Observed8 => "observed8",
            Workload::FuzzBatch => "fuzz_batch",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line, at most 200 characters (it goes into `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Sparse8 => {
                "8x8 at 0.02 injection: ~83% of router-cycles are gated off, so the \
                 un-gated serial pre/commit loops dominate; engine flattening must show \
                 here, router-pipeline work must not"
            }
            Workload::Sat8 => {
                "8x8 at 0.40, past saturation with 0% skip: compute (VA/SA/ST) is ~87% \
                 of wall, gating and pre/commit work should read no change; grows source \
                 queues, so it is the memory workload"
            }
            Workload::Sparse16 => {
                "16x16 at 0.05: 256 routers, 4x the working set of the 8x8 points, so \
                 cache and layout effects show; the only point where the worker pool \
                 could plausibly pay"
            }
            Workload::Faulted8 => {
                "8x8 at 0.10 with fault-aware routing, 1e-2 link upsets, a link kill, a \
                 router death and wear-out: the only point where fault, HBH replay, ecc \
                 and epoch rebuilds work; fast-path control"
            }
            Workload::Observed8 => {
                "8x8 at 0.25 with JSONL tracing, flight recorders, the phase profiler and \
                 periodic metrics emission into a null writer: a gain for the silent \
                 path that costs the traced path shows only here"
            }
            Workload::FuzzBatch => {
                "a batch of sampled fuzz campaigns under the oracle, threads forced to 1: \
                 time goes to snapshot, step and Oracle::check, so the check layer shows \
                 and engine-only gains are diluted"
            }
        }
    }

    pub fn is_sim(self) -> bool {
        self != Workload::FuzzBatch
    }

    /// Whether `BENCHMARK.json` lists the workload, so that its driver
    /// gates later changes on it. `sparse16` is left to the full command:
    /// it is the one workload whose working set (≈5 MiB) spills the
    /// reference host's 2 MiB private L2 on every simulated cycle, and
    /// what its misses then cost is set by the neighbours of the VM on the
    /// shared L3, for minutes on end. Its quiet-host floor spread by 15 %
    /// between 15 s windows of one 15-minute run and by 12 % between 30 s
    /// windows (the 8×8 workloads, which stay in L2: 1–2 %), and the
    /// driver measured 21 and 27 % over two sets of ten runs: past any
    /// bound it allows. Compare `sparse16` by the paired protocol of the
    /// README, not by a gate.
    pub fn in_benchmark_json(self) -> bool {
        self != Workload::Sparse16
    }

    /// Whether the workload injects no fault of any kind (every `fault.*`
    /// count must then read 0).
    pub fn is_fault_free(self) -> bool {
        !matches!(self, Workload::Faulted8 | Workload::FuzzBatch)
    }

    /// Simulated cycles of one repetition: about half a second of host
    /// time on the 2-core reference host, so that a run holds about thirty
    /// repetitions for the quiet-host floor to choose from.
    pub fn cycles(self, sizing: Sizing) -> u64 {
        let full = match self {
            Workload::Sparse8 => 30_000,
            Workload::Sat8 => 3_500,
            Workload::Sparse16 => 1_800,
            Workload::Faulted8 => 9_000,
            Workload::Observed8 => 4_500,
            Workload::FuzzBatch => 0,
        };
        // Never so short that nothing is delivered.
        (full / sizing.div).max(if full == 0 { 0 } else { 200 })
    }

    /// Campaigns of one `fuzz_batch` repetition.
    pub fn campaigns(self, sizing: Sizing) -> u64 {
        match self {
            Workload::FuzzBatch => (50 / sizing.div).max(3),
            _ => 0,
        }
    }

    /// Cycles between metrics emissions (`observed8` only, else 0).
    pub fn observe_every(self, sizing: Sizing) -> u64 {
        match self {
            Workload::Observed8 => (OBSERVE_EVERY / sizing.div).max(5),
            _ => 0,
        }
    }

    /// The `--fault` specs of `faulted8`, scaled with the cycle count.
    ///
    /// The wear-out budgets carry an explicit seed: the hard-fault
    /// schedule is part of the workload, not of the seed, so that the
    /// host cost of two seeds is comparable. The run seed still drives
    /// the traffic and every transient link upset.
    pub fn fault_specs(self, sizing: Sizing) -> Vec<String> {
        if self != Workload::Faulted8 {
            return Vec::new();
        }
        let cycles = self.cycles(sizing);
        vec![
            format!("link:27:E@{}", (cycles / 6).max(1)),
            format!("router:36@{}", (cycles / 2).max(2)),
            format!("wearout:{}:4", (cycles / 2).max(1)),
            "notify:50".to_string(),
        ]
    }

    /// Parses and validates the fault plan (empty for every other
    /// workload).
    pub fn fault_plan(self, sizing: Sizing) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for spec in self.fault_specs(sizing) {
            plan.add_spec(&spec)?;
        }
        plan.validate(self.topology())?;
        Ok(plan)
    }

    pub fn topology(self) -> Topology {
        match self {
            Workload::Sparse16 => Topology::mesh(16, 16),
            _ => Topology::mesh(8, 8),
        }
    }

    /// Builds the configuration of a simulation workload.
    ///
    /// # Panics
    ///
    /// On `fuzz_batch` (it has one configuration per campaign) and on an
    /// invalid configuration, which is a bug in this file.
    pub fn sim_config(self, seed: u64, sizing: Sizing) -> SimConfig {
        assert!(self.is_sim(), "fuzz_batch has no single SimConfig");
        let mut b = SimConfig::builder();
        b.topology(self.topology())
            .seed(seed)
            .threads(1)
            .warmup_packets(0)
            .measure_packets(u64::MAX)
            .max_cycles(self.cycles(sizing));
        match self {
            Workload::Sparse8 => b.injection_rate(0.02),
            Workload::Sat8 => b.injection_rate(0.40),
            Workload::Sparse16 => b.injection_rate(0.05),
            Workload::Observed8 => b.injection_rate(0.25),
            Workload::Faulted8 => {
                let plan = self.fault_plan(sizing).expect("faulted8 plan is valid");
                b.injection_rate(0.10)
                    .routing(RoutingAlgorithm::FaultAware)
                    .faults(FaultRates::link_only(1e-2))
                    .fault_plan(&plan)
            }
            Workload::FuzzBatch => unreachable!(),
        };
        b.build().expect("workload configuration is valid")
    }

    /// The campaigns of one `fuzz_batch` repetition.
    ///
    /// Their shapes (topology, scheme, rates) are the sampler's draws for
    /// master seed 1 and belong to the workload: the cost and the memory of
    /// a batch depend on its mix, and 50 draws are too few for two mixes to
    /// cost the same. The run seed replaces every campaign's own RNG seed,
    /// so it drives all traffic and fault draws. The sampler's 300 to 2 000
    /// cycles are cut to `FUZZ_CYCLES`, its shortest: what a campaign costs per cycle
    /// moves by a tenth and more with its seed, and many short campaigns
    /// average that out where a few long ones cannot, within the same half
    /// second. `threads` is forced to 1: the sampler draws it from
    /// {1,1,1,2,4}, and results are thread-invariant by contract.
    pub fn fuzz_campaigns(self, seed: u64, sizing: Sizing) -> Vec<CampaignParams> {
        (0..self.campaigns(sizing))
            .map(|i| {
                let mut p = CampaignParams::sample(1, i);
                p.seed = Rng::seed_from_u64_stream(seed, i).next_u64();
                p.cycles = p.cycles.min(FUZZ_CYCLES);
                p.threads = 1;
                p
            })
            .collect()
    }
}

/// Router-cycles one campaign simulates.
pub fn campaign_router_cycles(p: &CampaignParams) -> u64 {
    let routers = p
        .to_config()
        .map(|c| c.topology.node_count() as u64)
        .unwrap_or(0);
    p.cycles * routers
}

#[cfg(test)]
mod tests {
    use super::*;

    const CUT: Sizing = Sizing { div: 100 };

    #[test]
    fn every_workload_config_builds_and_the_fault_plan_validates() {
        for sizing in [Sizing::FULL, CUT] {
            for w in Workload::ALL {
                if w.is_sim() {
                    let c = w.sim_config(1, sizing);
                    assert_eq!(c.threads, 1);
                    assert_eq!(c.max_cycles, w.cycles(sizing));
                } else {
                    let batch = w.fuzz_campaigns(1, sizing);
                    assert_eq!(batch.len() as u64, w.campaigns(sizing));
                    for p in &batch {
                        assert_eq!(p.threads, 1);
                        assert!(p.to_config().is_ok());
                        assert!(campaign_router_cycles(p) > 0);
                    }
                }
            }
            let plan = Workload::Faulted8.fault_plan(sizing).unwrap();
            assert_eq!(plan.link_kills().len(), 1);
            assert_eq!(plan.router_kills().len(), 1);
            assert!(plan.wearout_spec().is_some());
            assert_eq!(plan.notify(), Some(50));
        }
    }

    #[test]
    fn names_round_trip_and_whys_fit_the_contract() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{}: {}", w.name(), w.why().len());
            assert!(!w.why().contains('\n'));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
