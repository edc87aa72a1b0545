//! The hard-fault description of a run: one typed [`FaultPlan`]
//! builder and one `--fault SPEC` grammar covering every hard-fault
//! dimension — link/router × at-reset/at-cycle/wear-out × notify
//! latency. A `SimConfig` carries the plan itself; nothing else
//! describes a degraded graph.
//!
//! Two checks, one fold: [`FaultPlan::check`] is the structural check
//! (typed [`ConfigError`]; `SimConfigBuilder::build` runs it, so a built
//! configuration cannot panic on its fault description), and
//! [`FaultPlan::validate`] is the front-end policy on top of it — the
//! same errors as strings plus end-state connectivity, which the CLI
//! and the benchmark demand but the fuzzer deliberately does not (it
//! samples plans that strand a node).
//!
//! # Spec grammar
//!
//! One `--fault` flag carries one spec (repeat the flag to stack them):
//!
//! | spec               | meaning                                             |
//! |--------------------|-----------------------------------------------------|
//! | `link:N:D`         | link of node `N` toward `D` dead at reset           |
//! | `link:N:D@C`       | the same link dies at cycle `C > 0`                 |
//! | `router:N`         | router `N` dead at reset                            |
//! | `router:N@C`       | router `N` dies at cycle `C > 0`                    |
//! | `wearout:M`        | wear-out: seeded per-link budgets, mean `M` flits   |
//! | `wearout:M:S`      | the same with explicit budget seed `S`              |
//! | `notify:L`         | network-wide publication lags detection by `L`      |
//!
//! Directions are `n`/`e`/`s`/`w` (case-insensitive).
//!
//! ```
//! use ftnoc_fault::FaultPlan;
//! use ftnoc_types::geom::Topology;
//!
//! let mut plan = FaultPlan::new();
//! plan.add_spec("router:27@500").unwrap();
//! plan.add_spec("notify:8").unwrap();
//! plan.validate(Topology::mesh(8, 8)).unwrap();
//! assert_eq!(plan.to_specs(), vec!["router:27@500", "notify:8"]);
//! ```

use ftnoc_types::error::ConfigError;
use ftnoc_types::geom::{Direction, NodeId, Topology};

use crate::events::{configured_events, FaultEventKind};
use crate::hard::HardFaults;
use crate::schedule::{FaultTimeline, ScheduledKill, ScheduledRouterKill};

/// The wear-out (aging) model: every inter-router link draws a seeded
/// lifetime budget around `mean_budget`; once the cumulative flit
/// traffic it has carried exhausts the budget, the link dies. The
/// schedule is derived from load, not fixed cycles — the sim realizes
/// the kills online through [`FaultTimeline::push_link_kill`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WearoutSpec {
    /// Mean lifetime budget in flits (budgets land in
    /// `[mean/2, 3*mean/2)`, never below 1).
    pub mean_budget: u64,
    /// Budget seed; `0` means "derive from the run seed".
    pub seed: u64,
}

impl WearoutSpec {
    /// The budget of the directed link leaving `node` in `dir`, for a
    /// resolved (non-zero) seed: a pure hash, so every link draws an
    /// independent lifetime regardless of visitation order.
    pub fn budget_for(&self, seed: u64, node: NodeId, dir: Direction) -> u64 {
        let mut z = seed
            ^ ((node.index() as u64) << 3 | dir.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // splitmix64 finalizer.
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let mean = self.mean_budget.max(1);
        (mean / 2 + z % mean).max(1)
    }
}

/// The complete hard-fault configuration of a run, as one typed value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Links dead at reset: `(node, dir)`.
    reset_links: Vec<(NodeId, Direction)>,
    /// Routers dead at reset.
    reset_routers: Vec<NodeId>,
    /// Mid-run link kills.
    link_kills: Vec<ScheduledKill>,
    /// Mid-run router kills.
    router_kills: Vec<ScheduledRouterKill>,
    /// The wear-out model, if enabled.
    wearout: Option<WearoutSpec>,
    /// Publication latency; `None` means the run default.
    notify_latency: Option<u64>,
}

impl FaultPlan {
    /// An empty (fault-free) plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan configures no faults at all.
    pub fn is_empty(&self) -> bool {
        self == &FaultPlan::default()
    }

    /// Adds a link dead at reset.
    pub fn link_at_reset(&mut self, node: NodeId, dir: Direction) -> &mut Self {
        self.reset_links.push((node, dir));
        self
    }

    /// Adds a router dead at reset.
    pub fn router_at_reset(&mut self, node: NodeId) -> &mut Self {
        self.reset_routers.push(node);
        self
    }

    /// Schedules a link kill at cycle `at`.
    pub fn kill_link_at(&mut self, at: u64, node: NodeId, dir: Direction) -> &mut Self {
        self.link_kills.push(ScheduledKill { at, node, dir });
        self
    }

    /// Schedules a whole-router kill at cycle `at`.
    pub fn kill_router_at(&mut self, at: u64, node: NodeId) -> &mut Self {
        self.router_kills.push(ScheduledRouterKill { at, node });
        self
    }

    /// Enables the wear-out model.
    pub fn wearout(&mut self, spec: WearoutSpec) -> &mut Self {
        self.wearout = Some(spec);
        self
    }

    /// Sets the publication latency.
    pub fn notify_latency(&mut self, latency: u64) -> &mut Self {
        self.notify_latency = Some(latency);
        self
    }

    /// The configured wear-out model.
    pub fn wearout_spec(&self) -> Option<WearoutSpec> {
        self.wearout
    }

    /// The configured publication latency, if set.
    pub fn notify(&self) -> Option<u64> {
        self.notify_latency
    }

    /// The scheduled link kills (unsorted, as added).
    pub fn link_kills(&self) -> &[ScheduledKill] {
        &self.link_kills
    }

    /// The scheduled router kills (unsorted, as added).
    pub fn router_kills(&self) -> &[ScheduledRouterKill] {
        &self.router_kills
    }

    /// The at-reset registry: every `link:N:D` / `router:N` entry.
    pub fn base_faults(&self, topo: Topology) -> HardFaults {
        let mut hf = HardFaults::new();
        for &(node, dir) in &self.reset_links {
            hf.kill_link(topo, node, dir);
        }
        for &node in &self.reset_routers {
            hf.kill_router(topo, node);
        }
        hf
    }

    /// Parses one spec (the `--fault` grammar) into the plan.
    pub fn add_spec(&mut self, spec: &str) -> Result<(), String> {
        let err = |msg: &str| Err(format!("--fault {spec}: {msg}"));
        fn num<T: std::str::FromStr>(spec: &str, what: &str, s: &str) -> Result<T, String> {
            s.parse()
                .map_err(|_| format!("--fault {spec}: {what} `{s}` is not a number"))
        }
        let (head, at) = match spec.split_once('@') {
            Some((head, c)) => {
                let at: u64 = num(spec, "cycle", c)?;
                if at == 0 {
                    return err("a kill at cycle 0 is an at-reset fault; drop the `@0`");
                }
                (head, Some(at))
            }
            None => (spec, None),
        };
        let mut parts = head.split(':');
        match parts.next() {
            Some("link") => {
                let (Some(n), Some(d), None) = (parts.next(), parts.next(), parts.next()) else {
                    return err("expected link:N:D or link:N:D@C");
                };
                let node: u16 = num(spec, "node", n)?;
                let dir = parse_dir(d).ok_or_else(|| {
                    format!("--fault {spec}: direction `{d}` is not one of n/e/s/w")
                })?;
                match at {
                    Some(at) => self.kill_link_at(at, NodeId::new(node), dir),
                    None => self.link_at_reset(NodeId::new(node), dir),
                };
            }
            Some("router") => {
                let (Some(n), None) = (parts.next(), parts.next()) else {
                    return err("expected router:N or router:N@C");
                };
                let node: u16 = num(spec, "node", n)?;
                match at {
                    Some(at) => self.kill_router_at(at, NodeId::new(node)),
                    None => self.router_at_reset(NodeId::new(node)),
                };
            }
            Some("wearout") => {
                if at.is_some() {
                    return err("wearout has no @cycle — the load decides");
                }
                let (Some(m), seed) = (parts.next(), parts.next()) else {
                    return err("expected wearout:MEAN or wearout:MEAN:SEED");
                };
                if parts.next().is_some() {
                    return err("expected wearout:MEAN or wearout:MEAN:SEED");
                }
                let mean: u64 = num(spec, "budget", m)?;
                if mean == 0 {
                    return err("a zero mean budget kills every link at once");
                }
                let seed: u64 = seed.map_or(Ok(0), |s| num(spec, "seed", s))?;
                self.wearout(WearoutSpec {
                    mean_budget: mean,
                    seed,
                });
            }
            Some("notify") => {
                if at.is_some() {
                    return err("notify has no @cycle");
                }
                let (Some(l), None) = (parts.next(), parts.next()) else {
                    return err("expected notify:L");
                };
                self.notify_latency(num(spec, "latency", l)?);
            }
            _ => return err("expected link:…, router:…, wearout:… or notify:…"),
        }
        Ok(())
    }

    /// Emits the plan back as spec strings — the exact grammar
    /// [`FaultPlan::add_spec`] parses, so plans round-trip and fuzzer
    /// reproducers print copy-pasteable `--fault` arguments.
    pub fn to_specs(&self) -> Vec<String> {
        let mut out = Vec::new();
        for &(node, dir) in &self.reset_links {
            out.push(format!("link:{}:{}", node.index(), dir_char(dir)));
        }
        for &node in &self.reset_routers {
            out.push(format!("router:{}", node.index()));
        }
        for k in &self.link_kills {
            out.push(format!(
                "link:{}:{}@{}",
                k.node.index(),
                dir_char(k.dir),
                k.at
            ));
        }
        for k in &self.router_kills {
            out.push(format!("router:{}@{}", k.node.index(), k.at));
        }
        if let Some(w) = self.wearout {
            if w.seed == 0 {
                out.push(format!("wearout:{}", w.mean_budget));
            } else {
                out.push(format!("wearout:{}:{}", w.mean_budget, w.seed));
            }
        }
        if let Some(l) = self.notify_latency {
            out.push(format!("notify:{l}"));
        }
        out
    }

    /// The structural check every consumer of a plan relies on: every
    /// node in range, every named link present in `topo` (the `Local`
    /// port is not a link), and no scheduled kill aimed at a link or
    /// router that an at-reset fault or an earlier kill — in the order
    /// the timeline lands them — has already taken down. A router kill
    /// *may* cover links that died earlier: the router death subsumes
    /// them. Returns the end state, every scheduled kill landed.
    ///
    /// # Errors
    ///
    /// The first offending entry, as a typed [`ConfigError`] carrying
    /// its node and direction.
    pub fn check(&self, topo: Topology) -> Result<HardFaults, ConfigError> {
        let nodes = topo.node_count();
        let node_ok = |node: NodeId| {
            if node.index() < nodes {
                Ok(())
            } else {
                Err(ConfigError::FaultNodeOutOfRange { node, nodes })
            }
        };
        let link_ok = |node: NodeId, dir: Direction| {
            node_ok(node)?;
            if dir.is_cardinal() && topo.neighbor_id(node, dir).is_some() {
                Ok(())
            } else {
                Err(ConfigError::FaultLinkAbsent { node, dir })
            }
        };
        for &(node, dir) in &self.reset_links {
            link_ok(node, dir)?;
        }
        for &node in &self.reset_routers {
            node_ok(node)?;
        }
        let mut folded = self.base_faults(topo);
        // Publication plays no part in the fold.
        for ev in configured_events(&self.link_kills, &self.router_kills, 0) {
            match ev.kind {
                FaultEventKind::LinkDown { node, dir } => {
                    link_ok(node, dir)?;
                    if folded.link_is_dead(node, dir) {
                        return Err(ConfigError::FaultTargetAlreadyDead {
                            at: ev.at,
                            node,
                            dir: Some(dir),
                        });
                    }
                    folded.kill_link(topo, node, dir);
                }
                FaultEventKind::RouterDown { node } => {
                    node_ok(node)?;
                    if folded.router_is_dead(node) {
                        return Err(ConfigError::FaultTargetAlreadyDead {
                            at: ev.at,
                            node,
                            dir: None,
                        });
                    }
                    folded.kill_router(topo, node);
                }
            }
        }
        Ok(folded)
    }

    /// The front-end policy on top of [`FaultPlan::check`]: the same
    /// structural errors as strings, plus the requirement that the end
    /// state leaves the live network connected. The CLI and the
    /// benchmark call this around building a configuration; the
    /// configuration builder itself only runs the structural check.
    pub fn validate(&self, topo: Topology) -> Result<(), String> {
        let end = self.check(topo).map_err(|e| e.to_string())?;
        if !end.network_is_connected(topo) {
            return Err("the configured faults leave the network disconnected".into());
        }
        Ok(())
    }

    /// The plan's [`FaultTimeline`]. `default_notify` is the run's
    /// default publication latency, used when the plan does not set
    /// one. The plan must have passed [`FaultPlan::check`] — every plan
    /// inside a built `SimConfig` has; the timeline re-checks nothing.
    pub fn timeline(&self, topo: Topology, default_notify: u64) -> FaultTimeline {
        FaultTimeline::with_events(
            topo,
            self.base_faults(topo),
            &self.link_kills,
            &self.router_kills,
            self.notify_latency.unwrap_or(default_notify),
        )
    }
}

/// Parses a spec-grammar direction letter (`n`/`e`/`s`/`w`, either
/// case).
pub fn parse_dir(s: &str) -> Option<Direction> {
    match s {
        "n" | "N" => Some(Direction::North),
        "e" | "E" => Some(Direction::East),
        "s" | "S" => Some(Direction::South),
        "w" | "W" => Some(Direction::West),
        _ => None,
    }
}

/// The spec-grammar letter of a direction (the inverse of
/// [`parse_dir`]).
pub fn dir_char(dir: Direction) -> char {
    match dir {
        Direction::North => 'n',
        Direction::East => 'e',
        Direction::South => 's',
        Direction::West => 'w',
        Direction::Local => 'l',
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::mesh(4, 4)
    }

    #[test]
    fn specs_round_trip() {
        let mut plan = FaultPlan::new();
        for spec in [
            "link:0:e",
            "router:15",
            "link:5:s@100",
            "router:9@250",
            "wearout:20000",
            "notify:8",
        ] {
            plan.add_spec(spec).unwrap();
        }
        assert_eq!(
            plan.to_specs(),
            vec![
                "link:0:e",
                "router:15",
                "link:5:s@100",
                "router:9@250",
                "wearout:20000",
                "notify:8",
            ]
        );
        let mut reparsed = FaultPlan::new();
        for spec in plan.to_specs() {
            reparsed.add_spec(&spec).unwrap();
        }
        assert_eq!(plan, reparsed);
        plan.validate(topo()).unwrap();
    }

    #[test]
    fn builder_matches_specs() {
        let mut built = FaultPlan::new();
        built
            .kill_router_at(500, NodeId::new(9))
            .notify_latency(8)
            .wearout(WearoutSpec {
                mean_budget: 1000,
                seed: 7,
            });
        let mut parsed = FaultPlan::new();
        parsed.add_spec("router:9@500").unwrap();
        parsed.add_spec("notify:8").unwrap();
        parsed.add_spec("wearout:1000:7").unwrap();
        assert_eq!(built, parsed);
    }

    #[test]
    fn bad_specs_are_rejected() {
        let mut plan = FaultPlan::new();
        assert!(plan.add_spec("link:0").unwrap_err().contains("expected"));
        assert!(plan.add_spec("link:0:x").unwrap_err().contains("n/e/s/w"));
        assert!(plan
            .add_spec("router:0@0")
            .unwrap_err()
            .contains("at-reset"));
        assert!(plan.add_spec("wearout:0").unwrap_err().contains("zero"));
        assert!(plan.add_spec("gamma:1").unwrap_err().contains("expected"));
        assert!(plan.is_empty());
    }

    #[test]
    fn validation_catches_config_errors() {
        let mut plan = FaultPlan::new();
        plan.add_spec("router:99").unwrap();
        assert!(plan.validate(topo()).unwrap_err().contains("out of range"));

        let mut plan = FaultPlan::new();
        plan.add_spec("link:0:n").unwrap();
        assert!(plan.validate(topo()).unwrap_err().contains("no link"));

        let mut plan = FaultPlan::new();
        plan.add_spec("link:5:e@10").unwrap();
        plan.add_spec("link:6:w@20").unwrap();
        assert!(plan.validate(topo()).unwrap_err().contains("already dead"));

        // Router kill covering an earlier dead link is fine.
        let mut plan = FaultPlan::new();
        plan.add_spec("link:5:e@10").unwrap();
        plan.add_spec("router:5@20").unwrap();
        plan.validate(topo()).unwrap();

        // Cutting the vertical seam disconnects the mesh.
        let mut plan = FaultPlan::new();
        for y in 0..4 {
            plan.add_spec(&format!("link:{}:e", 4 * y + 1)).unwrap();
        }
        assert!(plan.validate(topo()).unwrap_err().contains("disconnected"));
    }

    #[test]
    fn check_folds_in_timeline_order() {
        // Same cycle: the timeline lands the router death first, so the
        // link kill on the corpse's port is the offender — and the
        // end state of an accepted plan is what the timeline ends in.
        let mut plan = FaultPlan::new();
        plan.kill_link_at(10, NodeId::new(5), Direction::East)
            .kill_router_at(10, NodeId::new(5));
        assert_eq!(
            plan.check(topo()).unwrap_err(),
            ConfigError::FaultTargetAlreadyDead {
                at: 10,
                node: NodeId::new(5),
                dir: Some(Direction::East),
            }
        );
        let mut plan = FaultPlan::new();
        plan.kill_router_at(20, NodeId::new(5))
            .kill_link_at(10, NodeId::new(5), Direction::East)
            .link_at_reset(NodeId::new(0), Direction::East);
        let end = plan.check(topo()).unwrap();
        let tl = plan.timeline(topo(), 4);
        let last = tl.effective(tl.epoch_count() - 1);
        for node in topo().nodes() {
            assert_eq!(end.router_is_dead(node), last.router_is_dead(node));
            for dir in Direction::CARDINAL {
                assert_eq!(end.link_is_dead(node, dir), last.link_is_dead(node, dir));
            }
        }
    }

    #[test]
    fn plan_timeline_matches_the_plan() {
        let mut plan = FaultPlan::new();
        plan.add_spec("link:0:e").unwrap();
        plan.add_spec("router:9@250").unwrap();
        let tl = plan.timeline(topo(), 4);
        assert!(tl.link_dead_now(0, NodeId::new(0), Direction::East));
        assert!(tl.router_dead_now(250, NodeId::new(9)));
        assert!(!tl.router_dead_now(249, NodeId::new(9)));
        assert_eq!(tl.notify_latency(), 4);
        // Plan-set notify overrides the default.
        plan.add_spec("notify:9").unwrap();
        assert_eq!(plan.timeline(topo(), 4).notify_latency(), 9);
    }

    #[test]
    fn wearout_budgets_are_seeded_and_bounded() {
        let w = WearoutSpec {
            mean_budget: 1000,
            seed: 0,
        };
        let mut distinct = std::collections::BTreeSet::new();
        for n in 0..16u16 {
            for dir in Direction::CARDINAL {
                let b = w.budget_for(42, NodeId::new(n), dir);
                assert!((500..1500).contains(&b), "budget {b} out of band");
                distinct.insert(b);
                // Pure function: same inputs, same budget.
                assert_eq!(b, w.budget_for(42, NodeId::new(n), dir));
            }
        }
        assert!(distinct.len() > 16, "budgets should spread out");
        assert_ne!(
            w.budget_for(42, NodeId::new(0), Direction::East),
            w.budget_for(43, NodeId::new(0), Direction::East),
        );
    }
}
