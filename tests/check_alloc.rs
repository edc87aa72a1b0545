//! The properties the hot paths' speed rests on, pinned: once its
//! buffers have reached their high-water marks, a refilled
//! `NetSnapshot` copies the network without touching the allocator,
//! where every fresh `snapshot()` pays it ten-odd times per router; a
//! warm `Oracle::check` keeps its bookkeeping in scratch it reuses; and
//! a routing answer is an inline value, never a heap list.
//!
//! A test binary of its own because it installs a counting
//! `#[global_allocator]` (the crates themselves forbid `unsafe`).
//! Allocations are counted per thread, so the harness's own threads
//! cannot leak into a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use ftnoc::check::Oracle;
use ftnoc::prelude::*;
use ftnoc::sim::routing::{route_candidates, FaultState};
use ftnoc::sim::{NetSnapshot, Network};

thread_local! {
    /// Calls into the allocator that obtained or grew memory on this
    /// thread (`const`-initialised and drop-free, so reading it never
    /// allocates).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: both methods forward their arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a plain
// thread-local integer. `alloc_zeroed` and `realloc` keep their default
// bodies, which obtain memory through `alloc`, so each is counted once.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are `System.dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls `f` makes on this thread.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// A 4×4 below saturation, fault-free at two rates and as a faulted
/// `fta` run (a link kill, a router death and wear-out, so the
/// snapshot's fault tables change while it is refilled): after 1 000
/// cycles of warm-up (200 are not enough: buffers still reach new
/// high-water marks), 500 refills together allocate less than one fresh
/// snapshot does.
#[test]
fn a_warm_refill_does_not_allocate() {
    for (row, rate, routing, plan) in rows() {
        let mut b = SimConfig::builder();
        b.topology(Topology::mesh(4, 4))
            .routing(routing)
            .fault_plan(&plan)
            .injection(InjectionProcess::Bernoulli)
            .injection_rate(rate)
            .warmup_packets(0)
            .measure_packets(u64::MAX);
        let mut net = Network::new(b.build().expect("valid config"));
        let routers = 16;
        let mut scratch = NetSnapshot::default();
        for _ in 0..1_000 {
            net.step();
            net.snapshot_into(&mut scratch);
        }
        let (mut refills, mut cheapest_fresh) = (0, u64::MAX);
        for _ in 0..500 {
            net.step();
            refills += allocs_during(|| net.snapshot_into(&mut scratch));
            let fresh = allocs_during(|| drop(black_box(net.snapshot())));
            cheapest_fresh = cheapest_fresh.min(fresh);
        }
        println!(
            "{row}: 500 refills allocate {refills} times, a fresh snapshot >= {cheapest_fresh} \
             ({} per router)",
            cheapest_fresh / routers
        );
        // The row with teeth: the counter sees what `snapshot()` costs.
        assert!(
            cheapest_fresh >= 10 * routers,
            "{row}: a fresh snapshot allocated only {cheapest_fresh} times"
        );
        assert!(
            refills < cheapest_fresh,
            "{row}: 500 warm refills allocated {refills} times, one fresh snapshot {cheapest_fresh}"
        );
    }
}

/// The rows of [`a_warm_refill_does_not_allocate`]: a 4×4 below and
/// near saturation, and as a faulted `fta` run.
fn rows() -> [(&'static str, f64, RoutingAlgorithm, FaultPlan); 3] {
    let mut faults = FaultPlan::new();
    for spec in ["link:5:e@200", "router:10@400", "wearout:300:4", "notify:4"] {
        faults.add_spec(spec).expect("valid fault spec");
    }
    [
        (
            "inj 0.1",
            0.10,
            RoutingAlgorithm::XyDeterministic,
            FaultPlan::new(),
        ),
        (
            "inj 0.3",
            0.30,
            RoutingAlgorithm::XyDeterministic,
            FaultPlan::new(),
        ),
        ("faulted", 0.10, RoutingAlgorithm::FaultAware, faults),
    ]
}

/// The rows above, checked every cycle: once the probe window's history
/// frames have neared their high-water marks (3 000 cycles), 500 checks
/// do not allocate — conservation, credit accounting, the fault-log
/// comparison and the wait-edge history all read in place or refill
/// scratch the oracle keeps. (The faulted row allocated 1 000 times
/// while each check split the fault log into two fresh lists, the 0.30
/// row ≈ 50 times while each node's history rows had a list of their
/// own, and the 0.10 row 5 times while each history frame grew a row
/// list of its own rather than sharing one ring.)
#[test]
fn a_warm_check_does_not_allocate() {
    for (row, rate, routing, plan) in rows() {
        let mut b = SimConfig::builder();
        b.topology(Topology::mesh(4, 4))
            .routing(routing)
            .fault_plan(&plan)
            .injection(InjectionProcess::Bernoulli)
            .injection_rate(rate)
            .warmup_packets(0)
            .measure_packets(u64::MAX);
        let config = b.build().expect("valid config");
        let mut oracle = Oracle::new(&config);
        let mut net = Network::new(config);
        let mut snap = NetSnapshot::default();
        for _ in 0..3_000 {
            net.step();
            net.snapshot_into(&mut snap);
            oracle.check(&snap).expect("a healthy run passes");
        }
        let mut allocs = 0;
        for _ in 0..500 {
            net.step();
            net.snapshot_into(&mut snap);
            allocs += allocs_during(|| oracle.check(&snap).expect("a healthy run passes"));
        }
        println!("{row}: 500 warm checks allocate {allocs} times");
        assert_eq!(allocs, 0, "{row}: 500 warm checks allocated");
    }
}

/// Every algorithm, every (here, dest) pair of a faulted 8×8 (a link dead
/// at reset, a link killed at cycle 100, a router killed at cycle 50),
/// every arrival port, before and after the mid-run faults publish:
/// 204 800 routing answers, none of them on the heap.
#[test]
fn routing_does_not_allocate() {
    let topo = Topology::mesh(8, 8);
    let mut plan = FaultPlan::new();
    for spec in ["link:27:e", "link:36:s@100", "router:10@50"] {
        plan.add_spec(spec).expect("valid fault spec");
    }
    let mut b = SimConfig::builder();
    b.topology(topo).fault_plan(&plan);
    let faults = FaultState::new(b.build().expect("valid config").fault_timeline());
    let algorithms = [
        RoutingAlgorithm::XyDeterministic,
        RoutingAlgorithm::WestFirstAdaptive,
        RoutingAlgorithm::OddEven,
        RoutingAlgorithm::FullyAdaptive,
        RoutingAlgorithm::FaultAware,
    ];
    let (mut calls, mut offered) = (0u64, 0usize);
    let allocs = allocs_during(|| {
        for algorithm in algorithms {
            for here in topo.nodes() {
                for dest in topo.nodes() {
                    for came_from in Direction::ALL {
                        for now in [0, 120] {
                            let c = route_candidates(
                                algorithm, topo, here, came_from, dest, &faults, now,
                            );
                            offered += black_box(c).len();
                            calls += 1;
                        }
                    }
                }
            }
        }
    });
    println!("{calls} routing calls offered {offered} directions and allocated {allocs} times");
    assert_eq!(calls, 204_800);
    assert_eq!(allocs, 0, "{calls} routing calls allocated {allocs} times");
}
