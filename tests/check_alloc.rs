//! The property the check path's speed rests on, pinned: once its
//! buffers have reached their high-water marks, a refilled
//! `NetSnapshot` copies the network without touching the allocator,
//! where every fresh `snapshot()` pays it ten-odd times per router.
//!
//! A test binary of its own because it installs a counting
//! `#[global_allocator]` (the crates themselves forbid `unsafe`).
//! Allocations are counted per thread, so the harness's own threads
//! cannot leak into a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use ftnoc::prelude::*;
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
    let mut faults = FaultPlan::new();
    for spec in ["link:5:e@200", "router:10@400", "wearout:300:4", "notify:4"] {
        faults.add_spec(spec).expect("valid fault spec");
    }
    let rows = [
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
    ];
    for (row, rate, routing, plan) in rows {
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
