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

/// A fault-free 4×4 below saturation: after 1 000 cycles of warm-up
/// (200 are not enough: buffers still reach new high-water marks), 500
/// refills together allocate less than one fresh snapshot does.
#[test]
fn a_warm_refill_does_not_allocate() {
    for rate in [0.10, 0.30] {
        let mut b = SimConfig::builder();
        b.topology(Topology::mesh(4, 4))
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
            "inj {rate}: 500 refills allocate {refills} times, a fresh snapshot >= {cheapest_fresh} \
             ({} per router)",
            cheapest_fresh / routers
        );
        // The row with teeth: the counter sees what `snapshot()` costs.
        assert!(
            cheapest_fresh >= 10 * routers,
            "inj {rate}: a fresh snapshot allocated only {cheapest_fresh} times"
        );
        assert!(
            refills < cheapest_fresh,
            "inj {rate}: 500 warm refills allocated {refills} times, one fresh snapshot {cheapest_fresh}"
        );
    }
}
