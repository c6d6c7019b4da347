//! The simulator's live state must not grow with simulated time.
//!
//! A fleet keeps one simulator per deployment for a whole service epoch
//! and clones it for every counterfactual fork, so anything the simulator
//! accumulates per checkpoint is paid once per deployment and once more
//! per fork. This binary counts the bytes the calling thread allocates and
//! compares what one `clone()` costs after 1 h and after 6 h of simulated
//! service. It holds a single test so no other test's allocations can
//! land in the count.

use aging_testbed::{Scenario, Simulator, StepOutcome};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator and adds every allocation's size to
/// the calling thread's counter.
struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCATED.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's own layout
// and pointer, so `System`'s guarantees carry over unchanged; the counter
// is thread-local and publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes the calling thread allocates while cloning `sim`.
fn clone_bytes(sim: &Simulator) -> u64 {
    let before = ALLOCATED.with(Cell::get);
    let fork = sim.clone();
    let bytes = ALLOCATED.with(Cell::get) - before;
    drop(fork);
    bytes
}

/// Steps `sim` until its clock reaches `secs`.
fn step_to(sim: &mut Simulator, secs: f64) {
    while sim.time_ms() as f64 / 1000.0 < secs {
        match sim.step() {
            StepOutcome::Checkpoint(_) => {}
            other => panic!("the idle scenario must still be running, got {other:?}"),
        }
    }
}

#[test]
fn cloning_a_simulator_costs_the_same_after_six_hours_as_after_one() {
    let scenario =
        Scenario::builder("idle-25eb").emulated_browsers(25).duration_minutes(7 * 60).build();
    let mut sim = Simulator::new(&scenario, 3);
    step_to(&mut sim, 3600.0);
    let at_1h = clone_bytes(&sim);
    step_to(&mut sim, 6.0 * 3600.0);
    let at_6h = clone_bytes(&sim);
    assert!(
        at_6h as f64 <= 1.25 * at_1h as f64,
        "a clone after 6 h allocates {at_6h} bytes against {at_1h} after 1 h: \
         the simulator keeps state that grows with simulated time"
    );
}
