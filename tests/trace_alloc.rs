//! MMPP trace generation allocates per trace, not per slot.
//!
//! A counting global allocator watches the generating thread while it
//! builds the three default-scale Fig. 5 traces (work, value and combined
//! models: 8 ports, 50,000 slots, 12 or 32 sources). Each trace must take a
//! small constant number of allocations, whatever its slot count, and its
//! packet array must never grow by reallocation: the generator reserves the
//! expected packet count up front, so no buffer is copied while it is
//! written.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use smbm_switch::WorkSwitchConfig;
use smbm_traffic::{MmppScenario, PortMix, Trace, ValueMix};

/// Counts the allocations and growing reallocations of the current thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static GROWTHS: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: a thread being torn down may still free or allocate.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCS);
        if new_size > layout.size() {
            bump(&GROWTHS);
        }
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SLOTS: usize = 50_000;
const PORTS: usize = 8;
const BUFFER: usize = 64;
/// Allocations allowed per trace: the trace's two arrays plus the MMPP
/// bank, the port sampler and their like; independent of the slot count.
const MAX_ALLOCS_PER_TRACE: u64 = 16;

fn scenario(sources: usize) -> MmppScenario {
    MmppScenario {
        sources,
        slots: SLOTS,
        seed: 1,
        ..MmppScenario::default()
    }
}

/// Generates one trace, returning it with the allocations and growing
/// reallocations its generation made on this thread.
fn counted<P>(generate: impl FnOnce() -> Trace<P>) -> (Trace<P>, u64, u64) {
    let (a0, g0) = (ALLOCS.with(Cell::get), GROWTHS.with(Cell::get));
    let trace = generate();
    let (a1, g1) = (ALLOCS.with(Cell::get), GROWTHS.with(Cell::get));
    (trace, a1 - a0, g1 - g0)
}

fn check<P>(name: &str, (trace, allocs, growths): (Trace<P>, u64, u64)) {
    assert_eq!(trace.slots(), SLOTS, "{name}");
    assert!(
        trace.arrivals() > SLOTS,
        "{name}: {} packets",
        trace.arrivals()
    );
    assert!(
        allocs <= MAX_ALLOCS_PER_TRACE,
        "{name}: {allocs} allocations for {SLOTS} slots"
    );
    assert_eq!(growths, 0, "{name}: a buffer grew while being written");
}

#[test]
fn fig5_traces_allocate_per_trace_not_per_slot() {
    let work_cfg = WorkSwitchConfig::contiguous(PORTS as u32, BUFFER).unwrap();
    let values = ValueMix::Uniform { max: 16 };
    check(
        "work",
        counted(|| {
            scenario(12)
                .work_trace(&work_cfg, &PortMix::Uniform)
                .unwrap()
        }),
    );
    check(
        "value",
        counted(|| {
            scenario(32)
                .value_trace(PORTS, &PortMix::Uniform, &values)
                .unwrap()
        }),
    );
    check(
        "combined",
        counted(|| {
            scenario(12)
                .combined_trace(&work_cfg, &PortMix::Uniform, &values)
                .unwrap()
        }),
    );
}
