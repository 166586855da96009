//! A disabled tracer must be free on the hot path: no events, no
//! snapshots — and no heap allocations at all from the recording calls.
//! The allocation check uses a counting global allocator, so this test
//! lives in its own integration-test binary. The harness runs the tests on
//! parallel threads, so the count is kept per thread: a test sees only its
//! own allocations, never another test's set-up.

use ipcl_trace::{MetricSink, TraceConfig, Tracer, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // `const`-initialised and without a destructor, so reading it never
    // allocates (which would recurse into the allocator).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    ALLOCATIONS.with(|count| count.set(count.get() + 1));
}

/// Allocations made by the calling thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A hot loop of spans, events, counters and gauges against a disabled
/// tracer must allocate nothing and record nothing.
#[test]
fn disabled_tracing_allocates_nothing_on_the_hot_path() {
    let tracer = Tracer::disabled();
    // Warm up once outside the measured window (thread-local init etc.).
    {
        let _span = tracer.span("warmup");
        tracer.event("warmup", &[("i", Value::U64(0))]);
    }

    let before = allocations();
    for i in 0..10_000u64 {
        let _solve = tracer.span("sat.solve");
        tracer.event("solver_restart", &[("conflicts", Value::U64(i))]);
        tracer.counter("sat.propagations", i);
        tracer.gauge("depth", i as f64);
        let _inner = tracer.span("sat.propagate");
    }
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "disabled tracing must not allocate on the hot path"
    );
    assert_eq!(tracer.event_count(), 0);
    assert!(tracer.snapshot().is_none());
}

/// Same loop with a config-disabled tracer built through `Tracer::new`
/// (the path the engines take when `TraceConfig::disabled()` rides in on
/// the options struct).
#[test]
fn config_disabled_tracer_is_also_allocation_free() {
    let tracer = Tracer::new(TraceConfig::disabled());
    {
        let _span = tracer.span("warmup");
    }
    let before = allocations();
    for i in 0..1_000u64 {
        let _span = tracer.span("bmc.check");
        tracer.event("bmc_depth", &[("depth", Value::U64(i))]);
        tracer.counter("bmc.solve_calls", 1);
    }
    let after = allocations();
    assert_eq!(after - before, 0);
    assert_eq!(tracer.event_count(), 0);
}
