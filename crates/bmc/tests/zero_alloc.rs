//! The encoder's hot paths must not touch the heap once warm: a
//! structural-hashing hit of an AND gate reuses the unroller's operand
//! buffer and looks its key up by slice, and a specification variable the
//! binding resolved is a table lookup, not a name. The check uses a
//! counting global allocator, so it lives in its own integration-test
//! binary, and counts per thread: a test sees only its own allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ipcl_bmc::{Binding, FrameEncoder};
use ipcl_core::example::ExampleArch;
use ipcl_expr::{Cnf, Lit};
use ipcl_rtl::{InitialState, Unroller};
use ipcl_synth::synthesize_interlock;

struct CountingAlloc;

thread_local! {
    // `const`-initialised and without a destructor, so reading it never
    // allocates (which would recurse into the allocator).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations made by the calling thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn an_and_gate_cache_hit_allocates_nothing() {
    let spec = ExampleArch::new().functional_spec();
    let synthesized = synthesize_interlock(&spec);
    let netlist = synthesized.netlist();
    let order = netlist.elaborate().unwrap();
    let mut unroller = Unroller::new(netlist, &order, InitialState::Reset);
    unroller.add_frame();
    let inputs: Vec<Lit> = netlist
        .inputs()
        .into_iter()
        .take(4)
        .map(|input| unroller.lit(0, input))
        .collect();
    let gate = unroller.define_and(&inputs);
    let reordered: Vec<Lit> = inputs.iter().rev().copied().collect();
    let hits = unroller.stats().cache_hits;

    let before = allocations();
    for _ in 0..1_000 {
        assert_eq!(unroller.define_and(&reordered), gate);
    }
    assert_eq!(allocations() - before, 0, "a cache hit must not allocate");
    assert_eq!(unroller.stats().cache_hits, hits + 1_000);
}

#[test]
fn a_resolved_variable_costs_no_allocation() {
    let spec = ExampleArch::new().functional_spec();
    let synthesized = synthesize_interlock(&spec);
    let netlist = synthesized.netlist();
    let binding = Binding::new(&spec, netlist);
    let mut encoder = FrameEncoder::new(&binding, InitialState::Reset, 1, Cnf::new(0)).unwrap();
    encoder.ensure_frames(2);
    let resolved: Vec<_> = spec
        .pool()
        .ids()
        .filter(|&var| binding.signal(var).is_some())
        .collect();
    assert!(resolved.len() > spec.stages().len(), "moe and environment");

    let before = allocations();
    for _ in 0..100 {
        for &var in &resolved {
            let signal = binding.signal(var).unwrap();
            assert_eq!(encoder.var_lit(1, var), encoder.unroller().lit(1, signal));
        }
    }
    assert_eq!(
        allocations() - before,
        0,
        "a resolved variable must not allocate"
    );
}
