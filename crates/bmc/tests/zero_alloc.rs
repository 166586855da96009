//! The encoder's hot paths must not touch the heap once warm: a
//! structural-hashing hit of an AND gate reuses the gate encoder's operand
//! buffer and looks its key up by slice, and a specification variable the
//! binding resolved is a table lookup, not a name. The check uses a
//! counting global allocator, so it lives in its own integration-test
//! binary, and counts per thread: a test sees only its own allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ipcl_bmc::{Binding, FrameEncoder, InitialState, Latency, SequentialProperty};
use ipcl_core::example::ExampleArch;
use ipcl_expr::{Cnf, GateEncoder, Lit};
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
    let mut gates = GateEncoder::new(Cnf::new(0));
    let inputs: Vec<Lit> = (0..4).map(|_| gates.fresh_lit()).collect();
    let gate = gates.define_and(inputs.iter().copied());
    let reordered: Vec<Lit> = inputs.iter().rev().copied().collect();
    let hits = gates.cache_hits();

    let before = allocations();
    for _ in 0..1_000 {
        assert_eq!(gates.define_and(reordered.iter().copied()), gate);
    }
    assert_eq!(allocations() - before, 0, "a cache hit must not allocate");
    assert_eq!(gates.cache_hits(), hits + 1_000);
}

/// Every variable of the paper example's properties resolves to a netlist
/// signal, so re-encoding a warm instance is table lookups and gate cache
/// hits only.
#[test]
fn a_resolved_variable_costs_no_allocation() {
    let spec = ExampleArch::new().functional_spec();
    let synthesized = synthesize_interlock(&spec);
    let netlist = synthesized.netlist();
    let binding = Binding::new(&spec, netlist);
    assert!(
        spec.pool().ids().all(|var| binding.signal(var).is_some()),
        "moe and environment"
    );
    let mut encoder = FrameEncoder::new(&binding, InitialState::Reset, 1, Cnf::new(0)).unwrap();
    encoder.ensure_frames(2);
    let properties = SequentialProperty::both_directions(&spec, Latency::Combinational);
    let warm: Vec<Lit> = properties
        .iter()
        .map(|property| encoder.encode_instance(property, 1))
        .collect();

    let before = allocations();
    for _ in 0..100 {
        for (property, &ok) in properties.iter().zip(&warm) {
            assert_eq!(encoder.encode_instance(property, 1), ok);
        }
    }
    assert_eq!(
        allocations() - before,
        0,
        "a resolved variable must not allocate"
    );
}
