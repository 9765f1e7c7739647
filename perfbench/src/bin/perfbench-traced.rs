//! Traced (per-layer) runs: the same benchmark with
//! `memprof::CountingAlloc` behind a switch, so the allocations of each
//! replayed layer call can be counted (see `COUNT_ALLOCS`).

use mustaple_perfbench::memprof::CountingAlloc;
use mustaple_perfbench::COUNT_ALLOCS;
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::Ordering;

/// `CountingAlloc` while `COUNT_ALLOCS` is set, `System` otherwise.
struct SwitchedAlloc;

// SAFETY: every call is forwarded unchanged to `CountingAlloc` or
// `System`. `CountingAlloc` allocates and frees with `System` itself
// and only adds counter updates, so a block obtained from either can be
// freed or reallocated by either: the switch may flip between the two
// calls. (A block freed by the other side only skews `CountingAlloc`'s
// live-byte gauge, which the benchmark does not read.)
unsafe impl GlobalAlloc for SwitchedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNT_ALLOCS.load(Ordering::Relaxed) {
            CountingAlloc.alloc(layout)
        } else {
            System.alloc(layout)
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNT_ALLOCS.load(Ordering::Relaxed) {
            CountingAlloc.dealloc(ptr, layout)
        } else {
            System.dealloc(ptr, layout)
        }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNT_ALLOCS.load(Ordering::Relaxed) {
            CountingAlloc.alloc_zeroed(layout)
        } else {
            System.alloc_zeroed(layout)
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNT_ALLOCS.load(Ordering::Relaxed) {
            CountingAlloc.realloc(ptr, layout, new_size)
        } else {
            System.realloc(ptr, layout, new_size)
        }
    }
}

#[global_allocator]
static ALLOC: SwitchedAlloc = SwitchedAlloc;

fn main() -> ExitCode {
    mustaple_perfbench::main_with(true)
}
