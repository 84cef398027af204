//! A counting global allocator: live heap bytes and their high-water
//! mark, so each trial's peak footprint can be read exactly.
//!
//! A process-wide `VmHWM` is the maximum over every trial a run happens
//! to fit into its time budget, so it moves with the trial count; a
//! per-trial peak does not, and its median over trials is steady.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Bytes currently allocated.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Highest `LIVE` since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, with every allocation counted. Install it with
/// `#[global_allocator]`.
pub struct Counting;

// Plain load/store pairs rather than read-modify-write instructions:
// the workloads allocate from one thread, where they are exact and cost
// next to nothing; under contention a lost update would only skew a
// statistic.

fn grow(bytes: usize) {
    let live = LIVE.load(Relaxed).wrapping_add(bytes);
    LIVE.store(live, Relaxed);
    if live > PEAK.load(Relaxed) {
        PEAK.store(live, Relaxed);
    }
}

fn shrink(bytes: usize) {
    LIVE.store(LIVE.load(Relaxed).wrapping_sub(bytes), Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are
// statistics that never influence what is allocated.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        p
    }
}

/// Restarts the high-water mark at the current live size and returns
/// that size.
pub fn reset_peak() -> usize {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// The high-water mark since the last [`reset_peak`].
pub fn peak() -> usize {
    PEAK.load(Relaxed)
}
