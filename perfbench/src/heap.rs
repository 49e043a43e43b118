//! Peak live heap bytes, counted by a global allocator that wraps the
//! system allocator.
//!
//! The process's peak resident set (`VmHWM`) also counts where glibc
//! happened to place the blocks: at one `isa_replay` seed it read 49 or
//! 55 MiB from run to run. The bytes the program holds at once do not
//! depend on placement, so they are the end-to-end memory metric.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting live and peak bytes.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// The most heap bytes live at once so far.
#[must_use]
pub fn peak_bytes() -> usize {
    PEAK.load(Relaxed)
}

/// Runs `f` and leaves out of the peak what `f` allocated and freed
/// again: for work that is the benchmark's own, not the simulator's.
pub fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    let before = PEAK.load(Relaxed);
    let out = f();
    PEAK.store(before.max(LIVE.load(Relaxed)), Relaxed);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    const MIB: usize = 1 << 20;

    #[test]
    fn peak_counts_held_and_grown_blocks_but_not_uncounted_work() {
        let held = black_box(vec![1u8; 8 * MIB]);
        let mut grown = black_box(Vec::<u8>::with_capacity(MIB));
        grown.resize(4 * MIB, 1);
        assert!(peak_bytes() >= 12 * MIB);
        let before = peak_bytes();
        let freed = uncounted(|| black_box(vec![0u8; 256 * MIB]).len());
        assert_eq!(freed, 256 * MIB);
        // Tests run in parallel, but none holds 256 MiB.
        assert!(peak_bytes() < before + 256 * MIB);
        drop((held, grown));
    }
}
