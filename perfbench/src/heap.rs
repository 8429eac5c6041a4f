//! Heap accounting for the `peak_heap_mb` metric.
//!
//! The benchmark's global allocator forwards to the system allocator and
//! counts the bytes live on the heap, across every thread of the process
//! (the in-process server's included), with a high-water mark that can be
//! reset. Unlike the kernel's resident-set high-water mark it can be reset
//! where a measurement starts, so a peak reached during set-up does not
//! count, and for a single-threaded op it repeats exactly on the same input.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counters are only bookkeeping beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        moved
    }
}

/// Fixes the C allocator's thresholds for the whole process. glibc moves
/// its mmap threshold (and with it the trim threshold) up to the size of the
/// largest mapped block freed so far, so how often an op's large blocks
/// fault in fresh pages depends on which ops ran before it. In sizing that
/// history made random-mixed models of the same sizes twice as slow in one
/// corpus as in another; with the thresholds fixed the gap fell to a
/// quarter. Blocks below 32 MiB (the most glibc accepts) come from the
/// heap, and the heap is trimmed only above 1 GiB, so every op runs on
/// pages the process has already touched.
pub fn fix_malloc_thresholds() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: mallopt only adjusts glibc's allocator parameters; both
        // values are within the ranges it documents.
        let set = unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1
        };
        assert!(set, "glibc accepts the allocator thresholds");
    }
}

/// Restarts the high-water mark at the bytes live now, and returns them.
pub fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// The most bytes live since the last [`reset_peak`].
pub fn peak() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// The high-water mark since `reset_peak` returned `base`, above `base`, in
/// MiB (at least one byte, so that it has a logarithm).
pub fn peak_above_mb(base: usize) -> f64 {
    peak().saturating_sub(base).max(1) as f64 / (1024.0 * 1024.0)
}
