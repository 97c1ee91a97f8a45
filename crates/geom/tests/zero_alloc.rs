//! Asserts that the per-query region kernels allocate nothing once warm:
//! [`RectUnion::distance_to_boundary`] (Lemma 3.1's verification radius)
//! and [`disk_region_area`] (Lemma 3.2's covered area) run in per-thread
//! sweep buffers, and return no collection. A counting global allocator
//! makes the claim checkable.
//!
//! This lives in an integration test because the library itself is
//! `#![forbid(unsafe_code)]`; implementing [`GlobalAlloc`] requires
//! `unsafe`, and an integration test is its own crate.

use airshare_geom::disk::{disk_region_area, Disk};
use airshare_geom::{Point, Rect, RectUnion};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// [`System`], with every allocation counted.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Deterministic pseudo-random overlapping rectangles, no RNG crate needed.
fn regions(count: usize, members: usize) -> Vec<RectUnion> {
    (0..count)
        .map(|i| {
            RectUnion::from_rects((0..members).map(|j| {
                let h = ((i * 131 + j) as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .rotate_left(17);
                let x = (h & 0xFFFF) as f64 / 65536.0 * 8.0;
                let y = ((h >> 16) & 0xFFFF) as f64 / 65536.0 * 8.0;
                let w = 0.5 + ((h >> 32) & 0xFF) as f64 / 64.0;
                let t = 0.5 + ((h >> 40) & 0xFF) as f64 / 64.0;
                Rect::from_coords(x, y, x + w, y + t)
            }))
        })
        .collect()
}

#[test]
fn warm_region_kernels_do_not_allocate() {
    // Mixed sizes, so the warm-up leaves the buffers at their high-water
    // marks for every region in the measured pass.
    let regions: Vec<RectUnion> = [1, 4, 12, 30].iter().flat_map(|&n| regions(8, n)).collect();
    let probes: Vec<Point> = (0..16)
        .map(|i| {
            let t = i as f64 / 16.0;
            Point::new(1.0 + t * 7.0, 6.5 - t * 5.0)
        })
        .collect();

    let run_all = || {
        let mut sink = 0.0;
        for u in &regions {
            for &p in &probes {
                if let Some((d, _)) = u.distance_to_boundary(p) {
                    sink += d;
                }
                sink += disk_region_area(Disk::new(p, 1.5), u);
            }
        }
        sink
    };

    // Warm-up: the per-thread sweep buffers grow to their high-water marks.
    let expected = run_all();
    assert!(expected > 0.0, "no distances or areas; test is vacuous");

    let before = allocations();
    let got = run_all();
    let after = allocations();
    assert_eq!(got.to_bits(), expected.to_bits());
    assert_eq!(
        after - before,
        0,
        "warm region kernels allocated {} times",
        after - before
    );
}
