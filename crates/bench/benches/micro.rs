//! Criterion micro-benchmarks for the hot algorithmic kernels.
//!
//! `cargo bench --bench micro` — each group isolates one substrate:
//! Hilbert codec and window decomposition, rectangle-union geometry
//! (the MVR operations NNV leans on), NNV itself at growing peer counts,
//! R-tree vs linear scan, and the on-air client protocol.

use airshare_broadcast::{AirIndex, OnAirClient, Poi, QueryScratch, Schedule};
use airshare_core::{nnv, MergedRegion};
use airshare_geom::disk::{disk_region_area, Disk};
use airshare_geom::{Point, Rect, RectUnion};
use airshare_hilbert::{CellRect, Grid, HilbertCurve};
use airshare_obs::NoopRecorder;
use airshare_rtree::{LinearScan, RTree};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn scatter(n: usize, side: f64, seed: u64) -> Vec<Point> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
        .collect()
}

fn bench_hilbert(c: &mut Criterion) {
    let curve = HilbertCurve::new(16);
    let mut g = c.benchmark_group("hilbert");
    g.bench_function("encode_order16", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(2654435761);
            black_box(curve.encode(i % curve.side(), (i >> 8) % curve.side()))
        })
    });
    g.bench_function("decode_order16", |b| {
        let mut d = 0u64;
        b.iter(|| {
            d = d.wrapping_add(0x9E3779B97F4A7C15) % curve.cell_count();
            black_box(curve.decode(d))
        })
    });
    for span in [8u32, 64, 512] {
        g.bench_with_input(
            BenchmarkId::new("intervals_for_rect", span),
            &span,
            |b, &span| {
                let rect = CellRect::new(100, 200, 100 + span, 200 + span);
                b.iter(|| black_box(curve.intervals_for_rect(&rect)))
            },
        );
    }
    // The table-driven codec against the retained bitwise reference, at
    // the orders the simulation actually runs (6–8) and above.
    for order in [8u32, 10, 12] {
        let c = HilbertCurve::new(order);
        g.bench_with_input(BenchmarkId::new("encode", order), &order, |b, _| {
            let mut i = 0u32;
            b.iter(|| {
                i = i.wrapping_add(2654435761);
                black_box(c.encode(i % c.side(), (i >> 8) % c.side()))
            })
        });
        g.bench_with_input(BenchmarkId::new("encode_reference", order), &order, |b, _| {
            let mut i = 0u32;
            b.iter(|| {
                i = i.wrapping_add(2654435761);
                black_box(c.encode_reference(i % c.side(), (i >> 8) % c.side()))
            })
        });
        g.bench_with_input(BenchmarkId::new("decode", order), &order, |b, _| {
            let mut d = 0u64;
            b.iter(|| {
                d = d.wrapping_add(0x9E3779B97F4A7C15) % c.cell_count();
                black_box(c.decode(d))
            })
        });
        g.bench_with_input(BenchmarkId::new("decode_reference", order), &order, |b, _| {
            let mut d = 0u64;
            b.iter(|| {
                d = d.wrapping_add(0x9E3779B97F4A7C15) % c.cell_count();
                black_box(c.decode_reference(d))
            })
        });
        // Allocation-free decomposition into a reused buffer: a window
        // covering ~1/16 of the grid side at each order.
        g.bench_with_input(
            BenchmarkId::new("intervals_for_rect_into", order),
            &order,
            |b, _| {
                let span = (c.side() / 16).max(2) - 1;
                let rect = CellRect::new(1, 2, 1 + span, 2 + span);
                let mut out = Vec::new();
                b.iter(|| {
                    c.intervals_for_rect_into(&rect, &mut out);
                    black_box(out.len())
                })
            },
        );
    }
    g.finish();
}

fn bench_region_union(c: &mut Criterion) {
    let mut g = c.benchmark_group("region_union");
    for n in [8usize, 32, 128] {
        let mut rng = SmallRng::seed_from_u64(n as u64);
        let rects: Vec<Rect> = (0..n)
            .map(|_| {
                let x = rng.gen_range(0.0..18.0);
                let y = rng.gen_range(0.0..18.0);
                Rect::from_coords(x, y, x + rng.gen_range(0.3..2.0), y + rng.gen_range(0.3..2.0))
            })
            .collect();
        let union = RectUnion::from_rects(rects.clone());
        let q = Point::new(10.0, 10.0);
        g.bench_with_input(BenchmarkId::new("boundary_distance", n), &n, |b, _| {
            b.iter(|| black_box(union.distance_to_boundary(q)))
        });
        g.bench_with_input(BenchmarkId::new("area", n), &n, |b, _| {
            b.iter(|| black_box(union.area()))
        });
        g.bench_with_input(BenchmarkId::new("rect_difference", n), &n, |b, _| {
            let w = Rect::from_coords(8.0, 8.0, 12.0, 12.0);
            b.iter(|| black_box(union.rect_difference(&w)))
        });
        g.bench_with_input(BenchmarkId::new("disk_area", n), &n, |b, _| {
            let d = Disk::new(q, 3.0);
            b.iter(|| black_box(disk_region_area(d, &union)))
        });
    }
    g.finish();
}

fn bench_nnv(c: &mut Criterion) {
    let mut g = c.benchmark_group("nnv");
    for peers in [4usize, 12, 32] {
        let mut rng = SmallRng::seed_from_u64(7);
        let pois = scatter(500, 20.0, 3);
        let mut pairs: Vec<(Rect, Vec<Poi>)> = Vec::new();
        let mut id = 0u32;
        for _ in 0..peers {
            for _ in 0..6 {
                let cx = rng.gen_range(8.0..12.0);
                let cy = rng.gen_range(8.0..12.0);
                let vr = Rect::centered_square(Point::new(cx, cy), rng.gen_range(0.3..1.2));
                let ps: Vec<Poi> = pois
                    .iter()
                    .filter(|p| vr.contains(**p))
                    .map(|p| {
                        id += 1;
                        Poi::new(id, *p)
                    })
                    .collect();
                pairs.push((vr, ps));
            }
        }
        let mvr = MergedRegion::from_regions(pairs);
        let q = Point::new(10.0, 10.0);
        g.bench_with_input(BenchmarkId::new("k5", peers), &peers, |b, _| {
            b.iter(|| black_box(nnv(q, 5, &mvr, 1.25)))
        });
    }
    g.finish();
}

fn bench_rtree(c: &mut Criterion) {
    let pts = scatter(10_000, 100.0, 9);
    let items: Vec<(Point, u32)> = pts.iter().enumerate().map(|(i, p)| (*p, i as u32)).collect();
    let tree = RTree::bulk_load(items.clone());
    let scan = LinearScan::from_items(items);
    let q = Point::new(50.0, 50.0);
    let w = Rect::from_coords(40.0, 40.0, 45.0, 45.0);

    let mut g = c.benchmark_group("rtree_vs_scan");
    g.bench_function("rtree_knn10", |b| b.iter(|| black_box(tree.knn(q, 10))));
    g.bench_function("scan_knn10", |b| b.iter(|| black_box(scan.knn(q, 10))));
    g.bench_function("rtree_window", |b| b.iter(|| black_box(tree.window(&w))));
    g.bench_function("scan_window", |b| b.iter(|| black_box(scan.window(&w))));
    g.finish();
}

fn bench_onair(c: &mut Criterion) {
    let world = Rect::from_coords(0.0, 0.0, 20.0, 20.0);
    let pois: Vec<Poi> = scatter(2750, 20.0, 4)
        .into_iter()
        .enumerate()
        .map(|(i, p)| Poi::new(i as u32, p))
        .collect();
    let index = AirIndex::try_build(pois, Grid::new(world, 8), 10).unwrap();
    let schedule = Schedule::new(index.data_buckets(), index.index_buckets(), 4);
    let client = OnAirClient::new(&index, &schedule);
    let q = Point::new(10.0, 10.0);

    let mut g = c.benchmark_group("onair");
    g.bench_function("knn5", |b| {
        let mut t = 0u64;
        b.iter(|| {
            t += 37;
            black_box(client.knn(t, q, 5, &mut QueryScratch::new(), &mut NoopRecorder))
        })
    });
    g.bench_function("knn5_filtered", |b| {
        let mut t = 0u64;
        b.iter(|| {
            t += 37;
            black_box(client.knn_filtered(
                t,
                q,
                5,
                &[],
                Some(0.3),
                Some(1.0),
                &mut QueryScratch::new(),
                &mut NoopRecorder,
            ))
        })
    });
    g.bench_function("window_1pct", |b| {
        let half = 0.5 * (0.01f64.sqrt() * 20.0); // 1% of the space
        let w = Rect::centered_square(q, half);
        let mut t = 0u64;
        b.iter(|| {
            t += 37;
            black_box(client.window(t, &w, &mut QueryScratch::new(), &mut NoopRecorder))
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_hilbert, bench_region_union, bench_nnv, bench_rtree, bench_onair
}
criterion_main!(benches);
