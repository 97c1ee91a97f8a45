//! Micro kernels of the broadcast layer, timed on a workload's own
//! index: the Hilbert codec and decomposition, and the scratch bucket
//! planners behind every on-air query.

use crate::spans::{Tracer, NO_REQ};
use crate::util::{Metrics, Rng};
use airshare_broadcast::{AirIndex, AirIndexBackend, BuildParams, PoiTable, QueryScratch};
use airshare_geom::{Point, Rect};
use airshare_hilbert::{CellRect, HilbertCurve};
use airshare_sim::SimConfig;
use std::hint::black_box;
use std::time::Instant;

/// Calls per kernel: enough that one timing spans milliseconds.
const CODEC_CALLS: u64 = 2_000_000;
const PLAN_CALLS: u64 = 100_000;

fn ns_per_call(calls: u64, tr: &mut Tracer, name: &'static str, mut f: impl FnMut(u64)) -> f64 {
    tr.open_n(name, NO_REQ, calls);
    let t = Instant::now();
    for i in 0..calls {
        f(i);
    }
    let ns = t.elapsed().as_nanos() as f64 / calls as f64;
    tr.close();
    ns
}

/// Times every kernel against an index built like the workload's
/// (same POIs, order and bucket capacity) and a query mix drawn from
/// `seed`.
pub fn measure(cfg: &SimConfig, pois: &PoiTable, seed: u64, tr: &mut Tracer, m: &mut Metrics) {
    let side = cfg.params.world_mi;
    let world = Rect::from_coords(0.0, 0.0, side, side);
    let params = BuildParams {
        world,
        hilbert_order: cfg.hilbert_order,
        bucket_capacity: cfg.bucket_capacity,
    };
    let index = <AirIndex as AirIndexBackend>::try_build(pois, &params)
        .expect("the workload's own index parameters build");
    let curve = HilbertCurve::new(cfg.hilbert_order);
    let cells = curve.cell_count();
    let mask = curve.side() - 1;

    let mut acc = 0u64;
    let encode = ns_per_call(CODEC_CALLS, tr, "hilbert.encode", |i| {
        let x = (i.wrapping_mul(2_654_435_761) >> 7) as u32 & mask;
        let y = (i.wrapping_mul(0x9E37_79B9) >> 13) as u32 & mask;
        acc = acc.wrapping_add(curve.encode(black_box(x), black_box(y)));
    });
    let decode = ns_per_call(CODEC_CALLS, tr, "hilbert.decode", |i| {
        let (x, y) = curve.decode(black_box(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % cells));
        acc = acc.wrapping_add((x ^ y) as u64);
    });
    // A 64×64-cell window, clipped to curves too small to hold one.
    let span = 64u32.min(curve.side()) - 1;
    let mut out = Vec::new();
    let decompose = ns_per_call(PLAN_CALLS / 10, tr, "hilbert.decompose_span64", |i| {
        let x = (i as u32).wrapping_mul(40_503) % (curve.side() - span);
        let y = (i as u32).wrapping_mul(61_403) % (curve.side() - span);
        curve.intervals_for_rect_into(
            black_box(&CellRect::new(x, y, x + span, y + span)),
            &mut out,
        );
        acc = acc.wrapping_add(out.len() as u64);
    });
    black_box(acc);

    // Query mix: the workload's window size, and kNN circles from the
    // index's own first-scan bound, at seeded positions.
    let mut rng = Rng::new(seed);
    let points: Vec<Point> = (0..1024)
        .map(|_| Point::new(rng.range(0.0, side), rng.range(0.0, side)))
        .collect();
    let half = 0.5 * (cfg.params.window_pct / 100.0).sqrt() * side;
    let windows: Vec<Rect> = points
        .iter()
        .map(|&p| {
            let w = Rect::centered_square(p, half);
            w.intersection(&world).unwrap_or(w)
        })
        .collect();
    let radii: Vec<f64> = points
        .iter()
        .map(|&p| index.knn_search_radius(p, cfg.params.knn_k).unwrap_or(half))
        .collect();
    let mut scratch = QueryScratch::new();
    let mut acc = 0usize;
    let window = ns_per_call(PLAN_CALLS, tr, "broadcast.buckets_for_window", |i| {
        index.buckets_for_window_scratch(black_box(&windows[i as usize % 1024]), &mut scratch);
        acc += scratch.buckets().len();
    });
    let knn = ns_per_call(PLAN_CALLS, tr, "broadcast.buckets_for_knn", |i| {
        let j = i as usize % 1024;
        index.buckets_for_knn_scratch(black_box(points[j]), radii[j], &mut scratch);
        acc += scratch.buckets().len();
    });
    black_box(acc);

    m.put("hilbert.encode_ns", "ns", encode);
    m.put("hilbert.decode_ns", "ns", decode);
    m.put("hilbert.decompose_span64_ns", "ns", decompose);
    m.put("broadcast.buckets_for_window_ns", "ns", window);
    m.put("broadcast.buckets_for_knn_ns", "ns", knn);
}
