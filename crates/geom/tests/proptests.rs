//! Property-based tests for the geometry kernel.
//!
//! Every invariant here is one the SBNN/SBWQ algorithms lean on:
//! exact areas, disjoint decompositions, boundary semantics, interval
//! algebra, and the disk-area integrals behind Lemma 3.2.

use airshare_geom::disk::{disk_rect_area, disk_region_area, Disk};
use airshare_geom::{IntervalSet, Point, Rect, RectUnion, Segment, EPSILON};
use proptest::prelude::*;

const TOL: f64 = 1e-6;

fn arb_rect() -> impl Strategy<Value = Rect> {
    (
        -50.0..50.0f64,
        -50.0..50.0f64,
        0.01..30.0f64,
        0.01..30.0f64,
    )
        .prop_map(|(x, y, w, h)| Rect::from_coords(x, y, x + w, y + h))
}

fn arb_rects(max: usize) -> impl Strategy<Value = Vec<Rect>> {
    prop::collection::vec(arb_rect(), 1..max)
}

fn arb_point() -> impl Strategy<Value = Point> {
    (-60.0..60.0f64, -60.0..60.0f64).prop_map(|(x, y)| Point::new(x, y))
}

/// Inclusion–exclusion area for up to a handful of rectangles, used as an
/// independent oracle for `RectUnion::area`.
fn oracle_union_area(rects: &[Rect]) -> f64 {
    let n = rects.len();
    assert!(n <= 20);
    let mut area = 0.0;
    for mask in 1u32..(1 << n) {
        let mut inter: Option<Rect> = None;
        for (i, r) in rects.iter().enumerate() {
            if mask & (1 << i) != 0 {
                inter = match inter {
                    None => Some(*r),
                    Some(acc) => match acc.intersection(r) {
                        Some(x) => Some(x),
                        None => {
                            inter = None;
                            break;
                        }
                    },
                };
                if inter.is_none() {
                    break;
                }
            }
        }
        if let Some(x) = inter {
            let sign = if mask.count_ones() % 2 == 1 { 1.0 } else { -1.0 };
            area += sign * x.area();
        }
    }
    area
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn union_area_matches_inclusion_exclusion(rects in arb_rects(6)) {
        let u = RectUnion::from_rects(rects.clone());
        let expect = oracle_union_area(&rects);
        prop_assert!((u.area() - expect).abs() < TOL,
            "sweep {} vs oracle {}", u.area(), expect);
    }

    #[test]
    fn disjoint_decomposition_tiles_exactly(rects in arb_rects(7)) {
        let u = RectUnion::from_rects(rects);
        let tiles = u.disjoint_rects();
        let sum: f64 = tiles.iter().map(Rect::area).sum();
        prop_assert!((sum - u.area()).abs() < TOL);
        for (i, a) in tiles.iter().enumerate() {
            for b in &tiles[i + 1..] {
                prop_assert!(!a.intersects_interior(b), "{a:?} overlaps {b:?}");
            }
        }
    }

    #[test]
    fn containment_agrees_with_member_rects(rects in arb_rects(6), p in arb_point()) {
        let u = RectUnion::from_rects(rects.clone());
        let direct = rects.iter().any(|r| r.contains(p));
        prop_assert_eq!(u.contains(p), direct);
    }

    #[test]
    fn boundary_distance_is_zero_set_separator(rects in arb_rects(5), p in arb_point()) {
        // Points strictly inside stay inside a ball of the boundary
        // distance; probe a few directions at 99% of the distance.
        let u = RectUnion::from_rects(rects);
        if u.contains(p) {
            if let Some((d, _)) = u.distance_to_boundary(p) {
                if d > 1e-4 {
                    for k in 0..8 {
                        let ang = k as f64 * std::f64::consts::FRAC_PI_4;
                        let q = p.offset(0.99 * d * ang.cos(), 0.99 * d * ang.sin());
                        prop_assert!(u.contains(q),
                            "ball point {q:?} escaped region (d = {d})");
                    }
                }
            }
        }
    }

    #[test]
    fn rect_difference_partitions_window(rects in arb_rects(5), w in arb_rect()) {
        let u = RectUnion::from_rects(rects);
        let diff = u.rect_difference(&w);
        let inter = u.rect_intersection(&w);
        let a_diff: f64 = diff.iter().map(Rect::area).sum();
        let a_inter: f64 = inter.iter().map(Rect::area).sum();
        prop_assert!((a_diff + a_inter - w.area()).abs() < TOL,
            "diff {} + inter {} != window {}", a_diff, a_inter, w.area());
        for d in &diff {
            prop_assert!(w.contains_rect(d));
            // Center of a difference piece is never interior to the union.
            prop_assert!(!u.contains_interior(d.center()));
        }
    }

    #[test]
    fn covers_rect_iff_difference_empty(rects in arb_rects(5), w in arb_rect()) {
        let u = RectUnion::from_rects(rects);
        let covered = u.covers_rect(&w);
        let a_inter: f64 = u.rect_intersection(&w).iter().map(Rect::area).sum();
        if covered {
            prop_assert!((a_inter - w.area()).abs() < TOL);
        } else {
            prop_assert!(a_inter < w.area() + TOL);
        }
    }

    #[test]
    fn disk_rect_area_bounds(c in arb_point(), r in 0.0..40.0f64, rect in arb_rect()) {
        let d = Disk::new(c, r);
        let a = disk_rect_area(d, &rect);
        prop_assert!(a >= -TOL);
        prop_assert!(a <= rect.area() + TOL);
        prop_assert!(a <= d.area() + TOL);
    }

    #[test]
    fn disk_rect_area_additive_under_split(c in arb_point(), r in 0.1..40.0f64, rect in arb_rect()) {
        // Splitting the rectangle in half must preserve the total area.
        let d = Disk::new(c, r);
        let whole = disk_rect_area(d, &rect);
        let mid = 0.5 * (rect.x1 + rect.x2);
        let left = Rect::from_coords(rect.x1, rect.y1, mid, rect.y2);
        let right = Rect::from_coords(mid, rect.y1, rect.x2, rect.y2);
        let split = disk_rect_area(d, &left) + disk_rect_area(d, &right);
        prop_assert!((whole - split).abs() < TOL, "{whole} vs {split}");
    }

    #[test]
    fn disk_region_area_monotone_in_region(rects in arb_rects(5), c in arb_point(), r in 0.1..30.0f64) {
        let d = Disk::new(c, r);
        let all = RectUnion::from_rects(rects.clone());
        let fewer = RectUnion::from_rects(rects[..rects.len() - 1].to_vec());
        let a_all = disk_region_area(d, &all);
        let a_fewer = disk_region_area(d, &fewer);
        prop_assert!(a_all + TOL >= a_fewer, "{a_all} < {a_fewer}");
        prop_assert!(a_all <= d.area() + TOL);
    }

    #[test]
    fn interval_set_union_len_superadditive(
        a in prop::collection::vec((-100.0..100.0f64, 0.01..20.0f64), 0..8),
        b in prop::collection::vec((-100.0..100.0f64, 0.01..20.0f64), 0..8),
    ) {
        let sa = IntervalSet::from_intervals(a.iter().map(|&(lo, w)| (lo, lo + w)));
        let sb = IntervalSet::from_intervals(b.iter().map(|&(lo, w)| (lo, lo + w)));
        let u = sa.union(&sb);
        let i = sa.intersection(&sb);
        // |A ∪ B| + |A ∩ B| = |A| + |B|
        prop_assert!((u.total_len() + i.total_len() - sa.total_len() - sb.total_len()).abs() < TOL);
        // A \ B and B ∩ A partition A.
        let diff = sa.difference(&sb);
        prop_assert!((diff.total_len() + i.total_len() - sa.total_len()).abs() < TOL);
        // Symmetric difference = union − intersection.
        let sym = sa.symmetric_difference(&sb);
        prop_assert!((sym.total_len() - (u.total_len() - i.total_len())).abs() < TOL);
    }

    #[test]
    fn interval_membership_matches_inputs(
        ivs in prop::collection::vec((-100.0..100.0f64, 0.01..20.0f64), 1..8),
        x in -120.0..120.0f64,
    ) {
        let s = IntervalSet::from_intervals(ivs.iter().map(|&(lo, w)| (lo, lo + w)));
        let direct = ivs.iter().any(|&(lo, w)| x >= lo && x <= lo + w);
        // ε-canonicalization may differ exactly at endpoints; probe only
        // clearly-inside / clearly-outside points.
        let near_edge = ivs
            .iter()
            .any(|&(lo, w)| (x - lo).abs() < 1e-6 || (x - (lo + w)).abs() < 1e-6);
        if !near_edge {
            prop_assert_eq!(s.contains(x), direct);
        }
    }

    #[test]
    fn mbr_contains_every_member(rects in arb_rects(6)) {
        let u = RectUnion::from_rects(rects.clone());
        let mbr = u.mbr().unwrap();
        for r in &rects {
            prop_assert!(mbr.contains_rect(r));
        }
    }
}

// ----------------------------------------------------------------------
// Bit-exact oracles: the straightforward sweeps, one `IntervalSet` per
// candidate line or slab, every edge built before the minimum is taken.
// The library's presorted, nearest-first sweeps must reproduce them bit
// for bit.
// ----------------------------------------------------------------------

/// Every boundary edge of the union of `rects` (non-degenerate members):
/// vertical lines then horizontal, each in ascending order, each line's
/// symmetric-difference runs in ascending order.
fn oracle_boundary_edges(rects: &[Rect]) -> Vec<Segment> {
    let mut out = Vec::new();
    for vertical in [true, false] {
        let mut coords: Vec<f64> = rects
            .iter()
            .flat_map(|r| if vertical { [r.x1, r.x2] } else { [r.y1, r.y2] })
            .collect();
        coords.sort_by(f64::total_cmp);
        coords.dedup_by(|a, b| (*a - *b).abs() <= EPSILON);
        for &c in &coords {
            let mut before = Vec::new();
            let mut after = Vec::new();
            for r in rects {
                let (fixed_lo, fixed_hi, free_lo, free_hi) = if vertical {
                    (r.x1, r.x2, r.y1, r.y2)
                } else {
                    (r.y1, r.y2, r.x1, r.x2)
                };
                if fixed_lo + EPSILON < c && fixed_hi >= c - EPSILON {
                    before.push((free_lo, free_hi));
                }
                if fixed_hi - EPSILON > c && fixed_lo <= c + EPSILON {
                    after.push((free_lo, free_hi));
                }
            }
            let before = IntervalSet::from_intervals(before);
            let after = IntervalSet::from_intervals(after);
            for &(lo, hi) in before.symmetric_difference(&after).runs() {
                out.push(if vertical {
                    Segment::vertical(c, lo, hi)
                } else {
                    Segment::horizontal(c, lo, hi)
                });
            }
        }
    }
    out
}

/// The first edge of minimum distance over all boundary edges.
fn oracle_distance_to_boundary(rects: &[Rect], p: Point) -> Option<(f64, Segment)> {
    oracle_boundary_edges(rects)
        .iter()
        .map(|&s| (s.distance_to_point(p), s))
        .min_by(|a, b| a.0.total_cmp(&b.0))
}

/// The covered y-runs of the slab `[xa, xb]`.
fn oracle_slab_cover(rects: &[Rect], xa: f64, xb: f64) -> IntervalSet {
    IntervalSet::from_intervals(
        rects
            .iter()
            .filter(|r| r.x1 <= xa + EPSILON && r.x2 >= xb - EPSILON)
            .map(|r| (r.y1, r.y2)),
    )
}

/// The vertical-slab tiling of the union.
fn oracle_disjoint_rects(rects: &[Rect]) -> Vec<Rect> {
    let mut xs: Vec<f64> = rects.iter().flat_map(|r| [r.x1, r.x2]).collect();
    xs.sort_by(f64::total_cmp);
    xs.dedup_by(|a, b| (*a - *b).abs() <= EPSILON);
    let mut out = Vec::new();
    for w in xs.windows(2) {
        let (xa, xb) = (w[0], w[1]);
        if xb - xa <= EPSILON {
            continue;
        }
        for &(lo, hi) in oracle_slab_cover(rects, xa, xb).runs() {
            out.push(Rect::from_coords(xa, lo, xb, hi));
        }
    }
    out
}

/// `w \ union`, slabs with ε-equal uncovered runs coalesced.
fn oracle_rect_difference(rects: &[Rect], w: &Rect) -> Vec<Rect> {
    if w.is_degenerate() {
        return Vec::new();
    }
    let mut xs: Vec<f64> = vec![w.x1, w.x2];
    for r in rects {
        if r.intersects_interior(w) {
            if r.x1 > w.x1 && r.x1 < w.x2 {
                xs.push(r.x1);
            }
            if r.x2 > w.x1 && r.x2 < w.x2 {
                xs.push(r.x2);
            }
        }
    }
    xs.sort_by(f64::total_cmp);
    xs.dedup_by(|a, b| (*a - *b).abs() <= EPSILON);
    let full = IntervalSet::single(w.y1, w.y2);
    let mut out: Vec<Rect> = Vec::new();
    let mut open: Vec<(f64, f64, usize)> = Vec::new();
    for win in xs.windows(2) {
        let (xa, xb) = (win[0], win[1]);
        if xb - xa <= EPSILON {
            continue;
        }
        let uncovered = full.difference(&oracle_slab_cover(rects, xa, xb));
        let mut next_open = Vec::new();
        for &(lo, hi) in uncovered.runs() {
            if let Some(&(plo, phi, idx)) = open
                .iter()
                .find(|&&(plo, phi, _)| (plo - lo).abs() <= EPSILON && (phi - hi).abs() <= EPSILON)
            {
                out[idx].x2 = xb;
                next_open.push((plo, phi, idx));
            } else {
                out.push(Rect::from_coords(xa, lo, xb, hi));
                next_open.push((lo, hi, out.len() - 1));
            }
        }
        open = next_open;
    }
    out
}

fn seg_bits(s: &Segment) -> (bool, u64, u64, u64) {
    (
        s.axis == airshare_geom::Axis::Vertical,
        s.at.to_bits(),
        s.lo.to_bits(),
        s.hi.to_bits(),
    )
}

fn rect_bits(r: &Rect) -> [u64; 4] {
    [r.x1.to_bits(), r.y1.to_bits(), r.x2.to_bits(), r.y2.to_bits()]
}

/// A coordinate on a coarse grid, nudged by nothing, by a fraction of ε,
/// by a few ε, or by an arbitrary offset — so generated rectangles abut,
/// nest, coincide and nearly touch far more often than uniform draws.
fn arb_snapped() -> impl Strategy<Value = f64> {
    (0..9i32, 0..9u32, -0.3..0.3f64).prop_map(|(g, pick, free)| {
        let nudge = match pick {
            0..=3 => 0.0,
            4 => 0.5 * EPSILON,
            5 => -0.5 * EPSILON,
            6 => 3.0 * EPSILON,
            _ => free,
        };
        f64::from(g) * 0.5 + nudge
    })
}

/// A coordinate exactly on the coarse grid.
fn arb_grid() -> impl Strategy<Value = f64> {
    (0..9i32).prop_map(|g| f64::from(g) * 0.5)
}

/// A rectangle with corners from `coord`; equal coordinates make it
/// degenerate.
fn rect_from<S: Strategy<Value = f64>>(coord: fn() -> S) -> impl Strategy<Value = Rect> {
    (coord(), coord(), coord(), coord()).prop_map(|(a, b, c, d)| {
        Rect::from_coords(a.min(b), c.min(d), a.max(b), c.max(d))
    })
}

/// A rectangle with snapped corners.
fn arb_snapped_rect() -> impl Strategy<Value = Rect> {
    rect_from(arb_snapped)
}

/// Snapped rectangles with some members repeated verbatim.
fn arb_snapped_rects() -> impl Strategy<Value = Vec<Rect>> {
    (
        prop::collection::vec(arb_snapped_rect(), 1..9),
        prop::collection::vec(any::<prop::sample::Index>(), 0..3),
    )
        .prop_map(|(mut rects, dups)| {
            for d in dups {
                rects.push(rects[d.index(rects.len())]);
            }
            rects
        })
}

/// Snapped points land on corners and edges; free ones land anywhere.
fn arb_probe() -> impl Strategy<Value = Point> {
    (
        any::<bool>(),
        (arb_snapped(), arb_snapped()),
        (-0.5..4.5f64, -0.5..4.5f64),
    )
        .prop_map(|(snap, (sx, sy), (x, y))| if snap { Point::new(sx, sy) } else { Point::new(x, y) })
}

/// Either generator's unions: snapped, or the free-floating kind.
fn arb_any_rects() -> impl Strategy<Value = Vec<Rect>> {
    (any::<bool>(), arb_snapped_rects(), arb_rects(8))
        .prop_map(|(snap, snapped, free)| if snap { snapped } else { free })
}

/// Probes for [`arb_any_rects`]: snapped or near the snapped grid, or
/// anywhere in the free-floating rectangles' range.
fn arb_any_point() -> impl Strategy<Value = Point> {
    (any::<bool>(), arb_probe(), arb_point()).prop_map(|(near, a, b)| if near { a } else { b })
}

/// Either kind of window for [`RectUnion::rect_difference`].
fn arb_any_window() -> impl Strategy<Value = Rect> {
    (any::<bool>(), arb_snapped_rect(), arb_rect()).prop_map(|(snap, a, b)| if snap { a } else { b })
}

/// Asserts the library's nearest edge equals the oracle's, bit for bit.
fn assert_nearest_edge_matches(u: &RectUnion, p: Point) {
    let fast = u.distance_to_boundary(p);
    let slow = oracle_distance_to_boundary(u.rects(), p);
    assert_eq!(
        fast.map(|(d, s)| (d.to_bits(), seg_bits(&s))),
        slow.map(|(d, s)| (d.to_bits(), seg_bits(&s))),
        "p = {p:?}: {fast:?} vs {slow:?}"
    );
}

#[test]
fn distance_to_boundary_agrees_with_full_sweep() {
    // A small overlapping cluster, probed inside, on a shared corner and
    // on an interior seam.
    let u = RectUnion::from_rects([
        Rect::from_coords(0.0, 0.0, 3.0, 2.0),
        Rect::from_coords(2.0, 1.0, 5.0, 4.0),
        Rect::from_coords(1.0, 1.5, 2.5, 3.5),
    ]);
    for q in [
        Point::new(1.0, 1.0),
        Point::new(2.5, 2.0),
        Point::new(4.0, 3.0),
        Point::new(2.2, 1.7),
        Point::new(3.0, 2.0),
        Point::new(2.0, 1.5),
    ] {
        assert_nearest_edge_matches(&u, q);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn distance_to_boundary_is_bit_exact(rects in arb_any_rects(), p in arb_any_point()) {
        let u = RectUnion::from_rects(rects);
        assert_nearest_edge_matches(&u, p);
    }

    #[test]
    fn distance_to_boundary_ties_are_bit_exact(
        rects in prop::collection::vec(rect_from(arb_grid), 1..9),
        (x, y) in (arb_grid(), arb_grid()),
    ) {
        // On the exact grid many edges sit at equal distances (including
        // 3-4-5 diagonals); the nearest-first sweep must still return the
        // edge the exhaustive scan meets first.
        let u = RectUnion::from_rects(rects);
        assert_nearest_edge_matches(&u, Point::new(x, y));
    }

    #[test]
    fn boundary_edges_are_bit_exact(rects in arb_any_rects()) {
        let u = RectUnion::from_rects(rects);
        let fast: Vec<_> = u.boundary_edges().iter().map(seg_bits).collect();
        let slow: Vec<_> = oracle_boundary_edges(u.rects()).iter().map(seg_bits).collect();
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn disjoint_rects_and_area_are_bit_exact(rects in arb_any_rects()) {
        let u = RectUnion::from_rects(rects);
        let tiles = oracle_disjoint_rects(u.rects());
        let fast: Vec<_> = u.disjoint_rects().iter().map(rect_bits).collect();
        let slow: Vec<_> = tiles.iter().map(rect_bits).collect();
        prop_assert_eq!(fast, slow);
        let area: f64 = tiles.iter().map(Rect::area).sum();
        prop_assert_eq!(u.area().to_bits(), area.to_bits());
    }

    #[test]
    fn disk_region_area_is_bit_exact(
        rects in arb_any_rects(),
        c in arb_any_point(),
        (pick, small, large) in (0..3u32, 0.0..3.0f64, 0.0..40.0f64),
    ) {
        let u = RectUnion::from_rects(rects);
        let r = [0.0, small, large][pick as usize];
        let d = Disk::new(c, r);
        let over_tiles: f64 = u.disjoint_rects().iter().map(|t| disk_rect_area(d, t)).sum();
        let over_oracle: f64 = oracle_disjoint_rects(u.rects())
            .iter()
            .map(|t| disk_rect_area(d, t))
            .sum();
        let fast = disk_region_area(d, &u);
        prop_assert_eq!(fast.to_bits(), over_tiles.to_bits());
        prop_assert_eq!(fast.to_bits(), over_oracle.to_bits());
    }

    #[test]
    fn rect_difference_is_bit_exact(
        rects in arb_any_rects(),
        w in arb_any_window(),
    ) {
        let u = RectUnion::from_rects(rects);
        let fast: Vec<_> = u.rect_difference(&w).iter().map(rect_bits).collect();
        let slow: Vec<_> = oracle_rect_difference(u.rects(), &w).iter().map(rect_bits).collect();
        prop_assert_eq!(fast, slow);
    }
}
