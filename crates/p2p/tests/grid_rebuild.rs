//! Property tests for the rebuilt-per-refresh neighbor grid.
//!
//! Order matters as much as membership: the simulator's reply streams
//! (and therefore its reports) depend on the order `neighbors_within`
//! returns hosts in. So beyond "the right set" these pin the order too:
//! a refreshed grid enumerates exactly like a fresh one, and in-bounds
//! hosts come back in ring order (dx outer, dy inner), then by id.

use airshare_geom::{Point, Rect};
use airshare_p2p::NeighborGrid;
use proptest::prelude::*;

/// One coordinate: mostly inside a 0..10 world or just outside it, now
/// and then non-finite.
fn coord() -> impl Strategy<Value = f64> {
    (0u32..40, -2.0f64..12.0).prop_map(|(pick, v)| match pick {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => v,
    })
}

/// One boundary's worth of fleet change.
#[derive(Clone, Debug)]
struct EpochDelta {
    /// (host, new position) mobility steps.
    moves: Vec<(usize, f64, f64)>,
    /// Hosts whose online flag flips (crash or restart).
    flips: Vec<usize>,
}

fn delta_strategy(hosts: usize) -> impl Strategy<Value = EpochDelta> {
    (
        prop::collection::vec((0..hosts, coord(), coord()), 0..hosts.max(1)),
        prop::collection::vec(0..hosts, 0..hosts.max(1)),
    )
        .prop_map(|(moves, flips)| EpochDelta { moves, flips })
}

const WORLD: Rect = Rect {
    x1: 0.0,
    y1: 0.0,
    x2: 10.0,
    y2: 10.0,
};

/// Online hosts within `range` of `center`, in id order.
fn brute_force(positions: &[Point], online: &[bool], center: Point, range: f64) -> Vec<usize> {
    (0..positions.len())
        .filter(|&i| online[i] && positions[i].distance_sq(center) <= range * range)
        .collect()
}

fn key(p: Point, cell: f64) -> (i64, i64) {
    ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64)
}

/// The probes of one check: every host's position plus fixed points
/// across (and just outside) the world, at ranges around the cell size.
fn probes(positions: &[Point], cell: f64) -> Vec<(Point, f64, Option<usize>)> {
    let mut out = Vec::new();
    for (h, &p) in positions.iter().enumerate() {
        for range in [cell * 0.6, cell * 1.4, cell * 3.0] {
            out.push((p, range, Some(h)));
        }
    }
    for gx in 0..5 {
        for gy in 0..5 {
            let c = Point::new(gx as f64 * 3.0 - 1.0, gy as f64 * 3.0 - 1.0);
            out.push((c, cell * 2.0, None));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Drives a retained grid through random mobility and churn epochs
    /// and checks, after every refresh: (a) each probe returns exactly
    /// the brute-force set, never a non-finite host; (b) the grid
    /// enumerates identically, order included, to a fresh grid over the
    /// same bounds and input; (c) in-bounds hosts come back in ring
    /// order, then by id.
    #[test]
    fn refresh_is_exact_and_ordered(
        hosts in 1usize..40,
        seed_pts in prop::collection::vec((0.0f64..10.0, 0.0f64..10.0), 1..40),
        epochs in prop::collection::vec(delta_strategy(40), 1..12),
        cell in 0.25f64..3.0,
    ) {
        let n = hosts.min(seed_pts.len());
        let mut positions: Vec<Point> = seed_pts[..n]
            .iter()
            .map(|&(x, y)| Point::new(x, y))
            .collect();
        let mut online = vec![true; n];
        let mut grid = NeighborGrid::with_bounds(&WORLD, cell, n);

        for (e, delta) in epochs.iter().enumerate() {
            for &(h, x, y) in &delta.moves {
                if h < n {
                    positions[h] = Point::new(x, y);
                }
            }
            for &h in &delta.flips {
                if h < n {
                    online[h] = !online[h];
                }
            }
            grid.refresh_active(&positions, &online);
            let mut fresh = NeighborGrid::with_bounds(&WORLD, cell, n);
            fresh.refresh_active(&positions, &online);

            for (center, range, exclude) in probes(&positions, cell) {
                let got = grid.neighbors_within(center, range, exclude);
                prop_assert_eq!(
                    &got,
                    &fresh.neighbors_within(center, range, exclude),
                    "epoch {} probe {:?} range {}: refreshed != fresh", e, center, range
                );
                // (a) Exactly the brute-force set. A non-finite centre
                // has no neighbors, and brute force agrees.
                let mut want = brute_force(&positions, &online, center, range);
                want.retain(|&i| Some(i) != exclude);
                let mut got_set = got.clone();
                got_set.sort_unstable();
                prop_assert_eq!(&got_set, &want, "epoch {} probe {:?}: != brute force", e, center);
                prop_assert!(got.iter().all(|&i| positions[i].is_finite()));
                // (c) Ring order for in-bounds hosts around an in-bounds
                // centre.
                if WORLD.contains(center) {
                    let (cx, cy) = key(center, cell);
                    let ring = |i: usize| {
                        let (kx, ky) = key(positions[i], cell);
                        (kx - cx, ky - cy, i)
                    };
                    let in_bounds: Vec<usize> =
                        got.iter().copied().filter(|&i| WORLD.contains(positions[i])).collect();
                    let mut reference = in_bounds.clone();
                    reference.sort_unstable_by_key(|&i| ring(i));
                    prop_assert_eq!(in_bounds, reference, "epoch {} probe {:?}: ring order", e, center);
                }
            }
            for (h, &p) in positions.iter().enumerate() {
                let q = grid.position(h);
                prop_assert_eq!((q.x.to_bits(), q.y.to_bits()), (p.x.to_bits(), p.y.to_bits()));
            }
        }
    }

    /// A grid that starts empty (every host offline, the LiveWorld
    /// case) and admits hosts one boundary at a time stays identical to
    /// a fresh build and exact throughout.
    #[test]
    fn staged_admission_matches_fresh_build(
        pts in prop::collection::vec((0.0f64..8.0, 0.0f64..8.0), 1..30),
        order in prop::collection::vec(0usize..30, 1..60),
    ) {
        let n = pts.len();
        let positions: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let mut online = vec![false; n];
        let world = Rect::from_coords(0.0, 0.0, 8.0, 8.0);
        let mut grid = NeighborGrid::with_bounds(&world, 1.0, n);
        grid.refresh_active(&positions, &online);
        prop_assert!(grid.neighbors_within(Point::new(4.0, 4.0), 10.0, None).is_empty());

        for &h in &order {
            if h < n {
                online[h] = true;
            }
            grid.refresh_active(&positions, &online);
            let mut fresh = NeighborGrid::with_bounds(&world, 1.0, n);
            fresh.refresh_active(&positions, &online);
            let got = grid.neighbors_within(Point::new(4.0, 4.0), 10.0, None);
            prop_assert_eq!(&got, &fresh.neighbors_within(Point::new(4.0, 4.0), 10.0, None));
            let mut got_set = got;
            got_set.sort_unstable();
            prop_assert_eq!(got_set, brute_force(&positions, &online, Point::new(4.0, 4.0), 10.0));
        }
    }
}
