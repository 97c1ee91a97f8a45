//! Uniform-grid neighbor discovery, rebuilt from scratch on every refresh.
//!
//! The grid is a flat CSR bucket layout: one `members` array holds every
//! indexed host id grouped by cell, and `starts[c]..starts[c + 1]`
//! delimits cell `c`. [`NeighborGrid::refresh_active`] rebuilds it with a
//! counting sort over retained buffers — per-host cell index, per-cell
//! counts, prefix sum, then a scatter of host ids in increasing id order.
//! Freely moving hosts change cell all the time (at fleet scale most of
//! them do every epoch), so a full rebuild is cheaper than maintaining
//! the buckets incrementally, and there is nothing to keep in sync: the
//! refresh *is* the full build.
//!
//! Scattering in id order leaves every cell's member list id-sorted by
//! construction. With absolute floor keys and a fixed dx-outer /
//! dy-inner ring walk, that pins the order in which
//! [`NeighborGrid::neighbors_within`] enumerates hosts, which keeps the
//! simulator's peer-reply order — and so its reports — bit-identical
//! however the grid was produced.

use airshare_geom::{Point, Rect};

/// `cell_of` entry for hosts that are not indexed (offline, or at a
/// non-finite position).
const NOT_INDEXED: u32 = u32::MAX;

/// Most cells a grid over `hosts` hosts allocates: 8 per host, with a
/// floor for small fleets. Extents that would need more coarsen the cell
/// instead (see [`Layout::fit`]).
fn cell_cap(hosts: usize) -> i128 {
    (8 * hosts.max(8_192) as i128).min(NOT_INDEXED as i128 - 1)
}

/// The grid's fixed extent: a `nx × ny` block of square cells of side
/// `cell` whose lowest cell has absolute key `base`.
#[derive(Clone, Copy, Debug)]
struct Layout {
    cell: f64,
    base: (i64, i64),
    nx: i64,
    ny: i64,
}

impl Layout {
    /// The layout covering `bounds` with cells of side `cell`, or of the
    /// smallest power-of-two multiple of it that keeps the cell count
    /// within [`cell_cap`] — a degenerate cell size (say a zero
    /// transmission range) coarsens the grid rather than exploding it.
    fn fit(bounds: &Rect, cell: f64, hosts: usize) -> Self {
        assert!(cell > 0.0 && cell.is_finite(), "cell size must be positive");
        let cap = cell_cap(hosts);
        let mut cell = cell;
        loop {
            let lo = key(Point::new(bounds.x1, bounds.y1), cell);
            let hi = key(Point::new(bounds.x2, bounds.y2), cell);
            let nx = (hi.0 as i128 - lo.0 as i128 + 1).max(1);
            let ny = (hi.1 as i128 - lo.1 as i128 + 1).max(1);
            if nx * ny <= cap {
                return Layout {
                    cell,
                    base: lo,
                    nx: nx as i64,
                    ny: ny as i64,
                };
            }
            cell *= 2.0;
        }
    }

    fn cells(&self) -> usize {
        (self.nx * self.ny) as usize
    }

    /// Column and row of `p`'s cell, clamped into the extent. Clamping
    /// is a per-axis contraction — it never moves two keys further
    /// apart — so hosts within the ring reach of a query stay within it,
    /// and the ring search is exact for points outside the extent too.
    fn cell_xy(&self, p: Point) -> (i64, i64) {
        let (kx, ky) = key(p, self.cell);
        (
            kx.saturating_sub(self.base.0).clamp(0, self.nx - 1),
            ky.saturating_sub(self.base.1).clamp(0, self.ny - 1),
        )
    }

    /// Flat index of cell `(x, y)`. Column-major, so one column's cells
    /// — the ring walk's inner dy loop — are adjacent in the CSR arrays.
    fn index(&self, x: i64, y: i64) -> usize {
        (x * self.ny + y) as usize
    }
}

/// Absolute cell key of `p`: per-axis floors of `p / cell`.
fn key(p: Point, cell: f64) -> (i64, i64) {
    ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64)
}

/// A spatial hash over host positions.
///
/// Cells are squares of side `cell`; a radius-`r` disk query inspects
/// the `⌈r/cell⌉`-ring of cells around the query point. Pick `cell`
/// equal to the maximum transmission range for O(occupants) queries.
///
/// The extent is fixed when the grid is made: the world's bounds for
/// [`NeighborGrid::with_bounds`], the online hosts' bounding box for
/// [`NeighborGrid::build_active`]. Hosts outside it are binned into the
/// nearest edge cell, which keeps every answer exact. Hosts at
/// non-finite positions are never indexed, so no query returns them.
#[derive(Clone, Debug)]
pub struct NeighborGrid {
    layout: Layout,
    positions: Vec<Point>,
    /// Per-host flat cell index from the last rebuild, or
    /// [`NOT_INDEXED`].
    cell_of: Vec<u32>,
    /// CSR offsets: cell `c` holds `members[starts[c]..starts[c + 1]]`.
    /// One slot longer than that needs; the rebuild's scatter uses it.
    starts: Vec<u32>,
    /// Indexed host ids, grouped by cell, id-sorted within each cell.
    members: Vec<u32>,
}

impl NeighborGrid {
    /// Builds a grid over host positions (index = host id).
    pub fn build(positions: Vec<Point>, cell: f64) -> Self {
        let online = vec![true; positions.len()];
        Self::build_active(positions, cell, &online)
    }

    /// Builds a grid where only hosts with `online[i] == true` are
    /// discoverable. Positions are kept for *all* hosts (so
    /// [`NeighborGrid::position`] stays total — multihop relays need
    /// it), but offline hosts never appear in any neighbor query:
    /// a crashed or not-yet-joined host is radio-silent.
    pub fn build_active(positions: Vec<Point>, cell: f64, online: &[bool]) -> Self {
        assert_eq!(positions.len(), online.len(), "one flag per host");
        let indexed = positions
            .iter()
            .zip(online)
            .filter(|&(p, &on)| on && p.is_finite())
            .map(|(p, _)| *p);
        let bounds = Rect::bounding(indexed).unwrap_or(Rect::from_coords(0.0, 0.0, 0.0, 0.0));
        let mut grid = Self::with_bounds(&bounds, cell, positions.len());
        grid.positions = positions;
        grid.rebuild(online);
        grid
    }

    /// An empty grid whose extent is `bounds`, with the cell array sized
    /// for a `hosts`-sized fleet. Each [`NeighborGrid::refresh_active`]
    /// repopulates it.
    pub fn with_bounds(bounds: &Rect, cell: f64, hosts: usize) -> Self {
        let layout = Layout::fit(bounds, cell, hosts);
        Self {
            layout,
            positions: Vec::new(),
            cell_of: Vec::new(),
            starts: vec![0; layout.cells() + 2],
            members: Vec::new(),
        }
    }

    /// Number of indexed hosts.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// The grid indexes no hosts.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Stored position of host `i`.
    pub fn position(&self, i: usize) -> Point {
        self.positions[i]
    }

    /// Rebuilds the grid over the fleet's current positions and online
    /// flags — the per-boundary maintenance path of the epoch loop.
    /// Positions are copied into the grid's retained buffers, so a warm
    /// refresh does not allocate. The result is identical — same cells,
    /// same per-cell id order, hence the same
    /// [`NeighborGrid::neighbors_within`] output order — to a fresh
    /// grid with the same bounds refreshed once with the same input.
    pub fn refresh_active(&mut self, positions: &[Point], online: &[bool]) {
        self.positions.clear();
        self.positions.extend_from_slice(positions);
        self.rebuild(online);
    }

    /// The counting sort: cell index per host, counts per cell, prefix
    /// sum, then a scatter of ids in increasing order into `members`.
    fn rebuild(&mut self, online: &[bool]) {
        assert_eq!(self.positions.len(), online.len(), "one flag per host");
        assert!(
            self.positions.len() < NOT_INDEXED as usize,
            "host ids must fit u32"
        );
        let layout = self.layout;
        // Cell c's count lands in starts[c + 2], so after the prefix sum
        // starts[c + 1] is where cell c begins. The scatter advances it
        // to where cell c ends, which is where cell c + 1 begins — so
        // afterwards starts[c]..starts[c + 1] is exactly cell c.
        self.starts.clear();
        self.starts.resize(layout.cells() + 2, 0);
        self.cell_of.clear();
        self.cell_of.resize(self.positions.len(), NOT_INDEXED);
        for ((c, p), &on) in self.cell_of.iter_mut().zip(&self.positions).zip(online) {
            if on && p.is_finite() {
                let (x, y) = layout.cell_xy(*p);
                *c = layout.index(x, y) as u32;
            }
        }
        for &c in &self.cell_of {
            if c != NOT_INDEXED {
                self.starts[c as usize + 2] += 1;
            }
        }
        for c in 1..self.starts.len() {
            self.starts[c] += self.starts[c - 1];
        }
        let indexed = self.starts[layout.cells() + 1] as usize;
        self.members.clear();
        self.members.resize(indexed, 0);
        for (i, &c) in self.cell_of.iter().enumerate() {
            if c != NOT_INDEXED {
                let slot = &mut self.starts[c as usize + 1];
                self.members[*slot as usize] = i as u32;
                *slot += 1;
            }
        }
    }

    /// Host ids within Euclidean distance `range` of `center`, excluding
    /// `exclude` (the querying host itself), in ring order: cells dx
    /// outer, dy inner around `center`'s cell, ids ascending within a
    /// cell.
    pub fn neighbors_within(
        &self,
        center: Point,
        range: f64,
        exclude: Option<usize>,
    ) -> Vec<usize> {
        let mut out = Vec::new();
        let layout = &self.layout;
        let r_sq = range * range;
        let reach = (range / layout.cell).ceil() as i64;
        let (cx, cy) = layout.cell_xy(center);
        // Ring cells outside the extent hold nothing; skip them. (The
        // centre is clamped, the ring cells are not — clamping those
        // would visit edge cells twice.) A negative range empties both
        // spans.
        let (x_lo, x_hi) = (
            cx.saturating_sub(reach).max(0),
            cx.saturating_add(reach).min(layout.nx - 1),
        );
        let (y_lo, y_hi) = (
            cy.saturating_sub(reach).max(0),
            cy.saturating_add(reach).min(layout.ny - 1),
        );
        for x in x_lo..=x_hi {
            // Rows y_lo..=y_hi of one column are a single member run,
            // already in dy-then-id order.
            let from = self.starts[layout.index(x, y_lo)] as usize;
            let to = self.starts[layout.index(x, y_hi) + 1] as usize;
            for &i in &self.members[from..to] {
                let i = i as usize;
                if Some(i) != exclude && self.positions[i].distance_sq(center) <= r_sq {
                    out.push(i);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scatter(n: usize) -> Vec<Point> {
        let mut state = 11u64;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let x = (state >> 16 & 0xFFFF) as f64 / 6553.6;
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let y = (state >> 16 & 0xFFFF) as f64 / 6553.6;
                Point::new(x, y)
            })
            .collect()
    }

    fn brute_force(pts: &[Point], online: &[bool], center: Point, range: f64) -> Vec<usize> {
        (0..pts.len())
            .filter(|&i| online[i] && pts[i].distance_sq(center) <= range * range)
            .collect()
    }

    fn sorted(mut v: Vec<usize>) -> Vec<usize> {
        v.sort_unstable();
        v
    }

    #[test]
    fn neighbors_match_brute_force() {
        let pts = scatter(500);
        let g = NeighborGrid::build(pts.clone(), 1.0);
        let center = Point::new(5.0, 5.0);
        for range in [0.3, 1.0, 2.5] {
            assert_eq!(
                sorted(g.neighbors_within(center, range, None)),
                brute_force(&pts, &[true; 500], center, range),
                "range {range}"
            );
        }
    }

    #[test]
    fn exclude_omits_self() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(0.1, 0.0)];
        let g = NeighborGrid::build(pts, 1.0);
        let n = g.neighbors_within(Point::new(0.0, 0.0), 1.0, Some(0));
        assert_eq!(n, vec![1]);
    }

    #[test]
    fn boundary_distance_is_inclusive() {
        let pts = vec![Point::new(3.0, 4.0)];
        let g = NeighborGrid::build(pts, 1.0);
        assert_eq!(g.neighbors_within(Point::ORIGIN, 5.0, None).len(), 1);
        assert_eq!(g.neighbors_within(Point::ORIGIN, 4.999, None).len(), 0);
    }

    #[test]
    fn negative_coordinates_hash_correctly() {
        let pts = vec![Point::new(-0.5, -0.5), Point::new(0.5, 0.5)];
        let g = NeighborGrid::build(pts, 1.0);
        let n = g.neighbors_within(Point::new(-0.4, -0.4), 0.3, None);
        assert_eq!(n, vec![0]);
    }

    #[test]
    fn offline_hosts_are_invisible_but_addressable() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(0.1, 0.0),
            Point::new(0.2, 0.0),
        ];
        let online = [true, false, true];
        let g = NeighborGrid::build_active(pts, 1.0, &online);
        let n = sorted(g.neighbors_within(Point::ORIGIN, 1.0, None));
        assert_eq!(n, vec![0, 2], "offline host 1 must not be discoverable");
        // Positions stay total: relays can still be located by id.
        assert_eq!(g.position(1), Point::new(0.1, 0.0));
        assert_eq!(g.len(), 3);
        // All-online build_active matches plain build.
        let pts2 = vec![Point::new(0.0, 0.0), Point::new(0.1, 0.0)];
        let a = NeighborGrid::build_active(pts2.clone(), 1.0, &[true, true]);
        let b = NeighborGrid::build(pts2, 1.0);
        assert_eq!(
            a.neighbors_within(Point::ORIGIN, 1.0, None),
            b.neighbors_within(Point::ORIGIN, 1.0, None)
        );
    }

    #[test]
    fn empty_grid() {
        let g = NeighborGrid::build(Vec::new(), 1.0);
        assert!(g.is_empty());
        assert!(g.neighbors_within(Point::ORIGIN, 10.0, None).is_empty());
        let world = Rect::from_coords(0.0, 0.0, 10.0, 10.0);
        let unrefreshed = NeighborGrid::with_bounds(&world, 1.0, 100);
        assert!(unrefreshed
            .neighbors_within(Point::new(5.0, 5.0), 3.0, None)
            .is_empty());
    }

    #[test]
    fn refresh_finds_hosts_outside_the_declared_bounds() {
        let world = Rect::from_coords(0.0, 0.0, 4.0, 4.0);
        let mut g = NeighborGrid::with_bounds(&world, 1.0, 3);
        let pts = vec![
            Point::new(1.0, 1.0),
            Point::new(3.0, 3.0),
            Point::new(2.0, 2.0),
        ];
        g.refresh_active(&pts, &[true, true, true]);
        // One host escapes the declared world into a clamped edge cell.
        let pts2 = vec![
            Point::new(1.0, 1.0),
            Point::new(90.0, -6.0),
            Point::new(2.0, 2.0),
        ];
        g.refresh_active(&pts2, &[true, true, true]);
        assert_eq!(
            g.neighbors_within(Point::new(90.0, -6.0), 0.5, None),
            vec![1]
        );
        assert_eq!(g.neighbors_within(Point::new(1.0, 1.0), 0.5, None), vec![0]);
        assert!(g
            .neighbors_within(Point::new(4.0, 0.0), 1.0, None)
            .is_empty());
        assert_eq!(
            g.neighbors_within(Point::new(50.0, -3.0), 41.0, None),
            vec![1]
        );
    }

    #[test]
    fn far_apart_points_coarsen_instead_of_allocating_the_extent() {
        // Two points ~1e9 cells apart: a cell array over that extent
        // would be absurd, so the cell coarsens to fit the cap.
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1e9, 1e9),
            Point::new(0.5, 0.0),
        ];
        let g = NeighborGrid::build(pts.clone(), 1.0);
        assert!(g.layout.cells() as i128 <= cell_cap(pts.len()));
        assert!(g.starts.len() <= g.layout.cells() + 2);
        let on = [true; 3];
        for (c, r) in [
            (Point::new(0.1, 0.1), 1.0),
            (Point::new(1e9, 1e9), 1.0),
            (Point::new(5e8, 5e8), 8e8),
            (Point::new(-3.0, 2e9), 3e9),
        ] {
            assert_eq!(
                sorted(g.neighbors_within(c, r, None)),
                brute_force(&pts, &on, c, r)
            );
        }
    }

    #[test]
    fn zero_range_over_a_city_sized_world_stays_within_the_cap() {
        // tx_range 0 → the engine's 1e-3-mile floor cell over a 20-mile
        // world: 4e8 cells at the requested size.
        let world = Rect::from_coords(0.0, 0.0, 20.0, 20.0);
        let hosts = 2_000;
        let mut g = NeighborGrid::with_bounds(&world, 1e-3, hosts);
        assert!(g.layout.cells() as i128 <= cell_cap(hosts));
        let ratio = g.layout.cell / 1e-3;
        assert!(ratio > 1.0 && ratio == ratio.round() && (ratio as u64).is_power_of_two());
        // Scattered hosts plus stacks of coincident ones, which are the
        // only neighbors a zero range can find.
        let mut pts: Vec<Point> = scatter(hosts)
            .into_iter()
            .map(|p| Point::new(p.x * 2.0, p.y * 2.0))
            .collect();
        for i in (0..hosts).step_by(7) {
            pts[i] = pts[i / 2];
        }
        let online: Vec<bool> = (0..hosts).map(|i| i % 5 != 0).collect();
        g.refresh_active(&pts, &online);
        for (h, &p) in pts.iter().enumerate().step_by(3) {
            let mut want = brute_force(&pts, &online, p, 0.0);
            want.retain(|&i| i != h);
            assert_eq!(g.neighbors_within(p, 0.0, Some(h)), want, "host {h}");
            assert_eq!(
                sorted(g.neighbors_within(p, 0.3, None)),
                brute_force(&pts, &online, p, 0.3),
                "host {h}"
            );
        }
    }

    #[test]
    fn non_finite_positions_are_never_indexed() {
        let pts = vec![
            Point::new(f64::NAN, 1.0),
            Point::new(f64::INFINITY, f64::INFINITY),
            Point::new(1.0, 1.0),
            Point::new(f64::NEG_INFINITY, 0.0),
        ];
        let g = NeighborGrid::build(pts, 1.0);
        assert_eq!(g.members, vec![2]);
        let one = Point::new(1.0, 1.0);
        assert_eq!(g.neighbors_within(one, f64::INFINITY, None), vec![2]);
        for (c, r) in [
            (Point::new(f64::INFINITY, 0.0), 5.0),
            (one, f64::NAN),
            (one, -1.0),
        ] {
            assert!(g.neighbors_within(c, r, None).is_empty(), "{c:?} {r}");
        }
    }

    /// Checks the CSR layout against its definition: every online host
    /// at a finite position appears exactly once, in its clamped cell,
    /// and each cell's members are id-sorted.
    fn assert_csr_invariants(g: &NeighborGrid, online: &[bool]) {
        let layout = g.layout;
        assert_eq!((g.starts.len(), g.starts[0]), (layout.cells() + 2, 0));
        let mut seen = vec![false; g.positions.len()];
        for x in 0..layout.nx {
            for y in 0..layout.ny {
                let c = layout.index(x, y);
                let cell = &g.members[g.starts[c] as usize..g.starts[c + 1] as usize];
                assert!(cell.windows(2).all(|w| w[0] < w[1]), "({x},{y}) unsorted");
                for &i in cell {
                    let (i, p) = (i as usize, g.positions[i as usize]);
                    assert!(online[i] && p.is_finite(), "host {i} must not be indexed");
                    assert_eq!(layout.cell_xy(p), (x, y), "host {i} in the wrong cell");
                    assert!(!std::mem::replace(&mut seen[i], true), "host {i} twice");
                }
            }
        }
        let indexed = (0..seen.len()).filter(|&i| online[i] && g.positions[i].is_finite());
        assert_eq!(
            g.members.len(),
            indexed.count(),
            "an indexable host is missing"
        );
    }

    /// Scale check: 200k hosts at LA-City density (93,300 hosts on 400
    /// square miles, 200 m range) through random-walk mobility and churn,
    /// with the CSR invariants and a sample of brute-force probes checked
    /// after every refresh. Run it optimized:
    /// `cargo test --release -p airshare-p2p --lib -- --ignored`.
    #[test]
    #[ignore = "200k-host scale check; run with --release -- --ignored"]
    fn scale_rebuild_keeps_csr_invariants_and_exact_answers() {
        let hosts = 200_000;
        let side = (hosts as f64 * 400.0 / 93_300.0).sqrt();
        let range = 200.0 / 1609.344;
        let world = Rect::from_coords(0.0, 0.0, side, side);
        let mut state = 0x5EED_u64;
        let mut unit = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut pts: Vec<Point> = (0..hosts)
            .map(|_| Point::new(unit() * side, unit() * side))
            .collect();
        let mut online: Vec<bool> = (0..hosts).map(|_| unit() < 0.9).collect();
        let mut g = NeighborGrid::with_bounds(&world, range, hosts);
        for epoch in 0..6 {
            // Walk every host up to half a mile, clamped to the world,
            // except a few that stray outside it; flip ~2% of the flags.
            for p in pts.iter_mut() {
                let stray = unit() < 0.001;
                let step = if stray { 10.0 } else { 1.0 };
                let x = p.x + (unit() - 0.5) * step;
                let y = p.y + (unit() - 0.5) * step;
                let (lo, hi) = if stray {
                    (-9.0, side + 9.0)
                } else {
                    (0.0, side)
                };
                *p = Point::new(x.clamp(lo, hi), y.clamp(lo, hi));
            }
            for on in online.iter_mut() {
                if unit() < 0.02 {
                    *on = !*on;
                }
            }
            g.refresh_active(&pts, &online);
            assert_csr_invariants(&g, &online);
            for probe in 0..200 {
                let h = (unit() * hosts as f64) as usize;
                let r = range * (0.5 + 2.0 * unit());
                let mut want = brute_force(&pts, &online, pts[h], r);
                want.retain(|&i| i != h);
                assert_eq!(
                    sorted(g.neighbors_within(pts[h], r, Some(h))),
                    want,
                    "epoch {epoch}, probe {probe} from host {h}"
                );
            }
        }
    }
}
