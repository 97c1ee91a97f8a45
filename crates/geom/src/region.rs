//! Unions of axis-aligned rectangles — the *merged verified region*.
//!
//! Each peer contributes its verified region as an MBR; SBNN/SBWQ operate
//! on the union `MVR = VR₁ ∪ … ∪ VRⱼ`. The paper invokes the general
//! `MapOverlay` algorithm of de Berg et al.; because every input is an
//! axis-aligned rectangle, the overlay specializes to exact sweep-line
//! interval algebra, which is what this module implements:
//!
//! * [`RectUnion::contains`] — is the query host inside the MVR?
//!   (precondition of Lemma 3.1)
//! * [`RectUnion::boundary_edges`] / [`RectUnion::distance_to_boundary`] —
//!   the edge set `E` of the MVR and the nearest edge `e_s` whose distance
//!   `‖q, e_s‖` is the verification radius of Lemma 3.1.
//! * [`RectUnion::disjoint_rects`] / [`RectUnion::area`] — a disjoint slab
//!   decomposition, which also powers the exact disk∩region areas behind
//!   Lemma 3.2.
//! * [`RectUnion::covers_rect`] / [`RectUnion::rect_difference`] — window
//!   coverage and window reduction `w → w′` for SBWQ.

use crate::sweep;
use crate::{Point, Rect, Segment, EPSILON};

/// A union of axis-aligned rectangles in the plane.
///
/// The rectangle list is kept as provided (minus degenerate members), so
/// construction is O(n). Every query is a sweep over the list: the
/// members are sorted once, O(n log n), and each candidate line or slab
/// then costs one linear pass, O(n). The whole-region sweeps visit O(n)
/// lines or slabs, so they are O(n²); [`RectUnion::distance_to_boundary`]
/// visits lines nearest-first and stops at the first one farther than
/// the best edge found, usually after a handful. Peer regions near a
/// query number in the tens, and the sweeps' working buffers are reused
/// per thread.
#[derive(Clone, Debug, Default)]
pub struct RectUnion {
    rects: Vec<Rect>,
}

impl RectUnion {
    /// The empty region.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a region from rectangles, dropping degenerate ones.
    pub fn from_rects<I: IntoIterator<Item = Rect>>(rects: I) -> Self {
        Self {
            rects: rects.into_iter().filter(|r| !r.is_degenerate()).collect(),
        }
    }

    /// Adds one rectangle to the union (no-op when degenerate).
    pub fn push(&mut self, r: Rect) {
        if !r.is_degenerate() {
            self.rects.push(r);
        }
    }

    /// The member rectangles (possibly overlapping).
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// The region covers no area.
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// MBR of the whole region, `None` when empty.
    pub fn mbr(&self) -> Option<Rect> {
        let mut it = self.rects.iter();
        let first = *it.next()?;
        Some(it.fold(first, |acc, r| acc.union_mbr(r)))
    }

    /// Closed containment: `p` lies in at least one member rectangle.
    pub fn contains(&self, p: Point) -> bool {
        self.rects.iter().any(|r| r.contains(p))
    }

    /// Strict containment in the *interior* of the union. A point on the
    /// shared border of two abutting rectangles is interior to the union
    /// even though it is on the boundary of both members, so this cannot
    /// be answered per-rectangle; we test a ball of radius ε via the
    /// boundary distance instead.
    pub fn contains_interior(&self, p: Point) -> bool {
        if !self.contains(p) {
            return false;
        }
        match self.distance_to_boundary(p) {
            Some((d, _)) => d > EPSILON,
            None => false,
        }
    }

    // ------------------------------------------------------------------
    // Boundary extraction
    // ------------------------------------------------------------------

    /// All boundary edges of the union, as axis-aligned segments:
    /// vertical edges first, then horizontal ones, each by ascending line
    /// and then ascending position along the line.
    ///
    /// An edge portion lies on the union boundary iff exactly one of its
    /// two sides is interior to the union. For each candidate grid line we
    /// build the interval sets covered on either side and keep their
    /// symmetric difference.
    pub fn boundary_edges(&self) -> Vec<Segment> {
        sweep::boundary_edges(&self.rects)
    }

    /// Distance from `p` to the nearest boundary edge, together with that
    /// edge (the paper's `e_s`). `None` when the region is empty.
    ///
    /// When `p` is inside the union this is the verification radius of
    /// Lemma 3.1: every POI closer to `p` than this distance is a
    /// guaranteed (verified) nearest neighbor.
    ///
    /// The result is the first edge of minimum distance in
    /// [`RectUnion::boundary_edges`] order, but the sweep visits candidate
    /// lines nearest-first and stops once a line is farther than the best
    /// edge found, so it builds only the lines near `p` and allocates
    /// nothing once warm.
    pub fn distance_to_boundary(&self, p: Point) -> Option<(f64, Segment)> {
        sweep::nearest_edge(&self.rects, p)
    }

    // ------------------------------------------------------------------
    // Disjoint decomposition / area
    // ------------------------------------------------------------------

    /// Decomposes the union into disjoint rectangles via a vertical-slab
    /// sweep. The output rectangles tile the union exactly (shared borders
    /// only) and are convenient for exact area integrals.
    /// Slabs run left to right and tiles bottom to top within a slab.
    pub fn disjoint_rects(&self) -> Vec<Rect> {
        sweep::with_tiles(&self.rects, |tiles| tiles.collect())
    }

    /// Exact area of the union.
    pub fn area(&self) -> f64 {
        sweep::with_tiles(&self.rects, |tiles| tiles.map(|r| r.area()).sum())
    }

    // ------------------------------------------------------------------
    // Coverage and difference (SBWQ)
    // ------------------------------------------------------------------

    /// `w` is entirely covered by the union (up to ε slivers). When this
    /// holds, an SBWQ window query is fully answerable from peer caches.
    pub fn covers_rect(&self, w: &Rect) -> bool {
        self.rect_difference(w).is_empty()
    }

    /// The uncovered parts `w \ union`, as disjoint rectangles — SBWQ's
    /// reduced query windows `w′`. Adjacent slabs with identical uncovered
    /// spans are coalesced so the output stays small.
    pub fn rect_difference(&self, w: &Rect) -> Vec<Rect> {
        if w.is_degenerate() {
            return Vec::new();
        }
        sweep::rect_difference(&self.rects, w)
    }

    /// Intersection of the union with `w`, as disjoint rectangles.
    pub fn rect_intersection(&self, w: &Rect) -> Vec<Rect> {
        sweep::with_tiles(&self.rects, |tiles| {
            tiles
                .filter_map(|r| r.intersection(w))
                .filter(|r| !r.is_degenerate())
                .collect()
        })
    }
}

impl From<Rect> for RectUnion {
    fn from(r: Rect) -> Self {
        RectUnion::from_rects([r])
    }
}

impl FromIterator<Rect> for RectUnion {
    fn from_iter<T: IntoIterator<Item = Rect>>(iter: T) -> Self {
        RectUnion::from_rects(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn r(x1: f64, y1: f64, x2: f64, y2: f64) -> Rect {
        Rect::from_coords(x1, y1, x2, y2)
    }

    #[test]
    fn empty_region_answers_trivially() {
        let u = RectUnion::new();
        assert!(u.is_empty());
        assert!(!u.contains(Point::ORIGIN));
        assert_eq!(u.mbr(), None);
        assert!(approx_eq(u.area(), 0.0));
        assert!(u.boundary_edges().is_empty());
        assert_eq!(u.distance_to_boundary(Point::ORIGIN), None);
    }

    #[test]
    fn single_rect_area_and_boundary() {
        let u = RectUnion::from(r(0.0, 0.0, 2.0, 1.0));
        assert!(approx_eq(u.area(), 2.0));
        let edges = u.boundary_edges();
        assert_eq!(edges.len(), 4);
        let total: f64 = edges.iter().map(Segment::len).sum();
        assert!(approx_eq(total, 6.0)); // perimeter
    }

    #[test]
    fn overlapping_rects_area_by_inclusion_exclusion() {
        let u = RectUnion::from_rects([r(0.0, 0.0, 2.0, 2.0), r(1.0, 1.0, 3.0, 3.0)]);
        // 4 + 4 - 1 = 7
        assert!(approx_eq(u.area(), 7.0));
    }

    #[test]
    fn boundary_of_plus_shape_excludes_internal_edges() {
        // Horizontal bar and vertical bar crossing: union boundary is the
        // plus outline; internal shared edges must not appear.
        let u = RectUnion::from_rects([r(0.0, 1.0, 3.0, 2.0), r(1.0, 0.0, 2.0, 3.0)]);
        let perimeter: f64 = u.boundary_edges().iter().map(Segment::len).sum();
        // Plus sign of arm width 1, arm length 1 each side: 12 unit edges.
        assert!(approx_eq(perimeter, 12.0));
        assert!(approx_eq(u.area(), 3.0 + 3.0 - 1.0));
    }

    #[test]
    fn abutting_rects_fuse_their_shared_edge() {
        let u = RectUnion::from_rects([r(0.0, 0.0, 1.0, 1.0), r(1.0, 0.0, 2.0, 1.0)]);
        let perimeter: f64 = u.boundary_edges().iter().map(Segment::len).sum();
        assert!(approx_eq(perimeter, 6.0)); // 2x1 box
        assert!(approx_eq(u.area(), 2.0));
        // The shared border x=1 is interior to the union.
        assert!(u.contains_interior(Point::new(1.0, 0.5)));
        // A true boundary point is not interior.
        assert!(!u.contains_interior(Point::new(0.0, 0.5)));
    }

    #[test]
    fn distance_to_boundary_inside_l_shape() {
        // L-shape: the near edge from (0.5, 0.5) is left/bottom at 0.5,
        // but also the inner corner edges of the L.
        let u = RectUnion::from_rects([r(0.0, 0.0, 2.0, 1.0), r(0.0, 0.0, 1.0, 2.0)]);
        let (d, _) = u.distance_to_boundary(Point::new(0.5, 0.5)).unwrap();
        assert!(approx_eq(d, 0.5));
        // Point deeper in the horizontal arm: nearest boundary is y=1 above.
        let (d2, seg) = u.distance_to_boundary(Point::new(1.5, 0.6)).unwrap();
        assert!(approx_eq(d2, 0.4), "d2 = {d2}");
        assert_eq!(seg.axis, crate::Axis::Horizontal);
    }

    #[test]
    fn disjoint_rects_tile_without_overlap() {
        let u = RectUnion::from_rects([
            r(0.0, 0.0, 2.0, 2.0),
            r(1.0, 1.0, 3.0, 3.0),
            r(2.5, 0.0, 4.0, 1.5),
        ]);
        let tiles = u.disjoint_rects();
        let total: f64 = tiles.iter().map(Rect::area).sum();
        assert!(approx_eq(total, u.area()));
        for (i, a) in tiles.iter().enumerate() {
            for b in &tiles[i + 1..] {
                assert!(
                    !a.intersects_interior(b),
                    "tiles overlap: {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn covers_rect_full_partial_none() {
        let u = RectUnion::from_rects([r(0.0, 0.0, 2.0, 2.0), r(2.0, 0.0, 4.0, 2.0)]);
        assert!(u.covers_rect(&r(0.5, 0.5, 3.5, 1.5))); // spans the seam
        assert!(!u.covers_rect(&r(1.0, 1.0, 5.0, 1.5))); // hangs off the right
        assert!(!u.covers_rect(&r(10.0, 10.0, 11.0, 11.0)));
    }

    #[test]
    fn rect_difference_computes_reduced_windows() {
        let u = RectUnion::from(r(0.0, 0.0, 2.0, 2.0));
        let w = r(1.0, 1.0, 3.0, 3.0);
        let diff = u.rect_difference(&w);
        let area: f64 = diff.iter().map(Rect::area).sum();
        // w has area 4, covered quarter is 1x1 = 1.
        assert!(approx_eq(area, 3.0));
        for d in &diff {
            // Every difference piece is inside w and outside the union interior.
            assert!(w.contains_rect(d));
            assert!(!u.contains_interior(d.center()));
        }
    }

    #[test]
    fn rect_difference_empty_when_covered() {
        let u = RectUnion::from(r(0.0, 0.0, 4.0, 4.0));
        assert!(u.rect_difference(&r(1.0, 1.0, 2.0, 2.0)).is_empty());
    }

    #[test]
    fn rect_difference_is_whole_window_when_disjoint() {
        let u = RectUnion::from(r(0.0, 0.0, 1.0, 1.0));
        let w = r(5.0, 5.0, 6.0, 7.0);
        let diff = u.rect_difference(&w);
        assert_eq!(diff.len(), 1);
        assert!(approx_eq(diff[0].area(), w.area()));
    }

    #[test]
    fn rect_difference_coalesces_slabs() {
        // Union carves a notch out of the middle; left and right slabs of
        // the remainder share y-runs and should merge horizontally.
        let u = RectUnion::from(r(1.0, 0.0, 2.0, 1.0));
        let w = r(0.0, 0.0, 3.0, 2.0);
        let diff = u.rect_difference(&w);
        let area: f64 = diff.iter().map(Rect::area).sum();
        assert!(approx_eq(area, 6.0 - 1.0));
        // Slab coalescing keeps the piece count minimal for this shape
        // (left column, notch top, right column — not five raw slabs).
        assert!(diff.len() <= 3, "pieces: {diff:?}");
        for (i, a) in diff.iter().enumerate() {
            for b in &diff[i + 1..] {
                assert!(!a.intersects_interior(b));
            }
        }
    }

    #[test]
    fn rect_intersection_pieces_lie_in_both() {
        let u = RectUnion::from_rects([r(0.0, 0.0, 2.0, 2.0), r(3.0, 0.0, 5.0, 2.0)]);
        let w = r(1.0, 0.5, 4.0, 1.5);
        let pieces = u.rect_intersection(&w);
        let area: f64 = pieces.iter().map(Rect::area).sum();
        assert!(approx_eq(area, 1.0 + 1.0)); // 1x1 from each rect
        for p in &pieces {
            assert!(w.contains_rect(p));
            assert!(u.contains(p.center()));
        }
    }

    #[test]
    fn push_extends_the_boundary() {
        let mut u = RectUnion::from(r(0.0, 0.0, 1.0, 1.0));
        let perimeter: f64 = u.boundary_edges().iter().map(Segment::len).sum();
        assert!(approx_eq(perimeter, 4.0));
        // The fused shape is a 2x1 box with perimeter 6, not two unit boxes.
        u.push(r(1.0, 0.0, 2.0, 1.0));
        let perimeter: f64 = u.boundary_edges().iter().map(Segment::len).sum();
        assert!(approx_eq(perimeter, 6.0));
        let (d, _) = u.distance_to_boundary(Point::new(1.0, 0.5)).unwrap();
        assert!(approx_eq(d, 0.5));
    }

    #[test]
    fn degenerate_rects_are_ignored() {
        let u = RectUnion::from_rects([r(0.0, 0.0, 0.0, 5.0), r(1.0, 1.0, 2.0, 2.0)]);
        assert_eq!(u.rects().len(), 1);
    }
}
