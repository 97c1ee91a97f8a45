//! The atomic cache entry: a verified region and its POIs.

use airshare_broadcast::Poi;
use airshare_geom::{Point, Rect};

/// A verified region `VR` together with the complete set of POIs inside
/// it (`p.O` restricted to the region).
///
/// Invariant (checked in debug builds at construction): every POI lies
/// inside `vr`. The *completeness* half of the invariant — no POI of the
/// global dataset inside `vr` is missing — cannot be checked locally; it
/// is guaranteed by construction (entries only ever come from broadcast
/// retrievals or from sub-regions of other verified regions) and
/// validated against the ground-truth oracle in integration tests.
#[derive(Clone, Debug)]
pub struct RegionEntry {
    /// The verified region.
    pub vr: Rect,
    /// All POIs inside `vr`, in no particular order.
    pub pois: Vec<Poi>,
    /// Simulation time the entry was created (minutes).
    pub created_at: f64,
    /// Last time this entry served a query (for LRU).
    pub last_used: f64,
}

impl RegionEntry {
    /// Creates an entry, filtering `pois` to those inside `vr`.
    ///
    /// The filter makes construction safe to call with a superset (e.g.
    /// every POI downloaded from the channel): completeness within `vr`
    /// is preserved by *narrowing* the POI set to the region, never by
    /// widening the region.
    pub fn new(vr: Rect, pois: impl IntoIterator<Item = Poi>, now: f64) -> Self {
        let pois: Vec<Poi> = pois.into_iter().filter(|p| vr.contains(p.pos)).collect();
        Self {
            vr,
            pois,
            created_at: now,
            last_used: now,
        }
    }

    /// Whether the entry honors the containment half of the invariant:
    /// the region is a well-formed finite rectangle and every carried POI
    /// lies inside it. Entries built through [`RegionEntry::new`] always
    /// are; entries received from peers or constructed field-by-field may
    /// not be, and an inconsistent entry must never be cached or shared —
    /// its claim of completeness is unfalsifiable but its claim of
    /// containment is checkably false.
    pub fn is_consistent(&self) -> bool {
        self.vr.is_well_formed() && self.pois.iter().all(|p| self.vr.contains(p.pos))
    }

    /// Number of POIs carried.
    pub fn len(&self) -> usize {
        self.pois.len()
    }

    /// The entry carries no POIs (still a valid verified region — knowing
    /// an area is empty is useful knowledge).
    pub fn is_empty(&self) -> bool {
        self.pois.is_empty()
    }

    /// Shrinks the entry around `focus` until it carries at most
    /// `max_pois`, by scaling the region toward `focus` (clamped into the
    /// region first). Soundness is preserved: the shrunk region is a
    /// subset of the original, and the POI set is re-filtered to it.
    pub fn shrink_to_fit(&self, focus: Point, max_pois: usize) -> RegionEntry {
        if self.pois.len() <= max_pois {
            return self.clone();
        }
        let anchor = self.vr.clamp_point(focus);
        // Binary search the scale factor: POI count inside the scaled
        // region is monotone in the scale.
        let mut lo = 0.0_f64;
        let mut hi = 1.0_f64;
        for _ in 0..40 {
            let mid = 0.5 * (lo + hi);
            if self.count_in_scaled(anchor, mid) <= max_pois {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let vr = self.scaled(anchor, lo);
        RegionEntry::new(vr, self.pois.iter().copied(), self.created_at)
    }

    fn scaled(&self, anchor: Point, s: f64) -> Rect {
        Rect::from_coords(
            anchor.x + (self.vr.x1 - anchor.x) * s,
            anchor.y + (self.vr.y1 - anchor.y) * s,
            anchor.x + (self.vr.x2 - anchor.x) * s,
            anchor.y + (self.vr.y2 - anchor.y) * s,
        )
    }

    fn count_in_scaled(&self, anchor: Point, s: f64) -> usize {
        let r = self.scaled(anchor, s);
        self.pois.iter().filter(|p| r.contains(p.pos)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poi(id: u32, x: f64, y: f64) -> Poi {
        Poi::new(id, Point::new(x, y))
    }

    #[test]
    fn construction_filters_to_region() {
        let vr = Rect::from_coords(0.0, 0.0, 2.0, 2.0);
        let e = RegionEntry::new(vr, [poi(0, 1.0, 1.0), poi(1, 5.0, 5.0)], 0.0);
        assert_eq!(e.len(), 1);
        assert_eq!(e.pois[0].id, 0);
    }

    #[test]
    fn empty_region_entry_is_valid() {
        let vr = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        let e = RegionEntry::new(vr, [], 3.0);
        assert!(e.is_empty());
        assert_eq!(e.created_at, 3.0);
    }

    #[test]
    fn shrink_keeps_nearest_and_stays_inside() {
        let vr = Rect::from_coords(0.0, 0.0, 10.0, 10.0);
        let pois: Vec<Poi> = (0..100)
            .map(|i| poi(i, (i % 10) as f64 + 0.5, (i / 10) as f64 + 0.5))
            .collect();
        let e = RegionEntry::new(vr, pois, 0.0);
        let focus = Point::new(5.0, 5.0);
        let shrunk = e.shrink_to_fit(focus, 10);
        assert!(shrunk.len() <= 10);
        assert!(e.vr.contains_rect(&shrunk.vr), "shrunk region escaped");
        assert!(shrunk.vr.contains(focus));
        // POIs in the shrunk entry are exactly the originals inside it.
        for p in &shrunk.pois {
            assert!(shrunk.vr.contains(p.pos));
        }
    }

    #[test]
    fn shrink_noop_when_fitting() {
        let vr = Rect::from_coords(0.0, 0.0, 4.0, 4.0);
        let e = RegionEntry::new(vr, [poi(0, 1.0, 1.0)], 0.0);
        let s = e.shrink_to_fit(Point::new(2.0, 2.0), 5);
        assert_eq!(s.vr, e.vr);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn shrink_with_focus_outside_region_clamps() {
        let vr = Rect::from_coords(0.0, 0.0, 10.0, 1.0);
        let pois: Vec<Poi> = (0..20).map(|i| poi(i, i as f64 * 0.5 + 0.1, 0.5)).collect();
        let e = RegionEntry::new(vr, pois, 0.0);
        let s = e.shrink_to_fit(Point::new(50.0, 0.5), 4);
        assert!(s.len() <= 4);
        assert!(e.vr.contains_rect(&s.vr));
        // The kept POIs are the ones nearest the clamped anchor (right edge).
        assert!(s.pois.iter().all(|p| p.pos.x > 7.0), "{:?}", s.pois);
    }
}
