//! Resolving views: a [`HostCache`] paired with the canonical
//! [`PoiTable`] it stores handles into.
//!
//! The cache itself holds only [`PoiId`](airshare_broadcast::PoiId)
//! handles; any accessor that wants POI *payloads* back needs the table.
//! [`HostCacheRef`] packages that pairing so call sites migrating off
//! the old owned-`Vec<Poi>` accessors have a one-line path:
//! `cache.with_table(&table).share_snapshot(cat)`.

use crate::{EntryView, HostCache, RegionEntry};
use airshare_broadcast::{Poi, PoiCategory, PoiTable};
use airshare_geom::Rect;

/// A borrowed, resolving view over one host's cache.
///
/// Thin by construction — two references — and `Copy`, so it can be
/// passed around freely. All mutation stays on [`HostCache`] itself;
/// the view is read-only.
#[derive(Clone, Copy, Debug)]
pub struct HostCacheRef<'a> {
    cache: &'a HostCache,
    table: &'a PoiTable,
}

impl<'a> HostCacheRef<'a> {
    /// Pairs a cache with the table its handles resolve against.
    /// (Usually reached via [`HostCache::with_table`].)
    pub fn new(cache: &'a HostCache, table: &'a PoiTable) -> Self {
        Self { cache, table }
    }

    /// The underlying cache.
    pub fn cache(&self) -> &'a HostCache {
        self.cache
    }

    /// The canonical table handles resolve against.
    pub fn table(&self) -> &'a PoiTable {
        self.table
    }

    /// Handle-level entry views for a category, in storage order.
    pub fn entries(&self, category: PoiCategory) -> impl Iterator<Item = EntryView<'a>> + 'a {
        self.cache.entries(category)
    }

    /// The verified regions for a category, materialized as owned
    /// [`RegionEntry`] values.
    pub fn regions(&self, category: PoiCategory) -> Vec<RegionEntry> {
        let table = self.table;
        self.cache
            .entries(category)
            .map(|v| v.resolve(table))
            .collect()
    }

    /// The share snapshot as owned `(region, POIs)` pairs — the shape
    /// the pre-handle API returned.
    pub fn share_snapshot(&self, category: PoiCategory) -> Vec<(Rect, Vec<Poi>)> {
        let table = self.table;
        self.cache
            .entries(category)
            .map(|v| {
                (
                    v.vr,
                    v.poi_ids
                        .iter()
                        .filter_map(|&id| table.get(id).copied())
                        .collect(),
                )
            })
            .collect()
    }

    /// Cached POI count for a category.
    pub fn poi_count(&self, category: PoiCategory) -> usize {
        self.cache.poi_count(category)
    }

    /// Number of verified regions cached for a category.
    pub fn region_count(&self, category: PoiCategory) -> usize {
        self.cache.region_count(category)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheContext, ReplacementPolicy};
    use airshare_geom::Point;
    use airshare_obs::NoopRecorder;

    #[test]
    fn view_resolves_what_the_cache_stores() {
        const CAT: PoiCategory = PoiCategory::GAS_STATION;
        let pois = [
            Poi::new(0, Point::new(0.25, 0.25)),
            Poi::new(1, Point::new(0.75, 0.75)),
        ];
        let table = PoiTable::from_pois(pois);
        let mut cache = HostCache::new(10, ReplacementPolicy::default());
        cache.insert(
            CAT,
            RegionEntry::new(Rect::from_coords(0.0, 0.0, 1.0, 1.0), pois, 0.0),
            &CacheContext {
                pos: Point::new(0.5, 0.5),
                heading: None,
                now: 0.0,
            },
            &mut NoopRecorder,
        );
        let view = cache.with_table(&table);
        assert_eq!(view.region_count(CAT), 1);
        assert_eq!(view.poi_count(CAT), 2);
        let regions = view.regions(CAT);
        assert_eq!(regions[0].pois, pois.to_vec());
        let snap = view.share_snapshot(CAT);
        assert_eq!(snap[0].1, pois.to_vec());
    }
}
