//! Columnar (struct-of-arrays) per-host fleet state.
//!
//! A million-host fleet touches host state in tight, column-at-a-time
//! sweeps: advance every position, rebuild the neighbor grid over the
//! online set, refresh sync clocks at the barrier. Keeping each of those
//! as its own flat column — instead of an array of per-host structs —
//! means a sweep reads exactly the bytes it needs and nothing else.
//!
//! [`FleetStore`] is that storage. [`crate::LiveWorld`] owns the one
//! instance, so the closed-loop simulator (its client) and
//! `airshare-serve` ride the same arenas. The scalar
//! columns (`online`, `positions`, sync state) are plain `Vec`s; the
//! per-host caches and quarantine ledgers are arena-backed structures
//! from `airshare-cache` (see `EntryArena`), indexed by host id.
//!
//! Mutation stays inside the crate (the world's session transitions and
//! epoch barrier are the only writers); external callers get read-only
//! column views.

use crate::engine::SyncState;
use airshare_cache::{HostCache, QuarantineLedger};
use airshare_geom::Point;

/// Struct-of-arrays storage for every mobile host's mutable state.
///
/// One instance holds the whole fleet; a host is an index. Columns:
/// online flags, positions, channel-sync scalars, arena-backed caches,
/// and quarantine ledgers. See the module docs for why this is columnar.
pub struct FleetStore {
    /// Which hosts are on the air (churn state).
    pub(crate) online: Vec<bool>,
    /// Host positions at the last epoch boundary (offline hosts keep
    /// their last position; the neighbor grid ignores them).
    pub(crate) positions: Vec<Point>,
    /// Minute of each host's last successful channel access.
    pub(crate) last_sync_min: Vec<f64>,
    /// Whether each host owes a resync (answered through an outage or
    /// just came online).
    pub(crate) needs_resync: Vec<bool>,
    /// Per-host verified-region caches (arena-backed, handle-based).
    pub(crate) caches: Vec<HostCache>,
    /// Per-host quarantine ledgers for misbehaving peers.
    pub(crate) quarantines: Vec<QuarantineLedger>,
}

impl FleetStore {
    /// Fleet size (maximum host id + 1).
    pub fn len(&self) -> usize {
        self.online.len()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.online.is_empty()
    }

    /// Whether a host is currently online. Out-of-range ids are offline.
    pub fn is_online(&self, host: usize) -> bool {
        self.online.get(host).copied().unwrap_or(false)
    }

    /// The online column.
    pub fn online(&self) -> &[bool] {
        &self.online
    }

    /// The position column (epoch-boundary positions).
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// One host's epoch-boundary position.
    pub fn position(&self, host: usize) -> Point {
        self.positions[host]
    }

    /// One host's cache (read-only; mutation is the engine's job).
    pub fn cache(&self, host: usize) -> &HostCache {
        &self.caches[host]
    }

    /// Minute of a host's last successful channel access.
    pub fn last_sync_min(&self, host: usize) -> f64 {
        self.last_sync_min[host]
    }

    /// Whether a host owes a resync on its next channel access.
    pub fn needs_resync(&self, host: usize) -> bool {
        self.needs_resync[host]
    }

    /// Assembles the `Copy` working value the query path mutates, from
    /// the sync columns.
    pub(crate) fn sync_state(&self, host: usize) -> SyncState {
        SyncState {
            last_sync_min: self.last_sync_min[host],
            needs_resync: self.needs_resync[host],
        }
    }

    /// Scatters a working sync value back into the columns.
    pub(crate) fn set_sync_state(&mut self, host: usize, s: SyncState) {
        self.last_sync_min[host] = s.last_sync_min;
        self.needs_resync[host] = s.needs_resync;
    }
}
