//! The base station as a long-lived, incrementally-driven world.
//!
//! [`LiveWorld`] owns the POI world, the air index behind the
//! configured backend, the `(1, m)` schedule, the chaos oracle, the
//! fault/outage layers, and per-host session state (cache, sync clock,
//! quarantine ledger), and it owns the one epoch barrier: every query,
//! the simulator's and the live service's alike, resolves through its
//! [`LiveWorld::execute_epoch`]. The closed-loop [`crate::Simulation`]
//! is a client of this world that adds mobility and a churn plan, so a
//! recorded workload replayed against a fresh world is answered
//! identically by construction (DESIGN.md §14).
//!
//! Clients drive it in barrier order: churn
//! (`connect`/`reconnect`/`disconnect`), then position updates, then
//! [`LiveWorld::begin_epoch`] (grid + peer snapshot), then one or more
//! [`LiveWorld::execute_epoch`] batches.

use crate::engine::{
    fold_outcome, par_init, EpochCtx, HostTask, QueryAnswer, QuerySpec, SyncState,
};
use crate::fleet::FleetStore;
use crate::{BackendKind, ConfigError, SimConfig, SimReport};
use airshare_broadcast::{
    wire, AirIndex, AirIndexBackend, BuildParams, ChannelFaults, OutageSchedule, Poi, PoiTable,
    QueryScratch, RtreeAirIndex, Schedule,
};
use airshare_cache::{HostCache, QuarantineConfig, QuarantineLedger};
use airshare_exec::{split_seed, ExecPool};
use airshare_geom::{meters_to_miles, Point, Rect};
use airshare_obs::{AnswerQuality, Recorder, TraceEvent};
use airshare_p2p::NeighborGrid;
use airshare_rtree::RTree;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Seed domain for per-host quarantine backoff jitter.
const QUARANTINE_SEED_SALT: u64 = 0x0A42_A7F1_5EED_0005;

/// One query submitted to the live world: pure inputs, exactly what the
/// closed loop would have derived from mobility and the window stream.
#[derive(Clone, Debug)]
pub struct LiveQuery {
    /// Global submission order — doubles as the fault-layer nonce, so
    /// admission order fully determines fault coin flips.
    pub nonce: u64,
    /// The querying session's host id.
    pub host: usize,
    /// Query time in simulation minutes.
    pub at_min: f64,
    /// The host's position at query time.
    pub pos: Point,
    /// The host's heading (unit vector), if known.
    pub heading: Option<(f64, f64)>,
    /// What the query asks.
    pub spec: QuerySpec,
}

/// The base station as a long-lived, incrementally-driven world.
pub struct LiveWorld {
    cfg: SimConfig,
    world: Rect,
    /// The canonical POI table session caches hold handles into.
    table: PoiTable,
    index: Box<dyn AirIndexBackend>,
    schedule: Schedule,
    oracle: RTree<u32>,
    faults: Option<ChannelFaults>,
    outage: OutageSchedule,
    /// Columnar per-session state: online flags, last reported
    /// positions (offline hosts keep theirs), sync clocks, arena-backed
    /// caches, quarantine ledgers.
    fleet: FleetStore,
    /// Epoch-start neighbor grid over online hosts. Retained for the
    /// world's lifetime and rebuilt in place at each boundary.
    grid: NeighborGrid,
    /// Epoch-start committed caches — what peers see this epoch.
    snapshot: Vec<HostCache>,
    /// Hosts whose committed cache changed since the last boundary (a
    /// commit or a crash wipe): the only snapshot entries to refresh.
    dirty: Vec<usize>,
    /// The epoch currently being served.
    epoch: u64,
    range: f64,
    report: SimReport,
    /// Wall time of the last boundary's grid rebuild and snapshot
    /// refresh, in ns. Measurement only.
    boundary_ns: (u64, u64),
}

impl LiveWorld {
    /// Builds the world from a validated configuration: POIs placed
    /// uniformly at random (the paper's Poisson-field assumption), the
    /// air index behind the configured backend, the `(1, m)` schedule,
    /// the ground-truth R-tree, and per-host caches/sync/quarantine
    /// state. [`crate::Simulation::try_new`] builds its world here, so
    /// both sides agree on every POI, bucket, fault seed, and ledger.
    /// All sessions start offline, at the origin, with empty caches.
    pub fn try_new(cfg: SimConfig) -> Result<Self, ConfigError> {
        cfg.check()?;
        let side = cfg.params.world_mi;
        let world = Rect::from_coords(0.0, 0.0, side, side);
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let table = PoiTable::from_pois((0..cfg.params.poi_number).map(|i| {
            Poi::new(
                i as u32,
                Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)),
            )
        }));
        let build = BuildParams {
            world,
            hilbert_order: cfg.hilbert_order,
            bucket_capacity: cfg.bucket_capacity,
        };
        // The two big POI structures — the air index and the ground-truth
        // R-tree — are independent reads of the finished table, so they
        // build concurrently. Each build is a pure function of the table,
        // so the pool affects wall time only.
        let pool = ExecPool::from_env();
        // cfg.check() already vetted the capacity, so a build error here
        // is unreachable; map it anyway rather than panic.
        let (index, oracle) = pool.join(
            || -> Result<Box<dyn AirIndexBackend>, ConfigError> {
                Ok(match cfg.backend {
                    BackendKind::Hilbert => Box::new(
                        <AirIndex as AirIndexBackend>::try_build(&table, &build)
                            .map_err(|_| ConfigError::ZeroBucketCapacity)?,
                    ),
                    BackendKind::Rtree => Box::new(
                        <RtreeAirIndex as AirIndexBackend>::try_build(&table, &build)
                            .map_err(|_| ConfigError::ZeroBucketCapacity)?,
                    ),
                })
            },
            || RTree::bulk_load(table.iter().map(|p| (p.pos, p.id)).collect()),
        );
        let index = index?;
        let schedule = Schedule::try_for_backend(index.as_ref(), cfg.index_m)
            .map_err(|_| ConfigError::ZeroIndexReplication)?;
        let n = cfg.params.mh_number;
        // Per-host state is constructed in parallel chunks: caches take no
        // seed at all, and quarantine seeds are split per host — both are
        // pure functions of the host id, so chunking is invisible.
        let caches = par_init(&pool, n, |_| {
            let c = HostCache::new(cfg.params.cache_size, cfg.policy)
                .with_subsume_overlap(cfg.subsume_overlap);
            if cfg.max_regions == usize::MAX {
                c
            } else {
                c.with_max_regions(cfg.max_regions)
            }
        });
        // Fault decisions are hashed from their own seed (derived from
        // the master seed), never drawn from an RNG stream: an inert
        // fault config leaves every other random stream untouched.
        let faults = (!cfg.faults.is_inert()).then(|| {
            cfg.faults.channel_faults(
                cfg.seed ^ 0xFA17_5EED_0000_0001,
                wire::bucket_frame_bytes(cfg.bucket_capacity),
            )
        });
        let outage = OutageSchedule::new(cfg.outages.clone());
        let quarantines = par_init(&pool, n, |h| {
            QuarantineLedger::new(
                QuarantineConfig::default(),
                split_seed(cfg.seed ^ QUARANTINE_SEED_SALT, h as u64, 0),
            )
        });
        let fleet = FleetStore {
            online: vec![false; n],
            positions: vec![Point::new(0.0, 0.0); n],
            last_sync_min: vec![0.0; n],
            needs_resync: vec![false; n],
            caches,
            quarantines,
        };
        let range = meters_to_miles(cfg.params.tx_range_m);
        let mut grid = NeighborGrid::with_bounds(&world, range.max(1e-3), n);
        grid.refresh_active(&fleet.positions, &fleet.online);
        Ok(LiveWorld {
            cfg,
            world,
            table,
            index,
            schedule,
            oracle,
            faults,
            outage,
            fleet,
            grid,
            // Cloned whole at the first boundary, then kept in step by
            // the dirty list.
            snapshot: Vec::new(),
            dirty: Vec::new(),
            epoch: 0,
            range,
            report: SimReport::default(),
            boundary_ns: (0, 0),
        })
    }

    /// The configuration the world was built from.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Fleet capacity (maximum host id + 1).
    pub fn hosts(&self) -> usize {
        self.fleet.len()
    }

    /// The canonical POI table session caches resolve against.
    pub fn poi_table(&self) -> &PoiTable {
        &self.table
    }

    /// Read-only view of the per-session columnar state.
    pub fn fleet(&self) -> &FleetStore {
        &self.fleet
    }

    /// Whether a session is currently live.
    pub fn is_online(&self, host: usize) -> bool {
        self.fleet.is_online(host)
    }

    /// Opens a session for a host that was never online (initial join).
    /// Its sync clock stays at the world's origin — the pristine state
    /// of a host online from the start.
    pub fn connect(&mut self, host: usize) {
        self.fleet.online[host] = true;
    }

    /// Reopens a session after a crash: the host comes back cold at
    /// `planned_epoch`'s boundary, channel unheard, owing a resync.
    pub fn reconnect(&mut self, host: usize, planned_epoch: u64, rec: &mut dyn Recorder) {
        self.fleet.online[host] = true;
        self.fleet.set_sync_state(
            host,
            SyncState {
                last_sync_min: planned_epoch as f64 * self.cfg.epoch_min,
                needs_resync: true,
            },
        );
        self.report.hosts_restarted += 1;
        rec.record(TraceEvent::HostRestarted {
            host: host as u32,
            epoch: planned_epoch,
        });
    }

    /// Closes a session as a crash: the host goes dark and all volatile
    /// state (cache, quarantine memory) is wiped. Peers see the wipe
    /// from the next boundary on.
    pub fn disconnect(&mut self, host: usize, planned_epoch: u64, rec: &mut dyn Recorder) {
        self.fleet.online[host] = false;
        self.fleet.caches[host].clear();
        self.fleet.quarantines[host].clear();
        self.dirty.push(host);
        self.report.hosts_crashed += 1;
        rec.record(TraceEvent::HostCrashed {
            host: host as u32,
            epoch: planned_epoch,
        });
    }

    /// Records a host's position (kept while offline too, matching the
    /// simulator's always-advancing mobility streams).
    pub fn update_position(&mut self, host: usize, pos: Point) {
        self.fleet.positions[host] = pos;
    }

    /// Commits the epoch boundary: rebuilds the retained neighbor grid
    /// over the online fleet at their reported positions, and refreshes
    /// the peer-visible snapshot for the hosts whose committed cache
    /// changed since the last boundary. Must run after this boundary's
    /// churn and position updates, before the epoch's batches.
    pub fn begin_epoch(&mut self, epoch: u64) {
        let t = Instant::now();
        self.grid
            .refresh_active(&self.fleet.positions, &self.fleet.online);
        let grid_ns = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        if self.snapshot.len() == self.fleet.caches.len() {
            // `clone_from` keeps each snapshot cache's arena allocations,
            // so a warm refresh does not allocate.
            self.dirty.sort_unstable();
            self.dirty.dedup();
            for &h in &self.dirty {
                self.snapshot[h].clone_from(&self.fleet.caches[h]);
            }
        } else {
            self.snapshot = self.fleet.caches.clone();
        }
        self.dirty.clear();
        self.boundary_ns = (grid_ns, t.elapsed().as_nanos() as u64);
        self.epoch = epoch;
    }

    /// Executes one epoch's admitted batch on the pool and commits the
    /// barrier: host state in host-id order, report outcomes in nonce
    /// order. Each host's queries run in nonce (= admission) order; a
    /// host's own writes are visible to its later queries at once, and
    /// to peers from the next boundary on.
    ///
    /// Queries from offline sessions are answered `Failed`/empty without
    /// touching the world. Returns every query's answer, nonce-ordered.
    pub fn execute_epoch<R: Recorder + Send>(
        &mut self,
        mut queries: Vec<LiveQuery>,
        pool: &ExecPool,
        ctxs: &mut [(R, QueryScratch)],
    ) -> Vec<QueryAnswer> {
        // Stable: equal nonces keep their submission order.
        queries.sort_by_key(|q| (q.host, q.nonce));
        let mut answers: Vec<QueryAnswer> = Vec::with_capacity(queries.len());
        let mut tasks: Vec<HostTask> = Vec::new();
        for q in queries {
            if !self.is_online(q.host) {
                answers.push(QueryAnswer {
                    nonce: q.nonce,
                    host: q.host as u32,
                    ids: Vec::new(),
                    quality: AnswerQuality::Failed,
                });
                continue;
            }
            match tasks.last_mut() {
                Some(task) if task.host == q.host => task.queries.push(q),
                // Move host state out *before* the EpochCtx borrows the
                // world.
                _ => tasks.push(HostTask {
                    host: q.host,
                    cache: std::mem::replace(
                        &mut self.fleet.caches[q.host],
                        HostCache::new(0, self.cfg.policy),
                    ),
                    sync: self.fleet.sync_state(q.host),
                    quarantine: std::mem::replace(
                        &mut self.fleet.quarantines[q.host],
                        QuarantineLedger::new(QuarantineConfig::default(), 0),
                    ),
                    queries: vec![q],
                    resyncs: 0,
                    outcomes: Vec::new(),
                    answers: Vec::new(),
                }),
            }
        }

        let ctx = EpochCtx {
            cfg: &self.cfg,
            world: &self.world,
            table: &self.table,
            index: self.index.as_ref(),
            schedule: &self.schedule,
            oracle: &self.oracle,
            faults: self.faults.as_ref(),
            grid: &self.grid,
            snapshot: &self.snapshot,
            range: self.range,
            epoch: self.epoch,
            outage: &self.outage,
        };
        let done = pool.map_with(ctxs, tasks, |(rec, scratch), _, task| {
            ctx.run_host(task, scratch, rec)
        });

        // `map_with` returns results in task (= host-id) order.
        let mut outcomes = Vec::new();
        for d in done {
            self.fleet.caches[d.host] = d.cache;
            self.fleet.set_sync_state(d.host, d.sync);
            self.fleet.quarantines[d.host] = d.quarantine;
            self.dirty.push(d.host);
            self.report.outage_resyncs += d.resyncs;
            outcomes.extend(d.outcomes);
            answers.extend(d.answers);
        }
        outcomes.sort_by_key(|&(nonce, _)| nonce);
        for (_, o) in outcomes {
            fold_outcome(&mut self.report, self.cfg.calibration_cap, o);
        }
        answers.sort_by_key(|a| a.nonce);
        answers
    }

    /// The accumulated service report: the same `SimReport` the
    /// simulator produces, so a full replay's report can be compared
    /// field-for-field against the recording run's.
    pub fn report(&self) -> &SimReport {
        &self.report
    }

    /// The world's extent.
    pub(crate) fn world(&self) -> &Rect {
        &self.world
    }

    /// The position column, for a client that steps the whole fleet at
    /// once (the simulator's chunked mobility advance).
    pub(crate) fn positions_mut(&mut self) -> &mut [Point] {
        &mut self.fleet.positions
    }

    /// Wall time of the last [`LiveWorld::begin_epoch`]'s grid rebuild
    /// and snapshot refresh, in ns.
    pub(crate) fn boundary_ns(&self) -> (u64, u64) {
        self.boundary_ns
    }

    /// Hands over the accumulated report and starts a fresh one.
    pub(crate) fn take_report(&mut self) -> SimReport {
        std::mem::take(&mut self.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{params, ChurnConfig, QueryKind, Simulation};
    use airshare_broadcast::{PoiCategory, PoiId};
    use airshare_cache::EntryId;
    use airshare_obs::NoopRecorder;

    /// Churn and outages at rates that crash, restart and resync hosts
    /// every few epochs, so wipes of warm caches land between queries.
    fn churny_cfg() -> SimConfig {
        let mut p = params::la_city().scaled(0.005);
        p.cache_size = 30;
        let mut cfg = SimConfig::paper_defaults(p, QueryKind::Knn, 7);
        cfg.warmup_min = 3.0;
        cfg.measure_min = 6.0;
        cfg.hilbert_order = 6;
        cfg.churn = ChurnConfig {
            crash_prob: 0.15,
            restart_prob: 0.5,
            late_join_frac: 0.2,
        };
        cfg.outages = vec![(10, 14), (24, 27)];
        cfg
    }

    /// Everything stored in one cache for the experiments' category:
    /// entry handles, regions, creation and LRU clocks, POI handles.
    fn contents(c: &HostCache) -> Vec<(EntryId, [u64; 6], Vec<PoiId>)> {
        let cat = PoiCategory::GAS_STATION;
        c.entry_ids(cat)
            .iter()
            .map(|&id| {
                let v = c.get(id).expect("live handle");
                let bits = [v.vr.x1, v.vr.y1, v.vr.x2, v.vr.y2, v.created_at, v.last_used]
                    .map(f64::to_bits);
                (id, bits, v.poi_ids.to_vec())
            })
            .collect()
    }

    /// The oracle for the dirty list: right after a boundary, every
    /// host's peer-visible snapshot equals its committed cache.
    fn assert_snapshot_is_committed(w: &LiveWorld) {
        assert_eq!(w.snapshot.len(), w.fleet.caches.len());
        for (h, (snap, committed)) in w.snapshot.iter().zip(&w.fleet.caches).enumerate() {
            assert_eq!(
                contents(snap),
                contents(committed),
                "epoch {}: host {h}'s snapshot is stale",
                w.epoch
            );
        }
    }

    #[test]
    fn snapshot_equals_committed_caches_after_every_boundary() {
        // The closed loop, checked at each of its boundaries.
        let mut sim = Simulation::try_new(churny_cfg()).unwrap();
        let mut boundaries = 0;
        let report = sim.run_engine(
            &ExecPool::sequential(),
            &mut [(NoopRecorder, QueryScratch::new())],
            None,
            &mut |w| {
                assert_snapshot_is_committed(w);
                boundaries += 1;
            },
        );
        assert!(boundaries > 20, "only {boundaries} boundaries");
        assert!(report.hosts_crashed > 10 && report.hosts_restarted > 10);
        assert!(report.outage_resyncs > 0, "no host resynced after an outage");

        // A hand-driven world: warm every cache, then crash one host
        // between two boundaries without it querying again.
        let cfg = churny_cfg();
        let hosts = cfg.params.mh_number;
        let mut live = LiveWorld::try_new(cfg).unwrap();
        let pool = ExecPool::sequential();
        let mut ctxs = [(NoopRecorder, QueryScratch::new())];
        for h in 0..hosts {
            live.connect(h);
            let (x, y) = ((h % 7) as f64 * 0.15, (h % 11) as f64 * 0.1);
            live.update_position(h, Point::new(x, y));
        }
        let warm: Vec<LiveQuery> = (0..hosts)
            .map(|h| LiveQuery {
                nonce: h as u64,
                host: h,
                at_min: 0.1,
                pos: live.fleet().position(h),
                heading: None,
                spec: QuerySpec::Knn { k: 3 },
            })
            .collect();
        live.begin_epoch(0);
        assert_snapshot_is_committed(&live);
        live.execute_epoch(warm, &pool, &mut ctxs);
        live.begin_epoch(1);
        assert_snapshot_is_committed(&live);
        let victim = 3;
        assert!(live.snapshot[victim].region_count(PoiCategory::GAS_STATION) > 0);
        live.disconnect(victim, 1, &mut NoopRecorder);
        live.begin_epoch(2);
        assert_snapshot_is_committed(&live);
        assert_eq!(live.snapshot[victim].region_count(PoiCategory::GAS_STATION), 0);
    }
}
