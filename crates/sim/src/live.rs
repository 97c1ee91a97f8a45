//! The base-station side of a run, opened up for online serving.
//!
//! [`LiveWorld`] owns exactly what the closed-loop [`crate::Simulation`]
//! owns minus the fleet's mobility: the POI world, the air index behind
//! the configured backend, the `(1, m)` schedule, the chaos oracle, the
//! fault/outage layers, and per-host session state (cache, sync clock,
//! quarantine ledger). It is built by the same `build_world_core` the
//! simulator uses — same seed, same draws — and resolves queries through
//! the same `EpochCtx::process_query`, so a recorded workload replayed
//! against it is answered identically by construction (DESIGN.md §14).
//!
//! The serving layer (`airshare-serve`) drives it in barrier order:
//! churn (`connect`/`reconnect`/`disconnect`), then position updates,
//! then [`LiveWorld::begin_epoch`] (grid + cache snapshot), then one
//! [`LiveWorld::execute_epoch`] batch.

use crate::engine::{
    build_world_core, fold_outcome, EpochCtx, LiveBatchItem, LiveTask, QueryAnswer, QuerySpec,
    SyncState,
};
use crate::fleet::FleetStore;
use crate::{ConfigError, SimConfig, SimReport};
use airshare_broadcast::{
    AirIndexBackend, ChannelFaults, OutageSchedule, PoiTable, QueryScratch, Schedule,
};
use airshare_cache::{HostCache, QuarantineConfig, QuarantineLedger};
use airshare_exec::ExecPool;
use airshare_geom::{meters_to_miles, Point, Rect};
use airshare_obs::{AnswerQuality, Recorder, TraceEvent};
use airshare_p2p::NeighborGrid;
use airshare_rtree::RTree;
use std::collections::BTreeMap;

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
    /// caches, quarantine ledgers — the same [`FleetStore`] the
    /// closed-loop engine rides.
    fleet: FleetStore,
    /// Epoch-start neighbor grid over online hosts.
    grid: NeighborGrid,
    /// Epoch-start committed caches — what peers see this epoch.
    snapshot: Vec<HostCache>,
    /// The epoch currently being served.
    epoch: u64,
    range: f64,
    report: SimReport,
}

impl LiveWorld {
    /// Builds the world from a validated configuration — identical
    /// draws to [`crate::Simulation::try_new`] with the same config, so
    /// both sides agree on every POI, bucket, fault seed, and ledger.
    /// All sessions start offline with empty caches.
    pub fn try_new(cfg: SimConfig) -> Result<Self, ConfigError> {
        let mut core = build_world_core(&cfg)?;
        let n = cfg.params.mh_number;
        let range = meters_to_miles(cfg.params.tx_range_m);
        let cell = range.max(1e-3);
        // All sessions start offline; `connect` admits them. The grid
        // is retained for the world's lifetime and rebuilt in place at
        // each boundary — no per-epoch position clone.
        core.fleet.online = vec![false; n];
        let mut grid = NeighborGrid::with_bounds(&core.world, cell, n);
        grid.refresh_active(&core.fleet.positions, &core.fleet.online);
        Ok(LiveWorld {
            cfg,
            world: core.world,
            table: core.table,
            index: core.index,
            schedule: core.schedule,
            oracle: core.oracle,
            faults: core.faults,
            outage: core.outage,
            fleet: core.fleet,
            grid,
            snapshot: Vec::new(),
            epoch: 0,
            range,
            report: SimReport::default(),
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
    /// Its sync clock stays at the world's origin — the simulator's
    /// pristine state for hosts online from the start.
    pub fn connect(&mut self, host: usize) {
        self.fleet.online[host] = true;
    }

    /// Reopens a session after a crash: the host comes back cold at
    /// `planned_epoch`'s boundary, channel unheard, owing a resync.
    /// Mirrors the simulator's restart transition exactly.
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
    /// state (cache, quarantine memory) is wiped, exactly as the
    /// simulator's crash transition does.
    pub fn disconnect(&mut self, host: usize, planned_epoch: u64, rec: &mut dyn Recorder) {
        self.fleet.online[host] = false;
        self.fleet.caches[host].clear();
        self.fleet.quarantines[host].clear();
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
    /// over the online fleet at their reported positions and snapshots
    /// the committed caches peers will see. Must run after this boundary's
    /// churn and position updates, before the epoch's batch.
    pub fn begin_epoch(&mut self, epoch: u64) {
        self.grid
            .refresh_active(&self.fleet.positions, &self.fleet.online);
        // Buffer-reusing refresh: `clone_from` keeps each snapshot
        // cache's arena allocations across epochs.
        if self.snapshot.len() == self.fleet.caches.len() {
            for (s, c) in self.snapshot.iter_mut().zip(&self.fleet.caches) {
                s.clone_from(c);
            }
        } else {
            self.snapshot = self.fleet.caches.clone();
        }
        self.epoch = epoch;
    }

    /// Executes one epoch's admitted batch on the pool and commits the
    /// barrier: host state in host-id order, report outcomes in nonce
    /// order — the same commit discipline as the simulator's engine.
    ///
    /// Queries from offline sessions are answered `Failed`/empty without
    /// touching the world. Returns every query's answer, nonce-ordered.
    pub fn execute_epoch<R: Recorder + Send>(
        &mut self,
        queries: Vec<LiveQuery>,
        pool: &ExecPool,
        ctxs: &mut [(R, QueryScratch)],
    ) -> Vec<QueryAnswer> {
        let mut answers: Vec<QueryAnswer> = Vec::with_capacity(queries.len());
        let mut by_host: BTreeMap<usize, Vec<LiveBatchItem>> = BTreeMap::new();
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
            by_host.entry(q.host).or_default().push(LiveBatchItem {
                nonce: q.nonce,
                at_min: q.at_min,
                pos: q.pos,
                heading: q.heading,
                spec: q.spec,
            });
        }
        // Move host state out *before* the EpochCtx borrows the world;
        // per-host queries run in nonce (= admission) order.
        let tasks: Vec<LiveTask> = by_host
            .into_iter()
            .map(|(host, mut items)| {
                items.sort_by_key(|it| it.nonce);
                LiveTask {
                    host,
                    cache: std::mem::replace(
                        &mut self.fleet.caches[host],
                        HostCache::new(0, self.cfg.policy),
                    ),
                    sync: self.fleet.sync_state(host),
                    quarantine: std::mem::replace(
                        &mut self.fleet.quarantines[host],
                        QuarantineLedger::new(QuarantineConfig::default(), 0),
                    ),
                    queries: items,
                }
            })
            .collect();

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
            ctx.run_live_host(task, scratch, rec)
        });

        let mut outcomes = Vec::new();
        for d in done {
            self.fleet.caches[d.host] = d.cache;
            self.fleet.set_sync_state(d.host, d.sync);
            self.fleet.quarantines[d.host] = d.quarantine;
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
}
