//! The simulation event loop: epoch-sharded, deterministically parallel.
//!
//! Queries are grouped by *epoch* (the neighbor-grid refresh interval).
//! Within one epoch every host observes the same committed world: peer
//! positions from the epoch-start [`NeighborGrid`] and peer caches from
//! the epoch-start snapshot. A host's own cache stays live to itself, and
//! its writes commit at the epoch barrier in host-id order. Per-query
//! randomness comes from RNG streams seed-split per `(host, epoch)`, and
//! per-query outcomes are folded into the report in global event order —
//! so [`Simulation::run_parallel`] is **bit-identical** to the sequential
//! [`Simulation::run`] for every thread count.

use crate::fleet::FleetStore;
use crate::traffic::{EpochRecord, RecordedQuery, TrafficTrace};
use crate::{BackendKind, ConfigError, MobilityModel, QueryKind, SimConfig, SimReport};
use airshare_broadcast::{
    wire, AirIndex, AirIndexBackend, BuildParams, ChannelFaults, OnAirClient, OutageSchedule, Poi,
    PoiCategory, PoiId, PoiTable, QueryScratch, RtreeAirIndex, Schedule,
};
use airshare_cache::{CacheContext, HostCache, QuarantineConfig, QuarantineLedger};
use airshare_core::{
    sbnn_rec, sbwq_rec, MergedRegion, ResolvedBy, SbnnConfig, SbnnOutcome, SbwqConfig, SbwqOutcome,
};
use airshare_exec::{split_seed, ExecPool};
use airshare_geom::{meters_to_miles, Point, Rect};
use airshare_mobility::{
    GridRoadWaypoint, Mobility, MobilityConfig, QueryEvent, QueryScheduler, RandomWaypoint,
};
use airshare_obs::{
    AccessStats, AnswerQuality, MetricsRecorder, NoopRecorder, PhaseTimes, Recorder, ShareStats,
    TraceEvent,
};
use airshare_p2p::{NeighborGrid, ShareFaults};
use airshare_rtree::RTree;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Instant;

/// The single POI category the paper's experiments use (gas stations).
const CAT: PoiCategory = PoiCategory::GAS_STATION;

/// Salt separating the window-sampling seed domain from every other
/// stream derived from the master seed.
const WINDOW_SEED_SALT: u64 = 0x5EED_0001_CAFE_F00D;

/// Seed domain for the churn decision source (crash schedule).
const CHURN_SEED_SALT: u64 = 0xC4A0_5EED_0000_0002;

/// Key salt decorrelating restart decisions from crash decisions for
/// the same `(host, epoch)` pair.
const RESTART_KEY_SALT: u64 = 0x9E57_A27A_0000_0002;

/// Seed domain for late-joiner admission epochs.
const JOIN_SEED_SALT: u64 = 0x10A7_5EED_0000_0003;

/// Seed domain for per-host quarantine backoff jitter.
const QUARANTINE_SEED_SALT: u64 = 0x0A42_A7F1_5EED_0005;

/// A host's relationship to the broadcast channel.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SyncState {
    /// Simulated minute of the last successful channel access (or of
    /// coming online). Bounds the staleness of outage-served answers.
    pub(crate) last_sync_min: f64,
    /// The host answered queries without the channel (outage) or just
    /// came online; its next successful access counts as a resync.
    pub(crate) needs_resync: bool,
}

/// What one query asks — decoupled from the run-level [`QueryKind`]
/// knob so recorded traffic can replay its sampled windows verbatim and
/// the live service (`airshare-serve`) can mix query kinds per request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QuerySpec {
    /// The `k` nearest neighbors around the querying position.
    Knn {
        /// Neighbors requested.
        k: usize,
    },
    /// All POIs inside a rectangle.
    Window {
        /// The query window.
        rect: Rect,
    },
}

/// One query's answer as a client receives it: the POI id set plus the
/// answer's quality grade. Produced for every query — warm-up included —
/// so a replay can check parity over the whole workload.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryAnswer {
    /// The query's global nonce (the simulator's event index, or the
    /// service's admission ticket).
    pub nonce: u64,
    /// The querying host.
    pub host: u32,
    /// Result POI ids, in resolution order.
    pub ids: Vec<u32>,
    /// Quality grade of the answer.
    pub quality: AnswerQuality,
}

enum HostMobility {
    /// Stored inline: at a million hosts, one heap box per waypoint
    /// stream is pure pointer-chasing overhead.
    Waypoint(RandomWaypoint),
    Roads(Box<GridRoadWaypoint>),
    /// Placeholder left behind while the host's state is moved into an
    /// epoch task; restored at the barrier, never observed in between.
    Vacant,
}

impl Mobility for HostMobility {
    fn position_at(&mut self, t: f64) -> Point {
        match self {
            HostMobility::Waypoint(m) => m.position_at(t),
            HostMobility::Roads(m) => m.position_at(t),
            HostMobility::Vacant => unreachable!("host state vacated into an epoch task"),
        }
    }
    fn velocity_at(&mut self, t: f64) -> (f64, f64) {
        match self {
            HostMobility::Waypoint(m) => m.velocity_at(t),
            HostMobility::Roads(m) => m.velocity_at(t),
            HostMobility::Vacant => unreachable!("host state vacated into an epoch task"),
        }
    }
}

/// How one query was resolved, as the report counts it.
enum Resolution {
    Peers,
    Approx,
    Broadcast,
}

/// Everything one measured query contributes to the report. Buffered
/// shard-locally and folded in global event order at the epoch barrier,
/// so float and counter accumulation order is independent of scheduling.
pub(crate) struct QueryOutcome {
    share: ShareStats,
    /// The answer's quality tier (replaces the old binary degraded
    /// flag): `Exact`, `Degraded` (lossy retrieval), `Stale` or `Failed`
    /// (outage-served).
    quality: AnswerQuality,
    /// Staleness bound in minutes, for `Stale` answers.
    stale_age_min: f64,
    /// The answer broke its declared bound under the chaos oracle
    /// (validate runs only; must never happen).
    bound_violation: bool,
    resolution: Resolution,
    air: Option<AccessStats>,
    /// On-air baseline `(latency, tuning)` for the same query.
    baseline: Option<(u64, u64)>,
    filter_saved: u64,
    /// MVR coverage, for window queries that needed the channel.
    window_coverage: Option<f64>,
    /// Lemma 3.2 calibration sample, for validated approximate answers.
    calibration: Option<(f64, bool)>,
    mismatch: bool,
}

/// One host's slice of an epoch: its mutable state moved out of the
/// simulation, plus its time-ordered events.
struct HostTask {
    host: usize,
    mobility: HostMobility,
    cache: HostCache,
    rng: SmallRng,
    sync: SyncState,
    quarantine: QuarantineLedger,
    /// `(global event index, query time)`, time-ordered.
    events: Vec<(u64, f64)>,
}

/// One host's mutable state, borrowed for a single query. Position,
/// heading, and the query spec are inputs to `process_query` instead —
/// the closed loop derives them from mobility + the window stream, the
/// live service takes them straight off the wire.
pub(crate) struct QueryHostState<'a> {
    host: usize,
    cache: &'a mut HostCache,
    sync: &'a mut SyncState,
    quarantine: &'a mut QuarantineLedger,
    resyncs: &'a mut u64,
}

struct HostDone {
    host: usize,
    mobility: HostMobility,
    cache: HostCache,
    sync: SyncState,
    quarantine: QuarantineLedger,
    /// Resync transitions this shard performed (warm-up included).
    resyncs: u64,
    outcomes: Vec<(u64, QueryOutcome)>,
}

/// The immutable world every worker shares within one epoch. Shared by
/// the closed-loop engine and the serving layer's `LiveWorld`, which is
/// what makes replay parity a structural property rather than a test.
pub(crate) struct EpochCtx<'a> {
    pub(crate) cfg: &'a SimConfig,
    pub(crate) world: &'a Rect,
    /// The canonical POI table peer-shared handles resolve against.
    pub(crate) table: &'a PoiTable,
    pub(crate) index: &'a dyn AirIndexBackend,
    pub(crate) schedule: &'a Schedule,
    pub(crate) oracle: &'a RTree<u32>,
    pub(crate) faults: Option<&'a ChannelFaults>,
    pub(crate) grid: &'a NeighborGrid,
    /// Previous epoch's committed caches — what peers see.
    pub(crate) snapshot: &'a [HostCache],
    pub(crate) range: f64,
    /// This epoch's number (outage membership, quarantine clock).
    pub(crate) epoch: u64,
    /// Base-station outage windows over epoch numbers.
    pub(crate) outage: &'a OutageSchedule,
}

/// One query handed to the engine by the serving layer: inputs only,
/// everything the closed loop would have derived from mobility.
pub(crate) struct LiveBatchItem {
    pub(crate) nonce: u64,
    pub(crate) at_min: f64,
    pub(crate) pos: Point,
    pub(crate) heading: Option<(f64, f64)>,
    pub(crate) spec: QuerySpec,
}

/// One host's slice of a service epoch batch.
pub(crate) struct LiveTask {
    pub(crate) host: usize,
    pub(crate) cache: HostCache,
    pub(crate) sync: SyncState,
    pub(crate) quarantine: QuarantineLedger,
    /// Nonce-ordered queries for this host.
    pub(crate) queries: Vec<LiveBatchItem>,
}

/// A [`LiveTask`]'s committed result.
pub(crate) struct LiveDone {
    pub(crate) host: usize,
    pub(crate) cache: HostCache,
    pub(crate) sync: SyncState,
    pub(crate) quarantine: QuarantineLedger,
    pub(crate) resyncs: u64,
    pub(crate) outcomes: Vec<(u64, QueryOutcome)>,
    pub(crate) answers: Vec<QueryAnswer>,
}

/// Who executes the epoch's host tasks.
enum Driver<'d> {
    /// One thread, one recorder, tasks in host-id order.
    Sequential(&'d mut dyn Recorder),
    /// Sequential, additionally capturing the full workload (per-epoch
    /// fleet state + per-query inputs and answers) into a trace.
    Recording {
        rec: &'d mut dyn Recorder,
        trace: &'d mut TrafficTrace,
    },
    /// Pool workers with inert recorders.
    Parallel { pool: &'d ExecPool },
    /// Pool workers, each folding into its own shard-local recorder.
    ParallelMetrics {
        pool: &'d ExecPool,
        recorders: &'d mut Vec<MetricsRecorder>,
    },
}

/// One full system: base station, channel, fleet, caches.
pub struct Simulation {
    cfg: SimConfig,
    world: Rect,
    /// The canonical POI table: the one copy of every POI payload.
    /// Caches, peer replies, and the index all refer into it by handle.
    table: PoiTable,
    /// The broadcast organization, behind the backend trait: the
    /// `BackendKind` knob picks the concrete index at build time.
    index: Box<dyn AirIndexBackend>,
    schedule: Schedule,
    oracle: RTree<u32>,
    hosts: Vec<HostMobility>,
    /// Columnar per-host mutable state (online flags, positions, sync
    /// scalars, caches, quarantine ledgers).
    fleet: FleetStore,
    /// Deterministic fault decision source; `None` when the fault config
    /// is inert, so the ideal-channel path pays nothing.
    faults: Option<ChannelFaults>,
    /// Precomputed churn transitions `(epoch, host, comes_online)`,
    /// sorted by `(epoch, host)`; a pure function of the master seed.
    churn_plan: Vec<(u64, usize, bool)>,
    /// First `churn_plan` entry not yet applied.
    churn_cursor: usize,
    /// Base-station silence windows over epoch numbers.
    outage: OutageSchedule,
    /// Wall-clock phase breakdown of the most recent run (advance /
    /// grid / query / snapshot). Measurement only — never part of the
    /// simulation's output.
    phases: PhaseTimes,
}

impl Simulation {
    /// Builds the world: POIs placed uniformly at random (the paper's
    /// own Poisson-field assumption), the Hilbert air index over them,
    /// the `(1, m)` schedule, the ground-truth R-tree, and the host
    /// fleet with empty caches. Validates the configuration first, so a
    /// bad knob surfaces as a typed [`ConfigError`] instead of a panic
    /// deep inside a substrate crate.
    pub fn try_new(cfg: SimConfig) -> Result<Self, ConfigError> {
        let mut core = build_world_core(&cfg)?;
        let mut mobility_cfg = MobilityConfig::vehicular(core.world);
        mobility_cfg.speed_min *= cfg.params.speed_scale;
        mobility_cfg.speed_max *= cfg.params.speed_scale;
        // Every stream is seeded per host, independent of construction
        // order, so the fleet can be built in parallel chunks — the
        // result is the same vector a sequential loop produces.
        let hosts: Vec<HostMobility> =
            par_init(&ExecPool::from_env(), cfg.params.mh_number, |i| {
                let seed = cfg.seed ^ (0x9E3779B97F4A7C15u64.wrapping_mul(i as u64 + 1));
                match cfg.mobility {
                    MobilityModel::RandomWaypoint => {
                        HostMobility::Waypoint(RandomWaypoint::new(mobility_cfg, seed))
                    }
                    MobilityModel::GridRoads { spacing_milli_mi } => {
                        HostMobility::Roads(Box::new(GridRoadWaypoint::new(
                            mobility_cfg,
                            spacing_milli_mi as f64 / 1000.0,
                            seed,
                        )))
                    }
                }
            });
        let (online, churn_plan) = plan_churn(&cfg);
        core.fleet.online = online;
        Ok(Self {
            cfg,
            world: core.world,
            table: core.table,
            index: core.index,
            schedule: core.schedule,
            oracle: core.oracle,
            hosts,
            fleet: core.fleet,
            faults: core.faults,
            churn_plan,
            churn_cursor: 0,
            outage: core.outage,
            phases: PhaseTimes::default(),
        })
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The global POI set (for external validation).
    pub fn pois(&self) -> &[Poi] {
        self.table.as_slice()
    }

    /// The canonical POI table every cached or peer-shared handle
    /// resolves against.
    pub fn poi_table(&self) -> &PoiTable {
        &self.table
    }

    /// Read-only view of the fleet's columnar state.
    pub fn fleet(&self) -> &FleetStore {
        &self.fleet
    }

    /// Wall-clock breakdown of the most recent run's epoch loop
    /// (advance / grid / query / snapshot), for perf attribution.
    /// Zeroed until a run completes. Available after *any* entry point,
    /// including the plain [`Simulation::run`]; the `run_*metrics`
    /// variants additionally copy it into the report's snapshot.
    pub fn phase_times(&self) -> PhaseTimes {
        self.phases
    }

    /// Runs the simulation to completion and returns the report.
    pub fn run(&mut self) -> SimReport {
        self.run_with(&mut NoopRecorder)
    }

    /// [`Simulation::run`] with a [`MetricsRecorder`] attached: the
    /// returned report's `metrics` field carries the aggregated trace
    /// view (per-event counters plus tuning/latency percentiles over
    /// *every* query, peer-resolved ones included as zeros).
    pub fn run_metrics(&mut self) -> SimReport {
        let mut rec = MetricsRecorder::new();
        let mut report = self.run_engine(Driver::Sequential(&mut rec));
        let mut snapshot = rec.snapshot();
        snapshot.phases = self.phases;
        report.metrics = Some(snapshot);
        report
    }

    /// [`Simulation::run`], tracing every query's resolution path into
    /// `rec`. The recorder observes but never steers: a run with any
    /// recorder produces the same [`SimReport`] as a plain [`run`] —
    /// bit-identical, as the umbrella crate's golden test asserts.
    ///
    /// Events are traced in commit order (host-id order within each
    /// epoch), which is also deterministic.
    ///
    /// [`run`]: Simulation::run
    pub fn run_with(&mut self, rec: &mut dyn Recorder) -> SimReport {
        self.run_engine(Driver::Sequential(rec))
    }

    /// Runs sequentially while recording the full workload into a
    /// [`TrafficTrace`]: per-epoch fleet state (positions, online flags,
    /// churn transitions) plus every query's inputs *and* its
    /// oracle-checked answer (POI ids + [`AnswerQuality`]). The report
    /// is bit-identical to a plain [`Simulation::run`]; the trace is
    /// what `airshare-serve`'s replay client drives against the live
    /// service, asserting answer-set parity.
    pub fn run_recording(&mut self) -> (SimReport, TrafficTrace) {
        let mut trace = TrafficTrace {
            seed: self.cfg.seed,
            hosts: self.cfg.params.mh_number,
            epoch_min: self.cfg.epoch_min,
            ..TrafficTrace::default()
        };
        let mut noop = NoopRecorder;
        let report = self.run_engine(Driver::Recording {
            rec: &mut noop,
            trace: &mut trace,
        });
        // Per-epoch recording appends in host-id order; replay wants
        // global (nonce) order, which is also time order.
        trace.queries.sort_by_key(|q| q.nonce);
        (report, trace)
    }

    /// Runs the simulation with each epoch's host shards fanned out
    /// across `pool`'s workers.
    ///
    /// The report is **bit-identical** to [`Simulation::run`] for every
    /// thread count (including 1): within an epoch shards share no
    /// mutable state, every RNG draw comes from a seed-split
    /// per-`(host, epoch)` stream, and outcomes are committed in global
    /// event order at the barrier. Scheduling affects only wall-clock
    /// time. `tests/parallel.rs` asserts this end to end.
    pub fn run_parallel(&mut self, pool: &ExecPool) -> SimReport {
        self.run_engine(Driver::Parallel { pool })
    }

    /// [`Simulation::run_parallel`] with per-worker [`MetricsRecorder`]s:
    /// each worker records into its own shard, and the shards are merged
    /// associatively into the report's `metrics` snapshot — equal to the
    /// snapshot a sequential [`Simulation::run_metrics`] produces.
    pub fn run_parallel_metrics(&mut self, pool: &ExecPool) -> SimReport {
        let mut recorders: Vec<MetricsRecorder> =
            (0..pool.threads()).map(|_| MetricsRecorder::new()).collect();
        let mut report = self.run_engine(Driver::ParallelMetrics {
            pool,
            recorders: &mut recorders,
        });
        let mut merged = MetricsRecorder::new();
        for rec in &recorders {
            merged.merge(rec);
        }
        let mut snapshot = merged.snapshot();
        snapshot.phases = self.phases;
        report.metrics = Some(snapshot);
        report
    }

    /// The epoch loop shared by every public entry point.
    ///
    /// Per epoch: rebuild the neighbor grid at the epoch boundary,
    /// snapshot the committed caches, move each active host's state into
    /// its shard task, execute the shards (inline or on the pool), then
    /// commit state back in host-id order and fold outcomes in global
    /// event order.
    fn run_engine(&mut self, driver: Driver<'_>) -> SimReport {
        // Per-worker `(recorder, scratch)` state, hoisted out of the
        // epoch loop: the scratch buffers reach their high-water marks
        // during warm-up and every later index-path query runs without
        // heap allocation.
        enum Workers<'d> {
            Sequential(&'d mut dyn Recorder, QueryScratch),
            Recording(&'d mut dyn Recorder, QueryScratch, &'d mut TrafficTrace),
            Parallel(&'d ExecPool, Vec<(NoopRecorder, QueryScratch)>),
            ParallelMetrics(&'d ExecPool, Vec<(&'d mut MetricsRecorder, QueryScratch)>),
        }
        // The pool the *fleet* phases (advance, churn application) fan
        // out on — the same pool the query shards use. Sequential and
        // recording drivers advance inline.
        let fleet_pool: Option<ExecPool> = match &driver {
            Driver::Parallel { pool } => Some((*pool).clone()),
            Driver::ParallelMetrics { pool, .. } => Some((*pool).clone()),
            _ => None,
        };
        let mut workers = match driver {
            Driver::Sequential(rec) => Workers::Sequential(rec, QueryScratch::new()),
            Driver::Recording { rec, trace } => {
                Workers::Recording(rec, QueryScratch::new(), trace)
            }
            Driver::Parallel { pool } => Workers::Parallel(
                pool,
                (0..pool.threads())
                    .map(|_| (NoopRecorder, QueryScratch::new()))
                    .collect(),
            ),
            Driver::ParallelMetrics { pool, recorders } => Workers::ParallelMetrics(
                pool,
                recorders
                    .iter_mut()
                    .map(|r| (r, QueryScratch::new()))
                    .collect(),
            ),
        };

        let cfg = self.cfg.clone();
        let range = meters_to_miles(cfg.params.tx_range_m);
        let cell = range.max(1e-3);
        let epoch_len = cfg.epoch_min;

        let mut scheduler =
            QueryScheduler::new(cfg.params.query_rate, cfg.params.mh_number, cfg.seed ^ 0xA5);
        let horizon = cfg.total_min();

        if let Workers::Recording(_, _, trace) = &mut workers {
            // Pristine churn-plan state: who is on the air before the
            // first epoch's transitions apply.
            trace.initial_online = self.fleet.online.clone();
        }

        let mut report = SimReport::default();
        let mut phases = PhaseTimes::default();
        // The neighbor grid is *retained* across epochs: laid out over
        // the world's extent once, then rebuilt in place at each
        // boundary by a counting sort over its retained buffers. No
        // per-epoch position clone, no allocation once warm.
        let mut grid = NeighborGrid::with_bounds(&self.world, cell, cfg.params.mh_number);
        // The committed cache state peers observe, maintained
        // *incrementally*: cloned whole once, then only hosts whose
        // cache changed (a commit or a crash wipe) are re-cloned at the
        // next boundary. `HostCache::clone_from` reuses the snapshot's
        // buffers, so a warm steady state refreshes without allocating.
        let mut snapshot: Vec<HostCache> = self.fleet.caches.clone();
        let mut dirty: Vec<usize> = Vec::new();
        // Events are pulled from the scheduler one epoch at a time into
        // a reused buffer — memory stays O(hosts + live epoch) instead
        // of materializing the whole run's event list. The draw sequence
        // (time, then host, per event) is exactly what a full
        // `events_until(horizon)` would have produced.
        let mut epoch_events: Vec<QueryEvent> = Vec::new();
        let mut next_index: u64 = 0;
        // Recording keeps the previous epoch's recorded positions so
        // the trace can carry per-epoch *deltas* instead of full
        // position vectors.
        let mut last_rec_positions: Option<Vec<Point>> = None;
        while scheduler.peek_time() < horizon {
            let first = scheduler.next_query();
            let epoch = (first.time / epoch_len) as u64;
            epoch_events.clear();
            epoch_events.push(first);
            while scheduler.peek_time() < horizon
                && (scheduler.peek_time() / epoch_len) as u64 == epoch
            {
                epoch_events.push(scheduler.next_query());
            }

            // Churn transitions due at or before this epoch's boundary
            // (epochs without events are caught up lazily). This serial
            // pass records events and counters in plan order —
            // identically under every driver, so trace logs stay
            // byte-identical — and *collects* the per-host state
            // mutations for the chunked fleet-advance pass below.
            let t_phase = Instant::now();
            let mut epoch_churn: Vec<(u32, u64, bool)> = Vec::new();
            let mut transitions: Vec<(usize, u64, bool)> = Vec::new();
            while self.churn_cursor < self.churn_plan.len()
                && self.churn_plan[self.churn_cursor].0 <= epoch
            {
                let (e, h, up) = self.churn_plan[self.churn_cursor];
                self.churn_cursor += 1;
                transitions.push((h, e, up));
                let event = if up {
                    report.hosts_restarted += 1;
                    TraceEvent::HostRestarted {
                        host: h as u32,
                        epoch: e,
                    }
                } else {
                    // Crash wipes all volatile state; the peer-visible
                    // snapshot must reflect the wipe this epoch.
                    dirty.push(h);
                    report.hosts_crashed += 1;
                    TraceEvent::HostCrashed {
                        host: h as u32,
                        epoch: e,
                    }
                };
                match &mut workers {
                    Workers::Sequential(rec, _) => rec.record(event),
                    Workers::Recording(rec, _, _) => {
                        // The trace keeps the *planned* epoch `e`, not the
                        // barrier epoch: a restart's sync clock is pinned
                        // to when the host actually came online.
                        epoch_churn.push((h as u32, e, up));
                        rec.record(event);
                    }
                    Workers::Parallel(..) => {}
                    Workers::ParallelMetrics(_, ctxs) => {
                        if let Some((rec, _)) = ctxs.first_mut() {
                            rec.record(event);
                        }
                    }
                }
            }

            // Grid positions at the epoch boundary; clamped to the first
            // event so host clocks never run backwards on the boundary's
            // floating-point edge. The stable host sort keeps each
            // host's transitions in plan (epoch) order, so the chunked
            // pass lands on the same final state the in-order walk did.
            let t_build = (epoch as f64 * epoch_len).min(epoch_events[0].time);
            transitions.sort_by_key(|&(h, _, _)| h);
            advance_fleet(
                &mut self.hosts,
                &mut self.fleet,
                &transitions,
                t_build,
                epoch_len,
                fleet_pool.as_ref(),
            );
            phases.advance_ns += t_phase.elapsed().as_nanos() as u64;
            if let Workers::Recording(_, _, trace) = &mut workers {
                // Position deltas against the previous recorded epoch:
                // the first record carries every host, later ones only
                // hosts whose position actually changed (a paused
                // waypoint host costs nothing).
                let moved: Vec<(u32, Point)> = match &mut last_rec_positions {
                    None => {
                        last_rec_positions = Some(self.fleet.positions.clone());
                        self.fleet
                            .positions
                            .iter()
                            .enumerate()
                            .map(|(h, &p)| (h as u32, p))
                            .collect()
                    }
                    Some(prev) => self
                        .fleet
                        .positions
                        .iter()
                        .zip(prev.iter_mut())
                        .enumerate()
                        .filter_map(|(h, (&now, old))| {
                            (now != *old).then(|| {
                                *old = now;
                                (h as u32, now)
                            })
                        })
                        .collect(),
                };
                trace.epochs.push(EpochRecord {
                    epoch,
                    moved,
                    online: self.fleet.online.clone(),
                    churn: std::mem::take(&mut epoch_churn),
                });
            }
            let t_phase = Instant::now();
            grid.refresh_active(&self.fleet.positions, &self.fleet.online);
            phases.grid_ns += t_phase.elapsed().as_nanos() as u64;

            // Refresh the peer-visible snapshot: only hosts dirtied
            // since the last boundary (commits and crash wipes). A
            // host's *own* inserts stay visible to itself immediately;
            // everyone else sees them from the next epoch on.
            let t_phase = Instant::now();
            dirty.sort_unstable();
            dirty.dedup();
            for &h in &dirty {
                snapshot[h].clone_from(&self.fleet.caches[h]);
            }
            dirty.clear();
            phases.snapshot_ns += t_phase.elapsed().as_nanos() as u64;

            // Shard by host: all of one host's events stay on one worker,
            // in time order. BTreeMap gives host-id task order. Offline
            // hosts pose no queries — their events vanish, but the
            // global index numbering `(i + k)` is untouched, so the
            // fold order of surviving outcomes is churn-independent.
            let t_phase = Instant::now();
            let mut by_host: BTreeMap<usize, Vec<(u64, f64)>> = BTreeMap::new();
            for (k, ev) in epoch_events.iter().enumerate() {
                if !self.fleet.online[ev.host] {
                    continue;
                }
                by_host
                    .entry(ev.host)
                    .or_default()
                    .push((next_index + k as u64, ev.time));
            }
            let tasks: Vec<HostTask> = by_host
                .into_iter()
                .map(|(host, evs)| HostTask {
                    host,
                    mobility: std::mem::replace(&mut self.hosts[host], HostMobility::Vacant),
                    cache: std::mem::replace(
                        &mut self.fleet.caches[host],
                        HostCache::new(0, cfg.policy),
                    ),
                    rng: SmallRng::seed_from_u64(split_seed(
                        cfg.seed ^ WINDOW_SEED_SALT,
                        host as u64,
                        epoch,
                    )),
                    sync: self.fleet.sync_state(host),
                    quarantine: std::mem::replace(
                        &mut self.fleet.quarantines[host],
                        QuarantineLedger::new(QuarantineConfig::default(), 0),
                    ),
                    events: evs,
                })
                .collect();

            let ctx = EpochCtx {
                cfg: &cfg,
                world: &self.world,
                table: &self.table,
                index: self.index.as_ref(),
                schedule: &self.schedule,
                oracle: &self.oracle,
                faults: self.faults.as_ref(),
                grid: &grid,
                snapshot: &snapshot,
                range,
                epoch,
                outage: &self.outage,
            };
            let done: Vec<HostDone> = match &mut workers {
                Workers::Sequential(rec, scratch) => {
                    let mut v = Vec::with_capacity(tasks.len());
                    for task in tasks {
                        v.push(ctx.run_host(task, scratch, &mut **rec, None));
                    }
                    v
                }
                Workers::Recording(rec, scratch, trace) => {
                    let mut v = Vec::with_capacity(tasks.len());
                    for task in tasks {
                        v.push(ctx.run_host(
                            task,
                            scratch,
                            &mut **rec,
                            Some(&mut trace.queries),
                        ));
                    }
                    v
                }
                Workers::Parallel(pool, ctxs) => {
                    pool.map_with(ctxs, tasks, |(rec, scratch), _, task| {
                        ctx.run_host(task, scratch, rec, None)
                    })
                }
                Workers::ParallelMetrics(pool, ctxs) => {
                    pool.map_with(ctxs, tasks, |(rec, scratch), _, task| {
                        ctx.run_host(task, scratch, &mut **rec, None)
                    })
                }
            };

            // Barrier: commit host state in host-id order (`map` returns
            // results in task order), then fold outcomes in global event
            // order so every accumulation is scheduling-independent.
            let mut outcomes: Vec<(u64, QueryOutcome)> = Vec::new();
            for d in done {
                self.hosts[d.host] = d.mobility;
                self.fleet.caches[d.host] = d.cache;
                self.fleet.set_sync_state(d.host, d.sync);
                self.fleet.quarantines[d.host] = d.quarantine;
                dirty.push(d.host);
                report.outage_resyncs += d.resyncs;
                outcomes.extend(d.outcomes);
            }
            outcomes.sort_by_key(|&(idx, _)| idx);
            for (_, o) in outcomes {
                fold_outcome(&mut report, cfg.calibration_cap, o);
            }
            phases.query_ns += t_phase.elapsed().as_nanos() as u64;
            next_index += epoch_events.len() as u64;
        }
        self.phases = phases;
        report
    }
}

impl EpochCtx<'_> {
    /// Runs one host's epoch shard: its events in time order, against
    /// the shared epoch snapshot, with all mutations host-local.
    ///
    /// Each event's query inputs (position, heading, window sample) are
    /// derived here from the host's mobility and window streams, then
    /// handed to the stream-free [`EpochCtx::process_query`]. When `tap`
    /// is set, every query's inputs and answer are captured as a
    /// [`RecordedQuery`] for service replay.
    fn run_host(
        &self,
        task: HostTask,
        scratch: &mut QueryScratch,
        rec: &mut dyn Recorder,
        mut tap: Option<&mut Vec<RecordedQuery>>,
    ) -> HostDone {
        let HostTask {
            host,
            mut mobility,
            mut cache,
            mut rng,
            mut sync,
            mut quarantine,
            events,
        } = task;
        let mut outcomes = Vec::new();
        let mut resyncs = 0u64;
        for (idx, t) in events {
            let qpos = mobility.position_at(t);
            let heading = mobility.heading_at(t);
            // The per-(host, epoch) stream's only consumer is window
            // sampling, so drawing here (instead of mid-query) leaves
            // the draw sequence untouched.
            let spec = match self.cfg.query_kind {
                QueryKind::Knn => QuerySpec::Knn {
                    k: self.cfg.params.knn_k,
                },
                QueryKind::Window => QuerySpec::Window {
                    rect: self.sample_window(qpos, &mut rng),
                },
            };
            let mut q = QueryHostState {
                host,
                cache: &mut cache,
                sync: &mut sync,
                quarantine: &mut quarantine,
                resyncs: &mut resyncs,
            };
            let mut answer = tap.as_deref_mut().map(|_| QueryAnswer {
                nonce: idx,
                host: host as u32,
                ids: Vec::new(),
                quality: AnswerQuality::Failed,
            });
            let out = self.process_query(
                idx,
                t,
                qpos,
                heading,
                &spec,
                &mut q,
                scratch,
                rec,
                answer.as_mut(),
            );
            if let Some(sink) = tap.as_deref_mut() {
                let ans = answer.expect("answer sink allocated when recording");
                sink.push(RecordedQuery {
                    nonce: idx,
                    host: host as u32,
                    at_min: t,
                    epoch: self.epoch,
                    pos: qpos,
                    heading,
                    spec,
                    ids: ans.ids,
                    quality: ans.quality,
                    measured: t >= self.cfg.warmup_min,
                });
            }
            if let Some(o) = out {
                outcomes.push((idx, o));
            }
        }
        HostDone {
            host,
            mobility,
            cache,
            sync,
            quarantine,
            resyncs,
            outcomes,
        }
    }

    /// Runs one host's slice of a *service* epoch batch: the same
    /// resolution path as [`EpochCtx::run_host`], but with every query's
    /// inputs supplied by the client instead of derived from mobility,
    /// and with an answer produced for every query.
    pub(crate) fn run_live_host(
        &self,
        task: LiveTask,
        scratch: &mut QueryScratch,
        rec: &mut dyn Recorder,
    ) -> LiveDone {
        let LiveTask {
            host,
            mut cache,
            mut sync,
            mut quarantine,
            queries,
        } = task;
        let mut outcomes = Vec::new();
        let mut answers = Vec::with_capacity(queries.len());
        let mut resyncs = 0u64;
        for item in queries {
            let mut q = QueryHostState {
                host,
                cache: &mut cache,
                sync: &mut sync,
                quarantine: &mut quarantine,
                resyncs: &mut resyncs,
            };
            let mut answer = QueryAnswer {
                nonce: item.nonce,
                host: host as u32,
                ids: Vec::new(),
                quality: AnswerQuality::Failed,
            };
            let out = self.process_query(
                item.nonce,
                item.at_min,
                item.pos,
                item.heading,
                &item.spec,
                &mut q,
                scratch,
                rec,
                Some(&mut answer),
            );
            if let Some(o) = out {
                outcomes.push((item.nonce, o));
            }
            answers.push(answer);
        }
        LiveDone {
            host,
            cache,
            sync,
            quarantine,
            resyncs,
            outcomes,
            answers,
        }
    }

    /// Resolves one query. Returns its contribution to the report, or
    /// `None` during warm-up (cache effects still apply).
    ///
    /// The query's inputs — position, heading, and the fully-sampled
    /// [`QuerySpec`] — are supplied by the caller (derived from mobility
    /// in the simulator, client-submitted in the serving layer), so this
    /// path is identical for both. When `answer` is set, the answer's
    /// POI ids and [`AnswerQuality`] are always filled in, warm-up or
    /// not: the service answers every query, while the report only
    /// counts measured ones.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn process_query(
        &self,
        nonce: u64,
        t: f64,
        qpos: Point,
        heading: Option<(f64, f64)>,
        spec: &QuerySpec,
        q: &mut QueryHostState<'_>,
        scratch: &mut QueryScratch,
        rec: &mut dyn Recorder,
        mut answer: Option<&mut QueryAnswer>,
    ) -> Option<QueryOutcome> {
        let cfg = self.cfg;
        let host = q.host;
        let measuring = t >= cfg.warmup_min;
        let tune_in = (t * cfg.ticks_per_min as f64) as u64;
        rec.begin_query(nonce, tune_in);
        let share_faults = ShareFaults {
            faults: self.faults,
            drop_prob: cfg.faults.peer_drop_prob,
            malform_prob: cfg.faults.peer_malform_prob,
            nonce,
        };
        // Base-station outage: membership is decided on the *epoch
        // number* — the same integer arithmetic that groups events —
        // so the sequential and parallel engines can never disagree on
        // a float edge.
        let silent = self.outage.is_silent(self.epoch);
        if silent {
            rec.record(TraceEvent::OutageBlocked { tick: tune_in });
        }

        // --- P2P gather against the epoch snapshot: peer positions from
        // the epoch-start grid, peer caches from the epoch-start commit.
        // The ε-staleness is bounded by the epoch length and is the price
        // of a racefree shard; replies still pass through drop decisions
        // (fault layer) and region validation, so a flaky or inconsistent
        // peer costs coverage, never correctness. ---
        let guard = Some((&mut *q.quarantine, self.epoch));
        let (replies, share) = if cfg.p2p_hops > 1 {
            airshare_p2p::gather_peer_data_multihop_guarded_rec(
                host,
                qpos,
                self.range,
                cfg.p2p_hops,
                CAT,
                self.grid,
                self.snapshot,
                self.table,
                Some(self.world),
                share_faults,
                guard,
                rec,
            )
        } else {
            airshare_p2p::gather_peer_data_guarded_rec(
                host,
                qpos,
                self.range,
                CAT,
                self.grid,
                self.snapshot,
                self.table,
                Some(self.world),
                share_faults,
                guard,
                rec,
            )
        };
        if cfg.use_own_cache {
            // Own reads are live — a host always trusts its freshest self.
            let own_regions = q.cache.region_count(CAT);
            if own_regions > 0 {
                rec.record(TraceEvent::CacheHit {
                    regions: own_regions as u32,
                });
            }
        }
        // Merge handle-level: peer regions first (reply order), then the
        // querier's own cache — all resolved once against the canonical
        // table, never materialized as owned POI vectors.
        let own = cfg
            .use_own_cache
            .then(|| q.cache.share_regions(CAT))
            .into_iter()
            .flatten();
        let mvr = MergedRegion::from_id_regions(
            self.table,
            replies
                .iter()
                .flat_map(|r| r.regions.iter().map(|(vr, ids)| (*vr, ids.as_slice())))
                .chain(own),
        );

        let client = match self.faults {
            Some(f) => OnAirClient::with_faults(self.index, self.schedule, f),
            None => OnAirClient::new(self.index, self.schedule),
        };
        let ctx = CacheContext {
            pos: qpos,
            heading,
            now: t,
        };

        match spec {
            QuerySpec::Knn { k } => {
                let sbnn_cfg = SbnnConfig {
                    k: *k,
                    accept_approx: cfg.accept_approx,
                    min_correctness: cfg.min_correctness,
                    lambda: cfg.params.poi_density(),
                    use_bound_filtering: cfg.use_bound_filtering,
                    vr_policy: cfg.vr_policy,
                    domain: cfg.clip_domain.then_some(*self.world),
                };
                let channel = (!silent).then_some((&client, tune_in));
                let res = match sbnn_rec(qpos, &sbnn_cfg, &mvr, channel, scratch, rec) {
                    SbnnOutcome::Resolved(res) => res,
                    SbnnOutcome::Unresolved(heap) => {
                        // Outage: no channel fallback. Serve whatever the
                        // merged peer/cache knowledge held, tagged Stale
                        // (or Failed when it held nothing).
                        q.sync.needs_resync = true;
                        q.cache.touch(CAT, &Rect::centered_square(qpos, self.range), t);
                        let entries = heap.entries();
                        let quality = if entries.is_empty() {
                            AnswerQuality::Failed
                        } else {
                            AnswerQuality::Stale
                        };
                        if let Some(a) = answer.as_deref_mut() {
                            a.ids = entries.iter().map(|c| c.poi.id).collect();
                            a.quality = quality;
                        }
                        if !measuring {
                            return None;
                        }
                        rec.record(TraceEvent::QueryQuality { quality });
                        let mut violation = false;
                        if cfg.validate && !entries.is_empty() {
                            // Chaos-oracle bound: a best-effort candidate
                            // set can only be farther than the truth.
                            let mut dists: Vec<f64> =
                                entries.iter().map(|c| c.distance).collect();
                            dists.sort_by(f64::total_cmp);
                            let truth = self.oracle.knn(qpos, dists.len());
                            violation = dists
                                .iter()
                                .zip(&truth)
                                .any(|(d, b)| *d + 1e-9 < b.distance);
                            debug_assert!(
                                !violation,
                                "stale kNN answer beat ground truth at t={t}"
                            );
                        }
                        return Some(QueryOutcome {
                            share,
                            quality,
                            stale_age_min: (t - q.sync.last_sync_min).max(0.0),
                            bound_violation: violation,
                            resolution: if quality == AnswerQuality::Failed {
                                Resolution::Broadcast
                            } else {
                                Resolution::Peers
                            },
                            air: None,
                            baseline: None,
                            filter_saved: 0,
                            window_coverage: None,
                            calibration: None,
                            mismatch: false,
                        });
                    }
                };
                let degraded = res.air.is_some_and(|a| a.is_degraded());
                if res.air.is_some() {
                    self.note_sync(q, t, rec);
                }

                // A degraded retrieval may be missing POIs; adopting its
                // region would cache an incomplete "verified" claim and
                // poison every peer it is later shared with.
                if !degraded {
                    if let Some((vr, pois)) = &res.adoptable {
                        let ids: Vec<PoiId> = pois.iter().map(Poi::handle).collect();
                        q.cache.insert_ids_rec(self.table, CAT, *vr, &ids, t, &ctx, rec);
                    }
                }
                q.cache.touch(CAT, &Rect::centered_square(qpos, self.range), t);

                let quality = if degraded {
                    AnswerQuality::Degraded
                } else {
                    AnswerQuality::Exact
                };
                if let Some(a) = answer.as_deref_mut() {
                    a.ids = res.neighbors.iter().map(|n| n.poi.id).collect();
                    a.quality = quality;
                }
                if !measuring {
                    return None;
                }
                rec.record(TraceEvent::QueryQuality { quality });
                let mut out = QueryOutcome {
                    share,
                    quality,
                    stale_age_min: 0.0,
                    bound_violation: false,
                    resolution: match res.resolved_by {
                        ResolvedBy::PeersVerified => Resolution::Peers,
                        ResolvedBy::PeersApproximate => Resolution::Approx,
                        ResolvedBy::Broadcast => Resolution::Broadcast,
                    },
                    air: res.air,
                    baseline: None,
                    filter_saved: 0,
                    window_coverage: None,
                    calibration: None,
                    mismatch: false,
                };
                // What the pure on-air algorithm would have paid (not
                // defined during an outage — the baseline host faces
                // the same silent channel).
                if !silent {
                    if let Some(base) =
                        client.knn_rec(tune_in, qpos, sbnn_cfg.k, scratch, &mut NoopRecorder)
                    {
                        out.baseline = Some((base.stats.latency, base.stats.tuning));
                        if let Some(air) = res.air {
                            debug_assert!(
                                air.buckets <= base.stats.buckets,
                                "bound filtering fetched more than a cold query"
                            );
                            out.filter_saved = base.stats.buckets.saturating_sub(air.buckets);
                        }
                    }
                }
                if cfg.validate && !degraded {
                    let truth = self.oracle.knn(qpos, res.neighbors.len());
                    let matches = res
                        .neighbors
                        .iter()
                        .zip(&truth)
                        .all(|(a, b)| (a.distance - b.distance).abs() < 1e-9);
                    match res.resolved_by {
                        ResolvedBy::PeersApproximate => {
                            let min_c = res
                                .neighbors
                                .iter()
                                .filter(|n| !n.verified)
                                .filter_map(|n| n.correctness)
                                .fold(1.0_f64, f64::min);
                            out.calibration = Some((min_c, matches));
                        }
                        _ => out.mismatch = !matches,
                    }
                } else if cfg.validate {
                    // Degraded bound: lost buckets can only *remove*
                    // candidates, so every returned distance must
                    // dominate the corresponding true distance.
                    let truth = self.oracle.knn(qpos, res.neighbors.len());
                    out.bound_violation = res
                        .neighbors
                        .iter()
                        .zip(&truth)
                        .any(|(a, b)| a.distance + 1e-9 < b.distance);
                    debug_assert!(
                        !out.bound_violation,
                        "degraded kNN answer beat ground truth at t={t}"
                    );
                }
                Some(out)
            }
            QuerySpec::Window { rect } => {
                let w = *rect;
                let sbwq_cfg = SbwqConfig {
                    use_window_reduction: cfg.use_window_reduction,
                };
                let channel = (!silent).then_some((&client, tune_in));
                let res = match sbwq_rec(&w, &sbwq_cfg, &mvr, channel, scratch, rec) {
                    SbwqOutcome::Resolved(res) => res,
                    SbwqOutcome::Unresolved { partial, missing } => {
                        // Outage: answer from the covered sub-windows only.
                        // The answer is a *subset* of the truth; its
                        // quality depends on how much area peers covered.
                        q.sync.needs_resync = true;
                        q.cache.touch(CAT, &w, t);
                        let wa = w.area();
                        let coverage = if wa > 0.0 {
                            let miss: f64 = missing.iter().map(Rect::area).sum();
                            (1.0 - miss / wa).clamp(0.0, 1.0)
                        } else {
                            0.0
                        };
                        let quality = if coverage > 1e-9 {
                            AnswerQuality::Stale
                        } else {
                            AnswerQuality::Failed
                        };
                        if let Some(a) = answer.as_deref_mut() {
                            a.ids = partial.iter().map(|p| p.id).collect();
                            a.quality = quality;
                        }
                        if !measuring {
                            return None;
                        }
                        rec.record(TraceEvent::QueryQuality { quality });
                        let mut violation = false;
                        if cfg.validate && !partial.is_empty() {
                            // Chaos-oracle bound: a partial window answer
                            // must be a subset of the ground truth.
                            let mut want: Vec<u32> = self
                                .oracle
                                .window(&w)
                                .into_iter()
                                .map(|(_, &id)| id)
                                .collect();
                            want.sort_unstable();
                            violation = partial
                                .iter()
                                .any(|p| want.binary_search(&p.id).is_err());
                            debug_assert!(
                                !violation,
                                "partial window answer left ground truth at t={t}"
                            );
                        }
                        return Some(QueryOutcome {
                            share,
                            quality,
                            stale_age_min: (t - q.sync.last_sync_min).max(0.0),
                            bound_violation: violation,
                            resolution: if quality == AnswerQuality::Failed {
                                Resolution::Broadcast
                            } else {
                                Resolution::Peers
                            },
                            air: None,
                            baseline: None,
                            filter_saved: 0,
                            window_coverage: None,
                            calibration: None,
                            mismatch: false,
                        });
                    }
                };
                let degraded = res.air.is_some_and(|a| a.is_degraded());
                if res.air.is_some() {
                    self.note_sync(q, t, rec);
                }

                // A resolved window is fully known: cache it — unless
                // retrieval lost buckets, in which case the window may be
                // missing POIs and must not become a verified region.
                if !degraded {
                    let ids: Vec<PoiId> = res.pois.iter().map(Poi::handle).collect();
                    q.cache.insert_ids_rec(self.table, CAT, w, &ids, t, &ctx, rec);
                }
                q.cache.touch(CAT, &w, t);

                let quality = if degraded {
                    AnswerQuality::Degraded
                } else {
                    AnswerQuality::Exact
                };
                if let Some(a) = answer {
                    a.ids = res.pois.iter().map(|p| p.id).collect();
                    a.quality = quality;
                }
                if !measuring {
                    return None;
                }
                rec.record(TraceEvent::QueryQuality { quality });
                let (resolution, window_coverage) = match res.resolved_by {
                    ResolvedBy::PeersVerified => (Resolution::Peers, None),
                    _ => (Resolution::Broadcast, Some(res.coverage)),
                };
                let baseline = (!silent).then(|| {
                    let base = client.window_rec(tune_in, &w, scratch, &mut NoopRecorder);
                    (base.stats.latency, base.stats.tuning)
                });
                let mut out = QueryOutcome {
                    share,
                    quality,
                    stale_age_min: 0.0,
                    bound_violation: false,
                    resolution,
                    air: res.air,
                    baseline,
                    filter_saved: 0,
                    window_coverage,
                    calibration: None,
                    mismatch: false,
                };
                if cfg.validate {
                    let mut got: Vec<u32> = res.pois.iter().map(|p| p.id).collect();
                    got.sort_unstable();
                    let mut want: Vec<u32> = self
                        .oracle
                        .window(&w)
                        .into_iter()
                        .map(|(_, &id)| id)
                        .collect();
                    want.sort_unstable();
                    if !degraded {
                        out.mismatch = got != want;
                    } else {
                        // Degraded bound: lost buckets only drop POIs,
                        // so the answer must stay a subset of the truth.
                        out.bound_violation =
                            got.iter().any(|id| want.binary_search(id).is_err());
                        debug_assert!(
                            !out.bound_violation,
                            "degraded window answer left ground truth at t={t}"
                        );
                    }
                }
                Some(out)
            }
        }
    }

    /// Marks a successful channel access: refreshes the host's sync
    /// clock and, if it was answering through an outage or restart,
    /// records the resynchronization.
    fn note_sync(&self, q: &mut QueryHostState<'_>, t: f64, rec: &mut dyn Recorder) {
        q.sync.last_sync_min = t;
        if q.sync.needs_resync {
            q.sync.needs_resync = false;
            *q.resyncs += 1;
            rec.record(TraceEvent::Resynced {
                host: q.host as u32,
            });
        }
    }

    /// Samples a query window per Table 4: mean area = `window_pct` % of
    /// the search space; centre at a normally-distributed distance from
    /// the host in a uniform direction, clamped into the world. Draws
    /// come from the caller's `(host, epoch)` stream.
    fn sample_window(&self, qpos: Point, rng: &mut SmallRng) -> Rect {
        let p = &self.cfg.params;
        let side = (p.window_pct / 100.0).sqrt() * p.world_mi;
        let dist = sample_normal(rng, p.distance_mi, p.distance_mi / 3.0).abs();
        let theta = rng.gen_range(0.0..std::f64::consts::TAU);
        let center = self.world.clamp_point(Point::new(
            qpos.x + dist * theta.cos(),
            qpos.y + dist * theta.sin(),
        ));
        let half = side / 2.0;
        let w = Rect::centered_square(center, half);
        w.intersection(self.world).unwrap_or(w)
    }
}

/// One contiguous host range of the fleet's columns, plus the churn
/// transitions that fall inside it — the unit of work for the parallel
/// fleet-advance pass.
struct AdvanceChunk<'a> {
    /// First host id in the chunk (columns below are `start`-offset).
    start: usize,
    mobility: &'a mut [HostMobility],
    online: &'a mut [bool],
    last_sync_min: &'a mut [f64],
    needs_resync: &'a mut [bool],
    caches: &'a mut [HostCache],
    quarantines: &'a mut [QuarantineLedger],
    positions: &'a mut [Point],
    /// `(host, planned_epoch, comes_online)`, sorted by host with each
    /// host's transitions in plan (epoch) order.
    transitions: &'a [(usize, u64, bool)],
}

/// Applies one epoch boundary to the whole fleet: the collected churn
/// transitions (state mutations only — events and counters were already
/// recorded serially, in plan order, by the caller) and the mobility
/// advance to `t_build`. Positions are advanced for *every* host —
/// offline ones included — so mobility streams stay aligned across
/// churn configurations; offline hosts are merely undiscoverable.
///
/// Hosts are mutually independent here: every mutation touches only
/// host-indexed state, and each host's own transitions arrive in epoch
/// order. The work is therefore chunked over contiguous host ranges and
/// fanned out on `pool` when one is supplied — chunk scheduling cannot
/// affect the result, which is bit-identical to the sequential column
/// walk for any chunking and any thread count.
fn advance_fleet(
    hosts: &mut [HostMobility],
    fleet: &mut FleetStore,
    transitions: &[(usize, u64, bool)],
    t_build: f64,
    epoch_len: f64,
    pool: Option<&ExecPool>,
) {
    let n = hosts.len();
    let apply = |c: &mut AdvanceChunk<'_>| {
        for &(h, e, up) in c.transitions {
            let i = h - c.start;
            if up {
                // Came online cold: nothing cached, channel unheard.
                c.online[i] = true;
                c.last_sync_min[i] = e as f64 * epoch_len;
                c.needs_resync[i] = true;
            } else {
                // Crash wipes all volatile state (the caller already
                // marked the host dirty for the snapshot refresh).
                c.online[i] = false;
                c.caches[i].clear();
                c.quarantines[i].clear();
            }
        }
        for (i, m) in c.mobility.iter_mut().enumerate() {
            c.positions[i] = m.position_at(t_build);
        }
    };

    let threads = pool.map_or(1, ExecPool::threads);
    if threads <= 1 || n < 4096 {
        apply(&mut AdvanceChunk {
            start: 0,
            mobility: hosts,
            online: &mut fleet.online,
            last_sync_min: &mut fleet.last_sync_min,
            needs_resync: &mut fleet.needs_resync,
            caches: &mut fleet.caches,
            quarantines: &mut fleet.quarantines,
            positions: &mut fleet.positions,
            transitions,
        });
        return;
    }

    // Oversplit ~4× past the worker count so stealing can level uneven
    // chunks (waypoint hosts mid-pause advance much faster than ones
    // mid-leg).
    let chunk_len = n.div_ceil(threads * 4).max(1024);
    let mut chunks: Vec<AdvanceChunk<'_>> = Vec::with_capacity(n.div_ceil(chunk_len));
    let mut rest = (
        hosts,
        fleet.online.as_mut_slice(),
        fleet.last_sync_min.as_mut_slice(),
        fleet.needs_resync.as_mut_slice(),
        fleet.caches.as_mut_slice(),
        fleet.quarantines.as_mut_slice(),
        fleet.positions.as_mut_slice(),
    );
    let mut tr = transitions;
    let mut start = 0usize;
    while start < n {
        let len = chunk_len.min(n - start);
        let (mob, mob_rest) = rest.0.split_at_mut(len);
        let (onl, onl_rest) = rest.1.split_at_mut(len);
        let (lsm, lsm_rest) = rest.2.split_at_mut(len);
        let (nrs, nrs_rest) = rest.3.split_at_mut(len);
        let (cch, cch_rest) = rest.4.split_at_mut(len);
        let (qua, qua_rest) = rest.5.split_at_mut(len);
        let (pos, pos_rest) = rest.6.split_at_mut(len);
        let cut = tr.partition_point(|&(h, _, _)| h < start + len);
        let (mine, later) = tr.split_at(cut);
        tr = later;
        chunks.push(AdvanceChunk {
            start,
            mobility: mob,
            online: onl,
            last_sync_min: lsm,
            needs_resync: nrs,
            caches: cch,
            quarantines: qua,
            positions: pos,
            transitions: mine,
        });
        rest = (mob_rest, onl_rest, lsm_rest, nrs_rest, cch_rest, qua_rest, pos_rest);
        start += len;
    }
    pool.expect("threads > 1 implies a pool")
        .map(chunks, |_, mut c| apply(&mut c));
}

/// Order-preserving parallel initialization: `(0..n).map(f).collect()`
/// fanned out over `pool` in contiguous chunks. `f` must be a pure
/// function of the index (every per-host constructor in this crate is —
/// seeds are split per host, never drawn from a shared stream), which
/// makes the result independent of chunking and thread count.
fn par_init<T: Send>(pool: &ExecPool, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if pool.threads() <= 1 || n < 4096 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(pool.threads() * 4).max(1024);
    let ranges: Vec<(usize, usize)> = (0..n)
        .step_by(chunk)
        .map(|s| (s, (s + chunk).min(n)))
        .collect();
    pool.map(ranges, |_, (s, e)| (s..e).map(&f).collect::<Vec<T>>())
        .into_iter()
        .flatten()
        .collect()
}

/// Everything the base-station side of a run owns, minus the fleet's
/// mobility. Built identically for the closed-loop [`Simulation`] and
/// the serving layer's [`crate::LiveWorld`]: same POI draws, same
/// backend build, same fault/outage/quarantine seeds — so both resolve
/// queries over the *same* world and replay parity is structural.
pub(crate) struct WorldCore {
    pub(crate) world: Rect,
    /// The canonical POI table (dense: ids are `0..poi_number`).
    pub(crate) table: PoiTable,
    pub(crate) index: Box<dyn AirIndexBackend>,
    pub(crate) schedule: Schedule,
    pub(crate) oracle: RTree<u32>,
    pub(crate) faults: Option<ChannelFaults>,
    pub(crate) outage: OutageSchedule,
    /// Columnar per-host state: everyone online, at the origin, in
    /// sync, with empty caches and pristine ledgers. Callers overwrite
    /// the online column with their own admission policy.
    pub(crate) fleet: FleetStore,
}

/// Builds the shared world: POIs placed uniformly at random (the
/// paper's Poisson-field assumption), the air index behind the
/// configured backend, the `(1, m)` schedule, the ground-truth R-tree,
/// and per-host caches/sync/quarantine state. Validates the
/// configuration first.
pub(crate) fn build_world_core(cfg: &SimConfig) -> Result<WorldCore, ConfigError> {
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
        online: vec![true; n],
        positions: vec![Point::new(0.0, 0.0); n],
        last_sync_min: vec![0.0; n],
        needs_resync: vec![false; n],
        caches,
        quarantines,
    };
    Ok(WorldCore {
        world,
        table,
        index,
        schedule,
        oracle,
        faults,
        outage,
        fleet,
    })
}

/// Precomputes the churn schedule: each host's initial online flag and
/// the full list of crash/restart/join transitions, sorted by
/// `(epoch, host)`.
///
/// Every decision is hashed from the master seed per `(host, epoch)` —
/// no RNG stream is consumed, so an inert [`crate::ChurnConfig`] leaves
/// the run bit-identical to a churn-free build. The plan is applied
/// sequentially in the epoch loop by both the sequential and parallel
/// drivers, which keeps `run_parallel` deterministic for free.
fn plan_churn(cfg: &SimConfig) -> (Vec<bool>, Vec<(u64, usize, bool)>) {
    let n = cfg.params.mh_number;
    if cfg.churn.is_inert() {
        return (vec![true; n], Vec::new());
    }
    let total_epochs = (cfg.total_min() / cfg.epoch_min).ceil() as u64 + 1;
    let late = ((n as f64) * cfg.churn.late_join_frac.clamp(0.0, 1.0)).floor() as usize;
    let join_span = total_epochs.saturating_sub(1).max(1);
    let decide = ChannelFaults::from_loss_prob(cfg.seed ^ CHURN_SEED_SALT, 0.0, 0);

    /// Where a host is in its churn lifecycle.
    enum Phase {
        /// Late joiner waiting for its admission epoch.
        NotJoined(u64),
        Online,
        Offline,
    }
    let mut phase: Vec<Phase> = (0..n)
        .map(|h| {
            if h >= n - late {
                let join =
                    1 + split_seed(cfg.seed ^ JOIN_SEED_SALT, h as u64, 0) % join_span;
                Phase::NotJoined(join)
            } else {
                Phase::Online
            }
        })
        .collect();
    let online: Vec<bool> = phase.iter().map(|p| matches!(p, Phase::Online)).collect();

    let mut plan = Vec::new();
    for e in 1..=total_epochs {
        for (h, ph) in phase.iter_mut().enumerate() {
            match ph {
                Phase::NotJoined(join) if *join == e => {
                    plan.push((e, h, true));
                    *ph = Phase::Online;
                }
                Phase::NotJoined(_) => {}
                Phase::Online => {
                    if decide.event_fires(cfg.churn.crash_prob, h as u64, e) {
                        plan.push((e, h, false));
                        *ph = Phase::Offline;
                    }
                }
                Phase::Offline => {
                    if decide.event_fires(cfg.churn.restart_prob, h as u64 ^ RESTART_KEY_SALT, e)
                    {
                        plan.push((e, h, true));
                        *ph = Phase::Online;
                    }
                }
            }
        }
    }
    (online, plan)
}

fn sample_normal(rng: &mut SmallRng, mean: f64, sd: f64) -> f64 {
    // Box–Muller.
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    mean + sd * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Folds one measured query into the report. Called in global event
/// order regardless of thread count.
pub(crate) fn fold_outcome(report: &mut SimReport, calibration_cap: usize, o: QueryOutcome) {
    report.queries.total += 1;
    report.record_share(&o.share);
    if o.quality == AnswerQuality::Degraded {
        report.faults.queries_degraded += 1;
    }
    report.record_quality(o.quality, o.stale_age_min);
    if o.bound_violation {
        report.bound_violations += 1;
    }
    match o.resolution {
        Resolution::Peers => report.queries.by_peers += 1,
        Resolution::Approx => report.queries.by_approx += 1,
        Resolution::Broadcast => report.queries.by_broadcast += 1,
    }
    if let Some(air) = o.air {
        report.record_air(air);
    }
    if let Some((latency, tuning)) = o.baseline {
        report.baseline_latency.record(latency);
        report.baseline_tuning.record(tuning);
    }
    report.filter_saved_buckets += o.filter_saved;
    if let Some(cov) = o.window_coverage {
        report.partial_coverage_sum += cov;
        report.partial_coverage_count += 1;
    }
    if o.mismatch {
        report.exact_mismatches += 1;
    }
    if let Some(sample) = o.calibration {
        if report.calibration.len() < calibration_cap {
            report.calibration.push(sample);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChurnConfig;
    use crate::params;

    fn tiny_cfg(kind: QueryKind) -> SimConfig {
        let mut p = params::la_city().scaled(0.005); // ~2 mi² world
        p.cache_size = 30;
        let mut cfg = SimConfig::paper_defaults(p, kind, 42);
        cfg.warmup_min = 5.0;
        cfg.measure_min = 10.0;
        cfg.validate = true;
        cfg.hilbert_order = 6;
        cfg
    }

    #[test]
    fn knn_simulation_answers_are_exact() {
        let mut sim = Simulation::try_new(tiny_cfg(QueryKind::Knn)).unwrap();
        let report = sim.run();
        assert!(report.queries.total > 20, "too few queries measured");
        assert_eq!(report.exact_mismatches, 0, "exact answers were wrong");
        // All resolution paths sum up.
        assert_eq!(
            report.queries.total,
            report.queries.by_peers + report.queries.by_approx + report.queries.by_broadcast
        );
        // Approximate answers were predicted with probability ≥ 0.5.
        for &(p, _) in &report.calibration {
            assert!(p >= 0.5 - 1e-9);
        }
    }

    #[test]
    fn window_simulation_answers_are_exact() {
        let mut sim = Simulation::try_new(tiny_cfg(QueryKind::Window)).unwrap();
        let report = sim.run();
        assert!(report.queries.total > 20);
        assert_eq!(report.exact_mismatches, 0);
        assert_eq!(report.queries.by_approx, 0, "windows have no approx tier");
        assert_eq!(
            report.queries.total,
            report.queries.by_peers + report.queries.by_broadcast
        );
    }

    #[test]
    fn sharing_reduces_latency_against_baseline() {
        let mut sim = Simulation::try_new(tiny_cfg(QueryKind::Knn)).unwrap();
        let report = sim.run();
        // The paper's headline: overall latency with sharing is below
        // the all-broadcast baseline (peer-solved queries cost ~0).
        assert!(
            report.overall_mean_latency() < report.baseline_latency.mean(),
            "sharing {} !< baseline {}",
            report.overall_mean_latency(),
            report.baseline_latency.mean()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let r1 = Simulation::try_new(tiny_cfg(QueryKind::Knn)).unwrap().run();
        let r2 = Simulation::try_new(tiny_cfg(QueryKind::Knn)).unwrap().run();
        assert_eq!(r1.queries.total, r2.queries.total);
        assert_eq!(r1.queries.by_peers, r2.queries.by_peers);
        assert_eq!(r1.broadcast_latency.sum, r2.broadcast_latency.sum);
    }

    #[test]
    fn run_parallel_is_bit_identical_to_run() {
        let sequential = Simulation::try_new(tiny_cfg(QueryKind::Knn)).unwrap().run();
        for threads in [1, 2, 4] {
            let parallel = Simulation::try_new(tiny_cfg(QueryKind::Knn))
                .unwrap()
                .run_parallel(&ExecPool::fixed(threads));
            assert_eq!(parallel, sequential, "threads={threads}");
        }
    }

    #[test]
    fn run_parallel_window_matches_run() {
        let sequential = Simulation::try_new(tiny_cfg(QueryKind::Window))
            .unwrap()
            .run();
        let parallel = Simulation::try_new(tiny_cfg(QueryKind::Window))
            .unwrap()
            .run_parallel(&ExecPool::fixed(3));
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn zero_range_disables_sharing() {
        let mut cfg = tiny_cfg(QueryKind::Knn);
        cfg.params.tx_range_m = 0.0;
        cfg.use_own_cache = false;
        let report = Simulation::try_new(cfg).unwrap().run();
        assert_eq!(report.queries.by_peers, 0);
        assert_eq!(report.queries.by_approx, 0);
        assert_eq!(report.queries.by_broadcast, report.queries.total);
        assert_eq!(report.exact_mismatches, 0);
    }

    #[test]
    fn multihop_sharing_reaches_more_peers() {
        let reach = |hops: usize| {
            let mut cfg = tiny_cfg(QueryKind::Knn);
            cfg.p2p_hops = hops;
            cfg.measure_min = 8.0;
            let r = Simulation::try_new(cfg).unwrap().run();
            assert_eq!(r.exact_mismatches, 0, "multihop broke exactness");
            (r.mean_peers_contacted(), r.queries.pct_peers() + r.queries.pct_approx())
        };
        let (peers1, solved1) = reach(1);
        let (peers3, solved3) = reach(3);
        assert!(
            peers3 > peers1 * 1.5,
            "3 hops ({peers3:.1} peers) should reach well beyond 1 hop ({peers1:.1})"
        );
        assert!(
            solved3 + 1e-9 >= solved1 * 0.9,
            "extra knowledge should not hurt: {solved3:.1}% vs {solved1:.1}%"
        );
    }

    #[test]
    fn try_new_surfaces_config_errors() {
        let mut cfg = tiny_cfg(QueryKind::Knn);
        cfg.bucket_capacity = 0;
        assert!(matches!(
            Simulation::try_new(cfg),
            Err(crate::ConfigError::ZeroBucketCapacity)
        ));
        assert!(Simulation::try_new(tiny_cfg(QueryKind::Knn)).is_ok());
    }

    #[test]
    fn inert_fault_config_is_bit_identical() {
        // Raising the retry budget (or any knob that keeps all rates at
        // zero) must not shift a single number: fault decisions are
        // hashed, not drawn from the simulation's RNG streams.
        let base = Simulation::try_new(tiny_cfg(QueryKind::Knn)).unwrap().run();
        let mut cfg = tiny_cfg(QueryKind::Knn);
        cfg.faults.retry_budget = 99;
        let with_inert = Simulation::try_new(cfg).unwrap().run();
        assert_eq!(base.queries.total, with_inert.queries.total);
        assert_eq!(base.queries.by_peers, with_inert.queries.by_peers);
        assert_eq!(base.queries.by_approx, with_inert.queries.by_approx);
        assert_eq!(base.broadcast_latency.sum, with_inert.broadcast_latency.sum);
        assert_eq!(base.broadcast_tuning.sum, with_inert.broadcast_tuning.sum);
        assert_eq!(base.share_pois, with_inert.share_pois);
        assert_eq!(with_inert.faults.retries_total, 0);
        assert_eq!(with_inert.faults.buckets_lost_total, 0);
        assert_eq!(with_inert.faults.queries_degraded, 0);
        assert_eq!(with_inert.faults.replies_dropped, 0);
    }

    #[test]
    fn lossy_channel_never_silently_wrong() {
        // Deep retry budget: every loss is recovered, answers stay exact.
        let mut cfg = tiny_cfg(QueryKind::Knn);
        cfg.faults.bucket_loss_prob = 0.15;
        cfg.faults.retry_budget = 50;
        let recovered = Simulation::try_new(cfg).unwrap().run();
        assert!(recovered.faults.retries_total > 0, "15% loss produced no retries");
        assert_eq!(recovered.faults.buckets_lost_total, 0);
        assert_eq!(recovered.faults.queries_degraded, 0);
        assert_eq!(recovered.exact_mismatches, 0);

        // No retries allowed: losses surface as degraded queries, never
        // as validated-exact wrong answers.
        let mut cfg = tiny_cfg(QueryKind::Knn);
        cfg.faults.bucket_loss_prob = 0.3;
        cfg.faults.retry_budget = 0;
        let degraded = Simulation::try_new(cfg).unwrap().run();
        assert!(degraded.faults.buckets_lost_total > 0, "30% loss with no retries lost nothing");
        assert!(degraded.faults.queries_degraded > 0);
        assert_eq!(degraded.exact_mismatches, 0);
    }

    #[test]
    fn lossy_window_queries_stay_exact() {
        let mut cfg = tiny_cfg(QueryKind::Window);
        cfg.faults.bucket_loss_prob = 0.15;
        cfg.faults.retry_budget = 50;
        let report = Simulation::try_new(cfg).unwrap().run();
        assert!(report.faults.retries_total > 0);
        assert_eq!(report.faults.queries_degraded, 0);
        assert_eq!(report.exact_mismatches, 0);
    }

    #[test]
    fn dropped_peer_replies_degrade_to_broadcast() {
        let mut cfg = tiny_cfg(QueryKind::Knn);
        cfg.faults.peer_drop_prob = 1.0;
        cfg.use_own_cache = false;
        let report = Simulation::try_new(cfg).unwrap().run();
        assert!(report.faults.replies_dropped > 0, "total drop produced no drops");
        // With every reply lost and no own cache, nothing resolves by
        // peers — but every answer is still exact via the channel.
        assert_eq!(report.queries.by_peers, 0);
        assert_eq!(report.queries.by_approx, 0);
        assert_eq!(report.exact_mismatches, 0);
    }

    #[test]
    fn faulty_runs_are_deterministic_given_seed() {
        let cfg = || {
            let mut c = tiny_cfg(QueryKind::Knn);
            c.faults.bucket_loss_prob = 0.1;
            c.faults.peer_drop_prob = 0.1;
            c.faults.retry_budget = 2;
            c
        };
        let r1 = Simulation::try_new(cfg()).unwrap().run();
        let r2 = Simulation::try_new(cfg()).unwrap().run();
        assert_eq!(r1.queries.total, r2.queries.total);
        assert_eq!(r1.broadcast_latency.sum, r2.broadcast_latency.sum);
        assert_eq!(r1.faults.retries_total, r2.faults.retries_total);
        assert_eq!(r1.faults.buckets_lost_total, r2.faults.buckets_lost_total);
        assert_eq!(r1.faults.queries_degraded, r2.faults.queries_degraded);
        assert_eq!(r1.faults.replies_dropped, r2.faults.replies_dropped);
    }

    #[test]
    fn loss_raises_latency_monotonically() {
        let run = |loss: f64| {
            let mut cfg = tiny_cfg(QueryKind::Knn);
            cfg.validate = false;
            cfg.faults.bucket_loss_prob = loss;
            cfg.faults.retry_budget = 50;
            Simulation::try_new(cfg).unwrap().run().broadcast_latency.mean()
        };
        let (l0, l10, l20) = (run(0.0), run(0.10), run(0.20));
        assert!(l10 > l0, "10% loss should cost latency: {l10} !> {l0}");
        assert!(l20 > l10, "20% loss should cost more: {l20} !> {l10}");
    }

    #[test]
    fn grid_roads_mobility_runs() {
        let mut cfg = tiny_cfg(QueryKind::Knn);
        cfg.mobility = MobilityModel::GridRoads {
            spacing_milli_mi: 250,
        };
        cfg.measure_min = 5.0;
        let report = Simulation::try_new(cfg).unwrap().run();
        assert!(report.queries.total > 0);
        assert_eq!(report.exact_mismatches, 0);
    }

    /// The full chaos stack at once: host churn, two outage windows, and
    /// malforming peers.
    fn chaos_cfg(kind: QueryKind) -> SimConfig {
        let mut cfg = tiny_cfg(kind);
        cfg.churn = ChurnConfig {
            crash_prob: 0.05,
            restart_prob: 0.4,
            late_join_frac: 0.2,
        };
        // Epochs are 0.25 min; warm-up ends at epoch 20. Two outages
        // inside the measured window: t ∈ [6, 8) and t ∈ [11, 12.5).
        cfg.outages = vec![(24, 32), (44, 50)];
        cfg.faults.peer_malform_prob = 0.2;
        cfg
    }

    #[test]
    fn chaos_runs_are_deterministic_and_parallel_identical() {
        let sequential = Simulation::try_new(chaos_cfg(QueryKind::Knn)).unwrap().run();
        assert!(sequential.hosts_crashed > 0, "5% crash rate crashed nobody");
        assert!(sequential.hosts_restarted > 0, "nobody restarted or joined");
        for threads in [1, 2, 4] {
            let parallel = Simulation::try_new(chaos_cfg(QueryKind::Knn))
                .unwrap()
                .run_parallel(&ExecPool::fixed(threads));
            assert_eq!(parallel, sequential, "threads={threads}");
        }
    }

    #[test]
    fn outages_degrade_to_bounded_stale_answers() {
        for kind in [QueryKind::Knn, QueryKind::Window] {
            let report = Simulation::try_new(chaos_cfg(kind)).unwrap().run();
            // Every measured query got a quality grade, and the silent
            // epochs forced some off the Exact path.
            assert_eq!(report.quality.total(), report.queries.total, "{kind:?}");
            assert!(
                report.quality.stale + report.quality.failed > 0,
                "{kind:?}: outage epochs produced no degraded service"
            );
            // The chaos oracle held: stale answers stayed within their
            // declared bound, exact answers stayed exact.
            assert_eq!(report.bound_violations, 0, "{kind:?}");
            assert_eq!(report.exact_mismatches, 0, "{kind:?}");
            if report.quality.stale > 0 {
                assert!(report.mean_stale_age_min() >= 0.0);
                assert!(report.stale_age_min_max >= report.mean_stale_age_min());
            }
            // Hosts that answered through the outage resynchronized once
            // the channel came back.
            assert!(report.outage_resyncs > 0, "{kind:?}: nobody resynced");
        }
    }

    #[test]
    fn malforming_peers_get_quarantined() {
        let mut cfg = tiny_cfg(QueryKind::Knn);
        cfg.faults.peer_malform_prob = 0.3;
        let report = Simulation::try_new(cfg).unwrap().run();
        assert!(
            report.faults.quarantine_strikes > 0,
            "30% malform rate produced no strikes"
        );
        assert!(
            report.faults.peers_quarantined > 0,
            "strikes never led to a skipped peer"
        );
        // Malformed regions are rejected before use: answers stay exact.
        assert_eq!(report.exact_mismatches, 0);
        assert!(report.faults.regions_rejected > 0);
    }

    #[test]
    fn inert_chaos_config_is_bit_identical_to_baseline() {
        let base = Simulation::try_new(tiny_cfg(QueryKind::Knn)).unwrap().run();
        let mut cfg = tiny_cfg(QueryKind::Knn);
        // Nonzero restart probability is inert when nothing ever
        // crashes and nobody joins late.
        cfg.churn = ChurnConfig {
            crash_prob: 0.0,
            restart_prob: 0.9,
            late_join_frac: 0.0,
        };
        cfg.outages = Vec::new();
        let with_inert = Simulation::try_new(cfg).unwrap().run();
        assert_eq!(base, with_inert, "inert chaos knobs shifted the run");
        assert_eq!(with_inert.hosts_crashed, 0);
        assert_eq!(with_inert.hosts_restarted, 0);
        assert_eq!(with_inert.quality.stale, 0);
        assert_eq!(with_inert.quality.failed, 0);
    }
}
