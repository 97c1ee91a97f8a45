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
//!
//! The barrier itself is [`LiveWorld`]'s: the simulator is a closed-loop
//! client of the same world the live service serves, posing the queries
//! its mobility streams and churn plan produce.

use crate::fleet::FleetStore;
use crate::live::{LiveQuery, LiveWorld};
use crate::traffic::{EpochRecord, RecordedQuery, TrafficTrace};
use crate::{ConfigError, MobilityModel, QueryKind, SimConfig, SimReport};
use airshare_broadcast::{
    AirIndexBackend, ChannelFaults, OnAirClient, OutageSchedule, Poi, PoiCategory, PoiId,
    PoiTable, QueryScratch, Schedule,
};
use airshare_cache::{CacheContext, HostCache, QuarantineLedger};
use airshare_core::{
    sbnn, sbwq, MergedRegion, ResolvedBy, SbnnConfig, SbnnOutcome, SbwqConfig, SbwqOutcome,
};
use airshare_exec::{split_seed, ExecPool};
use airshare_geom::{Point, Rect};
use airshare_mobility::{
    GridRoadWaypoint, Mobility, MobilityConfig, QueryEvent, QueryScheduler, RandomWaypoint,
};
use airshare_obs::{
    AccessStats, AnswerQuality, MetricsRecorder, NoopRecorder, PhaseTimes, Recorder, ShareStats,
    TraceEvent,
};
use airshare_p2p::{gather_peer_data, NeighborGrid, ShareFaults, ShareRequest};
use airshare_rtree::RTree;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
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
}

impl Mobility for HostMobility {
    fn position_at(&mut self, t: f64) -> Point {
        match self {
            HostMobility::Waypoint(m) => m.position_at(t),
            HostMobility::Roads(m) => m.position_at(t),
        }
    }
    fn velocity_at(&mut self, t: f64) -> (f64, f64) {
        match self {
            HostMobility::Waypoint(m) => m.velocity_at(t),
            HostMobility::Roads(m) => m.velocity_at(t),
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

impl QueryOutcome {
    /// A query resolved through the normal path; the validation and
    /// baseline fields start empty.
    fn new(
        share: ShareStats,
        quality: AnswerQuality,
        resolution: Resolution,
        air: Option<AccessStats>,
    ) -> Self {
        QueryOutcome {
            share,
            quality,
            stale_age_min: 0.0,
            bound_violation: false,
            resolution,
            air,
            baseline: None,
            filter_saved: 0,
            window_coverage: None,
            calibration: None,
            mismatch: false,
        }
    }

    /// A query answered at minute `t` through an outage, from merged
    /// peer/cache knowledge alone: stale by the time since the host's
    /// last channel access. An empty (`Failed`) answer counts against
    /// the channel that could not serve it.
    fn outage(
        share: ShareStats,
        quality: AnswerQuality,
        t: f64,
        sync: &SyncState,
        bound_violation: bool,
    ) -> Self {
        let resolution = if quality == AnswerQuality::Failed {
            Resolution::Broadcast
        } else {
            Resolution::Peers
        };
        QueryOutcome {
            stale_age_min: (t - sync.last_sync_min).max(0.0),
            bound_violation,
            ..QueryOutcome::new(share, quality, resolution, None)
        }
    }
}

/// One host's slice of an epoch batch: its session state moved out of
/// the world, its queries in admission (nonce) order, and — once
/// [`EpochCtx::run_host`] hands it back — what those queries produced.
pub(crate) struct HostTask {
    pub(crate) host: usize,
    pub(crate) cache: HostCache,
    pub(crate) sync: SyncState,
    pub(crate) quarantine: QuarantineLedger,
    pub(crate) queries: Vec<LiveQuery>,
    /// Resync transitions the queries performed (warm-up included).
    pub(crate) resyncs: u64,
    /// Measured queries' report contributions, keyed by nonce.
    pub(crate) outcomes: Vec<(u64, QueryOutcome)>,
    /// Every query's answer, in run order.
    pub(crate) answers: Vec<QueryAnswer>,
}

/// The immutable world every worker shares within one epoch, lent out
/// by [`LiveWorld::execute_epoch`].
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

/// One full system: base station, channel, fleet, caches.
///
/// The base station and every host's session state live in a
/// [`LiveWorld`]; the simulation is its closed-loop client and owns
/// only what a real fleet brings to the air: mobility, the churn plan,
/// and the phase timers.
pub struct Simulation {
    /// The world, driven through the live service's own barrier.
    live: LiveWorld,
    /// Per-host mobility streams.
    hosts: Vec<HostMobility>,
    /// Precomputed churn transitions `(epoch, host, comes_online)`,
    /// sorted by `(epoch, host)`; a pure function of the master seed.
    churn_plan: Vec<(u64, usize, bool)>,
    /// First `churn_plan` entry not yet applied.
    churn_cursor: usize,
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
        let mut live = LiveWorld::try_new(cfg)?;
        let cfg = live.config();
        let mut mobility_cfg = MobilityConfig::vehicular(*live.world());
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
        let (online, churn_plan) = plan_churn(cfg);
        for (host, _) in online.iter().enumerate().filter(|(_, &up)| up) {
            live.connect(host);
        }
        Ok(Self {
            live,
            hosts,
            churn_plan,
            churn_cursor: 0,
            phases: PhaseTimes::default(),
        })
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        self.live.config()
    }

    /// The global POI set (for external validation).
    pub fn pois(&self) -> &[Poi] {
        self.live.poi_table().as_slice()
    }

    /// The canonical POI table every cached or peer-shared handle
    /// resolves against.
    pub fn poi_table(&self) -> &PoiTable {
        self.live.poi_table()
    }

    /// Read-only view of the fleet's columnar state.
    pub fn fleet(&self) -> &FleetStore {
        self.live.fleet()
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
        self.run_parallel_metrics(&ExecPool::sequential())
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
    pub fn run_with(&mut self, rec: &mut (dyn Recorder + Send)) -> SimReport {
        self.run_engine(
            &ExecPool::sequential(),
            &mut [(rec, QueryScratch::new())],
            None,
            &mut |_| {},
        )
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
            seed: self.config().seed,
            hosts: self.config().params.mh_number,
            epoch_min: self.config().epoch_min,
            ..TrafficTrace::default()
        };
        let report = self.run_engine(
            &ExecPool::sequential(),
            &mut [(NoopRecorder, QueryScratch::new())],
            Some(&mut trace),
            &mut |_| {},
        );
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
        let mut ctxs: Vec<_> = (0..pool.threads())
            .map(|_| (NoopRecorder, QueryScratch::new()))
            .collect();
        self.run_engine(pool, &mut ctxs, None, &mut |_| {})
    }

    /// [`Simulation::run_parallel`] with per-worker [`MetricsRecorder`]s:
    /// each worker records into its own shard, and the shards are merged
    /// associatively into the report's `metrics` snapshot — equal to the
    /// snapshot a sequential [`Simulation::run_metrics`] produces.
    pub fn run_parallel_metrics(&mut self, pool: &ExecPool) -> SimReport {
        let mut ctxs: Vec<_> = (0..pool.threads())
            .map(|_| (MetricsRecorder::new(), QueryScratch::new()))
            .collect();
        let mut report = self.run_engine(pool, &mut ctxs, None, &mut |_| {});
        let mut merged = MetricsRecorder::new();
        for (rec, _) in &ctxs {
            merged.merge(rec);
        }
        let mut snapshot = merged.snapshot();
        snapshot.phases = self.phases;
        report.metrics = Some(snapshot);
        report
    }

    /// The epoch loop shared by every public entry point: the closed
    /// loop around [`LiveWorld`]'s barrier. Per epoch it
    ///
    /// 1. applies the churn due at this boundary through
    ///    [`LiveWorld::reconnect`] / [`LiveWorld::disconnect`];
    /// 2. steps every host's mobility to the boundary, writing straight
    ///    into the world's position column;
    /// 3. commits the boundary ([`LiveWorld::begin_epoch`]: grid rebuild
    ///    and peer-snapshot refresh), then hands the world to
    ///    `on_boundary` (a read-only check hook; the public entry points
    ///    pass a no-op);
    /// 4. derives each online host's queries (position, heading, and the
    ///    window from its `(host, epoch)` stream) in host order, then
    ///    time order;
    /// 5. executes them as one [`LiveWorld::execute_epoch`] batch on
    ///    `pool`, keeping the answers only when recording a `trace`.
    ///
    /// Each worker owns one `(recorder, scratch)` context, hoisted out of
    /// the epoch loop: the scratch buffers reach their high-water marks
    /// during warm-up and every later index-path query runs without heap
    /// allocation. Churn events go to the first context's recorder.
    pub(crate) fn run_engine<R: Recorder + Send>(
        &mut self,
        pool: &ExecPool,
        ctxs: &mut [(R, QueryScratch)],
        mut trace: Option<&mut TrafficTrace>,
        on_boundary: &mut dyn FnMut(&LiveWorld),
    ) -> SimReport {
        let cfg = self.config();
        let epoch_len = cfg.epoch_min;
        let horizon = cfg.total_min();
        let mut scheduler =
            QueryScheduler::new(cfg.params.query_rate, cfg.params.mh_number, cfg.seed ^ 0xA5);

        if let Some(trace) = &mut trace {
            // Pristine churn-plan state: who is on the air before the
            // first epoch's transitions apply.
            trace.initial_online = self.fleet().online().to_vec();
        }

        let mut phases = PhaseTimes::default();
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
            // (epochs without events are caught up lazily), in plan
            // order — identically at every thread count, so trace logs
            // stay byte-identical. A restart is pinned to its *planned*
            // epoch, not the barrier epoch.
            let t_phase = Instant::now();
            let due = self.churn_cursor;
            while self.churn_cursor < self.churn_plan.len()
                && self.churn_plan[self.churn_cursor].0 <= epoch
            {
                let (e, h, up) = self.churn_plan[self.churn_cursor];
                self.churn_cursor += 1;
                if up {
                    self.live.reconnect(h, e, &mut ctxs[0].0);
                } else {
                    self.live.disconnect(h, e, &mut ctxs[0].0);
                }
            }
            // Boundary positions; clamped to the first event so host
            // clocks never run backwards on the boundary's
            // floating-point edge.
            let t_build = (epoch as f64 * epoch_len).min(epoch_events[0].time);
            advance_fleet(&mut self.hosts, self.live.positions_mut(), t_build, pool);
            phases.advance_ns += t_phase.elapsed().as_nanos() as u64;
            if let Some(trace) = &mut trace {
                let positions = self.live.fleet().positions();
                // Position deltas against the previous recorded epoch:
                // the first record carries every host, later ones only
                // hosts whose position actually changed (a paused
                // waypoint host costs nothing).
                let moved: Vec<(u32, Point)> = match &mut last_rec_positions {
                    None => {
                        last_rec_positions = Some(positions.to_vec());
                        positions
                            .iter()
                            .enumerate()
                            .map(|(h, &p)| (h as u32, p))
                            .collect()
                    }
                    Some(prev) => positions
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
                    online: self.fleet().online().to_vec(),
                    churn: self.churn_plan[due..self.churn_cursor]
                        .iter()
                        .map(|&(e, h, up)| (h as u32, e, up))
                        .collect(),
                });
            }

            self.live.begin_epoch(epoch);
            let (grid_ns, snapshot_ns) = self.live.boundary_ns();
            phases.grid_ns += grid_ns;
            phases.snapshot_ns += snapshot_ns;
            on_boundary(&self.live);

            // Offline hosts pose no queries — their events vanish, but
            // the global index numbering `(i + k)` is untouched, so the
            // fold order of surviving outcomes is churn-independent.
            let t_phase = Instant::now();
            let queries = self.epoch_queries(epoch, &epoch_events, next_index);
            let asked = trace.is_some().then(|| queries.clone());
            let answers = self.live.execute_epoch(queries, pool, ctxs);
            if let (Some(trace), Some(mut asked)) = (&mut trace, asked) {
                let warmup_min = self.config().warmup_min;
                asked.sort_by_key(|q| q.nonce);
                trace
                    .queries
                    .extend(asked.into_iter().zip(answers).map(|(q, a)| RecordedQuery {
                        nonce: q.nonce,
                        host: q.host as u32,
                        at_min: q.at_min,
                        epoch,
                        pos: q.pos,
                        heading: q.heading,
                        spec: q.spec,
                        ids: a.ids,
                        quality: a.quality,
                        measured: q.at_min >= warmup_min,
                    }));
            }
            phases.query_ns += t_phase.elapsed().as_nanos() as u64;
            next_index += epoch_events.len() as u64;
        }
        self.phases = phases;
        self.live.take_report()
    }

    /// Poses one epoch's events as the fleet would: for each online host
    /// (host order), its events in time order, each with the position
    /// and heading its mobility stream reports at query time and — for
    /// window runs — a window drawn from its `(host, epoch)` stream.
    /// The events' global indices (`first_nonce + k`) are the nonces.
    fn epoch_queries(
        &mut self,
        epoch: u64,
        events: &[QueryEvent],
        first_nonce: u64,
    ) -> Vec<LiveQuery> {
        let mut posed: Vec<(usize, u64, f64)> = events
            .iter()
            .zip(first_nonce..)
            .filter(|(ev, _)| self.live.is_online(ev.host))
            .map(|(ev, nonce)| (ev.host, nonce, ev.time))
            .collect();
        posed.sort_unstable_by_key(|&(host, nonce, _)| (host, nonce));
        let cfg = self.live.config();
        let world = self.live.world();
        let mut stream: Option<(usize, SmallRng)> = None;
        posed
            .into_iter()
            .map(|(host, nonce, t)| {
                let m = &mut self.hosts[host];
                let pos = m.position_at(t);
                let heading = m.heading_at(t);
                let spec = match cfg.query_kind {
                    QueryKind::Knn => QuerySpec::Knn {
                        k: cfg.params.knn_k,
                    },
                    QueryKind::Window => {
                        if stream.as_ref().map(|(h, _)| *h) != Some(host) {
                            let seed =
                                split_seed(cfg.seed ^ WINDOW_SEED_SALT, host as u64, epoch);
                            stream = Some((host, SmallRng::seed_from_u64(seed)));
                        }
                        let (_, rng) = stream.as_mut().expect("seeded above");
                        QuerySpec::Window {
                            rect: sample_window(cfg, world, pos, rng),
                        }
                    }
                };
                LiveQuery {
                    nonce,
                    host,
                    at_min: t,
                    pos,
                    heading,
                    spec,
                }
            })
            .collect()
    }
}

impl EpochCtx<'_> {
    /// Runs one host's epoch shard: its queries in admission order,
    /// against the shared epoch snapshot, with all mutations host-local.
    /// Every query gets an answer; measured ones also an outcome.
    pub(crate) fn run_host(
        &self,
        mut task: HostTask,
        scratch: &mut QueryScratch,
        rec: &mut dyn Recorder,
    ) -> HostTask {
        let queries = std::mem::take(&mut task.queries);
        task.answers.reserve(queries.len());
        for q in &queries {
            let mut answer = QueryAnswer {
                nonce: q.nonce,
                host: q.host as u32,
                ids: Vec::new(),
                quality: AnswerQuality::Failed,
            };
            if let Some(o) = self.process_query(q, &mut task, scratch, rec, &mut answer) {
                task.outcomes.push((q.nonce, o));
            }
            task.answers.push(answer);
        }
        task
    }

    /// Resolves one query for the host whose session state `task` holds.
    /// Returns its contribution to the report, or `None` during warm-up
    /// (cache effects still apply).
    ///
    /// The query's inputs — position, heading, and the fully-sampled
    /// [`QuerySpec`] — are supplied by the caller (derived from mobility
    /// in the simulator, client-submitted in the serving layer), so this
    /// path is identical for both. The answer's POI ids and
    /// [`AnswerQuality`] are always filled in, warm-up or not: the
    /// service answers every query, while the report only counts
    /// measured ones.
    fn process_query(
        &self,
        query: &LiveQuery,
        task: &mut HostTask,
        scratch: &mut QueryScratch,
        rec: &mut dyn Recorder,
        answer: &mut QueryAnswer,
    ) -> Option<QueryOutcome> {
        let cfg = self.cfg;
        let (t, qpos, nonce) = (query.at_min, query.pos, query.nonce);
        let measuring = t >= cfg.warmup_min;
        let tune_in = (t * cfg.ticks_per_min as f64) as u64;
        rec.begin_query(nonce, tune_in);
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
        let req = ShareRequest {
            range: self.range,
            hops: cfg.p2p_hops,
            world: Some(self.world),
            faults: ShareFaults {
                faults: self.faults,
                drop_prob: cfg.faults.peer_drop_prob,
                malform_prob: cfg.faults.peer_malform_prob,
                nonce,
            },
            guard: Some((&mut task.quarantine, self.epoch)),
        };
        let (replies, share) = gather_peer_data(
            task.host,
            qpos,
            CAT,
            self.grid,
            self.snapshot,
            self.table,
            req,
            rec,
        );
        if cfg.use_own_cache {
            // Own reads are live — a host always trusts its freshest self.
            let own_regions = task.cache.region_count(CAT);
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
            .then(|| task.cache.share_regions(CAT))
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
            heading: query.heading,
            now: t,
        };

        match query.spec {
            QuerySpec::Knn { k } => {
                let sbnn_cfg = SbnnConfig {
                    k,
                    accept_approx: cfg.accept_approx,
                    min_correctness: cfg.min_correctness,
                    lambda: cfg.params.poi_density(),
                    use_bound_filtering: cfg.use_bound_filtering,
                    vr_policy: cfg.vr_policy,
                    domain: cfg.clip_domain.then_some(*self.world),
                };
                let channel = (!silent).then_some((&client, tune_in));
                let res = match sbnn(qpos, &sbnn_cfg, &mvr, channel, scratch, rec) {
                    SbnnOutcome::Resolved(res) => res,
                    SbnnOutcome::Unresolved(heap) => {
                        // Outage: no channel fallback. Serve whatever the
                        // merged peer/cache knowledge held, tagged Stale
                        // (or Failed when it held nothing).
                        task.sync.needs_resync = true;
                        task.cache
                            .touch(CAT, &Rect::centered_square(qpos, self.range), t);
                        let entries = heap.entries();
                        let quality = if entries.is_empty() {
                            AnswerQuality::Failed
                        } else {
                            AnswerQuality::Stale
                        };
                        if !deliver(
                            answer,
                            entries.iter().map(|c| c.poi.id).collect(),
                            quality,
                            measuring,
                            rec,
                        ) {
                            return None;
                        }
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
                        return Some(QueryOutcome::outage(
                            share, quality, t, &task.sync, violation,
                        ));
                    }
                };
                let degraded = res.air.is_some_and(|a| a.is_degraded());
                if res.air.is_some() {
                    self.note_sync(task, t, rec);
                }

                // A degraded retrieval may be missing POIs; adopting its
                // region would cache an incomplete "verified" claim and
                // poison every peer it is later shared with.
                if !degraded {
                    if let Some((vr, pois)) = &res.adoptable {
                        let ids: Vec<PoiId> = pois.iter().map(Poi::handle).collect();
                        task.cache
                            .insert_ids(self.table, CAT, *vr, &ids, t, &ctx, rec);
                    }
                }
                task.cache
                    .touch(CAT, &Rect::centered_square(qpos, self.range), t);

                let quality = if degraded {
                    AnswerQuality::Degraded
                } else {
                    AnswerQuality::Exact
                };
                if !deliver(
                    answer,
                    res.neighbors.iter().map(|n| n.poi.id).collect(),
                    quality,
                    measuring,
                    rec,
                ) {
                    return None;
                }
                let resolution = match res.resolved_by {
                    ResolvedBy::PeersVerified => Resolution::Peers,
                    ResolvedBy::PeersApproximate => Resolution::Approx,
                    ResolvedBy::Broadcast => Resolution::Broadcast,
                };
                let mut out = QueryOutcome::new(share, quality, resolution, res.air);
                // What the pure on-air algorithm would have paid (not
                // defined during an outage — the baseline host faces
                // the same silent channel).
                if !silent {
                    if let Some(base) =
                        client.knn(tune_in, qpos, sbnn_cfg.k, scratch, &mut NoopRecorder)
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
            QuerySpec::Window { rect: w } => {
                let sbwq_cfg = SbwqConfig {
                    use_window_reduction: cfg.use_window_reduction,
                };
                let channel = (!silent).then_some((&client, tune_in));
                let res = match sbwq(&w, &sbwq_cfg, &mvr, channel, scratch, rec) {
                    SbwqOutcome::Resolved(res) => res,
                    SbwqOutcome::Unresolved { partial, missing } => {
                        // Outage: answer from the covered sub-windows only.
                        // The answer is a *subset* of the truth; its
                        // quality depends on how much area peers covered.
                        task.sync.needs_resync = true;
                        task.cache.touch(CAT, &w, t);
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
                        if !deliver(
                            answer,
                            partial.iter().map(|p| p.id).collect(),
                            quality,
                            measuring,
                            rec,
                        ) {
                            return None;
                        }
                        let mut violation = false;
                        if cfg.validate && !partial.is_empty() {
                            // Chaos-oracle bound: a partial window answer
                            // must be a subset of the ground truth.
                            let want = self.window_truth(&w);
                            violation = partial
                                .iter()
                                .any(|p| want.binary_search(&p.id).is_err());
                            debug_assert!(
                                !violation,
                                "partial window answer left ground truth at t={t}"
                            );
                        }
                        return Some(QueryOutcome::outage(
                            share, quality, t, &task.sync, violation,
                        ));
                    }
                };
                let degraded = res.air.is_some_and(|a| a.is_degraded());
                if res.air.is_some() {
                    self.note_sync(task, t, rec);
                }

                // A resolved window is fully known: cache it — unless
                // retrieval lost buckets, in which case the window may be
                // missing POIs and must not become a verified region.
                if !degraded {
                    let ids: Vec<PoiId> = res.pois.iter().map(Poi::handle).collect();
                    task.cache
                        .insert_ids(self.table, CAT, w, &ids, t, &ctx, rec);
                }
                task.cache.touch(CAT, &w, t);

                let quality = if degraded {
                    AnswerQuality::Degraded
                } else {
                    AnswerQuality::Exact
                };
                if !deliver(
                    answer,
                    res.pois.iter().map(|p| p.id).collect(),
                    quality,
                    measuring,
                    rec,
                ) {
                    return None;
                }
                let (resolution, window_coverage) = match res.resolved_by {
                    ResolvedBy::PeersVerified => (Resolution::Peers, None),
                    _ => (Resolution::Broadcast, Some(res.coverage)),
                };
                let mut out = QueryOutcome::new(share, quality, resolution, res.air);
                out.window_coverage = window_coverage;
                out.baseline = (!silent).then(|| {
                    let base = client.window(tune_in, &w, scratch, &mut NoopRecorder);
                    (base.stats.latency, base.stats.tuning)
                });
                if cfg.validate {
                    let mut got: Vec<u32> = res.pois.iter().map(|p| p.id).collect();
                    got.sort_unstable();
                    let want = self.window_truth(&w);
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

    /// Ground truth for a window: the ids inside it, sorted.
    fn window_truth(&self, w: &Rect) -> Vec<u32> {
        let mut want: Vec<u32> = self
            .oracle
            .window(w)
            .into_iter()
            .map(|(_, &id)| id)
            .collect();
        want.sort_unstable();
        want
    }

    /// Marks a successful channel access: refreshes the host's sync
    /// clock and, if it was answering through an outage or restart,
    /// records the resynchronization.
    fn note_sync(&self, task: &mut HostTask, t: f64, rec: &mut dyn Recorder) {
        task.sync.last_sync_min = t;
        if task.sync.needs_resync {
            task.sync.needs_resync = false;
            task.resyncs += 1;
            rec.record(TraceEvent::Resynced {
                host: task.host as u32,
            });
        }
    }
}

/// The tail every resolution path shares: hands the client its answer
/// and, for a measured query, traces its quality grade. Returns
/// `measuring` — `false` means the query landed in warm-up and
/// contributes nothing to the report.
fn deliver(
    answer: &mut QueryAnswer,
    ids: Vec<u32>,
    quality: AnswerQuality,
    measuring: bool,
    rec: &mut dyn Recorder,
) -> bool {
    answer.ids = ids;
    answer.quality = quality;
    if measuring {
        rec.record(TraceEvent::QueryQuality { quality });
    }
    measuring
}

/// Samples a query window per Table 4: mean area = `window_pct` % of
/// the search space; centre at a normally-distributed distance from
/// the host in a uniform direction, clamped into the world. Draws come
/// from the caller's `(host, epoch)` stream.
fn sample_window(cfg: &SimConfig, world: &Rect, qpos: Point, rng: &mut SmallRng) -> Rect {
    let p = &cfg.params;
    let side = (p.window_pct / 100.0).sqrt() * p.world_mi;
    let dist = sample_normal(rng, p.distance_mi, p.distance_mi / 3.0).abs();
    let theta = rng.gen_range(0.0..std::f64::consts::TAU);
    let center = world.clamp_point(Point::new(
        qpos.x + dist * theta.cos(),
        qpos.y + dist * theta.sin(),
    ));
    let half = side / 2.0;
    let w = Rect::centered_square(center, half);
    w.intersection(world).unwrap_or(w)
}

/// Steps every host's mobility to `t_build`, writing the boundary
/// positions into the world's position column. *Every* host moves —
/// offline ones included — so mobility streams stay aligned across
/// churn configurations; offline hosts are merely undiscoverable.
///
/// Hosts are mutually independent here, so the work is chunked over
/// contiguous host ranges and fanned out on `pool` — chunk scheduling
/// cannot affect the result, which is bit-identical to the sequential
/// walk for any chunking and any thread count.
fn advance_fleet(
    hosts: &mut [HostMobility],
    positions: &mut [Point],
    t_build: f64,
    pool: &ExecPool,
) {
    let step = |(hosts, positions): (&mut [HostMobility], &mut [Point])| {
        for (m, p) in hosts.iter_mut().zip(positions) {
            *p = m.position_at(t_build);
        }
    };
    let n = hosts.len();
    let threads = pool.threads();
    if threads <= 1 || n < 4096 {
        step((hosts, positions));
        return;
    }
    // Oversplit ~4× past the worker count so stealing can level uneven
    // chunks (waypoint hosts mid-pause advance much faster than ones
    // mid-leg).
    let chunk_len = n.div_ceil(threads * 4).max(1024);
    let chunks: Vec<_> = hosts
        .chunks_mut(chunk_len)
        .zip(positions.chunks_mut(chunk_len))
        .collect();
    pool.map(chunks, |_, c| step(c));
}

/// Order-preserving parallel initialization: `(0..n).map(f).collect()`
/// fanned out over `pool` in contiguous chunks. `f` must be a pure
/// function of the index (every per-host constructor in this crate is —
/// seeds are split per host, never drawn from a shared stream), which
/// makes the result independent of chunking and thread count.
pub(crate) fn par_init<T: Send>(
    pool: &ExecPool,
    n: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
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

/// Precomputes the churn schedule: each host's initial online flag and
/// the full list of crash/restart/join transitions, sorted by
/// `(epoch, host)`.
///
/// Every decision is hashed from the master seed per `(host, epoch)` —
/// no RNG stream is consumed, so an inert [`crate::ChurnConfig`] leaves
/// the run bit-identical to a churn-free build. The plan is applied
/// serially in the epoch loop at every thread count, which keeps
/// `run_parallel` deterministic for free.
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
