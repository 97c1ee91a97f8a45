//! The two simulation workloads, `fleet_1m` and `query_la`, the
//! replays every traced run drives through `LiveWorld` and the
//! lockstep service, and the reply collector both load generators use.

use crate::kernels;
use crate::spans::{Tracer, NO_REQ};
use crate::util::{
    self, digest, median, quantile, ratio, rep_seed, without_validation, Checks, Metrics,
    QueryTotals,
};
use crate::Outcome;
use airshare_broadcast::{PoiTable, QueryScratch};
use airshare_exec::ExecPool;
use airshare_obs::{MetricsSnapshot, NoopRecorder, PhaseTimes};
use airshare_serve::{QueryRequest, QueryTag, ServeConfig, ServeError, Service};
use airshare_sim::{
    params, LiveQuery, LiveWorld, ParamSet, QueryAnswer, QueryKind, SimConfig, SimReport,
    Simulation, TrafficTrace,
};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Repetitions every timed run makes, however short `--seconds` is;
/// the report-derived metrics aggregate exactly these, so they are a
/// pure function of the seed.
const MIN_REPS: u64 = 5;

/// World builds a timed run times when one build is cheap (under
/// [`CHEAP_BUILD_S`]): a millisecond-scale timing needs many samples
/// for a steady median.
const SETUP_SAMPLES: usize = 30;
const CHEAP_BUILD_S: f64 = 0.05;

/// Workers of the simulation and `LiveWorld` pools. One: on a shared
/// two-core machine the two-worker runs were several times noisier (a
/// pool map waits for its slowest worker, so time stolen from either
/// core stalls the epoch) for little speed-up, and the single-core
/// figure is the one that compares across machines. World builds keep
/// the engine's own pool, sized to the available parallelism.
const SIM_THREADS: usize = 1;

/// How long a collector waits for one answer before counting it lost.
pub const ANSWER_TIMEOUT: Duration = Duration::from_secs(30);

/// Which simulation workload.
#[derive(Clone, Copy)]
pub enum SimWorkload {
    /// One million hosts on LA-City densities, light kNN load, oracle on.
    Fleet1m,
    /// LA-City scaled 0.05: a kNN run, then a window run.
    QueryLa,
}

/// LA-City densities stretched to hold `hosts` mobile hosts, with a
/// light kNN load (0.2% of the fleet per simulated minute).
fn fleet_params(hosts: usize) -> ParamSet {
    let base = params::la_city();
    let area = hosts as f64 / base.mh_density();
    ParamSet {
        name: "LA densities, fleet-scale",
        poi_number: ((base.poi_density() * area).round() as usize).max(20),
        mh_number: hosts,
        cache_size: 30,
        query_rate: hosts as f64 * 0.002,
        world_mi: area.sqrt(),
        ..base
    }
}

impl SimWorkload {
    /// The run configurations of one repetition.
    pub fn configs(self, seed: u64) -> Vec<SimConfig> {
        match self {
            SimWorkload::Fleet1m => {
                let mut cfg =
                    SimConfig::paper_defaults(fleet_params(1_000_000), QueryKind::Knn, seed);
                cfg.warmup_min = 1.0;
                cfg.measure_min = 2.0;
                cfg.validate = true;
                cfg.hilbert_order = 8;
                vec![cfg]
            }
            SimWorkload::QueryLa => [QueryKind::Knn, QueryKind::Window]
                .into_iter()
                .map(|kind| {
                    let mut p = params::la_city().scaled(0.05);
                    p.cache_size = 30;
                    let mut cfg = SimConfig::paper_defaults(p, kind, seed);
                    cfg.warmup_min = 10.0;
                    cfg.measure_min = 20.0;
                    cfg.validate = false;
                    cfg.hilbert_order = 8;
                    cfg
                })
                .collect(),
        }
    }
}

fn host_epochs(cfg: &SimConfig) -> f64 {
    cfg.params.mh_number as f64 * (cfg.total_min() / cfg.epoch_min).ceil()
}

/// Output checks every simulation report must pass.
fn check_report(checks: &mut Checks, what: &str, r: &SimReport, validated: bool) {
    checks.check(r.queries.total > 0, || {
        format!("{what}: no measured queries")
    });
    checks.check(r.quality.exact == r.queries.total, || {
        format!(
            "{what}: {} of {} answers not Exact",
            r.queries.total.saturating_sub(r.quality.exact),
            r.queries.total
        )
    });
    if validated {
        checks.check(r.exact_mismatches == 0, || {
            format!("{what}: {} oracle mismatches", r.exact_mismatches)
        });
        checks.check(r.bound_violations == 0, || {
            format!("{what}: {} bound violations", r.bound_violations)
        });
    }
}

/// One repetition's measurements.
struct Rep {
    setup_s: Vec<f64>,
    run_s: f64,
    host_epochs: f64,
    queries: u64,
    reports: Vec<SimReport>,
    phases: PhaseTimes,
    /// Resident-set growth over this repetition's first world build.
    build_rss_mib: f64,
}

/// Builds and runs every configuration of one repetition, with a span
/// around each public call.
fn run_rep(cfgs: &[SimConfig], pool: &ExecPool, tr: &mut Tracer) -> Rep {
    let mut rep = Rep {
        setup_s: Vec::new(),
        run_s: 0.0,
        host_epochs: 0.0,
        queries: 0,
        reports: Vec::new(),
        phases: PhaseTimes::default(),
        build_rss_mib: 0.0,
    };
    for (i, cfg) in cfgs.iter().enumerate() {
        let rss0 = util::rss_mib();
        tr.open("Simulation::try_new", NO_REQ);
        let t = Instant::now();
        let mut sim = Simulation::try_new(cfg.clone()).expect("workload configs are valid");
        rep.setup_s.push(t.elapsed().as_secs_f64());
        tr.close();
        if i == 0 {
            rep.build_rss_mib = util::rss_mib() - rss0;
        }
        tr.open("Simulation::run_parallel_metrics", NO_REQ);
        let t = Instant::now();
        let report = sim.run_parallel_metrics(pool);
        rep.run_s += t.elapsed().as_secs_f64();
        tr.close();
        rep.phases.merge(sim.phase_times());
        rep.host_epochs += host_epochs(cfg);
        rep.queries += report.queries.total;
        rep.reports.push(report);
    }
    rep
}

fn kind_name(cfg: &SimConfig) -> &'static str {
    match cfg.query_kind {
        QueryKind::Knn => "knn",
        QueryKind::Window => "window",
    }
}

/// The timed run: repetitions on fresh seeds until `seconds` have
/// passed (at least [`MIN_REPS`]), tracing off.
pub fn timed(w: SimWorkload, seed: u64, seconds: f64, checks: &mut Checks) -> Outcome {
    let pool = ExecPool::fixed(SIM_THREADS);
    let validated = matches!(w, SimWorkload::Fleet1m);
    let mut tr = Tracer::new(false, Instant::now(), 1);
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    // Past the minimum, a repetition starts only if it should end
    // within `seconds`, judging by the previous one.
    let mut last_s = 0.0;
    while (reps.len() as u64) < MIN_REPS || start.elapsed().as_secs_f64() + last_s <= seconds {
        let rep_start = Instant::now();
        let cfgs = w.configs(rep_seed(seed, reps.len() as u64));
        let rep = run_rep(&cfgs, &pool, &mut tr);
        for (cfg, r) in cfgs.iter().zip(&rep.reports) {
            let what = format!("rep {} {}", reps.len(), kind_name(cfg));
            check_report(checks, &what, r, validated);
            println!(
                "{what}: {} queries, digest {:016x}",
                r.queries.total,
                digest(r)
            );
        }
        let p = rep.phases;
        println!(
            "rep {}: set-up {:.3} s, run {:.3} s | advance {:.0} grid {:.0} query {:.0} snapshot {:.0} ms",
            reps.len(),
            rep.setup_s.iter().sum::<f64>(),
            rep.run_s,
            p.advance_ns as f64 / 1e6,
            p.grid_ns as f64 / 1e6,
            p.query_ns as f64 / 1e6,
            p.snapshot_ns as f64 / 1e6
        );
        reps.push(rep);
        last_s = rep_start.elapsed().as_secs_f64();
    }

    // query_la runs unvalidated; an untimed validated run of the first
    // repetition must pass the oracle and agree with the timed report.
    if !validated {
        for (cfg, timed) in w
            .configs(rep_seed(seed, 0))
            .into_iter()
            .zip(&reps[0].reports)
        {
            let mut cfg = cfg;
            cfg.validate = true;
            let what = format!("validated rep 0 {}", kind_name(&cfg));
            let r = Simulation::try_new(cfg)
                .expect("workload configs are valid")
                .run_parallel(&pool);
            check_report(checks, &what, &r, true);
            checks.check(without_validation(&r) == without_validation(timed), || {
                format!("{what}: report differs from the timed run's")
            });
        }
    }

    let mut totals = QueryTotals::default();
    for rep in &reps[..MIN_REPS as usize] {
        for r in &rep.reports {
            totals.add(r);
        }
    }
    let mut setup: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.setup_s.iter().copied())
        .collect();
    let mut extra = reps.len() as u64;
    while setup.len() < SETUP_SAMPLES && median(&setup) < CHEAP_BUILD_S {
        let cfg = w.configs(rep_seed(seed, extra)).swap_remove(0);
        extra += 1;
        let t = Instant::now();
        let sim = Simulation::try_new(cfg).expect("workload configs are valid");
        setup.push(t.elapsed().as_secs_f64());
        drop(sim);
    }
    let he: Vec<f64> = reps.iter().map(|r| r.host_epochs / r.run_s).collect();
    let qps: Vec<f64> = reps.iter().map(|r| r.queries as f64 / r.run_s).collect();
    println!(
        "{} repetitions, {} world builds, pool of {} threads",
        reps.len(),
        setup.len(),
        pool.threads()
    );

    let mut m = Metrics::default();
    m.put("setup_s", "s", median(&setup));
    m.put("peak_rss_mib", "MiB", util::peak_rss_mib());
    m.put("host_epochs_per_s", "1/s", median(&he));
    m.put("queries_per_s", "1/s", median(&qps));
    totals.put_end_to_end(&mut m);
    let attempted = reps.iter().map(|r| r.queries).sum();
    Outcome {
        metrics: m,
        attempted,
        failed: 0,
    }
}

/// Per-layer metrics derived from a merged metrics snapshot.
pub fn put_snapshot_layers(s: &MetricsSnapshot, m: &mut Metrics) {
    let n = s.queries_total as f64;
    m.put(
        "cache.hits_per_query",
        "1/query",
        ratio(s.cache_hits_total as f64, n),
    );
    m.put(
        "cache.rejected_per_query",
        "1/query",
        ratio(s.cache_rejected_total as f64, n),
    );
    m.put(
        "broadcast.index_buckets_per_query",
        "1/query",
        ratio(s.index_buckets_total as f64, n),
    );
    m.put(
        "broadcast.data_buckets_per_query",
        "1/query",
        ratio(s.data_buckets_total as f64, n),
    );
    m.put("broadcast.tuning_p99_ticks", "ticks", s.tuning.p99 as f64);
    m.put("broadcast.latency_p99_ticks", "ticks", s.latency.p99 as f64);
}

/// Engine phase totals, in ms.
pub fn put_phases(p: &PhaseTimes, m: &mut Metrics) {
    m.put("sim.advance_ms", "ms", p.advance_ns as f64 / 1e6);
    m.put("sim.grid_ms", "ms", p.grid_ns as f64 / 1e6);
    m.put("sim.query_ms", "ms", p.query_ns as f64 / 1e6);
    m.put("sim.snapshot_ms", "ms", p.snapshot_ns as f64 / 1e6);
}

/// What the `LiveWorld` replays measured.
#[derive(Default)]
pub struct LiveStats {
    begin_ms: Vec<f64>,
    execute_ms: Vec<f64>,
    queries: u64,
}

impl LiveStats {
    pub fn put(&self, m: &mut Metrics) {
        m.put(
            "live.begin_epoch_ms_p50",
            "ms",
            quantile(&self.begin_ms, 0.5),
        );
        m.put(
            "live.begin_epoch_ms_p99",
            "ms",
            quantile(&self.begin_ms, 0.99),
        );
        m.put(
            "live.execute_epoch_ms_p50",
            "ms",
            quantile(&self.execute_ms, 0.5),
        );
        m.put(
            "live.execute_epoch_ms_p99",
            "ms",
            quantile(&self.execute_ms, 0.99),
        );
        m.put(
            "live.execute_us_per_query",
            "us",
            ratio(
                self.execute_ms.iter().sum::<f64>() * 1e3,
                self.queries as f64,
            ),
        );
    }
}

/// The recorded queries of each epoch, in nonce order.
fn epoch_batches(trace: &TrafficTrace) -> Vec<(usize, usize)> {
    let mut out = Vec::with_capacity(trace.epochs.len());
    let mut at = 0;
    for er in &trace.epochs {
        let start = at;
        while at < trace.queries.len() && trace.queries[at].epoch == er.epoch {
            at += 1;
        }
        out.push((start, at));
    }
    out
}

fn check_answer(
    checks: &mut Checks,
    what: &str,
    got: &QueryAnswer,
    want: &airshare_sim::RecordedQuery,
) {
    checks.check(
        got.nonce == want.nonce && got.ids == want.ids && got.quality == want.quality,
        || {
            format!(
                "{what}: answer for nonce {} differs from the recording",
                want.nonce
            )
        },
    );
}

/// Replays a recorded workload through `LiveWorld` in barrier order and
/// checks every answer, nonce by nonce, and the final report. Returns
/// the world's POI table.
fn live_replay(
    cfg: &SimConfig,
    trace: &TrafficTrace,
    want: &SimReport,
    tr: &mut Tracer,
    checks: &mut Checks,
    stats: &mut LiveStats,
) -> PoiTable {
    let pool = ExecPool::fixed(SIM_THREADS);
    let mut ctxs: Vec<(NoopRecorder, QueryScratch)> = (0..SIM_THREADS)
        .map(|_| (NoopRecorder, QueryScratch::new()))
        .collect();
    let mut rec = NoopRecorder;
    tr.open("LiveWorld::try_new", NO_REQ);
    let mut live = LiveWorld::try_new(cfg.clone()).expect("workload configs are valid");
    tr.close();
    for (host, &up) in trace.initial_online.iter().enumerate() {
        if up {
            live.connect(host);
        }
    }
    let what = format!("LiveWorld replay {}", kind_name(cfg));
    let mut answered = 0usize;
    for (er, (lo, hi)) in trace.epochs.iter().zip(epoch_batches(trace)) {
        for &(host, planned_epoch, up) in &er.churn {
            if up {
                live.reconnect(host as usize, planned_epoch, &mut rec);
            } else {
                live.disconnect(host as usize, planned_epoch, &mut rec);
            }
        }
        tr.open_n("LiveWorld::update_position", NO_REQ, er.moved.len() as u64);
        for &(host, pos) in &er.moved {
            live.update_position(host as usize, pos);
        }
        tr.close();
        let t = Instant::now();
        tr.open("LiveWorld::begin_epoch", NO_REQ);
        live.begin_epoch(er.epoch);
        tr.close();
        stats.begin_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let batch: Vec<LiveQuery> = trace.queries[lo..hi]
            .iter()
            .map(|q| LiveQuery {
                nonce: q.nonce,
                host: q.host as usize,
                at_min: q.at_min,
                pos: q.pos,
                heading: q.heading,
                spec: q.spec,
            })
            .collect();
        let t = Instant::now();
        tr.open_n("LiveWorld::execute_epoch", NO_REQ, batch.len() as u64);
        let answers = live.execute_epoch(batch, &pool, &mut ctxs);
        tr.close();
        stats.execute_ms.push(t.elapsed().as_secs_f64() * 1e3);
        checks.check(answers.len() == hi - lo, || {
            format!(
                "{what}: epoch {} answered {} of {}",
                er.epoch,
                answers.len(),
                hi - lo
            )
        });
        for (got, want) in answers.iter().zip(&trace.queries[lo..hi]) {
            check_answer(checks, &what, got, want);
        }
        answered += answers.len();
    }
    stats.queries += answered as u64;
    checks.check(answered == trace.queries.len(), || {
        format!("{what}: answered {answered} of {}", trace.queries.len())
    });
    checks.check(live.report() == want, || {
        format!("{what}: report differs from the recording's")
    });
    live.poi_table().clone()
}

/// What a serve probe measured (open loop or lockstep replay).
#[derive(Default)]
pub struct ServeStats {
    pub submit_us: Vec<f64>,
    pub reply_ms: Vec<f64>,
    pub lag_ms: Vec<f64>,
    pub attempted: u64,
    pub rejected: u64,
    pub admitted: u64,
    pub epochs: u64,
    pub backlog: f64,
}

impl ServeStats {
    pub fn put(&self, m: &mut Metrics) {
        m.put("serve.submit_us_p50", "us", quantile(&self.submit_us, 0.5));
        m.put("serve.submit_us_p99", "us", quantile(&self.submit_us, 0.99));
        m.put("serve.reply_ms_p50", "ms", quantile(&self.reply_ms, 0.5));
        m.put("serve.reply_ms_p99", "ms", quantile(&self.reply_ms, 0.99));
        m.put(
            "serve.reject_pct",
            "%",
            100.0 * ratio(self.rejected as f64, self.attempted as f64),
        );
        m.put("serve.backlog", "count", self.backlog);
        m.put(
            "serve.batch_per_epoch",
            "1/epoch",
            ratio(self.admitted as f64, self.epochs as f64),
        );
        m.put("serve.gen_lag_ms_p99", "ms", quantile(&self.lag_ms, 0.99));
    }
}

/// One reply as it landed: the request's own data, the answer (`None`
/// when it never came), when it arrived, and whether no second answer
/// followed on the same channel.
pub struct Reply<W> {
    pub req: W,
    pub answer: Option<QueryAnswer>,
    pub arrived: Instant,
    pub once: bool,
}

/// A channel feeding the collector one admitted request and its reply
/// channel at a time.
pub type Feed<W> = mpsc::Sender<(W, mpsc::Receiver<QueryAnswer>)>;

/// Starts a load generator's collector thread. It takes the reply
/// channels in admission order (the order replies are sent in), stamps
/// each reply as it lands, records a `reply` span, and keeps what
/// `keep` makes of it; joining returns those and the thread's spans
/// once the feed is dropped.
pub fn spawn_collector<W, T>(
    mut ctr: Tracer,
    keep: impl Fn(Reply<W>) -> T + Send + 'static,
) -> (Feed<W>, JoinHandle<(Vec<T>, Tracer)>)
where
    W: Send + 'static,
    T: Send + 'static,
{
    let (feed, inbox) = mpsc::channel::<(W, mpsc::Receiver<QueryAnswer>)>();
    let collector = std::thread::spawn(move || {
        let mut kept = Vec::new();
        while let Ok((req, rx)) = inbox.recv() {
            let t = Instant::now();
            let answer = rx.recv_timeout(ANSWER_TIMEOUT).ok();
            let arrived = Instant::now();
            ctr.record(
                "reply",
                answer.as_ref().map_or(NO_REQ, |a| a.nonce),
                t,
                arrived,
            );
            // The service drops a reply's sender right after its one
            // send, so a second receive ends at once, with an error.
            let once = answer.is_none() || rx.recv().is_err();
            kept.push(keep(Reply {
                req,
                answer,
                arrived,
                once,
            }));
        }
        (kept, ctr)
    });
    (feed, collector)
}

/// Replays a recorded workload through a lockstep service: sessions,
/// position updates and tagged submissions per epoch, then the fence.
/// A collector thread stamps each reply as it lands. Every answer must
/// equal the recording's, arrive exactly once, and the drained report
/// must equal the recording run's.
pub fn serve_replay(
    cfg: &SimConfig,
    trace: &TrafficTrace,
    want: &SimReport,
    tr: &mut Tracer,
    checks: &mut Checks,
    stats: &mut ServeStats,
) {
    let what = format!("lockstep service replay {}", kind_name(cfg));
    let sc = ServeConfig {
        threads: serve_workers(),
        ..ServeConfig::lockstep(cfg.clone())
    };
    tr.open("Service::start", NO_REQ);
    let service = Service::start(sc).expect("workload configs are valid");
    tr.close();
    let handle = service.handle();
    let online: Vec<usize> = (0..trace.hosts)
        .filter(|&h| trace.initial_online[h])
        .collect();
    tr.open_n("ServiceHandle::register", NO_REQ, online.len() as u64);
    for &h in &online {
        handle
            .register(h, None)
            .expect("host ids come from the world");
    }
    tr.close();

    let (feed, collector) = spawn_collector(tr.fork(2), |r: Reply<(usize, Instant)>| {
        let (index, sent) = r.req;
        let ms = (r.arrived - sent).as_secs_f64() * 1e3;
        (index, r.answer, ms, r.once)
    });

    for (er, (lo, hi)) in trace.epochs.iter().zip(epoch_batches(trace)) {
        let opened = Instant::now();
        for &(host, planned_epoch, up) in &er.churn {
            let r = if up {
                handle.reconnect(host as usize, planned_epoch, Some(er.epoch))
            } else {
                handle.disconnect(host as usize, planned_epoch, Some(er.epoch))
            };
            r.expect("host ids come from the world");
        }
        tr.open_n(
            "ServiceHandle::update_position",
            NO_REQ,
            er.moved.len() as u64,
        );
        for &(host, pos) in &er.moved {
            handle
                .update_position(host as usize, pos, Some(er.epoch))
                .expect("host ids come from the world");
        }
        tr.close();
        for (index, q) in trace.queries.iter().enumerate().take(hi).skip(lo) {
            let req = QueryRequest {
                host: q.host as usize,
                pos: q.pos,
                heading: q.heading,
                spec: q.spec,
                tag: Some(QueryTag {
                    nonce: q.nonce,
                    at_min: q.at_min,
                    epoch: q.epoch,
                }),
            };
            let sent = Instant::now();
            stats.lag_ms.push((sent - opened).as_secs_f64() * 1e3);
            let rx = loop {
                stats.attempted += 1;
                let t = Instant::now();
                let r = handle.submit(req.clone());
                let done = Instant::now();
                tr.record("ServiceHandle::submit", q.nonce, t, done);
                stats.submit_us.push((done - t).as_secs_f64() * 1e6);
                match r {
                    Ok(rx) => break rx,
                    Err(ServeError::QueueFull { .. }) => {
                        stats.rejected += 1;
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    Err(e) => panic!("{what}: submit refused: {e}"),
                }
            };
            stats.admitted += 1;
            feed.send(((index, sent), rx)).expect("collector is alive");
        }
        handle.fence(er.epoch);
    }
    drop(feed);
    let (got, ctr) = collector.join().expect("collector thread");
    tr.absorb(ctr);
    tr.open("Service::drain", NO_REQ);
    let report = service.drain();
    tr.close();

    checks.check(got.len() == trace.queries.len(), || {
        format!(
            "{what}: {} of {} queries submitted",
            got.len(),
            trace.queries.len()
        )
    });
    for (index, answer, ms, once) in got {
        match answer {
            Some(a) => {
                check_answer(checks, &what, &a, &trace.queries[index]);
                stats.reply_ms.push(ms);
            }
            None => checks
                .failures
                .push(format!("{what}: query {index} never answered")),
        }
        checks.check(once, || {
            format!("{what}: query {index} answered more than once")
        });
    }
    checks.check(report.report == *want, || {
        format!("{what}: report differs from the recording's")
    });
    stats.epochs += report.metrics.epochs_committed_total;
}

/// Query-executing workers a service gets: one per core. (One worker
/// left the second core to the load generator but measured about four
/// times the run-to-run spread in capacity.)
pub fn serve_workers() -> usize {
    util::nproc()
}

/// Records each configuration and replays it through `LiveWorld` and,
/// when `serve` collects its stats, through the lockstep service.
/// Returns the recording runs' merged phases and the first world's POI
/// table.
pub fn replays(
    cfgs: &[SimConfig],
    tr: &mut Tracer,
    checks: &mut Checks,
    live: &mut LiveStats,
    mut serve: Option<&mut ServeStats>,
) -> (PhaseTimes, PoiTable) {
    let mut phases = PhaseTimes::default();
    let mut pois = None;
    for cfg in cfgs {
        tr.open("Simulation::try_new", NO_REQ);
        let mut sim = Simulation::try_new(cfg.clone()).expect("workload configs are valid");
        tr.close();
        tr.open("Simulation::run_recording", NO_REQ);
        let (report, trace) = sim.run_recording();
        tr.close();
        phases.merge(sim.phase_times());
        drop(sim);
        check_report(
            checks,
            &format!("recording {}", kind_name(cfg)),
            &report,
            cfg.validate,
        );
        let table = live_replay(cfg, &trace, &report, tr, checks, live);
        pois.get_or_insert(table);
        if let Some(stats) = serve.as_deref_mut() {
            serve_replay(cfg, &trace, &report, tr, checks, stats);
        }
    }
    (phases, pois.expect("every workload has a configuration"))
}

/// The traced run: the first repetition plain, then traced (their
/// reports must be equal), then the recording, `LiveWorld` and lockstep
/// service replays, then the kernels on the workload's index.
pub fn traced(w: SimWorkload, seed: u64, checks: &mut Checks, tr: &mut Tracer) -> Outcome {
    let pool = ExecPool::fixed(SIM_THREADS);
    let cfgs = w.configs(rep_seed(seed, 0));
    let validated = matches!(w, SimWorkload::Fleet1m);

    let mut off = Tracer::new(false, Instant::now(), 0);
    let t = Instant::now();
    let plain = run_rep(&cfgs, &pool, &mut off);
    let plain_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let traced = run_rep(&cfgs, &pool, tr);
    let traced_s = t.elapsed().as_secs_f64();
    for (cfg, (a, b)) in cfgs.iter().zip(plain.reports.iter().zip(&traced.reports)) {
        check_report(checks, &format!("traced {}", kind_name(cfg)), b, validated);
        checks.check(a == b, || {
            format!(
                "traced {}: report differs from the plain run's",
                kind_name(cfg)
            )
        });
    }

    let mut live = LiveStats::default();
    let mut serve = ServeStats::default();
    let (_, pois) = replays(&cfgs, tr, checks, &mut live, Some(&mut serve));

    let mut m = Metrics::default();
    put_phases(&traced.phases, &mut m);
    live.put(&mut m);
    let mut snap = MetricsSnapshot::default();
    let mut totals = QueryTotals::default();
    for r in &traced.reports {
        snap.merge(
            r.metrics
                .as_ref()
                .expect("run_parallel_metrics fills metrics"),
        );
        totals.add(r);
    }
    put_snapshot_layers(&snap, &mut m);
    totals.put_layers(&mut m);
    kernels::measure(&cfgs[0], &pois, seed, tr, &mut m);
    serve.put(&mut m);
    m.put(
        "fleet.bytes_per_host",
        "B",
        plain.build_rss_mib * 1024.0 * 1024.0 / cfgs[0].params.mh_number as f64,
    );
    m.put(
        "trace_overhead_pct",
        "%",
        100.0 * (traced_s / plain_s - 1.0),
    );
    Outcome {
        metrics: m,
        attempted: traced.queries,
        failed: 0,
    }
}
