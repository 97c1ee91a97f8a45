//! `serve_open`: the live service under an open-loop client.
//!
//! For each offered rate a fresh service starts over LA-City scaled
//! 0.02 in scaled pacing, every session registers, and the sender then
//! follows a fixed schedule: kNN and window requests alternate at the
//! offered rate, and every session reports its position on a seeded
//! track once per simulated minute (a quarter of the fleet per epoch).
//! A collector thread stamps each reply as it lands. A request is timed
//! from when it was due, so a stalled sender or queue lock shows up as
//! latency; a rejected, lost or `Failed` request counts as a miss.

use crate::kernels;
use crate::sims::{
    self, put_phases, put_snapshot_layers, serve_workers, spawn_collector, LiveStats, Reply,
    ServeStats, ANSWER_TIMEOUT,
};
use crate::spans::{Tracer, NO_REQ};
use crate::util::{self, median, quantile, Checks, Metrics, QueryTotals, Rng};
use crate::Outcome;
use airshare_broadcast::Poi;
use airshare_geom::{Point, Rect};
use airshare_obs::{AnswerQuality, MetricsSnapshot};
use airshare_serve::{QueryRequest, ServeConfig, ServeError, Service, ServiceReport};
use airshare_sim::{params, LiveWorld, QueryAnswer, QueryKind, QuerySpec, SimConfig};
use std::time::{Duration, Instant};

/// Simulated time runs 6000× the wall clock: a simulated minute every
/// 10 ms, an epoch barrier every 2.5 ms.
const SPEEDUP: f64 = 6_000.0;

/// Offered rates (requests per second), in run order.
const RATES: [(&str, f64); 3] = [
    ("light", 1_500.0),
    ("loaded", 4_000.0),
    ("overload", 50_000.0),
];

/// Seed of the served world's POI layout. The world is the service's
/// database and stays fixed; `--seed` drives the sessions' tracks and
/// the request stream. (Seeding the layout too tripled the run-to-run
/// spread of the tick metrics: 55 POIs make a lumpy world.)
const WORLD_SEED: u64 = 20_070_415;

/// The served world.
fn world_cfg(kind: QueryKind) -> SimConfig {
    let mut p = params::la_city().scaled(0.02);
    p.cache_size = 30;
    let mut cfg = SimConfig::paper_defaults(p, kind, WORLD_SEED);
    cfg.warmup_min = 0.0;
    cfg.validate = false;
    cfg.hilbert_order = 6;
    cfg
}

/// A session's seeded track: a straight line at constant speed that
/// reflects off the world's edges.
struct Track {
    start: Point,
    /// Velocity in miles per simulated minute.
    v: (f64, f64),
}

impl Track {
    fn new(rng: &mut Rng, side: f64, speed_scale: f64) -> Track {
        let theta = rng.range(0.0, std::f64::consts::TAU);
        // 15-60 mph, scaled with the world like the simulator's hosts.
        let speed = rng.range(0.25, 1.0) * speed_scale;
        Track {
            start: Point::new(rng.range(0.0, side), rng.range(0.0, side)),
            v: (speed * theta.cos(), speed * theta.sin()),
        }
    }

    /// Position and unit heading at simulated minute `t`.
    fn at(&self, t: f64, side: f64) -> (Point, (f64, f64)) {
        let fold = |x: f64| {
            let p = x.rem_euclid(2.0 * side);
            if p <= side {
                (p, 1.0)
            } else {
                (2.0 * side - p, -1.0)
            }
        };
        let (x, sx) = fold(self.start.x + self.v.0 * t);
        let (y, sy) = fold(self.start.y + self.v.1 * t);
        let (hx, hy) = (self.v.0 * sx, self.v.1 * sy);
        let norm = hx.hypot(hy).max(f64::MIN_POSITIVE);
        (Point::new(x, y), (hx / norm, hy / norm))
    }
}

/// The seeded request stream of one phase.
struct Generator {
    rng: Rng,
    tracks: Vec<Track>,
    side: f64,
    k: usize,
    window_side: f64,
    distance: f64,
}

impl Generator {
    fn new(cfg: &SimConfig, seed: u64) -> Generator {
        let p = &cfg.params;
        let mut rng = Rng::new(seed);
        let tracks = (0..p.mh_number)
            .map(|_| Track::new(&mut rng, p.world_mi, p.speed_scale))
            .collect();
        Generator {
            rng,
            tracks,
            side: p.world_mi,
            k: p.knn_k,
            window_side: (p.window_pct / 100.0).sqrt() * p.world_mi,
            distance: p.distance_mi,
        }
    }

    /// A kNN query from the last session at its origin. It draws nothing
    /// from the seeded stream, so however many probes set-up needs, the
    /// requests that follow stay the same.
    fn probe(&self) -> QueryRequest {
        let host = self.tracks.len() - 1;
        let (pos, heading) = self.tracks[host].at(0.0, self.side);
        QueryRequest {
            host,
            pos,
            heading: Some(heading),
            spec: QuerySpec::Knn { k: self.k },
            tag: None,
        }
    }

    /// Request `i` at simulated minute `t`: even ones kNN, odd ones a
    /// paper-sized window about one `distance` from the host.
    fn request(&mut self, i: u64, t: f64) -> QueryRequest {
        let host = (self.rng.next_u64() % self.tracks.len() as u64) as usize;
        let (pos, heading) = self.tracks[host].at(t, self.side);
        let spec = if i.is_multiple_of(2) {
            QuerySpec::Knn { k: self.k }
        } else {
            let world = Rect::from_coords(0.0, 0.0, self.side, self.side);
            let d = self.distance * self.rng.range(0.5, 1.5);
            let theta = self.rng.range(0.0, std::f64::consts::TAU);
            let c = world.clamp_point(Point::new(pos.x + d * theta.cos(), pos.y + d * theta.sin()));
            let w = Rect::centered_square(c, self.window_side / 2.0);
            QuerySpec::Window {
                rect: w.intersection(&world).unwrap_or(w),
            }
        };
        QueryRequest {
            host,
            pos,
            heading: Some(heading),
            spec,
            tag: None,
        }
    }
}

/// One reply as the collector saw it. Answers are checked as they
/// land and dropped, so the benchmark's own memory stays small beside
/// the service's.
struct Landed {
    due: Instant,
    arrived: Instant,
    /// Answered, and not `Failed`.
    ok: bool,
    /// No second answer arrived on the reply channel.
    once: bool,
    /// Not an `Exact` window answer that differs from a brute-force
    /// scan of the world's POIs.
    exact: bool,
}

/// Whether an `Exact` window answer lists exactly the POIs inside the
/// window (other answers pass).
fn window_exact(pois: &[Poi], spec: QuerySpec, a: &QueryAnswer) -> bool {
    let QuerySpec::Window { rect } = spec else {
        return true;
    };
    if a.quality != AnswerQuality::Exact {
        return true;
    }
    let mut got = a.ids.clone();
    got.sort_unstable();
    let want: Vec<u32> = pois
        .iter()
        .filter(|p| rect.contains(p.pos))
        .map(|p| p.id)
        .collect();
    got == want
}

/// What one offered rate measured.
struct Phase {
    setup_s: f64,
    /// Resident-set growth over start-up and registration.
    build_rss_mib: f64,
    life_s: f64,
    window_s: f64,
    sessions: usize,
    attempted: u64,
    rejected: u64,
    accepted: u64,
    /// Answered with a non-`Failed` answer before the window closed.
    answered_in_window: u64,
    /// Per attempted request: due → answer, `+inf` for a miss.
    latency_ms: Vec<f64>,
    misses: u64,
    submit_us: Vec<f64>,
    lag_ms: Vec<f64>,
    report: ServiceReport,
}

/// Sleeps (never spins) until `t`: the sender must leave the cores to
/// the service. The scheduler's timer slack makes it wake a little late,
/// and that lateness is measured as generator lag.
fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Set-up as users pay it: start the service and register every
/// session at its track's origin — the timed part — then wait until a
/// probe query is answered by an online session, so the first barrier
/// has applied the registrations. That wait is left out of the set-up
/// time: it is the pacing clock's phase (0 to 2.5 ms), not work.
/// Returns the service, the set-up time and the probes submitted.
fn start(cfg: &SimConfig, gen: &Generator, tr: &mut Tracer) -> (Service, f64, u64) {
    let n = cfg.params.mh_number;
    let sc = ServeConfig {
        queue_capacity: 256,
        admit_per_tick: 2,
        threads: serve_workers(),
        ..ServeConfig::scaled(cfg.clone(), SPEEDUP)
    };
    let born = Instant::now();
    tr.open("Service::start", NO_REQ);
    let service = Service::start(sc).expect("workload configs are valid");
    tr.close();
    let handle = service.handle();
    tr.open_n("ServiceHandle::register", NO_REQ, n as u64);
    for h in 0..n {
        handle
            .register(h, None)
            .expect("host ids come from the world");
    }
    tr.close();
    tr.open_n("ServiceHandle::update_position", NO_REQ, n as u64);
    for (h, track) in gen.tracks.iter().enumerate() {
        handle
            .update_position(h, track.at(0.0, gen.side).0, None)
            .expect("host ids come from the world");
    }
    tr.close();
    let setup_s = born.elapsed().as_secs_f64();
    let mut probes = 0u64;
    loop {
        probes += 1;
        let rx = handle
            .submit(gen.probe())
            .expect("an idle service admits the probe");
        let a = rx
            .recv_timeout(ANSWER_TIMEOUT)
            .expect("the probe is answered");
        if a.quality != AnswerQuality::Failed {
            break;
        }
    }
    (service, setup_s, probes)
}

/// Runs one offered rate: set-up, the open-loop window, drain, checks.
fn run_phase(
    cfg: &SimConfig,
    pois: &[Poi],
    rate: f64,
    window_s: f64,
    seed: u64,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Phase {
    let n = cfg.params.mh_number;
    let side = cfg.params.world_mi;
    let mut gen = Generator::new(cfg, seed);
    let rss0 = util::rss_mib();
    let born = Instant::now();
    let (service, setup_s, probes) = start(cfg, &gen, tr);
    let build_rss_mib = util::rss_mib() - rss0;
    let handle = service.handle();

    let pois = pois.to_vec();
    let (feed, collector) = spawn_collector(tr.fork(2), move |r: Reply<(Instant, QuerySpec)>| {
        let (due, spec) = r.req;
        Landed {
            due,
            arrived: r.arrived,
            ok: matches!(&r.answer, Some(a) if a.quality != AnswerQuality::Failed),
            once: r.once,
            exact: r
                .answer
                .as_ref()
                .is_none_or(|a| window_exact(&pois, spec, a)),
        }
    });

    // The schedule: request i is due at i / rate; position slice j (a
    // quarter of the fleet) at j epochs. Simulated time on the tracks
    // counts from the service's start.
    let epoch_s = cfg.epoch_min * 60.0 / SPEEDUP;
    let slice = n.div_ceil(4);
    let start = Instant::now();
    let sim_min = |t: Instant| (t - born).as_secs_f64() * SPEEDUP / 60.0;
    let (mut qi, mut uj) = (0u64, 0u64);
    // Sized to the schedule up front, so their memory does not depend
    // on when a vector happens to grow.
    let requests = (rate * window_s).ceil() as usize + 1;
    let mut submit_us = Vec::with_capacity(requests);
    let mut lag_ms = Vec::with_capacity(requests);
    let mut latency_ms = Vec::with_capacity(requests);
    let (mut rejected, mut accepted) = (0u64, 0u64);
    loop {
        let q_due = qi as f64 / rate;
        let u_due = uj as f64 * epoch_s;
        let due_s = q_due.min(u_due);
        if due_s >= window_s {
            break;
        }
        let due = start + Duration::from_secs_f64(due_s);
        sleep_until(due);
        if u_due <= q_due {
            let lo = (uj as usize % 4) * slice;
            let hi = (lo + slice).min(n);
            let t = sim_min(due);
            tr.open_n("ServiceHandle::update_position", NO_REQ, (hi - lo) as u64);
            for h in lo..hi {
                handle
                    .update_position(h, gen.tracks[h].at(t, side).0, None)
                    .expect("host ids come from the world");
            }
            tr.close();
            uj += 1;
            continue;
        }
        let req = gen.request(qi, sim_min(due));
        let spec = req.spec;
        let sent = Instant::now();
        let r = handle.submit(req);
        let done = Instant::now();
        tr.record("ServiceHandle::submit", qi, sent, done);
        lag_ms.push((sent - due).as_secs_f64() * 1e3);
        submit_us.push((done - sent).as_secs_f64() * 1e6);
        match r {
            Ok(rx) => {
                accepted += 1;
                feed.send(((due, spec), rx)).expect("collector is alive");
            }
            Err(ServeError::QueueFull { .. }) => {
                rejected += 1;
                latency_ms.push(f64::INFINITY);
            }
            Err(e) => panic!("serve_open: submit refused: {e}"),
        }
        qi += 1;
    }
    let window_end = start + Duration::from_secs_f64(window_s);
    drop(feed);
    tr.open("Service::drain", NO_REQ);
    let report = service.drain();
    tr.close();
    let life_s = born.elapsed().as_secs_f64();
    let (landed, ctr) = collector.join().expect("collector thread");
    tr.absorb(ctr);

    let mut misses = rejected;
    let mut answered_in_window = 0u64;
    for l in &landed {
        if l.ok {
            latency_ms.push((l.arrived - l.due).as_secs_f64() * 1e3);
            if l.arrived <= window_end {
                answered_in_window += 1;
            }
        } else {
            misses += 1;
            latency_ms.push(f64::INFINITY);
        }
        checks.check(l.once, || {
            "serve_open: a query was answered more than once".to_string()
        });
        checks.check(l.exact, || {
            "serve_open: an Exact window answer differs from a brute-force scan".to_string()
        });
    }
    checks.check(report.accepted == accepted + probes, || {
        format!(
            "serve_open: service accepted {} but the client {}",
            report.accepted,
            accepted + probes
        )
    });
    Phase {
        setup_s,
        build_rss_mib,
        life_s,
        window_s,
        sessions: n,
        attempted: qi,
        rejected,
        accepted,
        answered_in_window,
        latency_ms,
        misses,
        submit_us,
        lag_ms,
        report,
    }
}

/// Extra set-ups per run: a sub-millisecond timing needs many samples
/// for a steady median.
const SETUP_SAMPLES: u64 = 30;

/// Set-up times of services that are started and drained at once.
fn setup_samples(seed: u64, checks: &mut Checks) -> Vec<f64> {
    let cfg = world_cfg(QueryKind::Knn);
    let mut tr = Tracer::new(false, Instant::now(), 0);
    (0..SETUP_SAMPLES)
        .map(|k| {
            let gen = Generator::new(&cfg, util::rep_seed(seed, 100 + k));
            let (service, setup_s, probes) = start(&cfg, &gen, &mut tr);
            let report = service.drain();
            checks.check(report.accepted == probes, || {
                format!("serve_open: set-up probe {k} lost admissions")
            });
            setup_s
        })
        .collect()
}

/// All three offered rates, each on a fresh service.
fn run_all(seed: u64, seconds: f64, tr: &mut Tracer, checks: &mut Checks) -> Vec<Phase> {
    let cfg = world_cfg(QueryKind::Knn);
    let pois = LiveWorld::try_new(cfg.clone())
        .expect("workload configs are valid")
        .poi_table()
        .to_vec();
    let window_s = seconds / RATES.len() as f64;
    RATES
        .iter()
        .enumerate()
        .map(|(i, &(name, rate))| {
            let p = run_phase(&cfg, &pois, rate, window_s, util::rep_seed(seed, i as u64), tr, checks);
            println!(
                "{name:>8} {rate:>8.0}/s: attempted {} accepted {} rejected {} answered in window {} \
                 | p50 {:.3} ms p99 {:.3} ms | gen lag p99 {:.3} ms | set-up {:.3} s | digest {:016x} | rss {:.1} hwm {:.1}",
                p.attempted,
                p.accepted,
                p.rejected,
                p.answered_in_window,
                quantile(&p.latency_ms, 0.5),
                quantile(&p.latency_ms, 0.99),
                quantile(&p.lag_ms, 0.99),
                p.setup_s,
                util::digest(&p.report.report),
                util::rss_mib(),
                util::peak_rss_mib(),
            );
            p
        })
        .collect()
}

fn overload(phases: &[Phase]) -> &Phase {
    &phases[2]
}

fn loaded(phases: &[Phase]) -> &Phase {
    &phases[1]
}

/// Misses at the light and loaded rates are failures; at the overload
/// rate rejections are the backpressure being measured, so only lost
/// and `Failed` answers count there.
fn failed(phases: &[Phase]) -> u64 {
    phases[..2].iter().map(|p| p.misses).sum::<u64>()
        + (overload(phases).misses - overload(phases).rejected)
}

fn max_qps(phases: &[Phase]) -> f64 {
    let p = overload(phases);
    p.answered_in_window as f64 / p.window_s
}

/// The timed run, tracing off.
pub fn timed(seed: u64, seconds: f64, checks: &mut Checks) -> Outcome {
    let mut tr = Tracer::new(false, Instant::now(), 1);
    let phases = run_all(seed, seconds, &mut tr, checks);
    println!(
        "service workers {}, generator threads 2 (sender + collector), available parallelism {}",
        serve_workers(),
        util::nproc()
    );
    checks.check(overload(&phases).rejected > 0, || {
        "serve_open: the overload rate never filled the queue".to_string()
    });
    let mut totals = QueryTotals::default();
    for p in &phases {
        totals.add(&p.report.report);
    }
    let mut setup = setup_samples(seed, checks);
    setup.extend(phases.iter().map(|p| p.setup_s));
    // Fleet turnover while the service keeps up (light and loaded):
    // under overload long batches starve the barriers on purpose, and
    // that capacity is what `queries_per_s` measures.
    let below_capacity = &phases[..2];
    let host_epochs: f64 = below_capacity
        .iter()
        .map(|p| p.sessions as f64 * p.report.metrics.epochs_committed_total as f64)
        .sum();
    let life: f64 = below_capacity.iter().map(|p| p.life_s).sum();

    let mut m = Metrics::default();
    m.put("setup_s", "s", median(&setup));
    m.put("peak_rss_mib", "MiB", util::peak_rss_mib());
    m.put("host_epochs_per_s", "1/s", host_epochs / life);
    m.put("queries_per_s", "1/s", max_qps(&phases));
    totals.put_end_to_end(&mut m);
    Outcome {
        metrics: m,
        attempted: phases.iter().map(|p| p.attempted).sum(),
        failed: failed(&phases),
    }
}

/// The traced run: all rates plain, then traced, then the simulator's
/// recordings of the same world replayed through `LiveWorld`, then the
/// kernels on the world's index.
pub fn traced(seed: u64, seconds: f64, checks: &mut Checks, tr: &mut Tracer) -> Outcome {
    let mut off = Tracer::new(false, Instant::now(), 0);
    let plain = run_all(seed, seconds, &mut off, checks);
    let phases = run_all(seed, seconds, tr, checks);

    let mut cfgs: Vec<SimConfig> = [QueryKind::Knn, QueryKind::Window]
        .into_iter()
        .map(world_cfg)
        .collect();
    for cfg in &mut cfgs {
        cfg.measure_min = 30.0;
    }
    let mut live = LiveStats::default();
    let (sim_phases, pois) = sims::replays(&cfgs, tr, checks, &mut live, None);

    let mut m = Metrics::default();
    put_phases(&sim_phases, &mut m);
    live.put(&mut m);
    let mut snap = MetricsSnapshot::default();
    let mut totals = QueryTotals::default();
    for p in &phases {
        snap.merge(&p.report.metrics);
        totals.add(&p.report.report);
    }
    put_snapshot_layers(&snap, &mut m);
    totals.put_layers(&mut m);
    kernels::measure(&cfgs[0], &pois, seed, tr, &mut m);
    let (l, o) = (loaded(&phases), overload(&phases));
    let serve = ServeStats {
        submit_us: l.submit_us.clone(),
        reply_ms: l.latency_ms.clone(),
        lag_ms: l.lag_ms.clone(),
        attempted: o.attempted,
        rejected: o.rejected,
        admitted: phases
            .iter()
            .map(|p| p.report.metrics.queries_admitted_total)
            .sum(),
        epochs: phases
            .iter()
            .map(|p| p.report.metrics.epochs_committed_total)
            .sum(),
        backlog: (o.accepted - o.answered_in_window) as f64,
    };
    serve.put(&mut m);
    m.put(
        "fleet.bytes_per_host",
        "B",
        plain[0].build_rss_mib * 1024.0 * 1024.0 / plain[0].sessions as f64,
    );
    m.put(
        "trace_overhead_pct",
        "%",
        100.0 * (max_qps(&plain) / max_qps(&phases) - 1.0),
    );
    Outcome {
        metrics: m,
        attempted: phases.iter().map(|p| p.attempted).sum(),
        failed: failed(&phases),
    }
}
