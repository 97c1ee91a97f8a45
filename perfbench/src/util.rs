//! Small helpers shared by every workload: the metric list, output
//! checks, order statistics, seeded input generation and process
//! memory readings.

use airshare_sim::SimReport;
use std::fmt::Write as _;

/// Metrics in print order: `(name, unit, value)`.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, &'static str, f64)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0.push((name, unit, value));
    }

    /// The `"metrics"` object of the result line. Values keep every
    /// digit (`{}` on `f64` prints the shortest exact round trip).
    pub fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, unit, value)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// Output checks. Every failure is kept and printed; any failure makes
/// the run exit nonzero.
#[derive(Default)]
pub struct Checks {
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Worker budget: the machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Median of a sample (0.0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile of a sample; `+inf` entries (misses) sort last.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// `part / whole`, or 0.0 when `whole` is zero.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// SplitMix64: the benchmark's seeded input generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }
}

/// Derives the seed of repetition `rep` from the benchmark seed.
pub fn rep_seed(seed: u64, rep: u64) -> u64 {
    Rng::new(seed ^ rep.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// A `/proc/self/status` field in MiB (0.0 where unavailable).
fn status_mib(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Current resident set of this process (VmRSS), in MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

/// FNV-1a digest of a report's full debug rendering, its metrics
/// snapshot left out (that carries wall-clock phase timers). Two runs
/// that behave the same print the same digest.
pub fn digest(report: &SimReport) -> u64 {
    let mut r = report.clone();
    r.metrics = None;
    let text = format!("{r:?}");
    text.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The report with its validation-only fields cleared, for comparing a
/// validated run against an unvalidated one.
pub fn without_validation(report: &SimReport) -> SimReport {
    let mut r = report.clone();
    r.metrics = None;
    r.exact_mismatches = 0;
    r.bound_violations = 0;
    r.calibration.clear();
    r
}

/// Query counters and tick sums added up over several reports, for
/// metrics that span several runs.
#[derive(Default, Clone, Copy)]
pub struct QueryTotals {
    pub total: u64,
    pub by_peers: u64,
    pub by_approx: u64,
    pub by_broadcast: u64,
    pub latency_sum: u64,
    pub tuning_sum: u64,
    pub filter_saved: u64,
    pub peers_contacted: u64,
    pub peers_with_data: u64,
    pub shared_pois: u64,
}

impl QueryTotals {
    pub fn add(&mut self, r: &SimReport) {
        self.total += r.queries.total;
        self.by_peers += r.queries.by_peers;
        self.by_approx += r.queries.by_approx;
        self.by_broadcast += r.queries.by_broadcast;
        self.latency_sum += r.broadcast_latency.sum;
        self.tuning_sum += r.broadcast_tuning.sum;
        self.filter_saved += r.filter_saved_buckets;
        self.peers_contacted += r.share_peers_contacted;
        self.peers_with_data += r.share_peers_with_data;
        self.shared_pois += r.share_pois;
    }

    /// The user-facing metrics every workload reports.
    pub fn put_end_to_end(&self, m: &mut Metrics) {
        let n = self.total as f64;
        m.put(
            "access_latency_ticks",
            "ticks",
            ratio(self.latency_sum as f64, n),
        );
        m.put("tuning_ticks", "ticks", ratio(self.tuning_sum as f64, n));
        m.put(
            "peer_solved_pct",
            "%",
            100.0 * ratio((self.by_peers + self.by_approx) as f64, n),
        );
    }

    /// The per-layer counters of the query path.
    pub fn put_layers(&self, m: &mut Metrics) {
        let n = self.total as f64;
        m.put(
            "p2p.peers_contacted_per_query",
            "1/query",
            ratio(self.peers_contacted as f64, n),
        );
        m.put(
            "p2p.useful_reply_ratio",
            "ratio",
            ratio(self.peers_with_data as f64, self.peers_contacted as f64),
        );
        m.put(
            "p2p.pois_per_query",
            "1/query",
            ratio(self.shared_pois as f64, n),
        );
        m.put(
            "core.verified_pct",
            "%",
            100.0 * ratio(self.by_peers as f64, n),
        );
        m.put(
            "core.approx_pct",
            "%",
            100.0 * ratio(self.by_approx as f64, n),
        );
        m.put(
            "core.broadcast_pct",
            "%",
            100.0 * ratio(self.by_broadcast as f64, n),
        );
        m.put(
            "core.filter_saved_buckets_per_query",
            "1/query",
            ratio(self.filter_saved as f64, n),
        );
    }
}
