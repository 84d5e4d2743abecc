//! Every quantitative sentence of the paper's §6, measured side by side.
//!
//! For each claim the table shows the paper's number, the value measured
//! on this substrate at the corresponding (knee-relative) operating
//! point, and whether the *direction* of the effect reproduces. A
//! measured effect inside ±`NO_EFFECT_BAND_PCT` (5%) reads "no effect"
//! against a nonzero claim. Absolute agreement is not expected (different
//! substrate); directions and rough magnitudes are the reproduction
//! contract.

use cluster::{AppKind, ExperimentResult, Policy};
use ncap_bench::{find_sla, header, run_all_policies, study_loads, verdict};
use simstats::Table;

struct Ctx {
    /// results[load_idx][policy_idx] in Policy::ALL order.
    levels: Vec<Vec<ExperimentResult>>,
    sla_ns: u64,
}

fn collect(app: AppKind) -> Ctx {
    let sla = find_sla(app);
    let levels = study_loads(app, &sla)
        .iter()
        .map(|&l| run_all_policies(app, l))
        .collect();
    Ctx {
        levels,
        sla_ns: sla.sla_ns,
    }
}

impl Ctx {
    fn get(&self, level: usize, p: Policy) -> &ExperimentResult {
        self.levels[level]
            .iter()
            .find(|r| r.policy == p)
            .expect("all policies ran")
    }

    /// Energy of `a` relative to `b` minus one, in percent (negative =
    /// `a` consumes less).
    fn energy_delta(&self, level: usize, a: Policy, b: Policy) -> f64 {
        (self.get(level, a).energy_j / self.get(level, b).energy_j - 1.0) * 100.0
    }

    /// p95 of `a` relative to `b` minus one, in percent.
    fn p95_delta(&self, level: usize, a: Policy, b: Policy) -> f64 {
        (self.get(level, a).latency.p95 as f64 / self.get(level, b).latency.p95 as f64 - 1.0)
            * 100.0
    }

    fn meets(&self, level: usize, p: Policy) -> bool {
        self.get(level, p).latency.meets_sla(self.sla_ns)
    }
}

fn main() {
    header(
        "section6_claims",
        "§6's quantitative statements, one by one",
    );
    let apache = collect(AppKind::Apache);
    let memcached = collect(AppKind::Memcached);
    let (low, med, high) = (0usize, 1usize, 2usize);

    let mut t = Table::new(vec!["§6 claim", "paper", "measured", "verdict"]);
    let mut row = |claim: &str, paper_txt: String, paper: f64, measured: f64| {
        t.row(vec![
            claim.to_owned(),
            paper_txt,
            format!("{measured:+.1}%"),
            verdict(paper, measured).to_owned(),
        ]);
    };

    // --- Apache energy ---------------------------------------------------
    row(
        "apache low: ond energy vs perf",
        "-22%".into(),
        -22.0,
        apache.energy_delta(low, Policy::Ond, Policy::Perf),
    );
    row(
        "apache low: perf.idle energy vs perf",
        "-58%".into(),
        -58.0,
        apache.energy_delta(low, Policy::PerfIdle, Policy::Perf),
    );
    row(
        "apache low: ond.idle energy vs perf.idle",
        "~-5%".into(),
        -5.0,
        apache.energy_delta(low, Policy::OndIdle, Policy::PerfIdle),
    );
    row(
        "apache low: ncap.aggr energy vs ond",
        "-49%".into(),
        -49.0,
        apache.energy_delta(low, Policy::NcapAggr, Policy::Ond),
    );
    row(
        "apache med: ncap.aggr energy vs ond",
        "-21%".into(),
        -21.0,
        apache.energy_delta(med, Policy::NcapAggr, Policy::Ond),
    );
    row(
        "apache med: ncap.sw energy vs ond",
        "-11%".into(),
        -11.0,
        apache.energy_delta(med, Policy::NcapSw, Policy::Ond),
    );
    row(
        "apache med: ncap.sw p95 vs ond",
        "+25%".into(),
        25.0,
        apache.p95_delta(med, Policy::NcapSw, Policy::Ond),
    );
    row(
        "apache low: ncap.cons p95 vs ncap.aggr",
        "-12%".into(),
        -12.0,
        apache.p95_delta(low, Policy::NcapCons, Policy::NcapAggr),
    );
    row(
        "apache low: ncap.cons energy vs ncap.aggr",
        "+6%".into(),
        6.0,
        apache.energy_delta(low, Policy::NcapCons, Policy::NcapAggr),
    );
    row(
        "apache high: ncap energy vs perf",
        "~0%".into(),
        0.0,
        apache.energy_delta(high, Policy::NcapCons, Policy::Perf),
    );

    // --- Memcached -------------------------------------------------------
    row(
        "memcached low: perf.idle p95 vs perf",
        "+47%".into(),
        47.0,
        memcached.p95_delta(low, Policy::PerfIdle, Policy::Perf),
    );
    row(
        "memcached low: ond p95 vs perf",
        "+83%".into(),
        83.0,
        memcached.p95_delta(low, Policy::Ond, Policy::Perf),
    );
    row(
        "memcached med: ond p95 vs perf",
        "+340%".into(),
        340.0,
        memcached.p95_delta(med, Policy::Ond, Policy::Perf),
    );
    row(
        "memcached low: ncap.cons energy vs perf.idle",
        "-24%".into(),
        -24.0,
        memcached.energy_delta(low, Policy::NcapCons, Policy::PerfIdle),
    );
    row(
        "memcached low: ncap.aggr energy vs perf.idle",
        "-34%".into(),
        -34.0,
        memcached.energy_delta(low, Policy::NcapAggr, Policy::PerfIdle),
    );
    row(
        "memcached low: ncap.aggr p95 vs perf.idle",
        "+8%".into(),
        8.0,
        memcached.p95_delta(low, Policy::NcapAggr, Policy::PerfIdle),
    );
    row(
        "memcached high: ncap energy vs perf",
        "~0%".into(),
        0.0,
        memcached.energy_delta(high, Policy::NcapCons, Policy::Perf),
    );
    println!("{t}");

    // --- SLA pass/fail pattern --------------------------------------------
    let mut sla = Table::new(vec!["claim", "paper", "measured"]);
    sla.row(vec![
        "apache: perf.idle/ond.idle fail SLA somewhere below the knee".into(),
        "fail at medium".into(),
        format!(
            "perf.idle {}, ond.idle {} (low) / {} , {} (med)",
            if apache.meets(low, Policy::PerfIdle) {
                "ok"
            } else {
                "FAIL"
            },
            if apache.meets(low, Policy::OndIdle) {
                "ok"
            } else {
                "FAIL"
            },
            if apache.meets(med, Policy::PerfIdle) {
                "ok"
            } else {
                "FAIL"
            },
            if apache.meets(med, Policy::OndIdle) {
                "ok"
            } else {
                "FAIL"
            },
        ),
    ]);
    sla.row(vec![
        "NCAP hardware meets the SLA at low and medium loads".into(),
        "always".into(),
        format!(
            "ncap.cons {}/{}; ncap.aggr {}/{}",
            if apache.meets(low, Policy::NcapCons) {
                "ok"
            } else {
                "FAIL"
            },
            if apache.meets(med, Policy::NcapCons) {
                "ok"
            } else {
                "FAIL"
            },
            if memcached.meets(low, Policy::NcapAggr) {
                "ok"
            } else {
                "FAIL"
            },
            if memcached.meets(med, Policy::NcapAggr) {
                "ok"
            } else {
                "FAIL"
            },
        ),
    ]);
    let apache_mean = apache.get(low, Policy::Perf).latency.mean / 1e6;
    let memcached_mean = memcached.get(low, Policy::Perf).latency.mean / 1e6;
    sla.row(vec![
        "apache mean response >> memcached mean (1.7 vs 0.6 ms)".into(),
        "2.8x".into(),
        format!(
            "{apache_mean:.2} vs {memcached_mean:.2} ms ({:.1}x)",
            apache_mean / memcached_mean
        ),
    ]);
    println!("{sla}");
    println!("see EXPERIMENTS.md \"Deviations\" for the claims that do not reproduce.");
}
