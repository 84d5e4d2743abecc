//! The simulator's benchmark: three workloads, end-to-end metrics from
//! untraced runs and per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mc_knee|apache_burst|fleet_jsq|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run prints its metrics by name with units, a provenance record,
//! and as its last line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer ones. `--workload all` runs every workload
//! in both modes, each in a process of its own, and prints them all.
//! See `perfbench/README.md` for the metric definitions.

mod host;
mod layers;
mod reference;
mod workload;

use cluster::{run_experiment, ExperimentConfig, ExperimentResult};
use cpusim::PowerMode;
use std::hint::black_box;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{collapsed_fleet, health, setup_only, Sim, Workload};

#[global_allocator]
static ALLOC: host::Counting = host::Counting;

/// Set-up builds timed after each timed experiment, so that set-up
/// samples span the same host conditions as the experiments.
const SETUP_REPS: usize = 5;

const USAGE: &str =
    "usage: perfbench --workload <mc_knee|apache_burst|fleet_jsq|all> [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 7,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(&value),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && Workload::parse(&args.workload).is_none() {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// One run's result: metrics in report order plus the reasons it is
/// not correct, if any.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.problems.push(format!("{name} is not finite"));
        }
        self.metrics.push((name, value, unit));
    }

    /// Counts a run's requests, and all of them as failed when it is
    /// unhealthy. Returns whether it was healthy.
    fn gate(&mut self, label: &str, r: &ExperimentResult) -> bool {
        self.attempted += r.offered;
        match health(r) {
            Ok(()) => true,
            Err(why) => {
                self.failed += r.offered;
                self.problems.push(format!("{label}: unhealthy: {why}"));
                false
            }
        }
    }

    fn print(&self, record: &str) {
        for (name, value, unit) in &self.metrics {
            println!("  {name:<28} {value:>16.6} {unit}");
        }
        for p in &self.problems {
            println!("  FAILED: {p}");
        }
        println!("{record}");
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Runs `cfg` and returns the result with its host seconds.
fn timed(cfg: &ExperimentConfig) -> (ExperimentResult, f64) {
    let start = Instant::now();
    let r = run_experiment(black_box(cfg));
    (black_box(r), start.elapsed().as_secs_f64())
}

/// Mean of the middle half of `v` (the interquartile mean): robust to
/// the odd sub-seed whose bursts collide, yet finer-grained than a
/// median of bucketed percentiles.
fn mid_mean(v: impl Iterator<Item = f64>) -> f64 {
    let mut s: Vec<f64> = v.collect();
    s.sort_by(f64::total_cmp);
    let cut = s.len() / 4;
    let mid = &s[cut..s.len() - cut];
    if mid.is_empty() {
        0.0
    } else {
        mid.iter().sum::<f64>() / mid.len() as f64
    }
}

/// End-to-end metrics. A first pass runs every sub-seed once and gates
/// it; its simulated outputs are the metrics, and it runs before the
/// reference job ever has, so that peak memory is the workload's alone.
/// Then the sub-seeds cycle for `seconds`, each experiment followed by
/// set-up builds and a run of the reference job, and every repeat must
/// give the first pass's simulated outputs.
fn end_to_end(w: Workload, seed: u64, seconds: f64) -> Report {
    let mut rep = Report::default();
    let cfgs: Vec<ExperimentConfig> = w.seeds(seed).into_iter().map(|s| w.config(s)).collect();
    let setup = setup_only(&cfgs[0]);
    drop(run_experiment(&setup));

    let mut healthy: Vec<Sim> = Vec::new();
    let mut first: Vec<Sim> = Vec::new();
    for (k, cfg) in cfgs.iter().enumerate() {
        let r = run_experiment(cfg);
        let sim = Sim::of(&r);
        if rep.gate(&format!("sub-seed {k}"), &r) {
            healthy.push(sim.clone());
        }
        first.push(sim);
    }
    let peak_rss = host::peak_rss_mb();

    // Host times go in at the reference speed: each over the mean of the
    // reference runs just before and just after it, which see the host as
    // it ran.
    let start = Instant::now();
    let mut refs = vec![reference::run()];
    let (mut walls, mut setups) = (Vec::new(), Vec::new());
    let (mut host_walls, mut host_setups) = (Vec::new(), Vec::new());
    for k in (0..cfgs.len()).cycle() {
        let (r, wall) = timed(&cfgs[k]);
        let setup_reps: Vec<f64> = (0..SETUP_REPS).map(|_| timed(&setup).1).collect();
        refs.push(reference::run());
        let pace = (refs[refs.len() - 2] + refs[refs.len() - 1]) / 2.0;
        walls.push(reference::at_reference_speed(wall, pace));
        setups.extend(
            setup_reps
                .iter()
                .map(|&t| reference::at_reference_speed(t, pace)),
        );
        host_walls.push(wall);
        host_setups.extend(setup_reps);
        if Sim::of(&r) != first[k] {
            rep.problems.push(format!(
                "sub-seed {k}: a repeated run gave other simulated results"
            ));
        }
        if start.elapsed() >= Duration::from_secs_f64(seconds) {
            break;
        }
    }

    rep.metric("wall_s", host::median(&walls), "s");
    rep.metric("setup_s", host::median(&setups), "s");
    match peak_rss {
        Some(mb) => rep.metric("peak_rss_mb", mb, "MiB"),
        None => rep
            .problems
            .push("peak resident memory is unreadable".to_string()),
    }
    rep.metric(
        "sim_p50_us",
        mid_mean(healthy.iter().map(|s| s.p50_ns as f64 / 1e3)),
        "us",
    );
    rep.metric(
        "sim_p99_us",
        mid_mean(healthy.iter().map(|s| s.p99_ns as f64 / 1e3)),
        "us",
    );
    rep.metric(
        "sim_energy_j",
        mid_mean(healthy.iter().map(Sim::energy_j)),
        "J",
    );
    // Printed beside the metrics but kept out of the JSON: host times as
    // measured drift with host speed, which the reference cancels; the
    // sample count is no end-to-end metric; and `attempted`/`failed`
    // carry the failure fraction, which reads 0 on a healthy run.
    println!(
        "{}: {} sub-seed experiments, {} timed runs",
        w.name(),
        cfgs.len(),
        walls.len()
    );
    for (name, v) in [
        ("host_wall_s", &host_walls),
        ("host_setup_s", &host_setups),
        ("reference_s", &refs),
    ] {
        println!("  {name:<28} {:>16.6} s", host::median(v));
    }
    let samples: u64 = healthy.iter().map(|s| s.samples).sum();
    println!("  {:<28} {samples:>16} count", "sim_latency_samples");
    let fail_frac = rep.failed as f64 / rep.attempted.max(1) as f64;
    println!("  {:<28} {fail_frac:>16.6} ratio", "req_fail_frac");
    rep
}

/// Per-layer metrics: counts from an untraced run of the first
/// sub-seed, host time from traced runs of it interleaved with untraced
/// ones until `seconds` have passed (the traced run of median wall is
/// reported), then the collapsed-fleet self-check.
fn per_layer(w: Workload, seed: u64, seconds: f64) -> Report {
    let start = Instant::now();
    let mut rep = Report::default();
    let cfg = w.config(w.seeds(seed)[0]);

    let (r, allocs, alloc_bytes) = host::count(|| run_experiment(&cfg));
    let (_, allocs_again, _) = host::count(|| run_experiment(&cfg));
    let base = Sim::of(&r);
    rep.gate("untraced run", &r);
    let mode_sum: f64 = PowerMode::ALL.iter().map(|&m| r.energy.joules(m)).sum();
    if (mode_sum - r.energy_j).abs() > 1e-9 * r.energy_j.abs().max(1.0) {
        rep.problems.push(format!(
            "per-mode energy sums to {mode_sum} J, not {} J",
            r.energy_j
        ));
    }

    let traced_cfg = cfg.clone().with_profile();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let (mut plain_differs, mut traced_differs) = (false, false);
    while traced.len() < 3 || start.elapsed() < Duration::from_secs_f64(seconds) {
        let (u, wall) = timed(&cfg);
        plain.push(wall);
        plain_differs |= Sim::of(&u) != base;
        let (t, traced_wall) = timed(&traced_cfg);
        traced_differs |= Sim::of(&t) != base;
        let profile = t.self_profile.expect("a profiled run returns its profile");
        traced.push((traced_wall, profile));
    }
    if plain_differs {
        rep.problems
            .push("a repeated untraced run gave other simulated results".to_string());
    }
    if traced_differs {
        rep.problems
            .push("observer effect: the traced run gave other simulated results".to_string());
    }
    traced.sort_by_key(|t| t.1.wall_ns);
    let (_, p) = &traced[traced.len() / 2];
    if p.events != r.events_processed {
        rep.problems.push(format!(
            "profile counted {} events, the run {}",
            p.events, r.events_processed
        ));
    }
    let plain_s = host::median(&plain);
    let traced_s = host::median(&traced.iter().map(|t| t.0).collect::<Vec<_>>());

    let ms = |ns: u64| ns as f64 / 1e6;
    let events = r.events_processed as f64;
    let layer = |name| layers::totals(p, name);
    rep.metric("sim_latency_samples", r.latency.count as f64, "count");
    rep.metric(
        "req_fail_frac",
        rep.failed as f64 / rep.attempted.max(1) as f64,
        "ratio",
    );
    rep.metric("desim.events", events, "count");
    rep.metric(
        "desim.events_per_req",
        events / r.completed.max(1) as f64,
        "count",
    );
    rep.metric("desim.ns_per_event", plain_s * 1e9 / events, "ns");
    rep.metric("desim.traced_wall_ms", ms(p.wall_ns), "ms");
    rep.metric("desim.queue_ms", ms(p.queue_ns), "ms");
    rep.metric(
        "desim.unattributed_ms",
        layers::unattributed_ns(p) as f64 / 1e6,
        "ms",
    );
    rep.metric("nic.events", layer("nic").0 as f64, "count");
    rep.metric("nic.ms", ms(layer("nic").1), "ms");
    rep.metric("nic.backend0_rx_drops", r.rx_drops as f64, "count");
    rep.metric("kernel.events", layer("kernel").0 as f64, "count");
    rep.metric("kernel.ms", ms(layer("kernel").1), "ms");
    let job_done = p.classes.iter().find(|c| c.name == "node.job_done");
    rep.metric(
        "kernel.job_done_mean_ns",
        job_done.map_or(0.0, desim::ClassStats::mean_ns),
        "ns",
    );
    rep.metric(
        "kernel.max_run_queue_depth",
        r.max_queue_depth as f64,
        "count",
    );
    rep.metric("governors.events", layer("governors").0 as f64, "count");
    rep.metric("governors.ms", ms(layer("governors").1), "ms");
    rep.metric("ncap.events", layer("ncap").0 as f64, "count");
    rep.metric("ncap.ms", ms(layer("ncap").1), "ms");
    rep.metric("ncap.backend0_wake_markers", r.wake_markers as f64, "count");
    for (mode, name) in PowerMode::ALL.into_iter().zip(ENERGY_NAMES) {
        rep.metric(name, r.energy.joules(mode), "J");
    }
    rep.metric("net.events", layer("net").0 as f64, "count");
    rep.metric("net.ms", ms(layer("net").1), "ms");
    rep.metric("apps.events", layer("apps").0 as f64, "count");
    rep.metric("apps.ms", ms(layer("apps").1), "ms");
    rep.metric("fleet.events", layer("fleet").0 as f64, "count");
    rep.metric("fleet.ms", ms(layer("fleet").1), "ms");
    let fleet =
        |f: fn(&cluster::FleetSummary) -> u64| r.fleet.as_ref().map_or(0.0, |s| f(s) as f64);
    rep.metric(
        "fleet.forwarded_frames",
        fleet(|f| f.forwarded_frames),
        "count",
    );
    rep.metric("fleet.parks", fleet(|f| f.parks), "count");
    rep.metric("fleet.unparks", fleet(|f| f.unparks), "count");
    rep.metric("fleet.outstanding_end", fleet(|f| f.outstanding), "count");
    rep.metric("cluster.observer_ms", ms(layer("cluster").1), "ms");
    rep.metric("cluster.watchdog_checks", r.watchdog_checks as f64, "count");
    rep.metric("other.ms", ms(layer("other").1), "ms");
    rep.metric("alloc.count", allocs as f64, "count");
    rep.metric("alloc.bytes", alloc_bytes as f64, "B");
    rep.metric("alloc.per_event", allocs as f64 / events, "count");
    rep.metric(
        "trace.overhead_pct",
        (traced_s / plain_s - 1.0) * 100.0,
        "%",
    );

    println!(
        "{}: traced wall {:.3} ms = layers {:.3} + queue {:.3} + unattributed {:.3} ({} traced, {} untraced runs); alloc.count {}",
        w.name(),
        ms(p.wall_ns),
        ms(p.handler_ns),
        ms(p.queue_ns),
        layers::unattributed_ns(p) as f64 / 1e6,
        traced.len(),
        plain.len(),
        if allocs == allocs_again {
            "repeats exactly".to_string()
        } else {
            format!("varies between runs ({allocs} then {allocs_again}): a host metric")
        },
    );

    match health(&run_experiment(&collapsed_fleet(seed))) {
        Ok(()) => rep
            .problems
            .push("self-check: the collapsed fleet passed the health gate".to_string()),
        Err(why) => println!("self-check: collapsed fleet flagged unhealthy: {why}"),
    }
    rep
}

/// Per-mode energy metric names, in `PowerMode::ALL` order.
const ENERGY_NAMES: [&str; 8] = [
    "cpu.energy_busy_j",
    "cpu.energy_idle_c0_j",
    "cpu.energy_halt_j",
    "cpu.energy_wake_j",
    "cpu.energy_c1_j",
    "cpu.energy_c3_j",
    "cpu.energy_c6_j",
    "cpu.energy_uncore_j",
];

/// Every workload in both modes, each in a process of its own so that
/// peak memory is the workload's alone.
fn all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    for w in Workload::ALL {
        for trace in ["0", "1"] {
            println!("== {} --trace {trace}", w.name());
            let out = Command::new(&exe)
                .args(["--workload", w.name(), "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .stderr(Stdio::inherit())
                .output()
                .expect("the benchmark can run itself");
            let text = String::from_utf8_lossy(&out.stdout);
            print!("{text}");
            let last = text.lines().last().unwrap_or("");
            let field = |key: &str| -> Option<u64> {
                let rest = &last[last.find(&format!("\"{key}\": "))? + key.len() + 4..];
                rest[..rest.find([',', '}'])?].parse().ok()
            };
            correct &= out.status.success() && last.contains("\"correct\": true");
            attempted += field("attempted").unwrap_or(0);
            failed += field("failed").unwrap_or(0);
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{}}}}",
        attempted.max(1)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = Workload::parse(&args.workload) else {
        return all(&args);
    };
    let (mode, rep) = if args.trace {
        ("per_layer", per_layer(w, args.seed, args.seconds))
    } else {
        ("end_to_end", end_to_end(w, args.seed, args.seconds))
    };
    rep.print(&host::provenance(w.name(), args.seed, mode));
    if rep.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
