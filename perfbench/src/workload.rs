//! The three benchmark workloads, the health gate every run must pass,
//! and the simulated projection two runs of one seed must agree on.

use cluster::{
    AppKind, CoordinatorConfig, DispatchPolicy, ExperimentConfig, ExperimentResult, FleetConfig,
    Policy, WatchdogConfig,
};
use cpusim::PowerMode;
use desim::{SimDuration, SplitMix64};

/// One workload: a fixed experiment shape whose inputs come from a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One memcached server at its 110k-rps knee, Poisson arrivals.
    McKnee,
    /// One apache server at 24k rps in 200-request bursts.
    ApacheBurst,
    /// Twelve memcached backends behind a JSQ load balancer with the
    /// park/unpark coordinator, 360k rps from twelve clients.
    FleetJsq,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::McKnee, Workload::ApacheBurst, Workload::FleetJsq];

    pub fn name(self) -> &'static str {
        match self {
            Workload::McKnee => "mc_knee",
            Workload::ApacheBurst => "apache_burst",
            Workload::FleetJsq => "fleet_jsq",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Experiments one run simulates, each on its own sub-seed. The
    /// simulated metrics average over them, so their spread across seeds
    /// shrinks with the square root of this count; apache's
    /// burst-aligned p99 varies most from seed to seed.
    fn experiments(self) -> usize {
        match self {
            Workload::McKnee => 16,
            Workload::ApacheBurst => 24,
            Workload::FleetJsq => 12,
        }
    }

    /// The sub-seeds of one run, derived from the benchmark seed.
    pub fn seeds(self, seed: u64) -> Vec<u64> {
        let mut rng = SplitMix64::new(seed);
        (0..self.experiments()).map(|_| rng.next_u64()).collect()
    }

    /// The workload's experiment on one sub-seed. Clients are open-loop
    /// and simulated, and stop sending `drain` before the horizon so the
    /// requests in flight there can finish.
    pub fn config(self, seed: u64) -> ExperimentConfig {
        let (cfg, warmup, measure, drain) = match self {
            Workload::McKnee => (
                ExperimentConfig::new(AppKind::Memcached, Policy::NcapCons, 110_000.0)
                    .with_poisson(),
                20,
                100,
                5,
            ),
            Workload::ApacheBurst => (
                // A 1024-descriptor RX ring: with the 82574's default 256,
                // two clients' 200-request bursts that drift together drop
                // requests no client resends (see README.md).
                ExperimentConfig::new(AppKind::Apache, Policy::NcapCons, 24_000.0)
                    .with_rx_ring(1024),
                100,
                400,
                20,
            ),
            Workload::FleetJsq => {
                let fleet = FleetConfig::new(12, DispatchPolicy::LeastOutstanding)
                    .with_coordinator(CoordinatorConfig::new(120_000.0).with_util_target(0.5));
                let mut cfg =
                    ExperimentConfig::new(AppKind::Memcached, Policy::NcapCons, 360_000.0)
                        .with_poisson()
                        .with_fleet(fleet);
                cfg.clients = 12;
                (cfg, 30, 32, 5)
            }
        };
        gated(cfg, seed, warmup, measure, drain)
    }
}

/// Watchdog in collect mode with the end-of-run quiescence check, so a
/// violation reaches the health gate instead of panicking the run.
fn gated(
    cfg: ExperimentConfig,
    seed: u64,
    warmup: u64,
    measure: u64,
    drain: u64,
) -> ExperimentConfig {
    cfg.with_durations(SimDuration::from_ms(warmup), SimDuration::from_ms(measure))
        .with_drain(SimDuration::from_ms(drain))
        .with_seed(seed)
        .with_watchdog(
            WatchdogConfig::default()
                .collecting()
                .expecting_quiescence(),
        )
}

/// `cfg` cut to a 1 µs horizon: building the simulation dominates such
/// a run, so timing it times set-up.
pub fn setup_only(cfg: &ExperimentConfig) -> ExperimentConfig {
    cfg.clone()
        .with_durations(SimDuration::ZERO, SimDuration::from_us(1))
        .with_drain(SimDuration::ZERO)
}

/// The fleet that BENCH_6 and BENCH_10 recorded collapses because all
/// its traffic crosses one 10 GbE VIP link. Sixteen backends at 60k rps
/// each from three clients collapse the same way at a fraction of the
/// cost; the health gate must flag this run.
pub fn collapsed_fleet(seed: u64) -> ExperimentConfig {
    let fleet = FleetConfig::new(16, DispatchPolicy::LeastOutstanding)
        .with_coordinator(CoordinatorConfig::new(120_000.0).with_util_target(0.5));
    let cfg = ExperimentConfig::new(AppKind::Memcached, Policy::NcapCons, 16.0 * 60_000.0)
        .with_poisson()
        .with_fleet(fleet);
    gated(cfg, seed, 10, 20, 5)
}

/// Why a run is not healthy, or `Ok` when it is. No latency is ever
/// read from a run that fails this gate.
pub fn health(r: &ExperimentResult) -> Result<(), String> {
    let mut why = Vec::new();
    if r.offered == 0 {
        why.push("no requests offered".to_string());
    }
    if r.latency.count == 0 {
        why.push("no latency samples (p99 would read 0)".to_string());
    }
    if r.completed < r.offered {
        why.push(format!(
            "completed {} of {} offered after the drain",
            r.completed, r.offered
        ));
    }
    if let Some(f) = &r.fleet {
        if f.outstanding > 0 {
            why.push(format!("{} requests outstanding at the LB", f.outstanding));
        }
    }
    if !r.invariant_violations.is_empty() {
        why.push(format!(
            "{} watchdog violation(s), first: {}",
            r.invariant_violations.len(),
            r.invariant_violations[0]
        ));
    }
    if why.is_empty() {
        Ok(())
    } else {
        Err(why.join("; "))
    }
}

/// The simulated outputs of one experiment. Equal seeds must give equal
/// projections whatever the host does, traced or not; floats compare by
/// their bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sim {
    events: u64,
    offered: u64,
    completed: u64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub samples: u64,
    energy_bits: u64,
    mode_bits: [u64; 8],
}

impl Sim {
    pub fn of(r: &ExperimentResult) -> Sim {
        Sim {
            events: r.events_processed,
            offered: r.offered,
            completed: r.completed,
            p50_ns: r.latency.p50,
            p99_ns: r.latency.p99,
            samples: r.latency.count,
            energy_bits: r.energy_j.to_bits(),
            mode_bits: PowerMode::ALL.map(|m| r.energy.joules(m).to_bits()),
        }
    }

    pub fn energy_j(&self) -> f64 {
        f64::from_bits(self.energy_bits)
    }
}
