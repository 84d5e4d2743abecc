//! The cluster simulation: one server, N clients, a switch.
//!
//! [`ClusterSim`] implements [`desim::EventHandler`]; the experiment
//! runner seeds it with initial events and drives it to the horizon.
//! Frames travel client → switch → server and back; the server node is a
//! full [`oskernel::Kernel`], clients are open-loop generators plus a
//! response tracker (per the paper's methodology, client-side processing
//! is not modelled — latency is measured at the final response frame).

use crate::trace::{TraceCollector, TraceConfig, Traces};
use crate::watchdog::{AccountingView, Watchdog};
use cpusim::{EnergyMeter, PowerMode};
use desim::{ConfigError, EventHandler, EventQueue, IdMap, SimDuration, SimTime};
use fleetsim::{
    DomainSchedule, FailureMode, FailureSchedule, FleetAction, FleetConfig, FleetCoordinator,
    FleetSummary, HealthConfig, LoadBalancer,
};
use netsim::{
    Delivery, FaultConfig, NodeId, Packet, PacketMeta, Reassembly, SegmentStatus, Switch,
};
use oldi_apps::{OpenLoopClient, ResponseTracker};
use oskernel::{Effects, Kernel, NodeEvent};
use simstats::breakdown::{stage, BreakdownCollector, LatencyBreakdown, STAGE_COUNT, STAGE_NAMES};

/// Clamps a nanosecond duration into the `u32` stage fields (4.29 s cap,
/// far above any request residency the harness simulates).
fn ns32(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

/// Events of the cluster world.
#[derive(Debug, Clone)]
pub enum ClusterEvent {
    /// An event for one server node's kernel.
    Server(NodeId, NodeEvent),
    /// Client `idx` emits its next burst.
    ClientBurst {
        /// Index into the client list.
        idx: usize,
    },
    /// A frame finishes traversing the network and arrives at `dst`.
    Deliver {
        /// The arriving frame.
        frame: Packet,
    },
    /// Retransmission timer for request `id` fires (armed only when the
    /// fault subsystem's reliability layer is enabled).
    RetxCheck {
        /// The request id the timer guards.
        id: u64,
        /// Timer generation: a check whose `attempt` no longer matches
        /// the request's state is stale (a retransmission already
        /// re-armed a newer timer) and is ignored.
        attempt: u32,
    },
    /// Periodic trace sample.
    Sample,
    /// End of warmup: reset measurement baselines.
    StartMeasure,
    /// Periodic invariant check (armed when a watchdog is installed).
    Watchdog,
    /// Fleet coordinator evaluation epoch (armed with a coordinator).
    FleetEpoch,
    /// A backend's park transition completes.
    FleetParkDone {
        /// Backend index.
        backend: usize,
        /// Transition generation (stale generations are ignored).
        gen: u32,
    },
    /// A backend's unpark transition completes.
    FleetUnparkDone {
        /// Backend index.
        backend: usize,
        /// Transition generation (stale generations are ignored).
        gen: u32,
    },
    /// A scheduled machine failure fires: the backend starts misbehaving
    /// per `mode`. The LB is *not* told — it detects the failure through
    /// its prober or request timeouts, like a real balancer.
    BackendFail {
        /// Backend index.
        backend: usize,
        /// How the machine misbehaves from now on.
        mode: FailureMode,
    },
    /// A failed backend restarts healthy (its reinstatement still waits
    /// for the prober's rejoin threshold).
    BackendRestart {
        /// Backend index.
        backend: usize,
    },
    /// The LB's active health-prober tick (armed when a prober is
    /// configured).
    FleetHealth,
    /// A correlated fault window opens: every member of domain `domain`
    /// (an index into the schedule) gets the window's link-level
    /// impairment installed on the fabric switch.
    DomainFail {
        /// Index into the domain schedule.
        domain: usize,
    },
    /// A correlated fault window closes: the domain's members heal.
    DomainHeal {
        /// Index into the domain schedule.
        domain: usize,
    },
}

/// The fleet layer of the cluster: the LB node plus its optional power
/// coordinator.
struct FleetState {
    lb: LoadBalancer,
    coordinator: Option<FleetCoordinator>,
    /// Per-frame forwarding latency through the LB.
    latency: SimDuration,
    /// The prober policy driving the `FleetHealth` tick (`None` disables
    /// the tick entirely — the no-faults fast path schedules nothing).
    health: Option<HealthConfig>,
    /// The machine-failure schedule (drives `BackendFail`/`BackendRestart`
    /// events and the fail-slow multiplier).
    faults: FailureSchedule,
    /// The correlated failure-domain schedule (drives
    /// `DomainFail`/`DomainHeal` events).
    domains: DomainSchedule,
    /// Ground truth: which backends are currently inside an open
    /// *partition* window. Probes to a partitioned backend fail (the
    /// prober's TCP handshake crosses the fabric); brownouts do not
    /// affect probes.
    partitioned: Vec<bool>,
    /// Ground truth: what is actually wrong with each machine right now.
    /// The LB never reads this — probes and timeouts are judged against
    /// it, so detection latency is real (interval × threshold).
    down: Vec<Option<FailureMode>>,
    /// Fault windows currently open (metrics only).
    open_windows: u32,
    /// Frames dropped at dead machines (either direction). With the
    /// reliability layer armed these all resolve via retransmission
    /// failover or an explicit loss — never silently.
    dead_frames: u64,
    /// Metric-emission cursor for the failover counter (only touched
    /// inside `simtrace::is_enabled()` blocks).
    last_failovers: u64,
}

/// Client-side retransmission state for one in-flight request.
#[derive(Debug, Clone)]
struct RetxState {
    /// The original request frame; retransmissions resend a clone, with
    /// `sent_at` untouched so latency spans every retransmission.
    frame: Packet,
    /// Retransmissions performed so far (also the live timer generation).
    attempt: u32,
}

/// Whole-run fault-injection and recovery accounting.
///
/// The identity `issued == completed + lost + rejected + in_flight`
/// holds at any instant (and at the horizon): no request vanishes
/// silently — every issued request is served, reported lost, or
/// explicitly rejected by admission control.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultSummary {
    /// Frames the switch's impairment layer dropped as random loss.
    pub injected_losses: u64,
    /// Frames dropped as corruption (failed FCS at the receiver).
    pub injected_corruptions: u64,
    /// Frames held back for reordering.
    pub injected_reorders: u64,
    /// Request frames the clients retransmitted.
    pub retransmits: u64,
    /// Requests declared lost after exhausting retransmissions.
    pub lost_requests: u64,
    /// Retransmitted duplicates the server suppressed while the original
    /// was still being served.
    pub dup_suppressed: u64,
    /// Responses the server replayed for already-answered requests.
    pub resp_replays: u64,
    /// Latency-critical requests issued over the whole run (only counted
    /// while the reliability layer is armed).
    pub issued_total: u64,
    /// Requests whose response fully reassembled at the client.
    pub completed_total: u64,
    /// Requests the server rejected with a 503 under overload.
    pub rejected_total: u64,
    /// Requests still awaiting a response at the horizon.
    pub in_flight: u64,
}

/// The simulated four-node (or N-node) cluster.
pub struct ClusterSim {
    servers: Vec<Kernel>,
    clients: Vec<OpenLoopClient>,
    /// Client indices whose traffic is background (not latency-tracked).
    background: Vec<bool>,
    tracker: ResponseTracker,
    switch: Switch,
    collector: Option<TraceCollector>,
    finished_traces: Option<Traces>,
    sample_period: SimDuration,
    load_end: SimTime,
    measure_start: SimTime,
    measuring: bool,
    energy_baseline: EnergyMeter,
    offered_measured: u64,
    faults: FaultConfig,
    retx: IdMap<u64, RetxState>,
    reassembly: IdMap<u64, Reassembly>,
    retransmits: u64,
    lost_requests: u64,
    issued_total: u64,
    completed_total: u64,
    rejected_total: u64,
    misroutes: u64,
    watchdog: Option<Watchdog>,
    fleet: Option<FleetState>,
    /// Full-population per-stage latency attribution (measurement
    /// sideband — never consulted by the simulated system).
    breakdown: BreakdownCollector,
    /// Collection gate; the sideband stamps are written regardless, so
    /// on vs off is bit-identical on simulated results.
    collect_breakdown: bool,
    /// Attribution records of final response frames seen before their
    /// request fully reassembled (reordering can complete a request on a
    /// non-final segment).
    stage_cache: IdMap<u64, netsim::StageRecord>,
    /// The one effects buffer every server event appends into; emptied
    /// (capacity kept) after each event, so the event path never
    /// allocates one.
    fx: Effects,
    /// The one buffer every client burst appends its frames into; emptied
    /// (capacity kept) after each burst.
    burst: Vec<Packet>,
}

impl std::fmt::Debug for ClusterSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterSim")
            .field("servers", &self.servers)
            .field("clients", &self.clients.len())
            .field("measuring", &self.measuring)
            .finish()
    }
}

impl ClusterSim {
    /// Assembles the cluster. `background[i]` marks client `i` as
    /// non-latency-critical side traffic.
    ///
    /// # Panics
    ///
    /// Panics if `background` and `clients` lengths differ, or if no
    /// server is supplied. [`try_new`](Self::try_new) reports the same
    /// conditions as a typed [`ConfigError`] instead.
    #[must_use]
    pub fn new(
        server: Kernel,
        clients: Vec<OpenLoopClient>,
        background: Vec<bool>,
        trace: Option<TraceConfig>,
    ) -> Self {
        Self::with_servers(vec![server], clients, background, trace)
    }

    /// [`new`](Self::new) with typed validation instead of panics.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when `background` and `clients` lengths
    /// differ.
    pub fn try_new(
        server: Kernel,
        clients: Vec<OpenLoopClient>,
        background: Vec<bool>,
        trace: Option<TraceConfig>,
    ) -> Result<Self, ConfigError> {
        Self::try_with_servers(vec![server], clients, background, trace)
    }

    /// Assembles a cluster with several server nodes (§7's datacenter
    /// discussion: clients are distributed across servers and overall
    /// load is imbalanced).
    ///
    /// # Panics
    ///
    /// Panics if `background` and `clients` lengths differ, or if no
    /// server is supplied. [`try_with_servers`](Self::try_with_servers)
    /// reports the same conditions as a typed [`ConfigError`] instead.
    #[must_use]
    pub fn with_servers(
        servers: Vec<Kernel>,
        clients: Vec<OpenLoopClient>,
        background: Vec<bool>,
        trace: Option<TraceConfig>,
    ) -> Self {
        match Self::try_with_servers(servers, clients, background, trace) {
            Ok(sim) => sim,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`with_servers`](Self::with_servers) with typed validation: the
    /// structural constraints are reported as a [`ConfigError`] naming
    /// the offending argument instead of panicking in library code.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when `background` and `clients` lengths
    /// differ, or when `servers` is empty.
    pub fn try_with_servers(
        servers: Vec<Kernel>,
        clients: Vec<OpenLoopClient>,
        background: Vec<bool>,
        trace: Option<TraceConfig>,
    ) -> Result<Self, ConfigError> {
        if clients.len() != background.len() {
            return Err(ConfigError::new(
                "background",
                format!(
                    "flag per client required: {} clients, {} flags",
                    clients.len(),
                    background.len()
                ),
            ));
        }
        if servers.is_empty() {
            return Err(ConfigError::new("servers", "at least one server required"));
        }
        let mut switch = Switch::new(SimDuration::from_nanos(500));
        for srv in &servers {
            switch.attach(srv.node(), netsim::Link::ten_gbe(), netsim::Link::ten_gbe());
        }
        for c in &clients {
            switch.attach(
                c.config().me,
                netsim::Link::ten_gbe(),
                netsim::Link::ten_gbe(),
            );
        }
        let sample_period = trace.map_or(SimDuration::from_ms(1), |t| t.window);
        Ok(ClusterSim {
            servers,
            clients,
            background,
            tracker: ResponseTracker::new(),
            switch,
            collector: trace.map(TraceCollector::new),
            finished_traces: None,
            sample_period,
            load_end: SimTime::MAX,
            measure_start: SimTime::ZERO,
            measuring: true,
            energy_baseline: EnergyMeter::new(),
            offered_measured: 0,
            faults: FaultConfig::none(),
            retx: IdMap::default(),
            reassembly: IdMap::default(),
            retransmits: 0,
            lost_requests: 0,
            issued_total: 0,
            completed_total: 0,
            rejected_total: 0,
            misroutes: 0,
            watchdog: None,
            fleet: None,
            breakdown: BreakdownCollector::new(),
            collect_breakdown: true,
            stage_cache: IdMap::default(),
            fx: Effects::default(),
            burst: Vec::new(),
        })
    }

    /// Enables or disables per-stage latency collection (builder style).
    /// The path stamps are written either way; this only gates the
    /// client-side accumulation, so simulated results are bit-identical.
    #[must_use]
    pub fn with_breakdown(mut self, enabled: bool) -> Self {
        self.collect_breakdown = enabled;
        self
    }

    /// Installs the fault-injection subsystem (builder style): the
    /// switch's impairment layer plus, when the retransmission policy is
    /// enabled, the client-side reliability timers. An inert
    /// [`FaultConfig::none`] leaves the simulation byte-identical.
    #[must_use]
    pub fn with_fault_injection(mut self, faults: FaultConfig) -> Self {
        self.switch.set_faults(faults);
        self.faults = faults;
        self
    }

    /// Installs the fleet layer (builder style): attaches the LB node
    /// at `vip` to the switch and fronts every server with it. Clients
    /// should address the VIP; the LB dispatches per `cfg` and, when a
    /// coordinator is configured, parks/unparks backends as fleet load
    /// moves.
    #[must_use]
    pub fn with_fleet(mut self, vip: NodeId, cfg: &FleetConfig) -> Self {
        self.switch
            .attach(vip, netsim::Link::ten_gbe(), netsim::Link::ten_gbe());
        let backends: Vec<NodeId> = self.servers.iter().map(Kernel::node).collect();
        let down = vec![None; backends.len()];
        let partitioned = vec![false; backends.len()];
        self.fleet = Some(FleetState {
            lb: LoadBalancer::new(vip, backends, cfg),
            coordinator: cfg.coordinator.clone().map(FleetCoordinator::new),
            latency: cfg.lb_latency,
            health: cfg.effective_health(),
            faults: cfg.faults.clone(),
            domains: cfg.domains.clone(),
            partitioned,
            open_windows: 0,
            down,
            dead_frames: 0,
            last_failovers: 0,
        });
        self
    }

    /// Installs the runtime invariant watchdog (builder style). The
    /// watchdog is a pure observer — results are byte-identical with it
    /// on or off — and records structured
    /// [`InvariantViolation`](crate::watchdog::InvariantViolation)s.
    #[must_use]
    pub fn with_watchdog(mut self, watchdog: Watchdog) -> Self {
        self.watchdog = Some(watchdog);
        self
    }

    /// Seeds the initial events: kernel boot, staggered client bursts,
    /// warmup boundary and trace sampling. Call once before running.
    pub fn initial_events(
        &mut self,
        warmup: SimDuration,
        load_end: SimTime,
    ) -> Vec<(SimTime, ClusterEvent)> {
        self.load_end = load_end;
        if !warmup.is_zero() {
            self.measuring = false;
        }
        let mut events = Vec::new();
        for si in 0..self.servers.len() {
            let node = self.servers[si].node();
            self.servers[si].init(SimTime::ZERO, &mut self.fx);
            debug_assert!(self.fx.transmit.is_empty(), "boot transmits nothing");
            for (t, e) in self.fx.schedule.drain(..) {
                events.push((t, ClusterEvent::Server(node, e)));
            }
        }
        // Stagger client start offsets so the three independent load
        // generators do not begin phase-locked.
        let n = self.clients.len().max(1) as u64;
        for (i, c) in self.clients.iter().enumerate() {
            let offset = c.config().period.as_nanos() * i as u64 / n;
            events.push((
                SimTime::from_nanos(offset),
                ClusterEvent::ClientBurst { idx: i },
            ));
        }
        if !warmup.is_zero() {
            events.push((SimTime::ZERO + warmup, ClusterEvent::StartMeasure));
        }
        if self.collector.is_some() {
            events.push((SimTime::ZERO + self.sample_period, ClusterEvent::Sample));
        }
        if let Some(wd) = &self.watchdog {
            events.push((SimTime::ZERO + wd.period(), ClusterEvent::Watchdog));
        }
        if let Some(co) = self.fleet.as_ref().and_then(|f| f.coordinator.as_ref()) {
            events.push((SimTime::ZERO + co.epoch_period(), ClusterEvent::FleetEpoch));
        }
        if let Some(fs) = &self.fleet {
            for spec in &fs.faults.specs {
                events.push((
                    spec.at,
                    ClusterEvent::BackendFail {
                        backend: spec.backend,
                        mode: spec.mode,
                    },
                ));
                if let Some(d) = spec.restart_after {
                    events.push((
                        spec.at + d,
                        ClusterEvent::BackendRestart {
                            backend: spec.backend,
                        },
                    ));
                }
            }
            for (i, spec) in fs.domains.domains.iter().enumerate() {
                events.push((spec.at, ClusterEvent::DomainFail { domain: i }));
                events.push((spec.heals_at(), ClusterEvent::DomainHeal { domain: i }));
            }
            if let Some(h) = &fs.health {
                events.push((SimTime::ZERO + h.interval, ClusterEvent::FleetHealth));
            }
        }
        // Pre-register the drop/recovery and overload counters so trace
        // CSV exports always carry the columns, even for runs where no
        // fault fires and nothing is shed.
        if simtrace::is_enabled() {
            for (component, name) in [
                ("nic", "rx_drops"),
                ("net", "fault_losses"),
                ("net", "fault_corruptions"),
                ("net", "fault_reorders"),
                ("cluster", "retransmits"),
                ("cluster", "lost_requests"),
                ("kernel", "rejected"),
                ("watchdog", "checks"),
            ] {
                simtrace::metric_add(component, name, 0, 0.0);
            }
            simtrace::metric_set("kernel", "queue_depth", 0, 0.0);
            simtrace::metric_set("cluster", "goodput", 0, 0.0);
            if let Some(fs) = &self.fleet {
                simtrace::metric_add("fleet", "dispatched", 0, 0.0);
                simtrace::metric_set("fleet", "lb_depth", 0, 0.0);
                simtrace::metric_set("fleet", "parked_backends", 0, 0.0);
                simtrace::metric_set("fleet", "active_backends", 0, 0.0);
                if fs.health.is_some() {
                    for name in [
                        "failovers",
                        "health_probes",
                        "health_fails",
                        "health_ejects",
                        "health_rejoins",
                        "dead_frames",
                    ] {
                        simtrace::metric_add("fleet", name, 0, 0.0);
                    }
                }
                if fs.domains.enabled() {
                    for name in ["partition_drops", "brownout_drops", "brownout_jitter_ns"] {
                        simtrace::metric_add("chaos", name, 0, 0.0);
                    }
                    simtrace::metric_set("chaos", "open_windows", 0, 0.0);
                }
                for i in 0..fs
                    .lb
                    .backend_count()
                    .min(fleetsim::metrics::MAX_TRACKED_BACKENDS)
                {
                    if let Some(name) = fleetsim::metrics::dispatched(i) {
                        simtrace::metric_add("fleet", name, 0, 0.0);
                    }
                    if let Some(name) = fleetsim::metrics::outstanding(i) {
                        simtrace::metric_set("fleet", name, 0, 0.0);
                    }
                    if let Some(name) = fleetsim::metrics::parked_ns(i) {
                        simtrace::metric_add("fleet", name, 0, 0.0);
                    }
                }
            }
        }
        events
    }

    fn route(&mut self, now: SimTime, frame: Packet, queue: &mut EventQueue<ClusterEvent>) {
        let delivery = self
            .switch
            .route(now, frame.src(), frame.dst(), frame.wire_len());
        match delivery {
            Ok(Delivery::Deliver(arrival)) => {
                queue.push(arrival, ClusterEvent::Deliver { frame });
            }
            // The frame vanishes in the fabric; recovery, if any, comes
            // from the retransmission timers.
            Ok(Delivery::Dropped(_)) => {}
            // A frame addressed to a node the switch does not know: drop
            // it and account the misroute — the watchdog surfaces it as a
            // structured Routing violation instead of a panic.
            Err(_) => {
                self.misroutes += 1;
                if simtrace::is_enabled() {
                    simtrace::instant_args(
                        "cluster",
                        "misroute",
                        now.as_nanos(),
                        &[
                            simtrace::arg("src", u64::from(frame.src().0)),
                            simtrace::arg("dst", u64::from(frame.dst().0)),
                        ],
                    );
                }
            }
        }
    }

    /// Runs one kernel event on server `si` and applies its effects,
    /// through the cluster's one reused [`Effects`] buffer.
    fn handle_server(
        &mut self,
        now: SimTime,
        si: usize,
        event: NodeEvent,
        queue: &mut EventQueue<ClusterEvent>,
    ) {
        let node = self.servers[si].node();
        let mut fx = std::mem::take(&mut self.fx);
        self.servers[si].handle(now, event, &mut fx);
        self.apply_effects(now, node, &mut fx, queue);
        self.fx = fx;
    }

    /// Schedules a server's follow-up events and routes its frames,
    /// leaving `fx` empty with its capacity kept.
    fn apply_effects(
        &mut self,
        now: SimTime,
        node: NodeId,
        fx: &mut Effects,
        queue: &mut EventQueue<ClusterEvent>,
    ) {
        for (t, e) in fx.schedule.drain(..) {
            queue.push(t, ClusterEvent::Server(node, e));
        }
        for frame in fx.transmit.drain(..) {
            let bytes = frame.wire_len() as f64;
            if let Some(tr) = self.collector.as_mut() {
                tr.on_tx(now, bytes);
            }
            simtrace::metric_add("cluster", "bw_tx", now.as_nanos(), bytes);
            self.route(now, frame, queue);
        }
    }

    fn on_client_burst(&mut self, now: SimTime, idx: usize, queue: &mut EventQueue<ClusterEvent>) {
        let mut frames = std::mem::take(&mut self.burst);
        let next = self.clients[idx].next_burst(now, &mut frames);
        let is_bg = self.background[idx];
        for frame in frames.drain(..) {
            if !is_bg {
                if let Some(id) = frame.meta().request_id {
                    self.tracker.note_sent(id);
                    if self.measuring {
                        self.offered_measured += 1;
                    }
                    if self.faults.retx.enabled {
                        // Arm the reliability layer: a retransmission
                        // timer plus a response reassembler. Background
                        // traffic stays best-effort.
                        self.issued_total += 1;
                        self.retx.insert(
                            id,
                            RetxState {
                                frame: frame.clone(),
                                attempt: 0,
                            },
                        );
                        self.reassembly.insert(id, Reassembly::new());
                        queue.push(
                            now + self.faults.retx.rto_for(0),
                            ClusterEvent::RetxCheck { id, attempt: 0 },
                        );
                    }
                }
            }
            self.route(now, frame, queue);
        }
        self.burst = frames;
        if next <= self.load_end {
            queue.push(next, ClusterEvent::ClientBurst { idx });
        }
    }

    fn server_index(&self, node: NodeId) -> Option<usize> {
        self.servers.iter().position(|s| s.node() == node)
    }

    fn on_deliver(&mut self, now: SimTime, frame: Packet, queue: &mut EventQueue<ClusterEvent>) {
        if self
            .fleet
            .as_ref()
            .is_some_and(|f| f.lb.vip() == frame.dst())
        {
            self.on_lb_frame(now, frame, queue);
            return;
        }
        if let Some(si) = self.server_index(frame.dst()) {
            // A crashed machine's NIC is dark: frames already in the
            // fabric when it died (or forwarded before the prober caught
            // up) land on the floor. Recovery comes from retransmission
            // failover, never silently.
            if self
                .fleet
                .as_ref()
                .is_some_and(|f| f.down.get(si).copied().flatten() == Some(FailureMode::Stop))
            {
                self.note_dead_frame(now);
                return;
            }
            let bytes = frame.wire_len() as f64;
            if let Some(tr) = self.collector.as_mut() {
                tr.on_rx(now, bytes);
            }
            simtrace::metric_add("cluster", "bw_rx", now.as_nanos(), bytes);
            self.handle_server(now, si, NodeEvent::FrameFromWire(frame), queue);
        } else if self.faults.retx.enabled {
            self.on_client_response(now, &frame);
        } else {
            // Reliability off: nothing retransmits, so every 503 is
            // first-and-only — count it here (the tracker handles the
            // measured-window resolution below).
            if frame.meta().rejected && frame.meta().request_id.is_some() {
                self.rejected_total += 1;
            }
            if frame.meta().sent_at >= self.measure_start && self.measuring {
                self.tracker.on_response_frame(now, &frame);
                self.note_final_response(now, &frame.meta());
            }
        }
    }

    /// Accounts a frame that died at (or from) a failed machine.
    fn note_dead_frame(&mut self, now: SimTime) {
        if let Some(fs) = self.fleet.as_mut() {
            fs.dead_frames += 1;
            if simtrace::is_enabled() {
                simtrace::metric_add("fleet", "dead_frames", now.as_nanos(), 1.0);
            }
        }
    }

    /// The VIP receive path: the LB rewrites and forwards frames after
    /// its per-frame latency. Requests (from clients) pick a backend per
    /// the dispatch policy; responses (from backends) route back to the
    /// originating client and retire the conntrack entry.
    fn on_lb_frame(&mut self, now: SimTime, frame: Packet, queue: &mut EventQueue<ClusterEvent>) {
        let Some(mut fs) = self.fleet.take() else {
            return;
        };
        let is_response = fs.lb.backend_index(frame.src()).is_some();
        let mut slow_extra = SimDuration::ZERO;
        let forward = if let Some(idx) = fs.lb.backend_index(frame.src()) {
            // A crashed machine's responses died with it; a hung machine
            // admits requests but never answers. Either way the frame
            // never reaches the client — the conntrack entry stays open
            // until retransmission failover or loss resolves it.
            if matches!(fs.down[idx], Some(FailureMode::Stop | FailureMode::Hang)) {
                fs.dead_frames += 1;
                if simtrace::is_enabled() {
                    simtrace::metric_add("fleet", "dead_frames", now.as_nanos(), 1.0);
                }
                self.fleet = Some(fs);
                return;
            }
            if fs.health.is_some() {
                fs.lb.note_ok(idx);
            }
            let resp = fs.lb.on_response(frame);
            if let Some(drained) = resp.drained {
                if let Some(co) = fs.coordinator.as_mut() {
                    if let Some(action) = co.on_drained(now, &mut fs.lb, drained) {
                        Self::schedule_fleet_action(now, action, queue);
                    }
                }
            }
            if simtrace::is_enabled() {
                let t = now.as_nanos();
                simtrace::metric_set("fleet", "lb_depth", t, fs.lb.outstanding() as f64);
                if let Some(name) = fleetsim::metrics::outstanding(idx) {
                    simtrace::metric_set("fleet", name, t, fs.lb.outstanding_of(idx) as f64);
                }
            }
            resp.forward
        } else {
            let (idx, out) = fs.lb.dispatch(frame);
            // Fail-slow: the machine serves at a multiple of its normal
            // service time. Modelled coarsely as an extra forwarding
            // delay at the network boundary (the LB cannot know backend
            // service times; what matters is that the slow machine's
            // requests take visibly longer and trip client RTOs).
            if fs.down.get(idx).copied().flatten() == Some(FailureMode::Slow) {
                let ns = fs.latency.as_nanos() as f64 * fs.faults.slow_factor;
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                {
                    slow_extra = SimDuration::from_nanos(ns as u64);
                }
            }
            if simtrace::is_enabled() {
                let t = now.as_nanos();
                simtrace::metric_add("fleet", "dispatched", t, 1.0);
                simtrace::metric_set("fleet", "lb_depth", t, fs.lb.outstanding() as f64);
                if let Some(name) = fleetsim::metrics::dispatched(idx) {
                    simtrace::metric_add("fleet", name, t, 1.0);
                }
                if let Some(name) = fleetsim::metrics::outstanding(idx) {
                    simtrace::metric_set("fleet", name, t, fs.lb.outstanding_of(idx) as f64);
                }
                let f = fs.lb.failovers();
                if f > fs.last_failovers {
                    simtrace::metric_add("fleet", "failovers", t, (f - fs.last_failovers) as f64);
                    fs.last_failovers = f;
                }
            }
            Some(out)
        };
        if let Some(mut f) = forward {
            // Attribution: the LB's forwarding hold, per direction. The
            // extra switch hop's transit stays in the net stages.
            let hold = ns32((fs.latency + slow_extra).as_nanos());
            let st = &mut f.meta_mut().stages;
            if is_response {
                st.lb_out_ns = st.lb_out_ns.saturating_add(hold);
            } else {
                st.lb_in_ns = st.lb_in_ns.saturating_add(hold);
            }
            self.route(now + fs.latency + slow_extra, f, queue);
        }
        self.fleet = Some(fs);
    }

    /// Turns a coordinator action into its completion event (and flushes
    /// the parked-time metric an unpark reveals).
    fn schedule_fleet_action(
        now: SimTime,
        action: FleetAction,
        queue: &mut EventQueue<ClusterEvent>,
    ) {
        match action {
            FleetAction::ParkDone { backend, gen, at } => {
                queue.push(at, ClusterEvent::FleetParkDone { backend, gen });
            }
            FleetAction::UnparkDone {
                backend,
                gen,
                at,
                parked_for,
            } => {
                if simtrace::is_enabled() && !parked_for.is_zero() {
                    if let Some(name) = fleetsim::metrics::parked_ns(backend) {
                        simtrace::metric_add("fleet", name, now.as_nanos(), {
                            parked_for.as_nanos() as f64
                        });
                    }
                }
                queue.push(at, ClusterEvent::FleetUnparkDone { backend, gen });
            }
        }
    }

    /// A coordinator epoch: re-estimate fleet load, park or unpark
    /// backends, and re-arm the epoch timer.
    fn on_fleet_epoch(&mut self, now: SimTime, queue: &mut EventQueue<ClusterEvent>) {
        let Some(mut fs) = self.fleet.take() else {
            return;
        };
        if let Some(co) = fs.coordinator.as_mut() {
            for action in co.epoch(now, &mut fs.lb) {
                Self::schedule_fleet_action(now, action, queue);
            }
            queue.push(now + co.epoch_period(), ClusterEvent::FleetEpoch);
            if simtrace::is_enabled() {
                let t = now.as_nanos();
                simtrace::metric_set("fleet", "active_backends", t, fs.lb.committed() as f64);
                simtrace::metric_set("fleet", "parked_backends", t, fs.lb.parked_count() as f64);
            }
        }
        self.fleet = Some(fs);
    }

    /// A park or unpark transition completed (generation-guarded: stale
    /// completions from cancelled transitions are ignored).
    fn on_fleet_transition_done(&mut self, now: SimTime, backend: usize, gen: u32, park: bool) {
        let Some(mut fs) = self.fleet.take() else {
            return;
        };
        if let Some(co) = fs.coordinator.as_mut() {
            let landed = if park {
                co.park_done(now, &mut fs.lb, backend, gen)
            } else {
                co.unpark_done(&mut fs.lb, backend, gen)
            };
            if landed && simtrace::is_enabled() {
                let t = now.as_nanos();
                simtrace::metric_set("fleet", "parked_backends", t, fs.lb.parked_count() as f64);
                simtrace::metric_set("fleet", "active_backends", t, fs.lb.committed() as f64);
            }
        }
        self.fleet = Some(fs);
    }

    /// A scheduled machine failure fires: record ground truth. The LB is
    /// not told — detection rides the prober (crash) or request timeouts
    /// (hang/slow), so detection latency is interval × threshold, like a
    /// real balancer's.
    fn on_backend_fail(&mut self, now: SimTime, backend: usize, mode: FailureMode) {
        if let Some(fs) = self.fleet.as_mut() {
            if let Some(slot) = fs.down.get_mut(backend) {
                *slot = Some(mode);
            }
            if simtrace::is_enabled() {
                simtrace::instant_args(
                    "fleet",
                    "backend_fail",
                    now.as_nanos(),
                    &[simtrace::arg("backend", backend as u64)],
                );
            }
        }
    }

    /// A failed machine restarts healthy. Reinstatement into rotation
    /// still waits for the prober's rejoin threshold.
    fn on_backend_restart(&mut self, now: SimTime, backend: usize) {
        if let Some(fs) = self.fleet.as_mut() {
            if let Some(slot) = fs.down.get_mut(backend) {
                *slot = None;
            }
            if simtrace::is_enabled() {
                simtrace::instant_args(
                    "fleet",
                    "backend_restart",
                    now.as_nanos(),
                    &[simtrace::arg("backend", backend as u64)],
                );
            }
        }
    }

    /// A correlated fault window opens: install the domain's impairment
    /// on the fabric switch for every member node and, for a partition,
    /// record the ground truth the prober is judged against. The LB is
    /// never told directly — like machine failures, domain faults are
    /// detected through probes and request timeouts.
    fn on_domain_fail(&mut self, now: SimTime, domain: usize) {
        let Some(fs) = self.fleet.as_mut() else {
            return;
        };
        let Some(spec) = fs.domains.domains.get(domain) else {
            return;
        };
        let members: Vec<NodeId> = spec
            .backends
            .iter()
            .filter_map(|&b| self.servers.get(b).map(Kernel::node))
            .collect();
        self.switch
            .fail_domain(&members, spec.impairment, fs.domains.seed);
        if matches!(spec.impairment, netsim::DomainImpairment::Partition) {
            for &b in &spec.backends {
                if let Some(slot) = fs.partitioned.get_mut(b) {
                    *slot = true;
                }
            }
        }
        fs.open_windows += 1;
        if simtrace::is_enabled() {
            let t = now.as_nanos();
            simtrace::instant_args(
                "chaos",
                "domain_fail",
                t,
                &[
                    simtrace::arg("domain", domain as u64),
                    simtrace::arg("members", spec.backends.len() as u64),
                ],
            );
            simtrace::metric_set("chaos", "open_windows", t, f64::from(fs.open_windows));
        }
    }

    /// A correlated fault window closes: heal the members on the switch
    /// and clear the partition ground truth (reinstatement into rotation
    /// still waits for the prober's rejoin threshold).
    fn on_domain_heal(&mut self, now: SimTime, domain: usize) {
        let Some(fs) = self.fleet.as_mut() else {
            return;
        };
        let Some(spec) = fs.domains.domains.get(domain) else {
            return;
        };
        let members: Vec<NodeId> = spec
            .backends
            .iter()
            .filter_map(|&b| self.servers.get(b).map(Kernel::node))
            .collect();
        self.switch.heal_domain(&members);
        for &b in &spec.backends {
            if let Some(slot) = fs.partitioned.get_mut(b) {
                *slot = false;
            }
        }
        fs.open_windows = fs.open_windows.saturating_sub(1);
        if simtrace::is_enabled() {
            let t = now.as_nanos();
            simtrace::instant_args(
                "chaos",
                "domain_heal",
                t,
                &[simtrace::arg("domain", domain as u64)],
            );
            simtrace::metric_set("chaos", "open_windows", t, f64::from(fs.open_windows));
        }
    }

    /// The active prober's tick: probe every non-parked backend, judge
    /// the result against the machine's ground-truth state, and let the
    /// LB apply its K-strike ejection/rejoin thresholds. Probes are not
    /// modelled as frames — their bandwidth is negligible next to request
    /// traffic, and the quantity that matters, detection latency
    /// (interval × threshold), is preserved exactly.
    fn on_fleet_health(&mut self, now: SimTime, queue: &mut EventQueue<ClusterEvent>) {
        let Some(mut fs) = self.fleet.take() else {
            return;
        };
        let Some(h) = fs.health else {
            self.fleet = Some(fs);
            return;
        };
        let before = (
            fs.lb.health_probes(),
            fs.lb.probe_failures(),
            fs.lb.ejections(),
            fs.lb.rejoins(),
        );
        for idx in 0..fs.lb.backend_count() {
            if !fs.lb.probeable(idx) {
                continue;
            }
            let ok = fs.down[idx].is_none_or(FailureMode::probe_succeeds) && !fs.partitioned[idx];
            let _ = fs.lb.record_probe(now, idx, ok);
        }
        if simtrace::is_enabled() {
            let t = now.as_nanos();
            let emit = |name: &'static str, prev: u64, cur: u64| {
                if cur > prev {
                    simtrace::metric_add("fleet", name, t, (cur - prev) as f64);
                }
            };
            emit("health_probes", before.0, fs.lb.health_probes());
            emit("health_fails", before.1, fs.lb.probe_failures());
            emit("health_ejects", before.2, fs.lb.ejections());
            emit("health_rejoins", before.3, fs.lb.rejoins());
        }
        queue.push(now + h.interval, ClusterEvent::FleetHealth);
        self.fleet = Some(fs);
    }

    /// Derives the reported per-stage vector from a completing response's
    /// attribution record. The residual stages (`net_in`, `net_out`)
    /// absorb switch/wire transit, so the vector tiles the
    /// client-observed latency exactly: Σ stages == `now - sent_at`.
    fn stage_vector(
        now: SimTime,
        sent_at: SimTime,
        st: &netsim::StageRecord,
    ) -> ([u32; STAGE_COUNT], u64) {
        let sent = sent_at.as_nanos();
        let total = now.as_nanos().saturating_sub(sent);
        let arrival = st.arrival.as_nanos();
        let mut v = [0u32; STAGE_COUNT];
        v[stage::NET_IN] = ns32(
            arrival
                .saturating_sub(sent)
                .saturating_sub(u64::from(st.retx_ns))
                .saturating_sub(u64::from(st.lb_in_ns)),
        );
        v[stage::LB] = st.lb_in_ns.saturating_add(st.lb_out_ns);
        v[stage::DMA] = ns32(st.dma_done.as_nanos().saturating_sub(arrival));
        v[stage::MODERATION] = st.moderation_ns;
        v[stage::WAKE] = st.wake_ns;
        v[stage::STACK] = st.stack_ns;
        v[stage::POLL_WAIT] = st.poll_wait_ns;
        v[stage::RQ_WAIT] = st.rq_wait_ns;
        v[stage::CPU] = st.cpu_ns;
        v[stage::IO] = st.io_ns;
        v[stage::TX] = st.tx_ns;
        v[stage::NET_OUT] = ns32(
            now.as_nanos()
                .saturating_sub(st.last_tx.as_nanos())
                .saturating_sub(u64::from(st.lb_out_ns)),
        );
        v[stage::RETX] = st.retx_ns.saturating_add(st.replay_ns);
        (v, total)
    }

    /// Records one completed request into the breakdown population and,
    /// when tracing, emits per-stage async spans tiling `[sent_at, now]`
    /// in canonical stage order.
    fn record_completion(
        &mut self,
        now: SimTime,
        rid: u64,
        sent_at: SimTime,
        st: &netsim::StageRecord,
    ) {
        if !self.collect_breakdown {
            return;
        }
        let (v, total) = Self::stage_vector(now, sent_at, st);
        self.breakdown.record(v, total);
        if simtrace::is_enabled() {
            const ORDER: [usize; STAGE_COUNT] = [
                stage::RETX,
                stage::NET_IN,
                stage::LB,
                stage::DMA,
                stage::MODERATION,
                stage::WAKE,
                stage::STACK,
                stage::POLL_WAIT,
                stage::RQ_WAIT,
                stage::CPU,
                stage::IO,
                stage::TX,
                stage::NET_OUT,
            ];
            let mut cursor = sent_at.as_nanos();
            for &i in &ORDER {
                let d = u64::from(v[i]);
                if d == 0 {
                    continue;
                }
                let id = simtrace::async_begin(
                    "latency",
                    STAGE_NAMES[i],
                    cursor,
                    &[simtrace::arg("id", rid)],
                );
                simtrace::async_end("latency", STAGE_NAMES[i], cursor + d, id);
                cursor += d;
            }
        }
    }

    /// Shared tail of both client receive paths: a final, served response
    /// frame completes its request for attribution purposes.
    fn note_final_response(&mut self, now: SimTime, meta: &PacketMeta) {
        if let Some(rid) = meta.request_id {
            if meta.is_final && !meta.rejected {
                self.record_completion(now, rid, meta.sent_at, &meta.stages);
            }
        }
    }

    /// Client-side receive path of the reliability layer: response
    /// segments feed the request's reassembler; duplicates (from response
    /// replays or reordering) are absorbed, and the request completes
    /// exactly once, when every segment has arrived.
    fn on_client_response(&mut self, now: SimTime, frame: &Packet) {
        let meta = frame.meta();
        let Some(rid) = meta.request_id else { return };
        if meta.rejected {
            // A 503: the server refused the request under overload. The
            // request is *resolved* (no retransmission, no latency
            // sample); a stale replay after resolution is ignored.
            if self.retx.remove(&rid).is_some() {
                self.rejected_total += 1;
                self.reassembly.remove(&rid);
                self.stage_cache.remove(&rid);
                if meta.sent_at >= self.measure_start && self.measuring {
                    self.tracker.reject(rid);
                }
            }
            return;
        }
        let Some(reasm) = self.reassembly.get_mut(&rid) else {
            // Unarmed traffic (background requests) stays best-effort and
            // keeps the legacy per-frame accounting.
            if meta.sent_at >= self.measure_start && self.measuring {
                self.tracker.on_response_frame(now, frame);
                self.note_final_response(now, &meta);
            }
            return;
        };
        // Remember the final frame's attribution record: reordering can
        // complete the request on a *non-final* segment.
        if meta.is_final {
            self.stage_cache.insert(rid, meta.stages);
        }
        match reasm.on_segment(meta.seq, meta.is_final) {
            SegmentStatus::Completed => {
                // Cancels the pending timer: the next RetxCheck finds no
                // state and is a no-op.
                self.retx.remove(&rid);
                self.completed_total += 1;
                let stages = self.stage_cache.remove(&rid);
                if meta.sent_at >= self.measure_start && self.measuring {
                    self.tracker.complete(now, rid, meta.sent_at);
                    if let Some(st) = stages {
                        self.record_completion(now, rid, meta.sent_at, &st);
                    }
                }
            }
            SegmentStatus::Fresh | SegmentStatus::Duplicate => {}
        }
    }

    /// A retransmission timer fired: resend the request (with backoff) or
    /// declare it lost after the final attempt.
    fn on_retx_check(
        &mut self,
        now: SimTime,
        id: u64,
        attempt: u32,
        queue: &mut EventQueue<ClusterEvent>,
    ) {
        let Some(state) = self.retx.get_mut(&id) else {
            return; // Completed; the timer outlived the request.
        };
        if state.attempt != attempt {
            return; // Stale generation; a newer timer is armed.
        }
        let retx = self.faults.retx;
        if state.attempt >= retx.max_retries {
            // Give up: the request is *reported* lost, never silent.
            self.retx.remove(&id);
            self.stage_cache.remove(&id);
            self.lost_requests += 1;
            if simtrace::is_enabled() {
                let t = now.as_nanos();
                simtrace::instant_args(
                    "cluster",
                    "request_lost",
                    t,
                    &[
                        simtrace::arg("id", id),
                        simtrace::arg("attempts", u64::from(attempt)),
                    ],
                );
                simtrace::metric_add("cluster", "lost_requests", t, 1.0);
            }
            return;
        }
        state.attempt += 1;
        let next_attempt = state.attempt;
        let mut frame = state.frame.clone();
        // Attribution: the cumulative client-side wait up to this resend.
        // If this copy is the one the server serves, the stamp rides with
        // it; earlier copies carry their own (smaller) stamp.
        frame.meta_mut().stages.retx_ns = ns32(
            now.as_nanos()
                .saturating_sub(state.frame.meta().sent_at.as_nanos()),
        );
        self.retransmits += 1;
        if simtrace::is_enabled() {
            let t = now.as_nanos();
            simtrace::instant_args(
                "cluster",
                "retransmit",
                t,
                &[
                    simtrace::arg("id", id),
                    simtrace::arg("attempt", u64::from(next_attempt)),
                ],
            );
            simtrace::metric_add("cluster", "retransmits", t, 1.0);
        }
        queue.push(
            now + retx.rto_for(next_attempt),
            ClusterEvent::RetxCheck {
                id,
                attempt: next_attempt,
            },
        );
        // Passive health: an RTO firing against a pinned backend is a
        // strike; enough consecutive strikes eject it — the only detector
        // that catches a hung machine, whose probes still succeed. The
        // resent frame then re-pins to a healthy backend at dispatch.
        if let Some(fs) = self.fleet.as_mut() {
            if let Some(idx) = fs.lb.pinned_backend(id) {
                let _ = fs.lb.note_timeout(idx);
            }
        }
        self.route(now, frame, queue);
    }

    /// Runs the periodic invariant check and re-arms its timer.
    fn on_watchdog(&mut self, now: SimTime, queue: &mut EventQueue<ClusterEvent>) {
        let Some(mut wd) = self.watchdog.take() else {
            return;
        };
        let acc = self.accounting_view();
        let ledger = self.fleet.as_ref().map(|f| f.lb.ledger());
        wd.check(now, &self.servers, &acc, ledger.as_ref());
        wd.check_queue(now, queue.audit());
        queue.push(now + wd.period(), ClusterEvent::Watchdog);
        self.watchdog = Some(wd);
    }

    fn accounting_view(&self) -> AccountingView {
        AccountingView {
            armed: self.faults.retx.enabled,
            issued: self.issued_total,
            completed: self.completed_total,
            lost: self.lost_requests,
            rejected: self.rejected_total,
            in_flight: self.retx.len() as u64,
            misroutes: self.misroutes,
        }
    }

    fn on_sample(&mut self, now: SimTime, queue: &mut EventQueue<ClusterEvent>) {
        // Traces follow the first server (the paper's single-server study).
        self.servers[0].finalize(now);
        let cores = self.servers[0].cores();
        let freq_ghz = cores[0].freq_hz() as f64 / 1e9;
        let total_busy: SimDuration = cores.iter().map(cpusim::Core::busy_time).sum();
        let modes = Traces::cstate_modes();
        let mut cstate = [SimDuration::ZERO; 3];
        for (i, m) in modes.iter().enumerate() {
            cstate[i] = cores.iter().map(|c| c.energy().time_in(*m)).sum();
        }
        let ncores = cores.len();
        // Goodput (served) vs. throughput (served + rejected): under
        // overload the two series diverge — rejected requests consume
        // almost no server work but still resolve at clients.
        let served = self.tracker.completed() as f64;
        let rejected = self.tracker.rejected() as f64;
        if let Some(tr) = self.collector.as_mut() {
            tr.sample(now, freq_ghz, total_busy, cstate, ncores);
            tr.throughput_sample(now, served, rejected);
        }
        if simtrace::is_enabled() {
            let t = now.as_nanos();
            simtrace::metric_set("cluster", "goodput", t, served);
            simtrace::metric_set("cluster", "throughput", t, served + rejected);
        }
        queue.push(now + self.sample_period, ClusterEvent::Sample);
    }

    fn on_start_measure(&mut self, now: SimTime) {
        for s in &mut self.servers {
            s.finalize(now);
        }
        self.energy_baseline = self.total_energy_raw();
        self.measure_start = now;
        self.measuring = true;
        self.tracker = ResponseTracker::new();
        self.offered_measured = 0;
        self.breakdown.reset();
    }

    fn total_energy_raw(&self) -> EnergyMeter {
        let mut total = EnergyMeter::new();
        for s in &self.servers {
            for c in s.cores() {
                total.merge(c.energy());
            }
            total.merge(s.uncore_energy());
        }
        // Park/unpark transition energy is part of the fleet's bill; by
        // folding it into the same meter the warmup-baseline diff stays
        // correct for coordinated runs.
        if let Some(co) = self.fleet.as_ref().and_then(|f| f.coordinator.as_ref()) {
            total.merge(co.energy());
        }
        total
    }

    // ----- results -------------------------------------------------------

    /// Flushes accounting to `now` (call once at the horizon).
    pub fn finalize(&mut self, now: SimTime) {
        for s in &mut self.servers {
            s.finalize(now);
        }
        if let Some(fs) = self.fleet.as_mut() {
            for (idx, parked) in fs.lb.finalize(now) {
                if simtrace::is_enabled() && !parked.is_zero() {
                    if let Some(name) = fleetsim::metrics::parked_ns(idx) {
                        simtrace::metric_add("fleet", name, now.as_nanos(), {
                            parked.as_nanos() as f64
                        });
                    }
                }
            }
        }
        // One terminal invariant check so the horizon state (notably the
        // conservation identity) is always validated, even for runs
        // shorter than the watchdog period.
        if let Some(mut wd) = self.watchdog.take() {
            let acc = self.accounting_view();
            let ledger = self.fleet.as_ref().map(|f| f.lb.ledger());
            wd.check(now, &self.servers, &acc, ledger.as_ref());
            wd.check_quiescence(now, &acc, ledger.as_ref());
            self.watchdog = Some(wd);
        }
        if let Some(tr) = self.collector.take() {
            let markers = self.servers[0].wake_marker_times().to_vec();
            let mut traces = tr.finish(markers);
            traces.rx_drops = self.servers.iter().map(|s| s.nic().rx_drops()).sum();
            traces.fault_drops = self.switch.fault_stats().dropped();
            self.finished_traces = Some(traces);
        }
    }

    /// Whole-run fault-injection and recovery accounting: injected
    /// impairments from the switch, recovery work from the clients and
    /// the server's duplicate-suppression counters.
    #[must_use]
    pub fn fault_summary(&self) -> FaultSummary {
        let fs = self.switch.fault_stats();
        let (mut dup, mut replays) = (0, 0);
        for s in &self.servers {
            let ks = s.stats();
            dup += ks.dup_suppressed;
            replays += ks.resp_replays;
        }
        FaultSummary {
            injected_losses: fs.losses,
            injected_corruptions: fs.corruptions,
            injected_reorders: fs.reorders,
            retransmits: self.retransmits,
            lost_requests: self.lost_requests,
            dup_suppressed: dup,
            resp_replays: replays,
            issued_total: self.issued_total,
            completed_total: self.completed_total,
            rejected_total: self.rejected_total,
            in_flight: self.retx.len() as u64,
        }
    }

    /// The fleet summary (dispatch accounting, per-backend states,
    /// park/unpark counts), if the fleet layer is installed. Call after
    /// [`finalize`](Self::finalize) so parked residency is flushed.
    #[must_use]
    pub fn fleet_summary(&self) -> Option<FleetSummary> {
        self.fleet.as_ref().map(|fs| {
            let mut s = fs.lb.summary();
            if let Some(co) = &fs.coordinator {
                s.parks = co.parks();
                s.unparks = co.unparks();
                s.transition_energy_j = co.energy().total_joules();
            }
            s
        })
    }

    /// The installed watchdog (checks performed, recorded violations).
    #[must_use]
    pub fn watchdog(&self) -> Option<&Watchdog> {
        self.watchdog.as_ref()
    }

    /// Reliable requests resolved by server rejection (whole run).
    #[must_use]
    pub fn rejected_total(&self) -> u64 {
        self.rejected_total
    }

    /// Frames dropped because the switch did not know their destination.
    #[must_use]
    pub fn misroutes(&self) -> u64 {
        self.misroutes
    }

    /// Frames that died at a failed machine (requests into a crashed
    /// backend, responses a crash or hang swallowed). Zero whenever the
    /// failure schedule is empty.
    #[must_use]
    pub fn fleet_dead_frames(&self) -> u64 {
        self.fleet.as_ref().map_or(0, |f| f.dead_frames)
    }

    /// Energy consumed since the warmup boundary, per mode.
    #[must_use]
    pub fn measured_energy(&self) -> EnergyMeter {
        self.total_energy_raw().diff(&self.energy_baseline)
    }

    /// Measured-window processor energy in joules.
    #[must_use]
    pub fn measured_energy_j(&self) -> f64 {
        self.measured_energy().total_joules()
    }

    /// Busy-mode share of measured energy (diagnostics).
    #[must_use]
    pub fn measured_busy_fraction(&self) -> f64 {
        let e = self.measured_energy();
        if e.total_joules() == 0.0 {
            0.0
        } else {
            e.joules(PowerMode::Busy) / e.total_joules()
        }
    }

    /// The response tracker (latency histogram, completion counts).
    #[must_use]
    pub fn tracker(&self) -> &ResponseTracker {
        &self.tracker
    }

    /// The raw per-stage attribution population collected during the
    /// measured window (empty when collection is disabled).
    #[must_use]
    pub fn breakdown_collector(&self) -> &BreakdownCollector {
        &self.breakdown
    }

    /// Condensed per-stage attribution, tail-conditioned at
    /// `tail_percentile` of total latency.
    #[must_use]
    pub fn latency_breakdown(&self, tail_percentile: f64) -> LatencyBreakdown {
        self.breakdown.finalize(tail_percentile)
    }

    /// Latency-critical requests offered during the measured window.
    #[must_use]
    pub fn offered_measured(&self) -> u64 {
        self.offered_measured
    }

    /// The first (or only) server kernel (counters, cores, NIC).
    #[must_use]
    pub fn server(&self) -> &Kernel {
        &self.servers[0]
    }

    /// All server kernels.
    #[must_use]
    pub fn servers(&self) -> &[Kernel] {
        &self.servers
    }

    /// The collected traces, if tracing was enabled. Available after
    /// [`finalize`](Self::finalize).
    #[must_use]
    pub fn traces(&self) -> Option<&Traces> {
        self.finished_traces.as_ref()
    }

    /// Consumes the simulation, returning the traces (reconstructed at
    /// [`finalize`](Self::finalize)).
    #[must_use]
    pub fn into_traces(self) -> Option<Traces> {
        self.finished_traces
    }
}

impl EventHandler for ClusterSim {
    type Event = ClusterEvent;

    fn handle(&mut self, now: SimTime, event: ClusterEvent, queue: &mut EventQueue<ClusterEvent>) {
        // Scope trace events to the node whose state this event mutates,
        // so exports get one Perfetto process per node.
        if simtrace::is_enabled() {
            let node = match &event {
                ClusterEvent::Server(node, _) => node.0,
                ClusterEvent::Deliver { frame } => frame.dst().0,
                ClusterEvent::ClientBurst { idx } => self.clients[*idx].config().me.0,
                ClusterEvent::RetxCheck { id, .. } => self
                    .retx
                    .get(id)
                    .map_or(self.servers[0].node().0, |s| s.frame.src().0),
                ClusterEvent::Sample | ClusterEvent::StartMeasure | ClusterEvent::Watchdog => {
                    self.servers[0].node().0
                }
                ClusterEvent::FleetEpoch
                | ClusterEvent::FleetParkDone { .. }
                | ClusterEvent::FleetUnparkDone { .. }
                | ClusterEvent::FleetHealth => self
                    .fleet
                    .as_ref()
                    .map_or(self.servers[0].node().0, |f| f.lb.vip().0),
                ClusterEvent::BackendFail { backend, .. }
                | ClusterEvent::BackendRestart { backend } => self
                    .servers
                    .get(*backend)
                    .map_or(self.servers[0].node().0, |s| s.node().0),
                ClusterEvent::DomainFail { .. } | ClusterEvent::DomainHeal { .. } => self
                    .fleet
                    .as_ref()
                    .map_or(self.servers[0].node().0, |f| f.lb.vip().0),
            };
            simtrace::set_node(node);
        }
        match event {
            ClusterEvent::Server(node, e) => {
                let si = self.server_index(node).expect("event for a known server");
                self.handle_server(now, si, e, queue);
            }
            ClusterEvent::ClientBurst { idx } => self.on_client_burst(now, idx, queue),
            ClusterEvent::Deliver { frame } => self.on_deliver(now, frame, queue),
            ClusterEvent::RetxCheck { id, attempt } => self.on_retx_check(now, id, attempt, queue),
            ClusterEvent::Sample => self.on_sample(now, queue),
            ClusterEvent::StartMeasure => self.on_start_measure(now),
            ClusterEvent::Watchdog => self.on_watchdog(now, queue),
            ClusterEvent::FleetEpoch => self.on_fleet_epoch(now, queue),
            ClusterEvent::FleetParkDone { backend, gen } => {
                self.on_fleet_transition_done(now, backend, gen, true);
            }
            ClusterEvent::FleetUnparkDone { backend, gen } => {
                self.on_fleet_transition_done(now, backend, gen, false);
            }
            ClusterEvent::BackendFail { backend, mode } => self.on_backend_fail(now, backend, mode),
            ClusterEvent::BackendRestart { backend } => self.on_backend_restart(now, backend),
            ClusterEvent::DomainFail { domain } => self.on_domain_fail(now, domain),
            ClusterEvent::DomainHeal { domain } => self.on_domain_heal(now, domain),
            ClusterEvent::FleetHealth => self.on_fleet_health(now, queue),
        }
    }

    fn classify(&self, event: &ClusterEvent) -> &'static str {
        match event {
            ClusterEvent::Server(_, e) => e.class(),
            ClusterEvent::ClientBurst { .. } => "client_burst",
            ClusterEvent::Deliver { .. } => "deliver",
            ClusterEvent::RetxCheck { .. } => "retx_check",
            ClusterEvent::Sample => "sample",
            ClusterEvent::StartMeasure => "start_measure",
            ClusterEvent::Watchdog => "watchdog",
            ClusterEvent::FleetEpoch => "fleet_epoch",
            ClusterEvent::FleetParkDone { .. } => "fleet_park",
            ClusterEvent::FleetUnparkDone { .. } => "fleet_unpark",
            ClusterEvent::BackendFail { .. } => "backend_fail",
            ClusterEvent::BackendRestart { .. } => "backend_restart",
            ClusterEvent::DomainFail { .. } => "domain_fail",
            ClusterEvent::DomainHeal { .. } => "domain_heal",
            ClusterEvent::FleetHealth => "fleet_health",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AppKind, ExperimentConfig};
    use crate::policy::Policy;
    use crate::runner::build_server;
    use desim::Simulation;
    use oldi_apps::ClientConfig;

    /// Frames ride in cluster events by pointer: an event is three words.
    #[test]
    fn cluster_event_fits_24_bytes() {
        assert!(std::mem::size_of::<ClusterEvent>() <= 24);
    }

    fn tiny_cluster(policy: Policy) -> (ClusterSim, Vec<(SimTime, ClusterEvent)>) {
        let cfg = ExperimentConfig::new(AppKind::Memcached, policy, 10_000.0)
            .with_durations(SimDuration::from_ms(5), SimDuration::from_ms(20));
        let server = build_server(&cfg, NodeId(0));
        let client = oldi_apps::OpenLoopClient::new(ClientConfig::memcached(
            NodeId(1),
            NodeId(0),
            20,
            SimDuration::from_ms(2),
            3,
        ));
        let mut sim = ClusterSim::new(server, vec![client], vec![false], None);
        let initial = sim.initial_events(cfg.warmup, SimTime::from_ms(25));
        (sim, initial)
    }

    fn run(policy: Policy) -> ClusterSim {
        let (cluster, initial) = tiny_cluster(policy);
        let mut sim = Simulation::new(cluster);
        for (t, e) in initial {
            sim.queue_mut().push(t, e);
        }
        sim.run_until(SimTime::from_ms(25));
        let now = sim.now();
        let c = sim.handler_mut();
        c.finalize(now);
        sim.into_handler()
    }

    #[test]
    fn direct_cluster_roundtrip() {
        let c = run(Policy::Perf);
        assert!(
            c.tracker().completed() > 100,
            "completed {}",
            c.tracker().completed()
        );
        assert!(c.measured_energy_j() > 0.0);
        assert!(c.offered_measured() > 0);
        assert!(c.measured_busy_fraction() > 0.0);
    }

    #[test]
    fn warmup_boundary_resets_measurement() {
        let c = run(Policy::Perf);
        // Offered during the measured window only: 20 ms at 10 K rps ≈ 200,
        // far less than the 25 ms total would imply if warmup leaked in.
        assert!(
            c.offered_measured() <= 260,
            "offered {}",
            c.offered_measured()
        );
    }

    #[test]
    fn ncap_cluster_records_wake_markers() {
        let c = run(Policy::NcapCons);
        assert!(!c.server().wake_marker_times().is_empty());
        assert_eq!(c.servers().len(), 1);
    }

    #[test]
    #[should_panic(expected = "flag per client required")]
    fn mismatched_background_flags_rejected() {
        let cfg = ExperimentConfig::new(AppKind::Memcached, Policy::Perf, 10_000.0);
        let server = build_server(&cfg, NodeId(0));
        let _ = ClusterSim::new(server, Vec::new(), vec![false], None);
    }

    #[test]
    fn debug_output_mentions_servers() {
        let (c, _) = tiny_cluster(Policy::Perf);
        assert!(format!("{c:?}").contains("servers"));
    }
}
