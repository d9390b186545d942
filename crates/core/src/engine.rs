//! The fast emulation engine — the software stand-in for the FPGA.
//!
//! One call to [`Emulation::step`] is one platform clock cycle. The
//! canonical intra-cycle ordering (which `nocem-rtl` and `nocem-tlm`
//! reproduce through their own scheduling mechanisms) is:
//!
//! 1. **TG tick** — every traffic model may release one packet into
//!    its network interface's source queue (ids are assigned globally
//!    in generator order);
//! 2. **decide** — every switch computes its grants from
//!    start-of-cycle state (ascending switch order);
//! 3. **NI send** — every network interface may inject one flit into
//!    its switch input (visible to `decide` from the next cycle);
//! 4. **commit** — every switch pops its granted flits, returns
//!    credits upstream, pushes flits downstream (visible next cycle)
//!    and delivers ejected flits to receptors *this* cycle;
//! 5. the cycle counter advances and the stop condition is evaluated.
//!
//! The engine also implements [`BusAccess`]: the configuration
//! software (drivers) reads and writes the same memory-mapped
//! registers it would on the paper's FPGA platform.

use crate::clock::{self, ClockMode, EngineSummary, SteppableEngine};
use crate::compile::{Elaboration, InSource, OutTarget, ReceptorDevice};
use crate::devices::{self, TgShadow};
use crate::error::EmulationError;
use crate::profile::{
    BlockedLink, Phase, PhaseProfiler, PhaseReport, StallReport, StallWatchdog, WaitDest, WaitEdge,
};
use crate::results::EmulationResults;
use nocem_common::flit::PacketDescriptor;
use nocem_common::ids::{BusId, DeviceId, EndpointId, PacketId, SwitchId};
use nocem_common::time::Cycle;
use nocem_platform::addr::Address;
use nocem_platform::bus::{AddressMap, BusAccess, BusError, DeviceClass};
use nocem_platform::control::ControlModule;
use nocem_stats::congestion::CongestionCounter;
use nocem_stats::ledger::PacketLedger;
use nocem_telemetry::{Collector, CumulativeProbe, FlitEvent, FlitEventKind, FlitTracer};
use nocem_traffic::generator::PacketRequest;
use nocem_traffic::trace::{TraceEvent, TraceRecorder};

/// A compiled platform ready to emulate.
pub struct Emulation {
    elab: Elaboration,
    generator_endpoints: Vec<EndpointId>,
    ledger: PacketLedger,
    control: ControlModule,
    tg_shadow: Vec<TgShadow>,
    now: Cycle,
    next_packet: u64,
    /// Per-TG output register: a request the source queue could not
    /// absorb yet (the model is clock-gated while this is occupied).
    pending: Vec<Option<PacketRequest>>,
    stalled: u64,
    delivered_flits: u64,
    /// Cycles the fast-forward kernel jumped over (gated mode only).
    cycles_skipped: u64,
    recorder: Option<TraceRecorder>,
    started: bool,
    /// Windowed per-resource telemetry (None = off, no probe cost).
    telemetry: Option<Collector>,
    /// Bounded flit event tracer (opt-in via the telemetry config).
    tracer: Option<FlitTracer>,
    /// Per-phase self-profiler (None = off, zero timestamp cost).
    profiler: Option<PhaseProfiler>,
    /// Stall watchdog, when the profile config enables one.
    watchdog: Option<StallWatchdog>,
    /// Link selected through the monitor device's `SELECT` register.
    monitor_select: u32,
}

impl std::fmt::Debug for Emulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Emulation")
            .field("name", &self.elab.config.name)
            .field("cycle", &self.now)
            .field("delivered", &self.ledger.delivered())
            .finish_non_exhaustive()
    }
}

impl Emulation {
    /// Wraps an elaboration into a runnable emulation.
    pub fn new(elab: Elaboration) -> Self {
        let generator_endpoints = elab.config.topology.generators();
        let recorder = elab.config.record_trace.then(TraceRecorder::new);
        let tg_shadow = elab
            .config
            .generators
            .iter()
            .map(TgShadow::from_model)
            .collect();
        let telemetry = elab.config.telemetry.as_ref().map(|t| {
            Collector::new(
                t,
                elab.config.topology.link_count(),
                usize::from(elab.config.switch.num_vcs),
            )
        });
        let tracer = elab
            .config
            .telemetry
            .as_ref()
            .filter(|t| t.trace)
            .map(|t| FlitTracer::new(t.trace_capacity));
        let profiler = elab.config.profile.as_ref().map(|_| {
            let mut p = PhaseProfiler::new();
            p.add_ns(Phase::Elaborate, elab.elaborate_ns);
            p
        });
        let watchdog = elab
            .config
            .profile
            .as_ref()
            .and_then(|p| p.stall)
            .map(StallWatchdog::new);
        Emulation {
            generator_endpoints,
            ledger: PacketLedger::new(),
            control: ControlModule::new(),
            tg_shadow,
            now: Cycle::ZERO,
            next_packet: 0,
            pending: vec![None; elab.tgs.len()],
            stalled: 0,
            delivered_flits: 0,
            cycles_skipped: 0,
            recorder,
            started: false,
            telemetry,
            tracer,
            profiler,
            watchdog,
            monitor_select: 0,
            elab,
        }
    }

    /// The current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Packets delivered so far.
    pub fn delivered(&self) -> u64 {
        self.ledger.delivered()
    }

    /// Cycles the fast-forward kernel jumped over so far (always 0
    /// under [`ClockMode::EveryCycle`]).
    pub fn cycles_skipped(&self) -> u64 {
        self.cycles_skipped
    }

    /// Whether the whole platform is quiescent: no parked TG request,
    /// every NI idle with all credits home, every switch quiescent, no
    /// packet in flight. See [`clock::platform_quiescent`].
    pub fn is_quiescent(&self) -> bool {
        clock::platform_quiescent(
            &self.elab.switches,
            &self.elab.nis,
            &self.pending,
            self.ledger.in_flight(),
        )
    }

    /// The elaborated platform (read access for inspection).
    pub fn elaboration(&self) -> &Elaboration {
        &self.elab
    }

    /// The packet ledger (read access for tests and reports).
    pub fn ledger(&self) -> &PacketLedger {
        &self.ledger
    }

    /// Advances one platform cycle.
    ///
    /// # Errors
    ///
    /// Returns [`EmulationError`] on wiring/protocol violations (which
    /// a correct build never produces) or when the cycle limit is
    /// exceeded.
    pub fn step(&mut self) -> Result<(), EmulationError> {
        let mut t = self.profiler.as_mut().map(PhaseProfiler::begin_step);
        // Hybrid clock gating: on a quiescent platform, jump straight
        // to the earliest future TG event instead of stepping empty
        // cycles. The skipped ticks are pure no-ops (proven by the
        // gated-vs-ungated lockstep tests), so the cycle executed
        // below at the jump target is exactly the cycle an every-cycle
        // run would have executed there.
        if self.elab.config.clock_mode == ClockMode::Gated && self.is_quiescent() {
            let skipped = clock::fast_forward(
                self.now,
                self.elab.config.stop.cycle_limit,
                &mut self.elab.tgs,
            );
            self.now += skipped;
            self.cycles_skipped += skipped;
        }
        PhaseProfiler::lap_chain(&mut self.profiler, &mut t, Phase::FastForward);
        // Telemetry probe: at the start of the cycle, *after* the
        // fast-forward, the cumulative counters reflect exactly the
        // cycles [0, now) — the same prefix every engine sees here, so
        // the recorded windows are engine- and clock-mode-invariant.
        // A jump that crossed several boundaries records one zero
        // sample per crossed boundary (nothing moves while quiescent).
        if self
            .telemetry
            .as_ref()
            .is_some_and(|t| t.needs_probe(self.now.raw()))
        {
            let probe = self.cumulative_probe();
            let at = self.now.raw();
            self.telemetry
                .as_mut()
                .expect("presence checked above")
                .record(at, &probe);
        }
        PhaseProfiler::lap_chain(&mut self.profiler, &mut t, Phase::Probe);
        let now = self.now;
        self.started = true;

        // 1. Traffic models release packets. A model whose request
        //    finds the source queue full is clock-gated: the request
        //    parks in the TG's output register (`pending`) and retries
        //    every cycle until a slot frees, so no packet is dropped
        //    (hardware backpressure via the NI's ready signal).
        for i in 0..self.elab.tgs.len() {
            let req = match self.pending[i].take() {
                Some(req) if self.elab.nis[i].can_accept() => req,
                Some(req) => {
                    self.pending[i] = Some(req);
                    self.stalled += 1;
                    if let Some(tr) = &mut self.tracer {
                        tr.record(FlitEvent {
                            cycle: now.raw(),
                            kind: FlitEventKind::Block,
                            packet: None,
                            switch: Some(self.elab.wiring.injection[i].0 as u32),
                            link: None,
                        });
                    }
                    continue;
                }
                None => {
                    let Some(req) = self.elab.tgs[i].tick(now) else {
                        continue;
                    };
                    if !self.elab.nis[i].can_accept() {
                        self.pending[i] = Some(req);
                        self.stalled += 1;
                        if let Some(tr) = &mut self.tracer {
                            tr.record(FlitEvent {
                                cycle: now.raw(),
                                kind: FlitEventKind::Block,
                                packet: None,
                                switch: Some(self.elab.wiring.injection[i].0 as u32),
                                link: None,
                            });
                        }
                        continue;
                    }
                    req
                }
            };
            let id = PacketId::new(self.next_packet);
            let desc = PacketDescriptor {
                id,
                src: self.generator_endpoints[i],
                dst: req.dst,
                flow: req.flow,
                len_flits: req.len_flits,
                release: now,
            };
            let accepted = self.elab.nis[i].offer(desc);
            debug_assert!(accepted, "capacity was checked before the offer");
            self.next_packet += 1;
            PhaseProfiler::nest(&mut self.profiler, Phase::Ledger, || {
                self.ledger.release(id, now, req.len_flits)
            })?;
            if let Some(rec) = &mut self.recorder {
                rec.record(TraceEvent {
                    at: now,
                    src: desc.src,
                    dst: desc.dst,
                    flow: desc.flow,
                    len_flits: desc.len_flits,
                });
            }
        }

        PhaseProfiler::lap_chain(&mut self.profiler, &mut t, Phase::TgTick);

        // 2. All switches decide on start-of-cycle state.
        for sw in &mut self.elab.switches {
            sw.decide();
        }
        PhaseProfiler::lap_chain(&mut self.profiler, &mut t, Phase::Decide);

        // 3. Network interfaces inject (visible next cycle).
        for i in 0..self.elab.nis.len() {
            let Some(flit) = self.elab.nis[i].tick_send() else {
                continue;
            };
            let (s, port, link) = self.elab.wiring.injection[i];
            if flit.kind.is_head() {
                PhaseProfiler::nest(&mut self.profiler, Phase::Ledger, || {
                    self.ledger.inject(flit.packet, now)
                })?;
                if let Some(tr) = &mut self.tracer {
                    tr.record(FlitEvent {
                        cycle: now.raw(),
                        kind: FlitEventKind::Inject,
                        packet: Some(flit.packet.raw()),
                        switch: Some(s as u32),
                        link: Some(link.raw()),
                    });
                }
            }
            self.elab.switches[s].accept(port, flit).map_err(|source| {
                EmulationError::FifoOverflow {
                    switch: SwitchId::new(s as u32),
                    source,
                }
            })?;
        }
        PhaseProfiler::lap_chain(&mut self.profiler, &mut t, Phase::NiInject);

        // 4. All switches commit; flits move one hop.
        for s in 0..self.elab.switches.len() {
            let sends = self.elab.switches[s].commit_sends();
            for t in sends {
                match self.elab.wiring.in_source[s][t.input.index()] {
                    InSource::Switch { switch, port } => {
                        // The upstream output VC the flit occupied is
                        // the input VC it just vacated here.
                        self.elab.switches[switch].credit_return(port, t.input_vc);
                    }
                    InSource::Generator { index } => {
                        self.elab.nis[index].credit_return();
                    }
                }
                match self.elab.wiring.out_target[s][t.output.index()] {
                    OutTarget::Switch { switch, port } => {
                        if let Some(tr) = &mut self.tracer {
                            let link = self.elab.config.topology.out_link(
                                SwitchId::new(s as u32),
                                nocem_common::ids::PortId::new(t.output.index() as u8),
                            );
                            tr.record(FlitEvent {
                                cycle: now.raw(),
                                kind: FlitEventKind::Route,
                                packet: Some(t.flit.packet.raw()),
                                switch: Some(s as u32),
                                link: Some(link.raw()),
                            });
                        }
                        self.elab.switches[switch]
                            .accept(port, t.flit)
                            .map_err(|source| EmulationError::FifoOverflow {
                                switch: SwitchId::new(switch as u32),
                                source,
                            })?;
                    }
                    OutTarget::Receptor { index } => {
                        self.deliver(index, t.flit, now)?;
                    }
                }
            }
        }
        PhaseProfiler::lap_chain(&mut self.profiler, &mut t, Phase::Commit);

        // Stall watchdog: feed the ledger counters once per stepped
        // cycle; on the trip, capture the wait-for snapshot.
        let tripped = match self.watchdog.as_mut() {
            Some(w) => w.observe(
                now.raw(),
                self.ledger.released(),
                self.ledger.injected(),
                self.ledger.delivered(),
                self.ledger.in_flight(),
            ),
            None => false,
        };
        if tripped {
            let report = self.capture_stall_report(now.raw());
            self.watchdog
                .as_mut()
                .expect("tripped implies watchdog")
                .latch(report);
        }

        // 5. Advance time.
        self.now = now.next();
        if self.now.raw() > self.elab.config.stop.cycle_limit {
            return Err(EmulationError::CycleLimitExceeded {
                limit: self.elab.config.stop.cycle_limit,
                delivered: self.ledger.delivered(),
            });
        }
        Ok(())
    }

    fn deliver(
        &mut self,
        index: usize,
        flit: nocem_common::flit::Flit,
        now: Cycle,
    ) -> Result<(), EmulationError> {
        let completed = self.elab.receptors[index].accept(&flit, now)?;
        if let Some(pkt) = completed {
            let lat = PhaseProfiler::nest(&mut self.profiler, Phase::Ledger, || {
                self.ledger.deliver(pkt.id, now, pkt.len_flits)
            })?;
            self.delivered_flits += u64::from(pkt.len_flits);
            if let Some(tr) = &mut self.tracer {
                tr.record(FlitEvent {
                    cycle: now.raw(),
                    kind: FlitEventKind::Eject,
                    packet: Some(pkt.id.raw()),
                    switch: None,
                    link: None,
                });
            }
            if let ReceptorDevice::Trace(r) = &mut self.elab.receptors[index] {
                r.record_latency(lat.network, lat.total);
            }
        }
        Ok(())
    }

    /// Whether the stop condition holds.
    pub fn finished(&self) -> bool {
        match self.elab.config.stop.delivered_packets {
            Some(target) => self.ledger.delivered() >= target,
            None => {
                self.elab.tgs.iter().all(|t| t.is_exhausted())
                    && self.pending.iter().all(Option::is_none)
                    && self.elab.nis.iter().all(|n| n.is_idle())
                    && self.ledger.in_flight() == 0
            }
        }
    }

    /// Runs until the stop condition holds.
    ///
    /// # Errors
    ///
    /// Propagates [`EmulationError`] from [`Emulation::step`].
    pub fn run(&mut self) -> Result<(), EmulationError> {
        self.control.set_running(true);
        while !self.finished() {
            self.step()?;
        }
        self.refresh_control();
        self.control.set_done();
        Ok(())
    }

    /// Runs like [`Emulation::run`], invoking `progress` at every
    /// multiple of `interval` cycles with `(cycle, delivered)`.
    ///
    /// The granularity survives clock gating: a fast-forward jump that
    /// crosses one or more reporting boundaries fires the callback
    /// once per crossed boundary (with the delivered count of that
    /// boundary, which is exact — nothing delivers inside a quiescent
    /// window).
    ///
    /// # Errors
    ///
    /// Propagates [`EmulationError`] from [`Emulation::step`].
    pub fn run_with_progress(
        &mut self,
        interval: u64,
        progress: impl FnMut(Cycle, u64),
    ) -> Result<(), EmulationError> {
        self.control.set_running(true);
        clock::run_engine_with_progress(self, interval, progress)?;
        self.refresh_control();
        self.control.set_done();
        Ok(())
    }

    /// Applies register-programmed parameters (control module and TG
    /// shadows) and runs. This is the path the paper's software takes:
    /// everything is configured over the bus, then the start bit is
    /// set.
    ///
    /// # Errors
    ///
    /// Returns [`EmulationError::Bus`]-style faults if start was never
    /// requested, otherwise propagates run errors.
    pub fn run_programmed(&mut self) -> Result<(), EmulationError> {
        if !self.control.start_requested() {
            // On an over-capacity platform the map is empty (the start
            // bit can never be set over the bus); report the
            // conventional control slot either way.
            let ctrl = self
                .elab
                .map
                .devices()
                .first()
                .map(|d| d.addr)
                .unwrap_or_else(|| {
                    nocem_platform::DeviceAddr::new(BusId::new(0), DeviceId::new(0))
                });
            return Err(EmulationError::Bus(BusError::InvalidValue {
                addr: ctrl.reg(nocem_platform::control::REG_CTRL),
                reason: "start bit not set".into(),
            }));
        }
        // Control-module overrides.
        if self.control.target() != 0 {
            self.elab.config.stop.delivered_packets = Some(self.control.target());
        }
        if self.control.cycle_limit() != 0 {
            self.elab.config.stop.cycle_limit = self.control.cycle_limit();
        }
        // Rebuild generators whose shadows were written.
        let seed_base = if self.control.seed() != 0 {
            self.control.seed()
        } else {
            self.elab.config.seed
        };
        for i in 0..self.tg_shadow.len() {
            if !self.tg_shadow[i].dirty {
                continue;
            }
            let model = self.tg_shadow[i]
                .to_model(&self.elab.config.generators[i])
                .map_err(EmulationError::Bus)?;
            let seed = seed_base ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            self.elab.tgs[i] = devices::build_generator(&model, seed, self.generator_endpoints[i]);
            self.elab.config.generators[i] = model;
        }
        self.run()
    }

    fn refresh_control(&mut self) {
        self.control.set_cycles(self.now.raw());
        self.control.set_delivered(self.ledger.delivered());
    }

    /// Builds the per-link congestion counters from the switch and NI
    /// counters.
    ///
    /// Every link is accounted at exactly one point — its *source*:
    /// inter-switch and ejection links at the upstream switch output
    /// port (blocked = cycles some flit requested the output and was
    /// not granted; forwarded = flits that crossed), injection links
    /// at the network interface (blocked = credit-starved cycles;
    /// forwarded = injected flits). Source-side accounting is what
    /// makes a 90 %-loaded link show up as congested: the stalls
    /// accumulate where flits *wait to enter* the link, not at its
    /// sink buffer (which drains freely into the receptors).
    pub fn congestion(&self) -> CongestionCounter {
        let topo = &self.elab.config.topology;
        let mut cc = CongestionCounter::new(topo.link_count());
        for (s, sw) in self.elab.switches.iter().enumerate() {
            let counters = sw.counters();
            for o in 0..usize::from(sw.config().outputs) {
                let link = topo.out_link(
                    SwitchId::new(s as u32),
                    nocem_common::ids::PortId::new(o as u8),
                );
                cc.add(
                    link,
                    counters.blocked_cycles_per_output[o],
                    counters.forwarded_per_output[o],
                );
            }
        }
        for (i, ni) in self.elab.nis.iter().enumerate() {
            let (_, _, link) = self.elab.wiring.injection[i];
            let c = ni.counters();
            cc.add(link, c.blocked_cycles, c.injected_flits);
        }
        cc
    }

    /// Snapshot of the cumulative per-link counters plus live per-VC
    /// occupancy, in the source-side accounting of
    /// [`Emulation::congestion`].
    fn cumulative_probe(&self) -> CumulativeProbe {
        let topo = &self.elab.config.topology;
        let vcs = usize::from(self.elab.config.switch.num_vcs);
        let mut p = CumulativeProbe::new(topo.link_count(), vcs);
        for (s, sw) in self.elab.switches.iter().enumerate() {
            let counters = sw.counters();
            for o in 0..usize::from(sw.config().outputs) {
                let link = topo.out_link(
                    SwitchId::new(s as u32),
                    nocem_common::ids::PortId::new(o as u8),
                );
                p.add_link(
                    link,
                    counters.blocked_cycles_per_output[o],
                    counters.forwarded_per_output[o],
                );
            }
            for v in 0..vcs {
                p.add_vc(v, sw.occupancy_of_vc(nocem_common::ids::VcId::new(v as u8)));
            }
        }
        for (i, ni) in self.elab.nis.iter().enumerate() {
            let (_, _, link) = self.elab.wiring.injection[i];
            let c = ni.counters();
            p.add_link(link, c.blocked_cycles, c.injected_flits);
        }
        p
    }

    /// Assembles the forensic stall snapshot: every waiting input VC
    /// as a wait-for edge (resolved through the wiring to its
    /// downstream switch input or receptor), plus the most blocked
    /// links from the cumulative congestion counters.
    fn capture_stall_report(&self, at_cycle: u64) -> StallReport {
        let topo = &self.elab.config.topology;
        let mut edges = Vec::new();
        for (s, sw) in self.elab.switches.iter().enumerate() {
            for w in sw.wait_states() {
                let link = topo.out_link(SwitchId::new(s as u32), w.output);
                let dest = match self.elab.wiring.out_target[s][w.output.index()] {
                    OutTarget::Switch { switch, port } => WaitDest::Switch {
                        switch: switch as u32,
                        input: port.index() as u32,
                    },
                    OutTarget::Receptor { index } => WaitDest::Receptor {
                        index: index as u32,
                    },
                };
                edges.push(WaitEdge {
                    switch: s as u32,
                    in_port: u32::from(w.input.raw()),
                    in_vc: w.in_vc.raw(),
                    out_port: u32::from(w.output.raw()),
                    out_vc: w.out_vc.raw(),
                    link: link.raw(),
                    occupancy: w.occupancy as u32,
                    fifo_depth: w.fifo_depth as u32,
                    credits: w.credits,
                    credit_cap: w.credit_cap,
                    worm_open: w.worm_open,
                    dest,
                });
            }
        }
        let cc = self.congestion();
        let mut blocked: Vec<BlockedLink> = topo
            .links()
            .map(|l| BlockedLink {
                link: l.id.raw(),
                blocked: cc.blocked(l.id),
            })
            .filter(|b| b.blocked > 0)
            .collect();
        blocked.sort_by_key(|b| (std::cmp::Reverse(b.blocked), b.link));
        blocked.truncate(5);
        let window = self
            .elab
            .config
            .profile
            .as_ref()
            .and_then(|p| p.stall)
            .map_or(0, |s| s.no_progress_cycles);
        StallReport::new(at_cycle, window, self.ledger.in_flight(), edges, blocked)
    }

    /// The windowed telemetry collector, when enabled.
    pub fn telemetry(&self) -> Option<&Collector> {
        self.telemetry.as_ref()
    }

    /// The bounded flit event trace, when tracing was enabled.
    pub fn flit_trace(&self) -> Option<&FlitTracer> {
        self.tracer.as_ref()
    }

    /// Flushes the trailing partial window and freezes the collector
    /// (idempotent; no-op without telemetry).
    pub fn seal_telemetry(&mut self) {
        if self.telemetry.as_ref().is_some_and(|t| !t.is_sealed()) {
            let probe = self.cumulative_probe();
            let at = self.now.raw();
            self.telemetry
                .as_mut()
                .expect("presence checked above")
                .seal(at, &probe);
        }
    }

    /// Extracts the results of a finished (or stopped) run.
    pub fn results(&self) -> EmulationResults {
        EmulationResults::collect(self)
    }

    /// Consumes the emulation and returns results plus the recorded
    /// trace, if recording was enabled.
    pub fn into_results(mut self) -> (EmulationResults, Option<nocem_traffic::trace::Trace>) {
        let results = self.results();
        let trace = self.recorder.take().map(TraceRecorder::into_trace);
        (results, trace)
    }

    pub(crate) fn stalled(&self) -> u64 {
        self.stalled
    }

    pub(crate) fn delivered_flits(&self) -> u64 {
        self.delivered_flits
    }

    pub(crate) fn tg_shadow_ref(&self, i: usize) -> &TgShadow {
        &self.tg_shadow[i]
    }

    fn device_ordinal(&self, addr: Address) -> Result<(DeviceClass, usize), BusError> {
        // Platforms too large for the 4x1024 control plane elaborate
        // with an empty map — no device is bus-addressable.
        if self.elab.map.devices().is_empty() {
            return Err(BusError::Unmapped(addr));
        }
        let d = addr.device_addr();
        let n = usize::from(d.bus.raw()) * usize::from(nocem_platform::DEVICES_PER_BUS)
            + usize::from(d.device.raw());
        let g = self.elab.tgs.len();
        let r = self.elab.receptors.len();
        let s = self.elab.switches.len();
        if n == 0 {
            Ok((DeviceClass::Control, 0))
        } else if n < 1 + g {
            Ok((DeviceClass::TrafficGenerator, n - 1))
        } else if n < 1 + g + r {
            Ok((DeviceClass::TrafficReceptor, n - 1 - g))
        } else if n < 1 + g + r + s {
            Ok((DeviceClass::Switch, n - 1 - g - r))
        } else if n == 1 + g + r + s {
            Ok((DeviceClass::Monitor, 0))
        } else {
            Err(BusError::Unmapped(addr))
        }
    }

    /// The address map (for drivers to locate devices).
    pub fn address_map(&self) -> &AddressMap {
        &self.elab.map
    }
}

impl SteppableEngine for Emulation {
    fn step(&mut self) -> Result<(), EmulationError> {
        Emulation::step(self)
    }

    fn now(&self) -> Cycle {
        self.now
    }

    fn finished(&self) -> bool {
        Emulation::finished(self)
    }

    fn delivered(&self) -> u64 {
        self.ledger.delivered()
    }

    fn cycles_skipped(&self) -> u64 {
        self.cycles_skipped
    }

    fn summary(&self) -> EngineSummary {
        EngineSummary::from_ledger(
            self.now.raw(),
            self.cycles_skipped,
            self.delivered_flits,
            &self.ledger,
        )
    }

    fn packet_ledger(&self) -> PacketLedger {
        self.ledger.clone()
    }

    fn telemetry(&self) -> Option<&Collector> {
        Emulation::telemetry(self)
    }

    fn seal_telemetry(&mut self) {
        Emulation::seal_telemetry(self);
    }

    fn profile(&mut self) -> Option<PhaseReport> {
        self.profiler.as_ref().map(|p| p.report("emulation"))
    }

    fn stall_report(&self) -> Option<&StallReport> {
        self.watchdog.as_ref().and_then(StallWatchdog::report)
    }
}

impl BusAccess for Emulation {
    fn read(&mut self, addr: Address) -> Result<u32, BusError> {
        match self.device_ordinal(addr)? {
            (DeviceClass::Control, _) => {
                self.refresh_control();
                self.control.bus_read(addr)
            }
            (DeviceClass::TrafficGenerator, i) => devices::tg_read(self, i, addr),
            (DeviceClass::TrafficReceptor, i) => devices::tr_read(self, i, addr),
            (DeviceClass::Switch, i) => devices::switch_read(self, i, addr),
            (DeviceClass::Monitor, _) => devices::monitor_read(self, addr),
        }
    }

    fn write(&mut self, addr: Address, value: u32) -> Result<(), BusError> {
        match self.device_ordinal(addr)? {
            (DeviceClass::Control, _) => self.control.bus_write(addr, value),
            (DeviceClass::TrafficGenerator, i) => {
                if self.started {
                    return Err(BusError::InvalidValue {
                        addr,
                        reason: "traffic parameters are locked while running".into(),
                    });
                }
                self.tg_shadow[i].bus_write(addr, value)
            }
            (DeviceClass::TrafficReceptor, _) | (DeviceClass::Switch, _) => {
                Err(BusError::ReadOnly(addr))
            }
            (DeviceClass::Monitor, _) => devices::monitor_write(self, addr, value),
        }
    }
}

pub(crate) use accessors::*;

/// Internal read access used by the device register views.
mod accessors {
    use super::*;

    pub(crate) fn elab(e: &Emulation) -> &Elaboration {
        &e.elab
    }

    pub(crate) fn ledger_of(e: &Emulation) -> &PacketLedger {
        &e.ledger
    }

    pub(crate) fn telemetry_of(e: &Emulation) -> Option<&Collector> {
        e.telemetry.as_ref()
    }

    pub(crate) fn monitor_select(e: &Emulation) -> u32 {
        e.monitor_select
    }

    pub(crate) fn set_monitor_select(e: &mut Emulation, link: u32) {
        e.monitor_select = link;
    }
}

/// Convenience: compile and wrap in one call.
///
/// # Errors
///
/// Propagates [`crate::error::CompileError`].
pub fn build(
    config: &crate::config::PlatformConfig,
) -> Result<Emulation, crate::error::CompileError> {
    Ok(Emulation::new(crate::compile::elaborate(config)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PaperConfig, PlatformConfig};
    use nocem_topology::builders::mesh;

    #[test]
    fn paper_uniform_run_delivers_everything() {
        let cfg = PaperConfig::new().total_packets(400).uniform();
        let mut emu = build(&cfg).unwrap();
        emu.run().unwrap();
        assert_eq!(emu.delivered(), 400);
        assert!(emu.now().raw() > 0);
        emu.ledger().verify_drained().unwrap();
    }

    #[test]
    fn drain_stop_condition_empties_network() {
        let mut cfg = PaperConfig::new().total_packets(120).uniform();
        cfg.stop.delivered_packets = None; // drain mode
        let mut emu = build(&cfg).unwrap();
        emu.run().unwrap();
        assert_eq!(emu.delivered(), 120, "budgets still bound the run");
        assert_eq!(emu.ledger().in_flight(), 0);
    }

    #[test]
    fn burst_run_takes_longer_than_uniform() {
        let packets = 2_000;
        let uni = {
            let cfg = PaperConfig::new().total_packets(packets).uniform();
            let mut e = build(&cfg).unwrap();
            e.run().unwrap();
            e.now().raw()
        };
        let bur = {
            let cfg = PaperConfig::new().total_packets(packets).burst(16);
            let mut e = build(&cfg).unwrap();
            e.run().unwrap();
            e.now().raw()
        };
        assert!(
            bur > uni,
            "burst traffic congests more: uniform {uni} vs burst {bur} cycles"
        );
    }

    #[test]
    fn trace_driven_run_completes() {
        let cfg = PaperConfig::new().total_packets(200).trace_bursty(8);
        let mut emu = build(&cfg).unwrap();
        emu.run().unwrap();
        assert_eq!(emu.delivered(), 200);
    }

    #[test]
    fn mesh_baseline_drains() {
        let mut cfg = PlatformConfig::baseline("m", mesh(2, 2).unwrap()).unwrap();
        // Bound the generators so drain mode terminates.
        for (i, g) in cfg.generators.iter_mut().enumerate() {
            if let crate::config::TrafficModel::Uniform(u) = g {
                u.budget = Some(50 + i as u64);
            }
        }
        let mut emu = build(&cfg).unwrap();
        emu.run().unwrap();
        emu.ledger().verify_drained().unwrap();
        assert_eq!(emu.delivered(), 50 + 51 + 52 + 53);
    }

    #[test]
    fn cycle_limit_is_enforced() {
        let mut cfg = PaperConfig::new().total_packets(1_000_000).uniform();
        cfg.stop.cycle_limit = 500;
        let mut emu = build(&cfg).unwrap();
        let err = emu.run().unwrap_err();
        assert!(matches!(err, EmulationError::CycleLimitExceeded { .. }));
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let cfg = PaperConfig::new().total_packets(300).burst(8);
            let mut emu = build(&cfg).unwrap();
            emu.run().unwrap();
            (
                emu.now().raw(),
                emu.ledger().network_latency().sum(),
                emu.ledger().total_latency().sum(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn progress_callback_fires() {
        let cfg = PaperConfig::new().total_packets(100).uniform();
        let mut emu = build(&cfg).unwrap();
        let mut calls = 0;
        emu.run_with_progress(64, |_, _| calls += 1).unwrap();
        assert!(calls > 0);
    }

    #[test]
    fn recorded_trace_replays_identically() {
        let mut cfg = PaperConfig::new().total_packets(150).uniform();
        cfg.record_trace = true;
        let mut emu = build(&cfg).unwrap();
        emu.run().unwrap();
        let first_cycles = emu.now().raw();
        let (_, trace) = emu.into_results();
        let trace = trace.expect("recording enabled");
        assert_eq!(trace.len(), 150);

        // Replay through trace-driven TGs: same traffic, same cycles.
        let mut cfg2 = PaperConfig::new().total_packets(150).uniform();
        let sources = PaperConfig::new().sources();
        cfg2.generators = sources
            .iter()
            .map(|_| crate::config::TrafficModel::Trace(trace.clone()))
            .collect();
        cfg2.receptors = vec![nocem_stats::TrKind::TraceDriven; 4];
        let mut emu2 = build(&cfg2).unwrap();
        emu2.run().unwrap();
        assert_eq!(emu2.delivered(), 150);
        assert_eq!(emu2.now().raw(), first_cycles, "replay is cycle-exact");
    }

    #[test]
    fn dual_routing_uses_both_paths() {
        let cfg = PaperConfig::new()
            .total_packets(800)
            .routing(crate::config::PaperRouting::Dual {
                secondary_probability: 0.5,
            })
            .uniform();
        let mut emu = build(&cfg).unwrap();
        emu.run().unwrap();
        assert_eq!(emu.delivered(), 800);
        // The vertical links (detours) must have carried flits.
        let cc = emu.congestion();
        let setup = PaperConfig::new();
        let p = setup.setup();
        let vertical_flits: u64 = p
            .topology
            .links()
            .filter(|l| l.is_inter_switch() && !p.hot_links.contains(&l.id))
            .map(|l| cc.forwarded(l.id))
            .sum();
        assert!(vertical_flits > 0, "secondary paths unused");
    }

    #[test]
    fn congestion_counters_match_hot_links() {
        let cfg = PaperConfig::new().total_packets(3_000).uniform();
        let mut emu = build(&cfg).unwrap();
        emu.run().unwrap();
        let cc = emu.congestion();
        let setup = PaperConfig::new();
        let hot = setup.setup().hot_links;
        let cycles = emu.now().raw();
        for h in hot {
            let util = cc.utilization(h, cycles);
            assert!(
                (0.75..=1.0).contains(&util),
                "hot link utilization {util} (expected ~0.9)"
            );
        }
    }
}
