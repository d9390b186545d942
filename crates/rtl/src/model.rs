//! RTL-style model of the emulation platform.
//!
//! The same elaborated components as the fast engine (`nocem`), but
//! wired at the signal level and scheduled by the event-driven
//! [`crate::kernel`]: every link is a flit wire plus a reverse credit
//! wire, every switch and network interface is a clocked process with
//! nonblocking outputs, and every receptor is a monitor process woken
//! by activity on its ejection wire.
//!
//! Because the processes wrap the *identical* component models and the
//! kernel's NBA semantics realize exactly the two-phase cycle contract
//! of `nocem-switch`, a run here is cycle- and flit-identical to the
//! fast engine — it just pays the per-signal event machinery that a
//! Verilog simulator pays, which is the point of the Table 2 baseline.

use crate::kernel::{Kernel, ProcessCtx, SignalId, Value};
use nocem::clock::{self, ClockMode, EngineSummary, SteppableEngine};
use nocem::compile::{Elaboration, ReceptorDevice};
use nocem::error::EmulationError;
use nocem::profile::{Phase, PhaseProfiler, PhaseReport};
use nocem_common::flit::PacketDescriptor;
use nocem_common::ids::{EndpointId, LinkId, PacketId, PortId, SwitchId, VcId};
use nocem_common::time::Cycle;
use nocem_stats::latency::LatencyAnalyzer;
use nocem_stats::ledger::PacketLedger;
use nocem_stats::receptor::CompletedPacket;
use nocem_switch::switch::Switch;
use nocem_telemetry::{Collector, CumulativeProbe};
use nocem_traffic::generator::{PacketRequest, TrafficGenerator};
use nocem_traffic::ni::SourceNi;
use std::cell::RefCell;
use std::rc::Rc;

struct SharedState {
    switches: Vec<Switch>,
    nis: Vec<SourceNi>,
    tgs: Vec<Box<dyn TrafficGenerator + Send>>,
    receptors: Vec<ReceptorDevice>,
    generator_endpoints: Vec<EndpointId>,
    ledger: PacketLedger,
    next_packet: u64,
    /// Per-TG output register holding a request the source queue
    /// could not absorb yet (backpressure, identical to the fast
    /// engine's semantics).
    pending: Vec<Option<PacketRequest>>,
    stalled: u64,
    delivered_flits: u64,
    ni_done: Vec<bool>,
    error: Option<EmulationError>,
}

impl SharedState {
    fn deliver(&mut self, index: usize, flit: nocem_common::flit::Flit, now: Cycle) {
        let outcome: Result<Option<CompletedPacket>, EmulationError> =
            match &mut self.receptors[index] {
                ReceptorDevice::Stochastic(r) => {
                    r.accept(&flit, now)
                        .map_err(|source| EmulationError::Receive {
                            receptor: r.id(),
                            source,
                        })
                }
                ReceptorDevice::Trace(r) => {
                    r.accept(&flit, now)
                        .map_err(|source| EmulationError::Receive {
                            receptor: r.id(),
                            source,
                        })
                }
            };
        match outcome {
            Ok(Some(pkt)) => match self.ledger.deliver(pkt.id, now, pkt.len_flits) {
                Ok(lat) => {
                    self.delivered_flits += u64::from(pkt.len_flits);
                    if let ReceptorDevice::Trace(r) = &mut self.receptors[index] {
                        r.record_latency(lat.network, lat.total);
                    }
                }
                Err(e) => {
                    self.error.get_or_insert(EmulationError::Ledger(e));
                }
            },
            Ok(None) => {}
            Err(e) => {
                self.error.get_or_insert(e);
            }
        }
    }
}

/// End-of-run summary used by the Table 2 harness and the equivalence
/// tests.
#[derive(Debug, Clone)]
pub struct RtlSummary {
    /// Cycles simulated.
    pub cycles: u64,
    /// Cycles the fast-forward kernel jumped over (gated mode).
    pub cycles_skipped: u64,
    /// Packets released / injected / delivered.
    pub released: u64,
    /// Packets whose head entered the network.
    pub injected: u64,
    /// Packets fully delivered.
    pub delivered: u64,
    /// Flits delivered.
    pub delivered_flits: u64,
    /// Network latency statistics.
    pub network_latency: LatencyAnalyzer,
    /// Total latency statistics.
    pub total_latency: LatencyAnalyzer,
    /// Kernel work counters (the RTL cost).
    pub kernel: crate::kernel::KernelStats,
}

/// The RTL simulation engine.
pub struct RtlEngine {
    kernel: Kernel,
    shared: Rc<RefCell<SharedState>>,
    stop_packets: Option<u64>,
    cycle_limit: u64,
    clock_mode: ClockMode,
    cycles_skipped: u64,
    telemetry: Option<Collector>,
    /// Per switch, per output port: the link it drives (probe
    /// metadata, captured before the components move into processes).
    switch_out_links: Vec<Vec<LinkId>>,
    /// Per NI (generator order): its injection link.
    injection_links: Vec<LinkId>,
    /// Flit wires of every non-ejection link. A flit latched on such
    /// a wire was driven last cycle and is sampled into the
    /// downstream FIFO this cycle — the fast engine already counts it
    /// there, so the occupancy probe adds it. Ejection wires are
    /// excluded: their flits were delivered by the receptor monitor
    /// at drive time and never occupy a buffer.
    inflight_wires: Vec<SignalId>,
    link_count: usize,
    num_vcs: usize,
    /// Per-phase self-profiler, enabled by `PlatformConfig.profile`.
    /// The kernel cycle is opaque (processes interleave the platform
    /// phases), so it is charged to [`Phase::Processes`].
    profiler: Option<PhaseProfiler>,
}

impl std::fmt::Debug for RtlEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtlEngine")
            .field("time", &self.kernel.time())
            .finish_non_exhaustive()
    }
}

impl RtlEngine {
    /// Builds the RTL model from an elaboration (consumes it; the
    /// components are moved into kernel processes).
    pub fn new(elab: Elaboration) -> Self {
        let mut kernel = Kernel::new();
        let topo = &elab.config.topology;
        let num_vcs = elab.config.switch.num_vcs as usize;

        // One flit wire per link and one reverse credit wire per
        // (link, VC): a pop from VC v downstream frees one slot of VC
        // v upstream.
        let flit_wires: Vec<SignalId> = (0..topo.link_count())
            .map(|l| kernel.signal(format!("flit_l{l}")))
            .collect();
        let credit_wires: Vec<Vec<SignalId>> = (0..topo.link_count())
            .map(|l| {
                (0..num_vcs)
                    .map(|v| kernel.signal(format!("credit_l{l}v{v}")))
                    .collect()
            })
            .collect();

        // Probe metadata, captured while the elaboration is whole.
        let switch_out_links: Vec<Vec<LinkId>> = (0..elab.switches.len())
            .map(|s| {
                let info = topo.switch(SwitchId::new(s as u32));
                (0..info.outputs)
                    .map(|p| topo.out_link(SwitchId::new(s as u32), PortId::new(p)))
                    .collect()
            })
            .collect();
        let injection_links: Vec<LinkId> =
            elab.wiring.injection.iter().map(|&(_, _, l)| l).collect();
        let mut is_ejection = vec![false; topo.link_count()];
        for link in &elab.wiring.ejection_link {
            is_ejection[link.index()] = true;
        }
        let inflight_wires: Vec<SignalId> = flit_wires
            .iter()
            .enumerate()
            .filter(|&(l, _)| !is_ejection[l])
            .map(|(_, &w)| w)
            .collect();
        let telemetry = elab
            .config
            .telemetry
            .as_ref()
            .map(|t| Collector::new(t, topo.link_count(), num_vcs));

        let shared = Rc::new(RefCell::new(SharedState {
            generator_endpoints: topo.generators(),
            switches: elab.switches,
            ni_done: vec![false; elab.nis.len()],
            pending: vec![None; elab.nis.len()],
            nis: elab.nis,
            tgs: elab.tgs,
            receptors: elab.receptors,
            ledger: PacketLedger::new(),
            next_packet: 0,
            stalled: 0,
            delivered_flits: 0,
            error: None,
        }));

        // Network-interface processes, in generator order (packet ids
        // must match the fast engine).
        for (i, &(_, _, link)) in elab.wiring.injection.iter().enumerate() {
            let out_wire = flit_wires[link.index()];
            // NIs inject on VC 0 only, so they watch that VC's credit.
            let credit_wire = credit_wires[link.index()][0];
            let sh = Rc::clone(&shared);
            kernel.clocked_process(move |ctx: &mut ProcessCtx<'_>| {
                let now = Cycle::new(ctx.time());
                let sh = &mut *sh.borrow_mut();
                if ctx.read(credit_wire).is_high() {
                    sh.nis[i].credit_return();
                }
                // Backpressure-aware release, identical to the fast
                // engine: a stalled request clock-gates the model.
                let req = match sh.pending[i].take() {
                    Some(req) if sh.nis[i].can_accept() => Some(req),
                    Some(req) => {
                        sh.pending[i] = Some(req);
                        sh.stalled += 1;
                        None
                    }
                    None => match sh.tgs[i].tick(now) {
                        Some(req) if sh.nis[i].can_accept() => Some(req),
                        Some(req) => {
                            sh.pending[i] = Some(req);
                            sh.stalled += 1;
                            None
                        }
                        None => None,
                    },
                };
                if let Some(req) = req {
                    let id = PacketId::new(sh.next_packet);
                    let desc = PacketDescriptor {
                        id,
                        src: sh.generator_endpoints[i],
                        dst: req.dst,
                        flow: req.flow,
                        len_flits: req.len_flits,
                        release: now,
                    };
                    let accepted = sh.nis[i].offer(desc);
                    debug_assert!(accepted, "capacity was checked before the offer");
                    sh.next_packet += 1;
                    if let Err(e) = sh.ledger.release(id, now, req.len_flits) {
                        sh.error.get_or_insert(EmulationError::Ledger(e));
                    }
                }
                let flit = sh.nis[i].tick_send();
                if let Some(f) = flit {
                    if f.kind.is_head() {
                        if let Err(e) = sh.ledger.inject(f.packet, now) {
                            sh.error.get_or_insert(EmulationError::Ledger(e));
                        }
                    }
                }
                sh.ni_done[i] =
                    sh.tgs[i].is_exhausted() && sh.pending[i].is_none() && sh.nis[i].is_idle();
                ctx.write(out_wire, Value::Flit(flit));
            });
        }

        // Switch processes, in switch order.
        for s in 0..shared.borrow().switches.len() {
            let info = topo.switch(SwitchId::new(s as u32));
            let in_wires: Vec<SignalId> = (0..info.inputs)
                .map(|p| flit_wires[elab.wiring.in_link[s][p as usize].index()])
                .collect();
            let in_credit_wires: Vec<Vec<SignalId>> = (0..info.inputs)
                .map(|p| credit_wires[elab.wiring.in_link[s][p as usize].index()].clone())
                .collect();
            let out_links: Vec<usize> = (0..info.outputs)
                .map(|p| {
                    topo.out_link(SwitchId::new(s as u32), nocem_common::ids::PortId::new(p))
                        .index()
                })
                .collect();
            let out_wires: Vec<SignalId> = out_links.iter().map(|&l| flit_wires[l]).collect();
            let out_credit_wires: Vec<Vec<SignalId>> =
                out_links.iter().map(|&l| credit_wires[l].clone()).collect();
            let sh = Rc::clone(&shared);
            kernel.clocked_process(move |ctx: &mut ProcessCtx<'_>| {
                let sh = &mut *sh.borrow_mut();
                let sw = &mut sh.switches[s];
                // Sample arriving flits (sent last cycle).
                for (p, w) in in_wires.iter().enumerate() {
                    if let Some(f) = ctx.read(*w).flit() {
                        if let Err(source) = sw.accept(nocem_common::ids::PortId::new(p as u8), f) {
                            sh.error.get_or_insert(EmulationError::FifoOverflow {
                                switch: SwitchId::new(s as u32),
                                source,
                            });
                            return;
                        }
                    }
                }
                // Sample returned credits, per output VC.
                for (o, per_vc) in out_credit_wires.iter().enumerate() {
                    for (v, w) in per_vc.iter().enumerate() {
                        if ctx.read(*w).is_high() {
                            sw.credit_return(
                                nocem_common::ids::PortId::new(o as u8),
                                nocem_common::ids::VcId::new(v as u8),
                            );
                        }
                    }
                }
                sw.decide();
                let sends = sw.commit_sends();
                let mut out_flit: Vec<Option<nocem_common::flit::Flit>> =
                    vec![None; out_wires.len()];
                // At most one flit pops per input port per cycle; the
                // credit travels back on that flit's input VC.
                let mut popped: Vec<Option<u8>> = vec![None; in_wires.len()];
                for t in sends {
                    out_flit[t.output.index()] = Some(t.flit);
                    popped[t.input.index()] = Some(t.input_vc.raw());
                }
                for (o, w) in out_wires.iter().enumerate() {
                    ctx.write(*w, Value::Flit(out_flit[o]));
                }
                for (p, per_vc) in in_credit_wires.iter().enumerate() {
                    for (v, w) in per_vc.iter().enumerate() {
                        ctx.write(
                            *w,
                            if popped[p] == Some(v as u8) {
                                Value::High
                            } else {
                                Value::Low
                            },
                        );
                    }
                }
            });
        }

        // Receptor monitors, sensitive to their ejection wires.
        for (idx, link) in elab.wiring.ejection_link.iter().enumerate() {
            let wire = flit_wires[link.index()];
            let sh = Rc::clone(&shared);
            kernel.reactive_process(&[wire], move |ctx: &mut ProcessCtx<'_>| {
                if let Some(f) = ctx.read(wire).flit() {
                    sh.borrow_mut().deliver(idx, f, Cycle::new(ctx.time()));
                }
            });
        }

        let profiler = elab.config.profile.map(|_| {
            let mut p = PhaseProfiler::new();
            p.add_ns(Phase::Elaborate, elab.elaborate_ns);
            p
        });

        RtlEngine {
            kernel,
            shared,
            stop_packets: elab.config.stop.delivered_packets,
            cycle_limit: elab.config.stop.cycle_limit,
            clock_mode: elab.config.clock_mode,
            cycles_skipped: 0,
            telemetry,
            switch_out_links,
            injection_links,
            inflight_wires,
            link_count: elab.config.topology.link_count(),
            num_vcs,
            profiler,
        }
    }

    /// Cumulative counters at the current instant, shaped exactly
    /// like the fast engine's probe: per-link lifetime blocked /
    /// forwarded (source-side accounting) plus live per-VC occupancy
    /// with in-flight wire flits compensated (see `inflight_wires`).
    fn cumulative_probe(&self) -> CumulativeProbe {
        let sh = self.shared.borrow();
        let mut p = CumulativeProbe::new(self.link_count, self.num_vcs);
        for (s, sw) in sh.switches.iter().enumerate() {
            let c = sw.counters();
            for (o, &link) in self.switch_out_links[s].iter().enumerate() {
                p.add_link(
                    link,
                    c.blocked_cycles_per_output[o],
                    c.forwarded_per_output[o],
                );
            }
            for v in 0..self.num_vcs {
                p.add_vc(v, sw.occupancy_of_vc(VcId::new(v as u8)));
            }
        }
        for (i, ni) in sh.nis.iter().enumerate() {
            let c = ni.counters();
            p.add_link(self.injection_links[i], c.blocked_cycles, c.injected_flits);
        }
        for &wire in &self.inflight_wires {
            if let Some(f) = self.kernel.value(wire).flit() {
                p.add_vc(f.vc.index(), 1);
            }
        }
        p
    }

    /// The windowed telemetry collector, when enabled.
    pub fn telemetry(&self) -> Option<&Collector> {
        self.telemetry.as_ref()
    }

    /// Seals the collector, flushing the trailing partial window.
    pub fn seal_telemetry(&mut self) {
        if self.telemetry.as_ref().is_some_and(|t| !t.is_sealed()) {
            let probe = self.cumulative_probe();
            let at = self.kernel.time();
            self.telemetry
                .as_mut()
                .expect("presence checked above")
                .seal(at, &probe);
        }
    }

    fn finished(&self) -> bool {
        let sh = self.shared.borrow();
        match self.stop_packets {
            Some(target) => sh.ledger.delivered() >= target,
            None => sh.ni_done.iter().all(|&d| d) && sh.ledger.in_flight() == 0,
        }
    }

    /// Hybrid clock gating: when every component is quiescent, jump
    /// the kernel's time to the earliest future TG event without
    /// activating a single process. Component quiescence implies every
    /// wire already carries its idle value (a flit on a wire is an
    /// undelivered packet; a high credit wire is a credit not yet
    /// home), so no event would have been dispatched in the skipped
    /// window anyway.
    fn try_fast_forward(&mut self) {
        let now = Cycle::new(self.kernel.time());
        let mut sh = self.shared.borrow_mut();
        let quiescent =
            clock::platform_quiescent(&sh.switches, &sh.nis, &sh.pending, sh.ledger.in_flight());
        if !quiescent {
            return;
        }
        let skipped = clock::fast_forward(now, self.cycle_limit, &mut sh.tgs);
        drop(sh);
        self.kernel.advance_time(skipped);
        self.cycles_skipped += skipped;
    }

    /// Runs to the stop condition.
    ///
    /// # Errors
    ///
    /// Propagates protocol violations detected by the processes and
    /// the cycle limit.
    pub fn run(&mut self) -> Result<(), EmulationError> {
        clock::run_engine(self)
    }

    /// Advances one cycle regardless of the stop condition (plus any
    /// preceding fast-forward jump in gated mode; used directly by the
    /// speed-measurement harness).
    ///
    /// # Errors
    ///
    /// Propagates protocol violations detected by the processes and
    /// the cycle limit.
    pub fn step(&mut self) -> Result<(), EmulationError> {
        let mut t = self.profiler.as_mut().map(PhaseProfiler::begin_step);
        if self.clock_mode == ClockMode::Gated {
            self.try_fast_forward();
        }
        PhaseProfiler::lap_chain(&mut self.profiler, &mut t, Phase::FastForward);
        // Probe after any fast-forward, before executing the cycle:
        // the counters then cover exactly [0, now), matching every
        // other engine's probe point.
        if self
            .telemetry
            .as_ref()
            .is_some_and(|t| t.needs_probe(self.kernel.time()))
        {
            let probe = self.cumulative_probe();
            let at = self.kernel.time();
            self.telemetry
                .as_mut()
                .expect("presence checked above")
                .record(at, &probe);
        }
        PhaseProfiler::lap_chain(&mut self.profiler, &mut t, Phase::Probe);
        let cycled = self.kernel.cycle();
        PhaseProfiler::lap_chain(&mut self.profiler, &mut t, Phase::Processes);
        cycled.map_err(|e| {
            EmulationError::Bus(nocem_platform::bus::BusError::InvalidValue {
                addr: nocem_platform::addr::Address::from_parts(
                    nocem_common::ids::BusId::new(0),
                    nocem_common::ids::DeviceId::new(0),
                    0,
                ),
                reason: e.to_string(),
            })
        })?;
        if let Some(e) = self.shared.borrow().error.clone() {
            return Err(e);
        }
        if self.kernel.time() > self.cycle_limit {
            return Err(EmulationError::CycleLimitExceeded {
                limit: self.cycle_limit,
                delivered: self.shared.borrow().ledger.delivered(),
            });
        }
        Ok(())
    }

    /// Cycles simulated so far.
    pub fn cycles(&self) -> u64 {
        self.kernel.time()
    }

    /// Packets delivered so far.
    pub fn delivered(&self) -> u64 {
        self.shared.borrow().ledger.delivered()
    }

    /// Enables VCD recording on the underlying kernel.
    pub fn enable_vcd(&mut self) {
        self.kernel.enable_vcd();
    }

    /// The VCD document, if recording was enabled.
    pub fn vcd_output(&self) -> Option<String> {
        self.kernel.vcd_output()
    }

    /// Snapshots the run summary.
    pub fn summary(&self) -> RtlSummary {
        let sh = self.shared.borrow();
        RtlSummary {
            cycles: self.kernel.time(),
            cycles_skipped: self.cycles_skipped,
            released: sh.ledger.released(),
            injected: sh.ledger.injected(),
            delivered: sh.ledger.delivered(),
            delivered_flits: sh.delivered_flits,
            network_latency: sh.ledger.network_latency().clone(),
            total_latency: sh.ledger.total_latency().clone(),
            kernel: self.kernel.stats(),
        }
    }
}

impl SteppableEngine for RtlEngine {
    fn step(&mut self) -> Result<(), EmulationError> {
        RtlEngine::step(self)
    }

    fn now(&self) -> Cycle {
        Cycle::new(self.kernel.time())
    }

    fn finished(&self) -> bool {
        RtlEngine::finished(self)
    }

    fn delivered(&self) -> u64 {
        RtlEngine::delivered(self)
    }

    fn cycles_skipped(&self) -> u64 {
        self.cycles_skipped
    }

    fn summary(&self) -> EngineSummary {
        let sh = self.shared.borrow();
        EngineSummary::from_ledger(
            self.kernel.time(),
            self.cycles_skipped,
            sh.delivered_flits,
            &sh.ledger,
        )
    }

    fn packet_ledger(&self) -> nocem_stats::ledger::PacketLedger {
        self.shared.borrow().ledger.clone()
    }

    fn telemetry(&self) -> Option<&Collector> {
        RtlEngine::telemetry(self)
    }

    fn seal_telemetry(&mut self) {
        RtlEngine::seal_telemetry(self);
    }

    fn profile(&mut self) -> Option<PhaseReport> {
        Some(self.profiler.as_ref()?.report("rtl".to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocem::compile::elaborate;
    use nocem::config::PaperConfig;

    fn rtl_run(packets: u64) -> RtlSummary {
        let cfg = PaperConfig::new().total_packets(packets).uniform();
        let mut engine = RtlEngine::new(elaborate(&cfg).unwrap());
        engine.run().unwrap();
        engine.summary()
    }

    #[test]
    fn rtl_delivers_all_packets() {
        let s = rtl_run(150);
        assert_eq!(s.delivered, 150);
        assert!(s.cycles > 0);
        assert!(s.kernel.signal_events > 0);
        assert!(
            s.kernel.activations > s.cycles,
            "many activations per cycle"
        );
    }

    #[test]
    fn rtl_matches_fast_engine_exactly() {
        let cfg = PaperConfig::new().total_packets(300).burst(8);
        // Fast engine.
        let mut emu = nocem::engine::build(&cfg).unwrap();
        emu.run().unwrap();
        // RTL engine on a fresh elaboration of the same config.
        let mut rtl = RtlEngine::new(elaborate(&cfg).unwrap());
        rtl.run().unwrap();
        let s = rtl.summary();
        assert_eq!(s.cycles, emu.now().raw(), "cycle-exact run length");
        assert_eq!(s.delivered, emu.delivered());
        assert_eq!(
            s.network_latency.sum(),
            emu.ledger().network_latency().sum(),
            "identical per-packet network latencies"
        );
        assert_eq!(
            s.total_latency.sum(),
            emu.ledger().total_latency().sum(),
            "identical per-packet total latencies"
        );
        assert_eq!(
            s.network_latency.max(),
            emu.ledger().network_latency().max()
        );
    }

    #[test]
    fn rtl_telemetry_matches_fast_engine_exactly() {
        let cfg = PaperConfig::new()
            .total_packets(200)
            .burst(8)
            .with_telemetry(Some(nocem_telemetry::TelemetryConfig::windowed(64)));
        let mut emu = nocem::engine::build(&cfg).unwrap();
        emu.run().unwrap();
        emu.seal_telemetry();
        let mut rtl = RtlEngine::new(elaborate(&cfg).unwrap());
        rtl.run().unwrap();
        RtlEngine::seal_telemetry(&mut rtl);
        let fast = emu.telemetry().unwrap();
        let ours = RtlEngine::telemetry(&rtl).unwrap();
        assert!(fast.windows_recorded() > 0, "run long enough to window");
        assert_eq!(
            ours, fast,
            "windowed series (incl. live occupancy) are engine-invariant"
        );
    }

    #[test]
    fn rtl_vcd_capture_works() {
        let cfg = PaperConfig::new().total_packets(10).uniform();
        let mut engine = RtlEngine::new(elaborate(&cfg).unwrap());
        engine.enable_vcd();
        engine.run().unwrap();
        let vcd = engine.vcd_output().unwrap();
        assert!(vcd.contains("$enddefinitions"));
        assert!(vcd.contains("flit_l"));
    }

    #[test]
    fn rtl_drain_mode_terminates() {
        let mut cfg = PaperConfig::new().total_packets(60).uniform();
        cfg.stop.delivered_packets = None;
        let mut engine = RtlEngine::new(elaborate(&cfg).unwrap());
        engine.run().unwrap();
        assert_eq!(engine.delivered(), 60);
    }

    #[test]
    fn rtl_cycle_limit_enforced() {
        let mut cfg = PaperConfig::new().total_packets(1_000_000).uniform();
        cfg.stop.cycle_limit = 200;
        let mut engine = RtlEngine::new(elaborate(&cfg).unwrap());
        assert!(matches!(
            engine.run(),
            Err(EmulationError::CycleLimitExceeded { .. })
        ));
    }
}
