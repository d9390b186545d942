//! Transaction-level model of the emulation platform.
//!
//! The same elaborated components as the fast engine, scheduled as
//! SystemC-style processes exchanging flits through double-buffered
//! channels ([`crate::scheduler`]). Runs are cycle- and flit-identical
//! to the fast engine and the RTL model; the cost sits between them —
//! the MPARM role in the paper's Table 2.

use crate::scheduler::{BitChanId, ChannelCtx, FlitChanId, Scheduler, SchedulerStats};
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

/// End-of-run summary for the harness and equivalence tests.
#[derive(Debug, Clone)]
pub struct TlmSummary {
    /// Cycles simulated.
    pub cycles: u64,
    /// Cycles the fast-forward kernel jumped over (gated mode).
    pub cycles_skipped: u64,
    /// Packets released.
    pub released: u64,
    /// Packets injected.
    pub injected: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Flits delivered.
    pub delivered_flits: u64,
    /// Network latency statistics.
    pub network_latency: LatencyAnalyzer,
    /// Total latency statistics.
    pub total_latency: LatencyAnalyzer,
    /// Scheduler work counters (the TLM cost).
    pub scheduler: SchedulerStats,
}

/// The transaction-level simulation engine.
pub struct TlmEngine {
    scheduler: Scheduler,
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
    /// Flit channels of every non-ejection link. A flit latched here
    /// was written last cycle and enters the downstream FIFO this
    /// cycle — the fast engine already counts it in that FIFO, so the
    /// occupancy probe adds it. Ejection channels are excluded: their
    /// flits were delivered in the update phase of the cycle that
    /// wrote them and never occupy a buffer.
    inflight_chans: Vec<FlitChanId>,
    link_count: usize,
    num_vcs: usize,
    /// Per-phase self-profiler, enabled by `PlatformConfig.profile`.
    /// The scheduler cycle is opaque (processes interleave the
    /// platform phases), so it is charged to [`Phase::Processes`].
    profiler: Option<PhaseProfiler>,
}

impl std::fmt::Debug for TlmEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TlmEngine")
            .field("time", &self.scheduler.time())
            .finish_non_exhaustive()
    }
}

impl TlmEngine {
    /// Builds the TLM model from an elaboration.
    pub fn new(elab: Elaboration) -> Self {
        let mut scheduler = Scheduler::new();
        let topo = &elab.config.topology;
        let num_vcs = elab.config.switch.num_vcs as usize;

        let flit_chans: Vec<FlitChanId> = (0..topo.link_count())
            .map(|_| scheduler.flit_channel())
            .collect();
        // One reverse credit channel per (link, VC): a pop from VC v
        // downstream frees one slot of VC v upstream.
        let credit_chans: Vec<Vec<BitChanId>> = (0..topo.link_count())
            .map(|_| (0..num_vcs).map(|_| scheduler.bit_channel()).collect())
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
        let inflight_chans: Vec<FlitChanId> = flit_chans
            .iter()
            .enumerate()
            .filter(|&(l, _)| !is_ejection[l])
            .map(|(_, &c)| c)
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

        // NI processes first (packet-id order must match the fast
        // engine), then switches — identical ordering to the RTL
        // model.
        for (i, &(_, _, link)) in elab.wiring.injection.iter().enumerate() {
            let out = flit_chans[link.index()];
            // NIs inject on VC 0 only, so they watch that VC's credit.
            let credit = credit_chans[link.index()][0];
            let sh = Rc::clone(&shared);
            scheduler.process(move |now: Cycle, ch: &mut ChannelCtx| {
                let sh = &mut *sh.borrow_mut();
                if ch.read_bit(credit) {
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
                ch.write_flit(out, flit);
            });
        }

        for s in 0..shared.borrow().switches.len() {
            let info = topo.switch(SwitchId::new(s as u32));
            let in_chans: Vec<FlitChanId> = (0..info.inputs)
                .map(|p| flit_chans[elab.wiring.in_link[s][p as usize].index()])
                .collect();
            let in_credit: Vec<Vec<BitChanId>> = (0..info.inputs)
                .map(|p| credit_chans[elab.wiring.in_link[s][p as usize].index()].clone())
                .collect();
            let out_links: Vec<usize> = (0..info.outputs)
                .map(|p| {
                    topo.out_link(SwitchId::new(s as u32), nocem_common::ids::PortId::new(p))
                        .index()
                })
                .collect();
            let out_chans: Vec<FlitChanId> = out_links.iter().map(|&l| flit_chans[l]).collect();
            let out_credit: Vec<Vec<BitChanId>> =
                out_links.iter().map(|&l| credit_chans[l].clone()).collect();
            let sh = Rc::clone(&shared);
            scheduler.process(move |_now: Cycle, ch: &mut ChannelCtx| {
                let sh = &mut *sh.borrow_mut();
                let sw = &mut sh.switches[s];
                for (p, c) in in_chans.iter().enumerate() {
                    if let Some(f) = ch.read_flit(*c) {
                        if let Err(source) = sw.accept(nocem_common::ids::PortId::new(p as u8), f) {
                            sh.error.get_or_insert(EmulationError::FifoOverflow {
                                switch: SwitchId::new(s as u32),
                                source,
                            });
                            return;
                        }
                    }
                }
                for (o, per_vc) in out_credit.iter().enumerate() {
                    for (v, c) in per_vc.iter().enumerate() {
                        if ch.read_bit(*c) {
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
                    vec![None; out_chans.len()];
                // At most one flit pops per input port per cycle; the
                // credit travels back on that flit's input VC.
                let mut popped: Vec<Option<u8>> = vec![None; in_chans.len()];
                for t in sends {
                    out_flit[t.output.index()] = Some(t.flit);
                    popped[t.input.index()] = Some(t.input_vc.raw());
                }
                for (o, c) in out_chans.iter().enumerate() {
                    ch.write_flit(*c, out_flit[o]);
                }
                for (p, per_vc) in in_credit.iter().enumerate() {
                    for (v, c) in per_vc.iter().enumerate() {
                        ch.write_bit(*c, popped[p] == Some(v as u8));
                    }
                }
            });
        }

        // Receptor watchers (update-phase callbacks).
        for (idx, link) in elab.wiring.ejection_link.iter().enumerate() {
            let sh = Rc::clone(&shared);
            scheduler.watch_flit(flit_chans[link.index()], move |value, now| {
                if let Some(f) = value {
                    sh.borrow_mut().deliver(idx, f, now);
                }
            });
        }

        let profiler = elab.config.profile.map(|_| {
            let mut p = PhaseProfiler::new();
            p.add_ns(Phase::Elaborate, elab.elaborate_ns);
            p
        });

        TlmEngine {
            scheduler,
            shared,
            stop_packets: elab.config.stop.delivered_packets,
            cycle_limit: elab.config.stop.cycle_limit,
            clock_mode: elab.config.clock_mode,
            cycles_skipped: 0,
            telemetry,
            switch_out_links,
            injection_links,
            inflight_chans,
            link_count: elab.config.topology.link_count(),
            num_vcs,
            profiler,
        }
    }

    /// Cumulative counters at the current instant, shaped exactly
    /// like the fast engine's probe: per-link lifetime blocked /
    /// forwarded (source-side accounting) plus live per-VC occupancy
    /// with in-flight channel flits compensated (see
    /// `inflight_chans`).
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
        for &chan in &self.inflight_chans {
            if let Some(f) = self.scheduler.flit_value(chan) {
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
            let at = self.scheduler.time();
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
    /// the scheduler's time to the earliest future TG event without
    /// activating a single process. Component quiescence implies every
    /// channel already sits at its idle value (a flit in a channel is
    /// an undelivered packet; a credit in a channel is a credit not
    /// yet home), so the skipped cycles would have been pure no-ops.
    fn try_fast_forward(&mut self) {
        let now = Cycle::new(self.scheduler.time());
        let mut sh = self.shared.borrow_mut();
        let quiescent =
            clock::platform_quiescent(&sh.switches, &sh.nis, &sh.pending, sh.ledger.in_flight());
        if !quiescent {
            return;
        }
        let skipped = clock::fast_forward(now, self.cycle_limit, &mut sh.tgs);
        drop(sh);
        self.scheduler.advance_time(skipped);
        self.cycles_skipped += skipped;
    }

    /// Runs to the stop condition.
    ///
    /// # Errors
    ///
    /// Propagates protocol violations and the cycle limit.
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
            .is_some_and(|t| t.needs_probe(self.scheduler.time()))
        {
            let probe = self.cumulative_probe();
            let at = self.scheduler.time();
            self.telemetry
                .as_mut()
                .expect("presence checked above")
                .record(at, &probe);
        }
        PhaseProfiler::lap_chain(&mut self.profiler, &mut t, Phase::Probe);
        self.scheduler.cycle();
        PhaseProfiler::lap_chain(&mut self.profiler, &mut t, Phase::Processes);
        if let Some(e) = self.shared.borrow().error.clone() {
            return Err(e);
        }
        if self.scheduler.time() > self.cycle_limit {
            return Err(EmulationError::CycleLimitExceeded {
                limit: self.cycle_limit,
                delivered: self.shared.borrow().ledger.delivered(),
            });
        }
        Ok(())
    }

    /// Cycles simulated so far.
    pub fn cycles(&self) -> u64 {
        self.scheduler.time()
    }

    /// Packets delivered so far.
    pub fn delivered(&self) -> u64 {
        self.shared.borrow().ledger.delivered()
    }

    /// Snapshots the run summary.
    pub fn summary(&self) -> TlmSummary {
        let sh = self.shared.borrow();
        TlmSummary {
            cycles: self.scheduler.time(),
            cycles_skipped: self.cycles_skipped,
            released: sh.ledger.released(),
            injected: sh.ledger.injected(),
            delivered: sh.ledger.delivered(),
            delivered_flits: sh.delivered_flits,
            network_latency: sh.ledger.network_latency().clone(),
            total_latency: sh.ledger.total_latency().clone(),
            scheduler: self.scheduler.stats(),
        }
    }
}

impl SteppableEngine for TlmEngine {
    fn step(&mut self) -> Result<(), EmulationError> {
        TlmEngine::step(self)
    }

    fn now(&self) -> Cycle {
        Cycle::new(self.scheduler.time())
    }

    fn finished(&self) -> bool {
        TlmEngine::finished(self)
    }

    fn delivered(&self) -> u64 {
        TlmEngine::delivered(self)
    }

    fn cycles_skipped(&self) -> u64 {
        self.cycles_skipped
    }

    fn summary(&self) -> EngineSummary {
        let sh = self.shared.borrow();
        EngineSummary::from_ledger(
            self.scheduler.time(),
            self.cycles_skipped,
            sh.delivered_flits,
            &sh.ledger,
        )
    }

    fn packet_ledger(&self) -> nocem_stats::ledger::PacketLedger {
        self.shared.borrow().ledger.clone()
    }

    fn telemetry(&self) -> Option<&Collector> {
        TlmEngine::telemetry(self)
    }

    fn seal_telemetry(&mut self) {
        TlmEngine::seal_telemetry(self);
    }

    fn profile(&mut self) -> Option<PhaseReport> {
        Some(self.profiler.as_ref()?.report("tlm".to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocem::compile::elaborate;
    use nocem::config::PaperConfig;

    #[test]
    fn tlm_delivers_all_packets() {
        let cfg = PaperConfig::new().total_packets(150).uniform();
        let mut engine = TlmEngine::new(elaborate(&cfg).unwrap());
        engine.run().unwrap();
        let s = engine.summary();
        assert_eq!(s.delivered, 150);
        assert!(s.scheduler.activations > s.cycles);
    }

    #[test]
    fn tlm_matches_fast_engine_exactly() {
        let cfg = PaperConfig::new().total_packets(300).burst(8);
        let mut emu = nocem::engine::build(&cfg).unwrap();
        emu.run().unwrap();
        let mut tlm = TlmEngine::new(elaborate(&cfg).unwrap());
        tlm.run().unwrap();
        let s = tlm.summary();
        assert_eq!(s.cycles, emu.now().raw(), "cycle-exact run length");
        assert_eq!(s.delivered, emu.delivered());
        assert_eq!(
            s.network_latency.sum(),
            emu.ledger().network_latency().sum()
        );
        assert_eq!(s.total_latency.sum(), emu.ledger().total_latency().sum());
    }

    #[test]
    fn tlm_telemetry_matches_fast_engine_exactly() {
        let cfg = PaperConfig::new()
            .total_packets(200)
            .burst(8)
            .with_telemetry(Some(nocem_telemetry::TelemetryConfig::windowed(64)));
        let mut emu = nocem::engine::build(&cfg).unwrap();
        emu.run().unwrap();
        emu.seal_telemetry();
        let mut tlm = TlmEngine::new(elaborate(&cfg).unwrap());
        tlm.run().unwrap();
        TlmEngine::seal_telemetry(&mut tlm);
        let fast = emu.telemetry().unwrap();
        let ours = TlmEngine::telemetry(&tlm).unwrap();
        assert!(fast.windows_recorded() > 0, "run long enough to window");
        assert_eq!(
            ours, fast,
            "windowed series (incl. live occupancy) are engine-invariant"
        );
    }

    #[test]
    fn tlm_trace_driven_works() {
        let cfg = PaperConfig::new().total_packets(100).trace_bursty(4);
        let mut engine = TlmEngine::new(elaborate(&cfg).unwrap());
        engine.run().unwrap();
        assert_eq!(engine.delivered(), 100);
    }

    #[test]
    fn tlm_cycle_limit_enforced() {
        let mut cfg = PaperConfig::new().total_packets(1_000_000).uniform();
        cfg.stop.cycle_limit = 100;
        let mut engine = TlmEngine::new(elaborate(&cfg).unwrap());
        assert!(matches!(
            engine.run(),
            Err(EmulationError::CycleLimitExceeded { .. })
        ));
    }
}
