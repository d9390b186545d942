//! The platform as processes: one engine for the paper's Table 2
//! simulator baselines.
//!
//! The same elaborated components as the fast engine, wired at the
//! signal level: every link is a flit signal plus one reverse credit
//! bit per VC, every network interface and switch is a clocked process
//! whose writes become visible next cycle, and every receptor watches
//! its ejection signal. [`ProcessModel`] builds and steps that platform
//! once, over any [`ProcessKernel`]; `nocem-tlm` (a SystemC-style
//! scheduler, the MPARM row) and `nocem-rtl` (an event-driven HDL
//! kernel, the ModelSim row) supply only the kernel. Runs are cycle-
//! and flit-identical to the fast engine; the kernels differ only in
//! the scheduling machinery they pay per cycle, which is what Table 2
//! measures.

use crate::clock::{self, ClockMode, EngineSummary, SteppableEngine};
use crate::compile::{Elaboration, ReceptorDevice};
use crate::error::EmulationError;
use crate::profile::{Phase, PhaseProfiler, PhaseReport};
use nocem_common::flit::{Flit, PacketDescriptor};
use nocem_common::ids::{EndpointId, LinkId, PacketId, PortId, SwitchId, VcId};
use nocem_common::time::Cycle;
use nocem_stats::ledger::PacketLedger;
use nocem_switch::switch::Switch;
use nocem_telemetry::{Collector, CumulativeProbe};
use nocem_traffic::generator::{PacketRequest, TrafficGenerator};
use nocem_traffic::ni::SourceNi;
use std::cell::RefCell;
use std::rc::Rc;

/// A simulation kernel the platform's processes run on.
///
/// Signal writes made inside a process become visible in the next
/// cycle; clocked processes run in registration order once per cycle;
/// a flit watcher runs in the cycle whose write changed its signal.
pub trait ProcessKernel: 'static {
    /// Handle to a flit signal.
    type FlitSignal: Copy + 'static;
    /// Handle to a single-bit signal.
    type BitSignal: Copy + 'static;
    /// Signal access handed to a process while it runs.
    type Ctx<'a>;
    /// The kernel's work counters.
    type Stats;
    /// Why a cycle could not complete.
    type Error: std::fmt::Display;
    /// Label of the engine's profile report.
    const NAME: &'static str;

    /// An empty kernel at time 0.
    fn new() -> Self;
    /// Declares a flit signal, initially idle.
    fn flit_signal(&mut self, name: String) -> Self::FlitSignal;
    /// Declares a bit signal, initially low.
    fn bit_signal(&mut self, name: String) -> Self::BitSignal;
    /// Registers a process activated every cycle with the current time.
    fn clocked_process(&mut self, p: impl FnMut(Cycle, &mut Self::Ctx<'_>) + 'static);
    /// Registers a callback on every value change of a flit signal.
    fn watch_flit(&mut self, sig: Self::FlitSignal, w: impl FnMut(Option<Flit>, Cycle) + 'static);
    /// Reads a flit signal inside a process.
    fn read_flit(ctx: &Self::Ctx<'_>, sig: Self::FlitSignal) -> Option<Flit>;
    /// Writes a flit signal inside a process.
    fn write_flit(ctx: &mut Self::Ctx<'_>, sig: Self::FlitSignal, value: Option<Flit>);
    /// Reads a bit signal inside a process.
    fn read_bit(ctx: &Self::Ctx<'_>, sig: Self::BitSignal) -> bool;
    /// Writes a bit signal inside a process.
    fn write_bit(ctx: &mut Self::Ctx<'_>, sig: Self::BitSignal, value: bool);
    /// Simulated time in cycles.
    fn time(&self) -> u64;
    /// Jumps time forward without running a process (clock gating).
    fn advance_time(&mut self, cycles: u64);
    /// Simulates one cycle.
    ///
    /// # Errors
    ///
    /// Returns the kernel's error when the cycle cannot complete.
    fn cycle(&mut self) -> Result<(), Self::Error>;
    /// The value a flit signal holds between cycles.
    fn flit_value(&self, sig: Self::FlitSignal) -> Option<Flit>;
    /// The kernel's work counters so far.
    fn stats(&self) -> Self::Stats;
}

/// The platform components, shared by every process closure.
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
    delivered_flits: u64,
    ni_done: Vec<bool>,
    error: Option<EmulationError>,
}

impl SharedState {
    fn deliver(&mut self, index: usize, flit: Flit, now: Cycle) {
        match self.receptors[index].accept(&flit, now) {
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

/// The platform-as-processes engine over kernel `K`.
pub struct ProcessModel<K: ProcessKernel> {
    kernel: K,
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
    /// Flit signals of every non-ejection link. A flit latched here
    /// was written last cycle and enters the downstream FIFO this
    /// cycle — the fast engine already counts it in that FIFO, so the
    /// occupancy probe adds it. Ejection signals are excluded: their
    /// flits were delivered in the cycle that wrote them and never
    /// occupy a buffer.
    inflight: Vec<K::FlitSignal>,
    link_count: usize,
    num_vcs: usize,
    /// Per-phase self-profiler, enabled by `PlatformConfig.profile`.
    /// The kernel cycle is opaque (processes interleave the platform
    /// phases), so it is charged to [`Phase::Processes`].
    profiler: Option<PhaseProfiler>,
}

impl<K: ProcessKernel> std::fmt::Debug for ProcessModel<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcessModel")
            .field("kernel", &K::NAME)
            .field("time", &self.kernel.time())
            .finish_non_exhaustive()
    }
}

impl<K: ProcessKernel> ProcessModel<K> {
    /// Builds the platform's processes from an elaboration (consumes
    /// it; the components move into the process closures).
    ///
    /// Processes register in a fixed order — network interfaces in
    /// generator order (packet ids must match the fast engine), then
    /// switches, then receptor watchers — which also fixes the
    /// kernel's work counters.
    pub fn new(elab: Elaboration) -> Self {
        let mut kernel = K::new();
        let topo = &elab.config.topology;
        let num_vcs = elab.config.switch.num_vcs as usize;

        // One flit signal per link and one reverse credit signal per
        // (link, VC): a pop from VC v downstream frees one slot of VC
        // v upstream.
        let flit_sigs: Vec<K::FlitSignal> = (0..topo.link_count())
            .map(|l| kernel.flit_signal(format!("flit_l{l}")))
            .collect();
        let credit_sigs: Vec<Vec<K::BitSignal>> = (0..topo.link_count())
            .map(|l| {
                (0..num_vcs)
                    .map(|v| kernel.bit_signal(format!("credit_l{l}v{v}")))
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
        let inflight: Vec<K::FlitSignal> = flit_sigs
            .iter()
            .enumerate()
            .filter(|&(l, _)| !is_ejection[l])
            .map(|(_, &sig)| sig)
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
            delivered_flits: 0,
            error: None,
        }));

        for (i, &(_, _, link)) in elab.wiring.injection.iter().enumerate() {
            let out = flit_sigs[link.index()];
            // NIs inject on VC 0 only, so they watch that VC's credit.
            let credit = credit_sigs[link.index()][0];
            let sh = Rc::clone(&shared);
            kernel.clocked_process(move |now, ctx| {
                let sh = &mut *sh.borrow_mut();
                if K::read_bit(ctx, credit) {
                    sh.nis[i].credit_return();
                }
                // Backpressure-aware release, identical to the fast
                // engine: a stalled request clock-gates the model.
                let req = match sh.pending[i].take().or_else(|| sh.tgs[i].tick(now)) {
                    Some(req) if !sh.nis[i].can_accept() => {
                        sh.pending[i] = Some(req);
                        None
                    }
                    req => req,
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
                K::write_flit(ctx, out, flit);
            });
        }

        for (s, out_links) in switch_out_links.iter().enumerate() {
            let in_links = &elab.wiring.in_link[s];
            let in_sigs: Vec<K::FlitSignal> =
                in_links.iter().map(|l| flit_sigs[l.index()]).collect();
            let in_credit: Vec<Vec<K::BitSignal>> = in_links
                .iter()
                .map(|l| credit_sigs[l.index()].clone())
                .collect();
            let out_sigs: Vec<K::FlitSignal> =
                out_links.iter().map(|l| flit_sigs[l.index()]).collect();
            let out_credit: Vec<Vec<K::BitSignal>> = out_links
                .iter()
                .map(|l| credit_sigs[l.index()].clone())
                .collect();
            let sh = Rc::clone(&shared);
            kernel.clocked_process(move |_now, ctx| {
                let sh = &mut *sh.borrow_mut();
                let sw = &mut sh.switches[s];
                // Sample arriving flits (sent last cycle).
                for (p, &sig) in in_sigs.iter().enumerate() {
                    if let Some(f) = K::read_flit(ctx, sig) {
                        if let Err(source) = sw.accept(PortId::new(p as u8), f) {
                            sh.error.get_or_insert(EmulationError::FifoOverflow {
                                switch: SwitchId::new(s as u32),
                                source,
                            });
                            return;
                        }
                    }
                }
                for (o, per_vc) in out_credit.iter().enumerate() {
                    for (v, &sig) in per_vc.iter().enumerate() {
                        if K::read_bit(ctx, sig) {
                            sw.credit_return(PortId::new(o as u8), VcId::new(v as u8));
                        }
                    }
                }
                sw.decide();
                let sends = sw.commit_sends();
                let mut out_flit: Vec<Option<Flit>> = vec![None; out_sigs.len()];
                // At most one flit pops per input port per cycle; the
                // credit travels back on that flit's input VC.
                let mut popped: Vec<Option<u8>> = vec![None; in_sigs.len()];
                for t in sends {
                    out_flit[t.output.index()] = Some(t.flit);
                    popped[t.input.index()] = Some(t.input_vc.raw());
                }
                for (o, &sig) in out_sigs.iter().enumerate() {
                    K::write_flit(ctx, sig, out_flit[o]);
                }
                for (p, per_vc) in in_credit.iter().enumerate() {
                    for (v, &sig) in per_vc.iter().enumerate() {
                        K::write_bit(ctx, sig, popped[p] == Some(v as u8));
                    }
                }
            });
        }

        for (idx, link) in elab.wiring.ejection_link.iter().enumerate() {
            let sh = Rc::clone(&shared);
            kernel.watch_flit(flit_sigs[link.index()], move |value, now| {
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

        ProcessModel {
            kernel,
            shared,
            stop_packets: elab.config.stop.delivered_packets,
            cycle_limit: elab.config.stop.cycle_limit,
            clock_mode: elab.config.clock_mode,
            cycles_skipped: 0,
            telemetry,
            switch_out_links,
            injection_links,
            inflight,
            link_count: elab.config.topology.link_count(),
            num_vcs,
            profiler,
        }
    }

    /// The kernel the processes run on.
    pub fn kernel(&self) -> &K {
        &self.kernel
    }

    /// Mutable access to the kernel (for instance to switch on
    /// kernel-level tracing before a run).
    pub fn kernel_mut(&mut self) -> &mut K {
        &mut self.kernel
    }

    /// The kernel's work counters so far (the baseline's cost).
    pub fn kernel_stats(&self) -> K::Stats {
        self.kernel.stats()
    }

    /// Cumulative counters at the current instant, shaped exactly
    /// like the fast engine's probe: per-link lifetime blocked /
    /// forwarded (source-side accounting) plus live per-VC occupancy
    /// with in-flight signal flits compensated (see `inflight`).
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
        for &sig in &self.inflight {
            if let Some(f) = self.kernel.flit_value(sig) {
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
    /// signal already holds its idle value (a flit on a signal is an
    /// undelivered packet; a raised credit is a credit not yet home),
    /// so the skipped cycles would have been pure no-ops.
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
    /// Propagates protocol violations, kernel faults and the cycle
    /// limit.
    pub fn run(&mut self) -> Result<(), EmulationError> {
        clock::run_engine(self)
    }

    /// Advances one cycle regardless of the stop condition (plus any
    /// preceding fast-forward jump in gated mode; used directly by the
    /// speed-measurement harness).
    ///
    /// # Errors
    ///
    /// Propagates protocol violations detected by the processes, a
    /// kernel that could not complete the cycle, and the cycle limit.
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
        cycled.map_err(|e| EmulationError::Kernel {
            reason: format!("{}: {e}", K::NAME),
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

    /// Snapshots the run summary.
    pub fn summary(&self) -> EngineSummary {
        let sh = self.shared.borrow();
        EngineSummary::from_ledger(
            self.kernel.time(),
            self.cycles_skipped,
            sh.delivered_flits,
            &sh.ledger,
        )
    }
}

impl<K: ProcessKernel> SteppableEngine for ProcessModel<K> {
    fn step(&mut self) -> Result<(), EmulationError> {
        ProcessModel::step(self)
    }

    fn now(&self) -> Cycle {
        Cycle::new(self.kernel.time())
    }

    fn finished(&self) -> bool {
        ProcessModel::finished(self)
    }

    fn delivered(&self) -> u64 {
        ProcessModel::delivered(self)
    }

    fn cycles_skipped(&self) -> u64 {
        self.cycles_skipped
    }

    fn summary(&self) -> EngineSummary {
        ProcessModel::summary(self)
    }

    fn packet_ledger(&self) -> PacketLedger {
        self.shared.borrow().ledger.clone()
    }

    fn telemetry(&self) -> Option<&Collector> {
        ProcessModel::telemetry(self)
    }

    fn seal_telemetry(&mut self) {
        ProcessModel::seal_telemetry(self);
    }

    fn profile(&mut self) -> Option<PhaseReport> {
        Some(self.profiler.as_ref()?.report(K::NAME))
    }
}
