//! The RTL engine: the platform's processes
//! ([`nocem::process_model`]) on the event-driven [`Kernel`] — the
//! ModelSim row of the paper's Table 2.
//!
//! Every link is a flit wire plus one credit wire per VC, every switch
//! and network interface a clocked process with nonblocking outputs,
//! and every receptor a monitor process sensitive to its ejection
//! wire. The kernel's NBA semantics realize exactly the two-phase
//! cycle contract of `nocem-switch`, so a run pays the per-signal
//! event machinery a Verilog simulator pays and nothing else differs.

use crate::kernel::{ConvergenceError, Kernel, KernelStats, ProcessCtx, SignalId, Value};
use nocem::process_model::{ProcessKernel, ProcessModel};
use nocem_common::flit::Flit;
use nocem_common::time::Cycle;

/// The RTL simulation engine.
pub type RtlEngine = ProcessModel<Kernel>;

impl ProcessKernel for Kernel {
    type FlitSignal = SignalId;
    type BitSignal = SignalId;
    type Ctx<'a> = ProcessCtx<'a>;
    type Stats = KernelStats;
    type Error = ConvergenceError;
    const NAME: &'static str = "rtl";

    fn new() -> Self {
        Kernel::new()
    }

    fn flit_signal(&mut self, name: String) -> SignalId {
        self.signal(name)
    }

    fn bit_signal(&mut self, name: String) -> SignalId {
        self.signal(name)
    }

    fn clocked_process(&mut self, mut p: impl FnMut(Cycle, &mut ProcessCtx<'_>) + 'static) {
        Kernel::clocked_process(self, move |ctx: &mut ProcessCtx<'_>| {
            p(Cycle::new(ctx.time()), ctx);
        });
    }

    fn watch_flit(&mut self, sig: SignalId, mut w: impl FnMut(Option<Flit>, Cycle) + 'static) {
        self.reactive_process(&[sig], move |ctx: &mut ProcessCtx<'_>| {
            w(ctx.read(sig).flit(), Cycle::new(ctx.time()));
        });
    }

    fn read_flit(ctx: &ProcessCtx<'_>, sig: SignalId) -> Option<Flit> {
        ctx.read(sig).flit()
    }

    fn write_flit(ctx: &mut ProcessCtx<'_>, sig: SignalId, value: Option<Flit>) {
        ctx.write(sig, Value::Flit(value));
    }

    fn read_bit(ctx: &ProcessCtx<'_>, sig: SignalId) -> bool {
        ctx.read(sig).is_high()
    }

    fn write_bit(ctx: &mut ProcessCtx<'_>, sig: SignalId, value: bool) {
        ctx.write(sig, if value { Value::High } else { Value::Low });
    }

    fn time(&self) -> u64 {
        Kernel::time(self)
    }

    fn advance_time(&mut self, cycles: u64) {
        Kernel::advance_time(self, cycles);
    }

    fn cycle(&mut self) -> Result<(), ConvergenceError> {
        Kernel::cycle(self)
    }

    fn flit_value(&self, sig: SignalId) -> Option<Flit> {
        self.value(sig).flit()
    }

    fn stats(&self) -> KernelStats {
        Kernel::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocem::clock::EngineSummary;
    use nocem::compile::elaborate;
    use nocem::config::PaperConfig;
    use nocem::error::EmulationError;

    fn rtl_run(packets: u64) -> (EngineSummary, KernelStats) {
        let cfg = PaperConfig::new().total_packets(packets).uniform();
        let mut engine = RtlEngine::new(elaborate(&cfg).unwrap());
        engine.run().unwrap();
        (engine.summary(), engine.kernel_stats())
    }

    #[test]
    fn rtl_delivers_all_packets() {
        let (s, k) = rtl_run(150);
        assert_eq!(s.delivered, 150);
        assert!(s.cycles > 0);
        assert!(k.signal_events > 0);
        assert!(k.activations > s.cycles, "many activations per cycle");
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
        engine.kernel_mut().enable_vcd();
        engine.run().unwrap();
        let vcd = engine.kernel().vcd_output().unwrap();
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

    #[test]
    fn rtl_kernel_fault_fails_the_step() {
        // A combinational inverter on its own output never settles;
        // the step reports the kernel's convergence error as such.
        let cfg = PaperConfig::new().total_packets(10).uniform();
        let mut engine = RtlEngine::new(elaborate(&cfg).unwrap());
        let kernel = engine.kernel_mut();
        let q = kernel.signal("osc");
        kernel.reactive_process(&[q], move |ctx: &mut ProcessCtx<'_>| {
            let v = if ctx.read(q).is_high() {
                Value::Low
            } else {
                Value::High
            };
            ctx.write(q, v);
        });
        let err = engine.step().unwrap_err();
        assert!(matches!(err, EmulationError::Kernel { .. }), "{err:?}");
        assert!(err
            .to_string()
            .contains("rtl: delta cycles did not converge"));
    }
}
