//! The transaction-level engine: the platform's processes
//! ([`nocem::process_model`]) on the SystemC-style [`Scheduler`] —
//! the MPARM row of the paper's Table 2.

use crate::scheduler::{BitChanId, ChannelCtx, FlitChanId, Scheduler, SchedulerStats};
use nocem::process_model::{ProcessKernel, ProcessModel};
use nocem_common::flit::Flit;
use nocem_common::time::Cycle;

/// The transaction-level simulation engine.
pub type TlmEngine = ProcessModel<Scheduler>;

impl ProcessKernel for Scheduler {
    type FlitSignal = FlitChanId;
    type BitSignal = BitChanId;
    type Ctx<'a> = ChannelCtx;
    type Stats = SchedulerStats;
    type Error = std::convert::Infallible;
    const NAME: &'static str = "tlm";

    fn new() -> Self {
        Scheduler::new()
    }

    fn flit_signal(&mut self, _name: String) -> FlitChanId {
        self.flit_channel()
    }

    fn bit_signal(&mut self, _name: String) -> BitChanId {
        self.bit_channel()
    }

    fn clocked_process(&mut self, p: impl FnMut(Cycle, &mut ChannelCtx) + 'static) {
        self.process(p);
    }

    fn watch_flit(&mut self, sig: FlitChanId, w: impl FnMut(Option<Flit>, Cycle) + 'static) {
        Scheduler::watch_flit(self, sig, w);
    }

    fn read_flit(ctx: &ChannelCtx, sig: FlitChanId) -> Option<Flit> {
        ctx.read_flit(sig)
    }

    fn write_flit(ctx: &mut ChannelCtx, sig: FlitChanId, value: Option<Flit>) {
        ctx.write_flit(sig, value);
    }

    fn read_bit(ctx: &ChannelCtx, sig: BitChanId) -> bool {
        ctx.read_bit(sig)
    }

    fn write_bit(ctx: &mut ChannelCtx, sig: BitChanId, value: bool) {
        ctx.write_bit(sig, value);
    }

    fn time(&self) -> u64 {
        Scheduler::time(self)
    }

    fn advance_time(&mut self, cycles: u64) {
        Scheduler::advance_time(self, cycles);
    }

    fn cycle(&mut self) -> Result<(), Self::Error> {
        Scheduler::cycle(self);
        Ok(())
    }

    fn flit_value(&self, sig: FlitChanId) -> Option<Flit> {
        Scheduler::flit_value(self, sig)
    }

    fn stats(&self) -> SchedulerStats {
        Scheduler::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocem::compile::elaborate;
    use nocem::config::PaperConfig;
    use nocem::error::EmulationError;

    #[test]
    fn tlm_delivers_all_packets() {
        let cfg = PaperConfig::new().total_packets(150).uniform();
        let mut engine = TlmEngine::new(elaborate(&cfg).unwrap());
        engine.run().unwrap();
        let s = engine.summary();
        assert_eq!(s.delivered, 150);
        assert!(engine.kernel_stats().activations > s.cycles);
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
