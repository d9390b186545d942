//! The steady workloads: one endless scenario, set up from scratch,
//! warmed up, then stepped in fixed-cycle chunks for the measured
//! time.
//!
//! A *job* is what a user of a single long run waits for: set-up,
//! warm-up, `job_chunks` chunks and the result/statistics extraction
//! over those chunks. `wall_s` times the job; the chunks after it
//! only add throughput samples.

use crate::probe::{
    median, phase_ns_per_cycle, proc_status_mb, quantile, steal_ticks, stepping_shares_json,
    summary_digest, unstolen, Outcome, Timed, Tracer, END_TO_END, PER_LAYER, REPORTED_PHASES,
};
use nocem::clock::{ClockMode, SteppableEngine};
use nocem::config::{EngineKind, PlatformConfig, TrafficModel};
use nocem::profile::{Phase, ProfileConfig};
use nocem::sweep::AnyEngine;
use nocem::{compute_routing, elaborate_routed, CompiledEngine, Emulation, ShardedCompiledEngine};
use nocem_scenarios::registry::{Scenario, ScenarioRegistry};
use nocem_scenarios::scenario::TopologySpec;
use nocem_stats::window::{Window, WindowStats};
use nocem_telemetry::SpanTrace;
use std::time::Instant;

/// One steady workload.
#[derive(Debug, Clone)]
pub struct SteadySpec {
    /// Builtin scenario the workload runs.
    pub scenario: &'static str,
    /// Topology it is bound to.
    pub topology: TopologySpec,
    /// Offered load per node.
    pub load: f64,
    /// Packet length in flits.
    pub packet_flits: u16,
    /// `Compiled` or `ShardedCompiled`.
    pub engine: EngineKind,
    /// Cycles stepped before the first chunk; the reference check
    /// compares summaries at this cycle.
    pub warmup: u64,
    /// Cycles per chunk (one operation).
    pub chunk: u64,
    /// Chunks inside the timed job.
    pub job_chunks: usize,
    /// Jobs per untraced run (`setup_s` and `wall_s` are medians).
    pub jobs: usize,
}

/// `uniform-32x32`: per-flow route state dominates set-up, memory and
/// the per-head-flit route lookup.
pub fn uniform_32x32() -> SteadySpec {
    SteadySpec {
        scenario: "uniform_random",
        topology: TopologySpec::Mesh {
            width: 32,
            height: 32,
        },
        load: 0.40,
        packet_flits: 4,
        engine: EngineKind::Compiled,
        warmup: 256,
        chunk: 128,
        job_chunks: 8,
        jobs: 4,
    }
}

/// `transpose-64x64-s2`: the one workload where the shard exchange
/// and coordinator work and one engine uses both cores.
pub fn transpose_64x64_s2() -> SteadySpec {
    SteadySpec {
        scenario: "transpose",
        topology: TopologySpec::Mesh {
            width: 64,
            height: 64,
        },
        load: 0.40,
        packet_flits: 4,
        engine: EngineKind::ShardedCompiled {
            shards: 2,
            batch: 16,
        },
        warmup: 512,
        chunk: 512,
        job_chunks: 8,
        jobs: 9,
    }
}

/// The registry name of `base` for `seed`: the scenario seed derives
/// from the registry name, so a seed-named copy is how a seed enters.
pub fn seeded_name(base: &str, seed: u64) -> String {
    format!("{base}-s{seed}")
}

/// The builtin registry plus a seed-named copy of each of `bases`.
pub fn seeded_registry(bases: &[&str], seed: u64) -> ScenarioRegistry {
    let mut registry = ScenarioRegistry::builtin();
    for base in bases {
        let scenario = registry.resolve(base).expect("builtin scenario").clone();
        registry.register(Scenario {
            name: seeded_name(base, seed),
            ..scenario
        });
    }
    registry
}

/// A steady workload bound to a seed.
struct Bench<'a> {
    spec: &'a SteadySpec,
    registry: ScenarioRegistry,
    seed: u64,
}

impl<'a> Bench<'a> {
    fn new(spec: &'a SteadySpec, seed: u64) -> Self {
        Bench {
            spec,
            registry: seeded_registry(&[spec.scenario], seed),
            seed,
        }
    }

    /// The endless, every-cycle configuration on `engine`.
    fn config(&self, engine: EngineKind) -> Result<PlatformConfig, String> {
        let spec = self.spec;
        let mut cfg = self
            .registry
            .resolve(&seeded_name(spec.scenario, self.seed))
            .map_err(|e| e.to_string())?
            .build_config(spec.topology, spec.load, spec.packet_flits, 1_000)
            .map_err(|e| e.to_string())?;
        for g in &mut cfg.generators {
            match g {
                TrafficModel::Uniform(u) => u.budget = None,
                TrafficModel::Burst(b) => b.budget = None,
                TrafficModel::Poisson(p) => p.budget = None,
                _ => {}
            }
        }
        cfg.stop.delivered_packets = None;
        cfg.stop.cycle_limit = u64::MAX;
        cfg.clock_mode = ClockMode::EveryCycle;
        cfg.engine = engine;
        Ok(cfg)
    }
}

/// Per-layer times of one set-up.
#[derive(Debug, Default, Clone, Copy)]
struct SetupTimes {
    build_config: f64,
    routing: f64,
    elaborate: f64,
    build: f64,
    flows: usize,
    rss_after_routing: f64,
    rss_after_build: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.build_config + self.routing + self.elaborate + self.build
    }
}

/// Scenario → config → routing → elaboration → engine, each call
/// wrapped in a span.
fn setup(
    bench: &Bench,
    engine: EngineKind,
    profile: bool,
    tracer: &mut Tracer,
) -> Result<(AnyEngine, SetupTimes), String> {
    let mut t = SetupTimes::default();
    let start = Instant::now();
    let mut cfg = bench.config(engine)?;
    if profile {
        cfg.profile = Some(ProfileConfig::default().without_spans());
    }
    t.build_config = tracer.span("scenarios.build_config", start, 0);

    let start = Instant::now();
    let routing = compute_routing(&cfg).map_err(|e| e.to_string())?;
    t.routing = tracer.span("routing.compute", start, 0);
    t.flows = routing.flow_count();
    t.rss_after_routing = proc_status_mb("VmRSS");

    let start = Instant::now();
    let elab = elaborate_routed(&cfg, routing).map_err(|e| e.to_string())?;
    t.elaborate = tracer.span("compile.elaborate", start, 0);

    let start = Instant::now();
    let engine = match engine {
        EngineKind::ShardedCompiled { shards, batch } => AnyEngine::ShardedCompiled(Box::new(
            ShardedCompiledEngine::from_elaboration(elab, shards, batch)
                .map_err(|e| e.to_string())?,
        )),
        _ => AnyEngine::Compiled(Box::new(CompiledEngine::new(elab))),
    };
    t.build = tracer.span("engine.build", start, 0);
    t.rss_after_build = proc_status_mb("VmRSS");
    Ok((engine, t))
}

/// What one job measured.
struct Job {
    setup: SetupTimes,
    /// Set-up + warm-up + job chunks + extraction.
    wall: Timed,
    extract: f64,
    /// Summary digest at the end of the warm-up.
    digest: String,
    /// Flits delivered inside the job's chunks.
    job_flits: u64,
    /// Per chunk: its time and the flits it delivered.
    chunks: Vec<(Timed, u64)>,
    /// The process's peak memory right after the extraction.
    peak_rss_mb: f64,
    engine: AnyEngine,
}

/// Chunks stepped after a job's own, for throughput samples.
#[derive(Debug, Clone, Copy)]
struct ChunkWindow {
    /// Host seconds the window lasts at least (from the first chunk).
    seconds: f64,
    /// Clean chunks (see [`Timed::clean`]) it needs before it may end;
    /// it ends anyway after `WINDOW_CAP` times `seconds`.
    min_clean: usize,
}

/// Clean chunks the throughput medians of a run need.
const MIN_CLEAN_CHUNKS: usize = 20;
const WINDOW_CAP: f64 = 1.5;

fn delivered_flits(engine: &AnyEngine) -> u64 {
    engine.summary().delivered_flits
}

/// Steps `cycles` cycles inside a span.
fn step_span(
    engine: &mut AnyEngine,
    cycles: u64,
    name: &'static str,
    tracer: &mut Tracer,
) -> Result<Timed, String> {
    let stolen = steal_ticks();
    let start = Instant::now();
    let at = engine.now().raw();
    for _ in 0..cycles {
        engine.step().map_err(|e| e.to_string())?;
    }
    let secs = tracer.span(name, start, at);
    Ok(Timed {
        secs,
        stolen: steal_ticks().saturating_sub(stolen),
    })
}

/// Runs one job, then the chunks of `window`, if any.
fn job(
    bench: &Bench,
    engine: EngineKind,
    profile: bool,
    tracer: &mut Tracer,
    window: Option<ChunkWindow>,
    out: &mut Outcome,
) -> Result<Job, String> {
    let spec = bench.spec;
    let stolen = steal_ticks();
    let (mut engine, setup) = setup(bench, engine, profile, tracer)?;
    let warmup = step_span(&mut engine, spec.warmup, "engine.warmup", tracer)?.secs;
    let digest = summary_digest(&engine.summary());
    let window_start = Instant::now();

    let mut chunks: Vec<(Timed, u64)> = Vec::new();
    let job_start_flits = delivered_flits(&engine);
    let (mut extract, mut job_flits, mut job_stolen, mut peak_rss_mb) = (0.0, 0, 0, 0.0);
    loop {
        let before = delivered_flits(&engine);
        out.attempted += 1;
        let t = step_span(&mut engine, spec.chunk, "engine.chunk", tracer)?;
        chunks.push((t, delivered_flits(&engine) - before));
        if chunks.len() == spec.job_chunks {
            job_flits = delivered_flits(&engine) - job_start_flits;
            extract = extract_stats(spec, &mut engine, tracer)?;
            job_stolen = steal_ticks().saturating_sub(stolen);
            peak_rss_mb = proc_status_mb("VmHWM");
        }
        if chunks.len() < spec.job_chunks {
            continue;
        }
        let Some(w) = window else { break };
        let elapsed = window_start.elapsed().as_secs_f64();
        let clean = chunks.iter().filter(|c| c.0.clean()).count();
        if elapsed >= w.seconds * WINDOW_CAP || (elapsed >= w.seconds && clean >= w.min_clean) {
            break;
        }
    }
    let job_time: f64 = chunks[..spec.job_chunks].iter().map(|c| c.0.secs).sum();
    Ok(Job {
        setup,
        wall: Timed {
            secs: setup.total() + warmup + job_time + extract,
            stolen: job_stolen,
        },
        extract,
        digest,
        job_flits,
        chunks,
        peak_rss_mb,
        engine,
    })
}

/// Results, packet ledger and window statistics over the job's
/// chunks, checked for consistency; returns the seconds taken.
fn extract_stats(
    spec: &SteadySpec,
    engine: &mut AnyEngine,
    tracer: &mut Tracer,
) -> Result<f64, String> {
    let start = Instant::now();
    let now = engine.now().raw();
    let results = engine.results().map_err(|e| e.to_string())?;
    let ledger = engine.packet_ledger();
    let window = Window::after_warmup(spec.warmup, spec.chunk * spec.job_chunks as u64, now);
    let (net, total) = WindowStats::from_ledger_both(&ledger, window);
    let secs = tracer.span("stats.extract", start, now);
    if results.delivered != ledger.delivered() || results.cycles != now {
        return Err(format!(
            "results disagree with the ledger: {} vs {} packets, cycle {} vs {now}",
            results.delivered,
            ledger.delivered(),
            results.cycles
        ));
    }
    if net.delivered_flits() == 0 || net.samples() == 0 || total.mean().is_none() {
        return Err("the job window delivered nothing".into());
    }
    Ok(secs)
}

/// Sim-time counters of a job (must repeat exactly for one seed).
fn record_sim(out: &mut Outcome, spec: &SteadySpec, j: &Job) {
    out.sim.insert("warmup_digest", j.digest.clone());
    out.sim.insert("job_flits", j.job_flits.to_string());
    out.reference = Some((format!("cycle={}", spec.warmup), j.digest.clone()));
}

/// The untraced run: `jobs` jobs in turn, each followed by its share
/// of `seconds` of chunks. `setup_s` and `wall_s` are medians over the
/// jobs, the throughputs medians over all their chunks, so that each
/// engine instance (and its memory layout) counts alike. The first
/// job, like a user's, pays the process's first set-up; the peak
/// memory is read right after its extraction, so that it covers one
/// job of fixed size.
pub fn run(spec: &SteadySpec, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_untraced(spec, seed, seconds, &mut out) {
        out.fail(e);
    }
    out.fill_missing(&END_TO_END);
    out
}

fn run_untraced(
    spec: &SteadySpec,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let bench = Bench::new(spec, seed);
    let mut tracer = Tracer::new(false, Instant::now(), 0);
    let (mut setups, mut walls, mut chunks) = (Vec::new(), Vec::new(), Vec::new());
    let mut first = None;
    let window = ChunkWindow {
        seconds: seconds / spec.jobs as f64,
        min_clean: MIN_CLEAN_CHUNKS.div_ceil(spec.jobs),
    };
    for _ in 0..spec.jobs {
        let j = job(&bench, spec.engine, false, &mut tracer, Some(window), out)?;
        setups.push(j.setup.total());
        walls.push(j.wall);
        chunks.extend_from_slice(&j.chunks);
        match &first {
            None => {
                out.set("peak_rss_mb", j.peak_rss_mb);
                record_sim(out, spec, &j);
                first = Some((j.digest.clone(), j.job_flits));
            }
            Some(counters) => check_same(out, "repeated job", &j, counters),
        }
    }
    let timed: Vec<Timed> = chunks.iter().map(|c| c.0).collect();
    let use_chunks = unstolen(&timed, MIN_CLEAN_CHUNKS);
    let secs: Vec<f64> = use_chunks.iter().map(|&i| timed[i].secs).collect();
    let flit_rates: Vec<f64> = use_chunks
        .iter()
        .map(|&i| chunks[i].1 as f64 / timed[i].secs)
        .collect();
    out.set("sim_cycles_per_s", spec.chunk as f64 / median(&secs));
    out.set("sim_flits_per_s", median(&flit_rates));
    let use_jobs = unstolen(&walls, 1);
    let pick = |v: &[f64]| median(&use_jobs.iter().map(|&i| v[i]).collect::<Vec<_>>());
    out.set("setup_s", pick(&setups));
    out.set(
        "wall_s",
        pick(&walls.iter().map(|w| w.secs).collect::<Vec<_>>()),
    );
    Ok(())
}

/// Seconds of the job's own chunks.
fn job_chunk_secs(spec: &SteadySpec, j: &Job) -> f64 {
    j.chunks[..spec.job_chunks].iter().map(|c| c.0.secs).sum()
}

/// Fails an operation when `j` did not reproduce the first job's
/// sim counters `(digest, job_flits)`.
fn check_same(out: &mut Outcome, what: &str, j: &Job, first: &(String, u64)) {
    if j.digest != first.0 || j.job_flits != first.1 {
        out.fail(format!(
            "{what} diverged: {} / {} job flits vs {} / {} job flits",
            j.digest, j.job_flits, first.0, first.1
        ));
    }
}

/// The traced run. Three jobs run in turn: an untraced one (the
/// process's first set-up, which pays page faults the later ones do
/// not), the traced one (spans and phase profiler, chunks for
/// `seconds`), and an untraced one again as the overhead baseline.
/// On the sharded workload the compiled engine then runs the same job
/// window as the base of the speed-up.
pub fn run_traced(spec: &SteadySpec, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = traced(spec, seed, seconds, &mut out) {
        out.fail(e);
    }
    out.fill_missing(&PER_LAYER);
    out
}

fn traced(spec: &SteadySpec, seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let bench = Bench::new(spec, seed);
    let epoch = Instant::now();
    let mut off = Tracer::new(false, epoch, 0);
    let first = job(&bench, spec.engine, false, &mut off, None, out)?;
    let first = (first.digest, first.job_flits);

    let mut tracer = Tracer::new(true, epoch, 0);
    let window = ChunkWindow {
        seconds,
        min_clean: MIN_CLEAN_CHUNKS,
    };
    let mut j = job(&bench, spec.engine, true, &mut tracer, Some(window), out)?;
    check_same(out, "traced run", &j, &first);
    record_sim(out, spec, &j);

    let t = j.setup;
    out.set("scenarios.build_config_s", t.build_config);
    out.set("routing.compute_s", t.routing);
    out.set("routing.flows", t.flows as f64);
    out.set("compile.elaborate_s", t.elaborate);
    out.set("engine.build_s", t.build);
    out.set("rss.after_routing_mb", t.rss_after_routing);
    out.set("rss.after_build_mb", t.rss_after_build);
    out.set("stats.extract_s", j.extract);

    let secs: Vec<f64> = j.chunks.iter().map(|c| c.0.secs).collect();
    out.set("engine.chunk_samples", secs.len() as f64);
    out.set("engine.chunk_ms_p50", median(&secs) * 1e3);
    out.set("engine.chunk_ms_p95", quantile(&secs, 0.95) * 1e3);
    out.set(
        "engine.step_us_per_cycle",
        median(&secs) / spec.chunk as f64 * 1e6,
    );
    out.set(
        "engine.flits_per_cycle",
        j.job_flits as f64 / (spec.chunk * spec.job_chunks as u64) as f64,
    );
    let summary = j.engine.summary();
    out.set(
        "clock.skipped_ratio",
        summary.cycles_skipped as f64 / summary.cycles.max(1) as f64,
    );

    let report = j
        .engine
        .profile()
        .ok_or("the profiler was enabled but reported nothing")?;
    for phase in REPORTED_PHASES {
        out.set(phase_metric(phase), phase_ns_per_cycle(&report, phase));
    }
    let meta = vec![
        ("workload_phase_profile".to_string(), report.to_json()),
        (
            "stepping_phase_shares".to_string(),
            stepping_shares_json(&Phase::ALL.map(|p| (p, report.ns_of(p)))),
        ),
        (
            "job".to_string(),
            format!(
                "{{\"warmup_cycles\":{},\"chunk_cycles\":{},\"job_chunks\":{}}}",
                spec.warmup, spec.chunk, spec.job_chunks
            ),
        ),
    ];
    if let AnyEngine::Compiled(c) = &j.engine {
        set_route_metrics(out, c);
    }
    if let AnyEngine::ShardedCompiled(s) = &j.engine {
        out.set(
            "shard.sync_rounds_per_cycle",
            s.sync_rounds() as f64 / summary.cycles.max(1) as f64,
        );
        let compute: Vec<f64> = report
            .workers
            .iter()
            .map(|w| w.ns_of(Phase::WorkerCompute) as f64)
            .collect();
        let mean = compute.iter().sum::<f64>() / compute.len().max(1) as f64;
        let max = compute.iter().copied().fold(0.0, f64::max);
        out.set("shard.imbalance", if mean > 0.0 { max / mean } else { 0.0 });
    }
    let traced_wall = j.wall.secs;
    drop(j);

    let plain = job(&bench, spec.engine, false, &mut off, None, out)?;
    check_same(out, "untraced rerun", &plain, &first);
    out.set("trace.wall_s", traced_wall);
    out.set("trace.untraced_wall_s", plain.wall.secs);
    out.set("trace.overhead_s", traced_wall - plain.wall.secs);
    let plain_secs = job_chunk_secs(spec, &plain);
    drop(plain);

    if spec.engine != EngineKind::Compiled {
        // The base of the speed-up: the compiled engine on the same
        // job window, untraced like the job it is compared to.
        let base = job(&bench, EngineKind::Compiled, false, &mut off, None, out)?;
        check_same(out, "compiled baseline", &base, &first);
        out.set(
            "shard.speedup_vs_compiled",
            job_chunk_secs(spec, &base) / plain_secs,
        );
        if let AnyEngine::Compiled(c) = &base.engine {
            set_route_metrics(out, c);
        }
    }
    let trace = SpanTrace::merge([tracer.into_parts()]);
    out.set("trace.spans", trace.events().len() as f64);
    out.trace = Some((trace, meta));
    Ok(())
}

/// Size and form of the lowered route table.
fn set_route_metrics(out: &mut Outcome, engine: &CompiledEngine) {
    let low = engine.lowered();
    out.set("compile.route_csr_entries", low.route_flows.len() as f64);
    out.set(
        "compile.route_direct",
        f64::from(u8::from(!low.route_direct.is_empty())),
    );
}

/// The metric name of a reported phase.
pub fn phase_metric(phase: Phase) -> &'static str {
    match phase {
        Phase::Decide => "phase.decide",
        Phase::Commit => "phase.commit",
        Phase::TgTick => "phase.tg-tick",
        Phase::NiInject => "phase.ni-inject",
        Phase::Ledger => "phase.ledger",
        Phase::Probe => "phase.probe",
        Phase::FastForward => "phase.fast-forward",
        Phase::WorkerCompute => "phase.worker-compute",
        Phase::Exchange => "phase.exchange",
        Phase::CoordWait => "phase.coordinator-wait",
        Phase::Apply => "phase.apply",
        other => unreachable!("phase {} is not reported", other.name()),
    }
}

/// The reference run: the interpreted `Emulation` engine on the same
/// configuration up to the end of the warm-up. Routing is computed
/// once and handed to the elaboration.
pub fn reference(spec: &SteadySpec, seed: u64) -> Result<(String, String), String> {
    let cfg = Bench::new(spec, seed).config(EngineKind::SingleThread)?;
    let routing = compute_routing(&cfg).map_err(|e| e.to_string())?;
    let mut emu = Emulation::new(elaborate_routed(&cfg, routing).map_err(|e| e.to_string())?);
    for _ in 0..spec.warmup {
        emu.step().map_err(|e| e.to_string())?;
    }
    Ok((
        format!("cycle={}", spec.warmup),
        summary_digest(&SteppableEngine::summary(&emu)),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::unit_of;

    /// A small stand-in for the steady workloads, quick in a debug build.
    fn small(engine: EngineKind) -> SteadySpec {
        SteadySpec {
            scenario: "uniform_random",
            topology: TopologySpec::Mesh {
                width: 4,
                height: 4,
            },
            load: 0.40,
            packet_flits: 4,
            engine,
            warmup: 64,
            chunk: 32,
            job_chunks: 2,
            jobs: 2,
        }
    }

    fn sharded() -> EngineKind {
        EngineKind::ShardedCompiled {
            shards: 2,
            batch: 4,
        }
    }

    #[test]
    fn untraced_run_reports_every_end_to_end_metric_and_passes_its_check() {
        let spec = small(EngineKind::Compiled);
        let out = run(&spec, 3, 0.05);
        assert_eq!(out.failed, 0, "{:?}", out.errors);
        assert!(out.attempted >= spec.job_chunks as u64);
        assert_eq!(out.metrics.len(), END_TO_END.len());
        for (name, _) in END_TO_END {
            assert!(out.metrics[name] > 0.0, "{name} must be positive");
        }
        nocem_telemetry::validate_json(&out.to_json()).expect("valid JSON");
        let (key, digest) = out.reference.clone().expect("a reference point");
        assert_eq!(reference(&spec, 3), Ok((key, digest)));
    }

    #[test]
    fn traced_sharded_run_reports_every_per_layer_metric() {
        let spec = small(sharded());
        let out = run_traced(&spec, 3, 0.05);
        assert_eq!(out.failed, 0, "{:?}", out.errors);
        assert_eq!(out.metrics.len(), PER_LAYER.len());
        assert!(out.metrics.keys().all(|n| unit_of(n).is_some()));
        for name in [
            "shard.imbalance",
            "shard.speedup_vs_compiled",
            "phase.worker-compute",
        ] {
            assert!(out.metrics[name] > 0.0, "{name} must be measured");
        }
        assert_eq!(out.metrics["routing.flows"], 16.0 * 15.0);
        let (trace, _) = out.trace.as_ref().expect("a traced run keeps its spans");
        nocem_telemetry::validate_json(&trace.to_chrome_trace()).expect("valid trace");
    }

    #[test]
    fn seeds_change_the_run_and_repeat_exactly() {
        let spec = small(EngineKind::Compiled);
        let a = reference(&spec, 1).expect("runs");
        assert_eq!(reference(&spec, 1).expect("runs"), a);
        assert_ne!(reference(&spec, 2).expect("runs"), a);
    }

    #[test]
    fn a_perturbed_summary_trips_the_output_check() {
        let spec = small(EngineKind::Compiled);
        let cfg = Bench::new(&spec, 1)
            .config(EngineKind::Compiled)
            .expect("config");
        let mut engine = CompiledEngine::new(nocem::elaborate(&cfg).expect("elaborates"));
        for _ in 0..spec.warmup {
            engine.step().expect("steps");
        }
        let summary = SteppableEngine::summary(&engine);
        let (_, reference_digest) = reference(&spec, 1).expect("runs");
        assert_eq!(summary_digest(&summary), reference_digest);
        let perturbations: [fn(&mut nocem::EngineSummary); 4] = [
            |s| s.delivered_flits += 1,
            |s| s.delivered -= 1,
            |s| s.cycles += 1,
            |s| s.network_latency.record(1),
        ];
        for perturb in perturbations {
            let mut bad = summary.clone();
            perturb(&mut bad);
            assert_ne!(summary_digest(&bad), reference_digest);
        }
    }
}
