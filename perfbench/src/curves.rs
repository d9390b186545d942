//! The `curves-8x8` workload: saturation-search latency curves for
//! three patterns on mesh8x8 and torus8x8, driven through
//! `run_curve_specs` on two threads and rendered to CSV.

use crate::probe::{
    median, phase_ns_per_cycle, proc_status_mb, quantile, steal_ticks, stepping_shares_json,
    unstolen, Outcome, Timed, Tracer, END_TO_END, PER_LAYER, REPORTED_PHASES,
};
use crate::steady::{phase_metric, seeded_name, seeded_registry};
use nocem::clock::ClockMode;
use nocem::config::EngineKind;
use nocem::profile::{Phase, PhaseProfiler, ProfileConfig};
use nocem::sweep::{run_sweep_indexed, SweepPoint};
use nocem::{compute_routing, elaborate_routed, lower, CompiledEngine};
use nocem_curves::measure::{measure_config, MeasureConfig, PointMeasurement};
use nocem_curves::runner::{run_curve_specs, CurveSetOutcome};
use nocem_curves::search::{Curve, CurveSpec, PointPhase, SearchConfig};
use nocem_scenarios::registry::ScenarioRegistry;
use nocem_scenarios::scenario::TopologySpec;
use nocem_telemetry::{SpanEvent, SpanTrace, TelemetryConfig};
use std::time::Instant;

/// The swept patterns.
const PATTERNS: [&str; 3] = ["uniform_random", "transpose", "tornado"];

/// Threads of the curve sweep.
const THREADS: usize = 2;

/// Set-ups per run (`setup_s` is their median).
const SETUP_REPS: usize = 50;

/// Curve sets a run measures at least, and clean ones it needs before
/// it may end; it ends anyway after `WINDOW_CAP` times `--seconds`.
const MIN_SETS: usize = 8;
const MIN_CLEAN_SETS: usize = 3;
const WINDOW_CAP: f64 = 1.5;

/// The seconds of the clean intervals, or of all when fewer than
/// `min` are clean.
fn pick(intervals: &[Timed], min: usize) -> Vec<f64> {
    unstolen(intervals, min)
        .into_iter()
        .map(|i| intervals[i].secs)
        .collect()
}

/// The six curve specs (pattern-major) and their registry.
pub fn specs(seed: u64, engine: EngineKind) -> (ScenarioRegistry, Vec<CurveSpec>) {
    let registry = seeded_registry(&PATTERNS, seed);
    let mut specs = Vec::new();
    for pattern in PATTERNS {
        for topology in [
            TopologySpec::Mesh {
                width: 8,
                height: 8,
            },
            TopologySpec::Torus {
                width: 8,
                height: 8,
            },
        ] {
            specs.push(CurveSpec {
                scenario: seeded_name(pattern, seed),
                topology,
                packet_flits: 4,
                clock_mode: ClockMode::Gated,
                engine,
                measure: MeasureConfig {
                    warmup_cycles: 2_048,
                    measure_cycles: 8_192,
                },
                search: SearchConfig::default(),
                telemetry: Some(TelemetryConfig::windowed(1_024)),
            });
        }
    }
    (registry, specs)
}

/// Set-up of every curve's first point: config → routing →
/// elaboration → engine. Returns the time for all six.
fn setup_all(registry: &ScenarioRegistry, specs: &[CurveSpec]) -> Result<Timed, String> {
    let stolen = steal_ticks();
    let start = Instant::now();
    for spec in specs {
        let cfg = spec
            .config_at(registry, spec.search.start_load)
            .map_err(|e| e.to_string())?;
        let routing = compute_routing(&cfg).map_err(|e| e.to_string())?;
        let elab = elaborate_routed(&cfg, routing).map_err(|e| e.to_string())?;
        std::hint::black_box(CompiledEngine::new(elab));
    }
    Ok(Timed {
        secs: start.elapsed().as_secs_f64(),
        stolen: steal_ticks().saturating_sub(stolen),
    })
}

/// One curve-set run: the sweep plus the CSV.
fn run_set(
    registry: &ScenarioRegistry,
    specs: &[CurveSpec],
) -> Result<(Vec<Curve>, String, Timed), String> {
    let stolen = steal_ticks();
    let start = Instant::now();
    let curves = run_curve_specs(registry, specs, THREADS).map_err(|e| e.to_string())?;
    let outcome = CurveSetOutcome {
        curves,
        skipped: Vec::new(),
    };
    let csv = outcome.to_csv();
    let wall = Timed {
        secs: start.elapsed().as_secs_f64(),
        stolen: steal_ticks().saturating_sub(stolen),
    };
    Ok((outcome.curves, csv, wall))
}

/// Flits delivered inside a point's measurement window.
fn window_flits(m: &PointMeasurement, spec: &CurveSpec) -> f64 {
    let nodes = spec.topology.build().map_or(0, |t| t.generators().len()) as f64;
    (m.accepted * nodes * spec.measure.measure_cycles as f64).round()
}

/// Flits delivered inside every point's measurement window.
fn total_window_flits(curves: &[Curve], specs: &[CurveSpec]) -> f64 {
    curves
        .iter()
        .zip(specs)
        .map(|(c, s)| {
            c.points
                .iter()
                .map(|p| window_flits(&p.measurement, s))
                .sum::<f64>()
        })
        .sum()
}

fn points(curves: &[Curve]) -> impl Iterator<Item = &nocem_curves::search::CurvePoint> {
    curves.iter().flat_map(|c| c.points.iter())
}

/// Sim counters that must repeat exactly for one seed.
fn record_sim(out: &mut Outcome, curves: &[Curve], specs: &[CurveSpec]) {
    let bisect = points(curves)
        .filter(|p| p.phase == PointPhase::Bisect)
        .count();
    let saturation: Vec<String> = curves
        .iter()
        .map(|c| format!("{}={}", c.label(), c.saturation.saturation_load))
        .collect();
    let flits = total_window_flits(curves, specs);
    out.sim.insert("points", points(curves).count().to_string());
    out.sim.insert("bisect_points", bisect.to_string());
    out.sim.insert("saturation_loads", saturation.join(" "));
    out.sim.insert("window_flits", flits.to_string());
    let sample = sample_point(curves);
    out.reference = Some((
        format!("curve=0 load={}", sample.load),
        point_digest(&sample.measurement),
    ));
}

/// The point the reference engine re-measures: the highest load of
/// the first curve, where the network is fullest.
fn sample_point(curves: &[Curve]) -> &nocem_curves::search::CurvePoint {
    curves[0]
        .points
        .iter()
        .max_by(|a, b| a.load.total_cmp(&b.load))
        .expect("a curve has points")
}

/// Digest of everything `PointMeasurement::behavioral` equality
/// compares.
pub fn point_digest(m: &PointMeasurement) -> String {
    let b = m.behavioral();
    format!(
        "cycles={} packets={} accepted={} measurement={:016x}",
        b.cycles,
        b.packets_measured,
        b.accepted,
        crate::probe::fnv64(&format!("{b:?}"))
    )
}

/// The untraced run: set-ups, then at least `MIN_SETS` whole curve
/// sets, until `seconds` have passed and `MIN_CLEAN_SETS` sets ran
/// clean (see [`Timed::clean`]), or `WINDOW_CAP` times that long.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_untraced(seed, seconds, &mut out) {
        out.fail(e);
    }
    out.fill_missing(&END_TO_END);
    out
}

fn run_untraced(seed: u64, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let (registry, specs) = specs(seed, EngineKind::Compiled);
    let setups = (0..SETUP_REPS)
        .map(|_| setup_all(&registry, &specs))
        .collect::<Result<Vec<Timed>, String>>()?;
    let start = Instant::now();
    let mut walls: Vec<Timed> = Vec::new();
    let mut first: Option<(Vec<Curve>, String)> = None;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let clean = walls.iter().filter(|w| w.clean()).count();
        let enough =
            elapsed >= seconds * WINDOW_CAP || (elapsed >= seconds && clean >= MIN_CLEAN_SETS);
        if walls.len() >= MIN_SETS && enough {
            break;
        }
        let (curves, csv, wall) = run_set(&registry, &specs)?;
        let n = points(&curves).count() as u64;
        out.attempted += n;
        walls.push(wall);
        match &first {
            None => first = Some((curves, csv)),
            Some((_, first_csv)) if *first_csv != csv => {
                out.failed += n;
                out.errors
                    .push(format!("curve set {} differs from the first", walls.len()));
            }
            Some(_) => {}
        }
    }
    let (curves, _) = first.expect("at least one set ran");
    let wall = median(&pick(&walls, MIN_CLEAN_SETS));
    let cycles: u64 = points(&curves).map(|p| p.measurement.cycles).sum();
    let flits = total_window_flits(&curves, &specs);
    out.set("peak_rss_mb", proc_status_mb("VmHWM"));
    out.set("setup_s", median(&pick(&setups, SETUP_REPS / 2)));
    out.set("wall_s", wall);
    out.set("sim_cycles_per_s", cycles as f64 / wall);
    out.set("sim_flits_per_s", flits / wall);
    record_sim(out, &curves, &specs);
    Ok(())
}

/// What the traced replay of one curve measured.
#[derive(Default)]
struct CurveTrace {
    spans: (Vec<SpanEvent>, u64),
    secs: f64,
    point_secs: Vec<f64>,
    /// Per point: the engine's profiled step time, in ms.
    point_step_ms: Vec<f64>,
    build_config: f64,
    routing: f64,
    flows: usize,
    profile: PhaseProfiler,
    mismatches: Vec<String>,
}

/// Replays every point of `curve` through the layer calls the search
/// makes — config, routing once per curve, the point measurement —
/// with the phase profiler on, and checks each point against the
/// untraced one.
fn replay_curve(
    registry: &ScenarioRegistry,
    spec: &CurveSpec,
    curve: &Curve,
    epoch: Instant,
    track: u32,
) -> Result<CurveTrace, String> {
    let mut tracer = Tracer::new(true, epoch, track);
    let mut t = CurveTrace::default();
    let mut routing = None;
    let curve_start = Instant::now();
    for p in &curve.points {
        let start = Instant::now();
        let mut cfg = spec
            .config_at(registry, p.load)
            .map_err(|e| e.to_string())?;
        cfg.profile = Some(ProfileConfig::default().without_spans());
        t.build_config += tracer.span("scenarios.build_config", start, 0);
        if routing.is_none() {
            let start = Instant::now();
            let r = compute_routing(&cfg).map_err(|e| e.to_string())?;
            t.routing += tracer.span("routing.compute", start, 0);
            t.flows = r.flow_count();
            routing = Some(r);
        }
        let start = Instant::now();
        let m = measure_config(&cfg, routing.as_ref(), &spec.measure, p.load)
            .map_err(|e| e.to_string())?;
        t.point_secs
            .push(tracer.span("curves.point", start, m.cycles));
        if m.behavioral() != p.measurement.behavioral() {
            t.mismatches.push(format!(
                "{} @ {}: traced point differs",
                curve.label(),
                p.load
            ));
        }
        let report = m
            .profile
            .ok_or("the profiler was enabled but reported nothing")?;
        t.point_step_ms.push(report.step_ns() as f64 / 1e6);
        for phase in Phase::ALL {
            t.profile.add_ns(phase, report.ns_of(phase));
        }
        t.profile.add_cycles(report.stepped_cycles);
    }
    t.secs = tracer.span("curves.curve", curve_start, 0);
    t.spans = tracer.into_parts();
    Ok(t)
}

/// The traced run: an untraced curve set, the traced replay of every
/// point on the same two-thread sweep, and the untraced set again as
/// the overhead baseline (warm like the replay).
pub fn run_traced(seed: u64) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = traced(seed, &mut out) {
        out.fail(e);
    }
    out.fill_missing(&PER_LAYER);
    out
}

fn traced(seed: u64, out: &mut Outcome) -> Result<(), String> {
    let (registry, specs) = specs(seed, EngineKind::Compiled);
    let (curves, csv, _) = run_set(&registry, &specs)?;
    out.attempted += points(&curves).count() as u64;
    record_sim(out, &curves, &specs);

    let epoch = Instant::now();
    let units = specs
        .iter()
        .map(|s| {
            s.config_at(&registry, s.search.start_load)
                .map(|cfg| SweepPoint::new(s.label(), cfg))
                .map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, String>>()?;
    let start = Instant::now();
    let replays = run_sweep_indexed(&units, THREADS, |i, _| {
        replay_curve(&registry, &specs[i], &curves[i], epoch, i as u32)
    })?;
    let makespan = start.elapsed().as_secs_f64();
    let mut csv_tracer = Tracer::new(true, epoch, u32::MAX);
    let start = Instant::now();
    let traced_csv = CurveSetOutcome {
        curves: curves.clone(),
        skipped: Vec::new(),
    }
    .to_csv();
    let csv_secs = csv_tracer.span("curves.csv", start, 0);
    if traced_csv != csv {
        out.fail("re-rendered CSV differs");
    }

    let mut profiler = PhaseProfiler::new();
    let (mut point_secs, mut point_step_ms) = (Vec::new(), Vec::new());
    let (mut build_config, mut routing, mut flows, mut curve_secs) = (0.0, 0.0, 0usize, 0.0);
    let mut parts = vec![csv_tracer.into_parts()];
    for (_, r) in replays {
        for m in &r.mismatches {
            out.fail(m.clone());
        }
        for phase in Phase::ALL {
            profiler.add_ns(phase, r.profile.ns(phase));
        }
        profiler.add_cycles(r.profile.stepped_cycles());
        point_secs.extend_from_slice(&r.point_secs);
        point_step_ms.extend_from_slice(&r.point_step_ms);
        build_config += r.build_config;
        routing += r.routing;
        flows += r.flows;
        curve_secs += r.secs;
        parts.push(r.spans);
    }
    let report = profiler.report("curves-8x8");
    for phase in REPORTED_PHASES {
        out.set(phase_metric(phase), phase_ns_per_cycle(&report, phase));
    }
    out.set("scenarios.build_config_s", build_config);
    out.set("routing.compute_s", routing);
    out.set("routing.flows", flows as f64);
    out.set(
        "compile.elaborate_s",
        report.ns_of(Phase::Elaborate) as f64 / 1e9,
    );
    out.set("engine.build_s", report.ns_of(Phase::Lower) as f64 / 1e9);
    out.set(
        "engine.step_us_per_cycle",
        report.step_ns() as f64 / report.stepped_cycles.max(1) as f64 / 1e3,
    );
    out.attempted += point_secs.len() as u64;
    // A point's engine run is this workload's chunk.
    out.set("engine.chunk_samples", point_step_ms.len() as f64);
    out.set("engine.chunk_ms_p50", median(&point_step_ms));
    out.set("engine.chunk_ms_p95", quantile(&point_step_ms, 0.95));
    out.set("curves.points", point_secs.len() as f64);
    out.set(
        "curves.bisect_points",
        points(&curves)
            .filter(|p| p.phase == PointPhase::Bisect)
            .count() as f64,
    );
    out.set("curves.point_s_p50", median(&point_secs));
    out.set("curves.point_s_p80", quantile(&point_secs, 0.8));
    out.set("sweep.imbalance", makespan / (curve_secs / THREADS as f64));

    let measured_cycles: u64 = curves
        .iter()
        .zip(&specs)
        .map(|(c, s)| c.points.len() as u64 * s.measure.measure_cycles)
        .sum();
    out.set(
        "engine.flits_per_cycle",
        total_window_flits(&curves, &specs) / measured_cycles.max(1) as f64,
    );
    let (skipped, cycles) = points(&curves).fold((0, 0), |(s, c), p| {
        (s + p.measurement.cycles_skipped, c + p.measurement.cycles)
    });
    out.set("clock.skipped_ratio", skipped as f64 / cycles.max(1) as f64);

    let (mut entries, mut direct) = (0usize, true);
    for spec in &specs {
        let cfg = spec
            .config_at(&registry, spec.search.start_load)
            .map_err(|e| e.to_string())?;
        let elab = nocem::elaborate(&cfg).map_err(|e| e.to_string())?;
        let low = lower(&elab);
        entries += low.route_flows.len();
        direct &= !low.route_direct.is_empty();
    }
    out.set("compile.route_csr_entries", entries as f64);
    out.set("compile.route_direct", f64::from(u8::from(direct)));

    let (again, again_csv, plain_wall) = run_set(&registry, &specs)?;
    out.attempted += points(&again).count() as u64;
    if again_csv != csv {
        out.fail("untraced rerun of the curve set differs");
    }
    let wall = makespan + csv_secs;
    out.set("trace.wall_s", wall);
    out.set("trace.untraced_wall_s", plain_wall.secs);
    out.set("trace.overhead_s", wall - plain_wall.secs);
    let trace = SpanTrace::merge(parts);
    out.set("trace.spans", trace.events().len() as f64);
    let meta = vec![
        ("workload_phase_profile".to_string(), report.to_json()),
        (
            "stepping_phase_shares".to_string(),
            stepping_shares_json(&Phase::ALL.map(|p| (p, report.ns_of(p)))),
        ),
    ];
    out.trace = Some((trace, meta));
    Ok(())
}

/// The reference run: the sample point re-measured on the interpreted
/// `Emulation` engine, routing computed once for it.
pub fn reference(seed: u64, key: &str) -> Result<(String, String), String> {
    let load: f64 = key
        .strip_prefix("curve=0 load=")
        .and_then(|l| l.parse().ok())
        .ok_or_else(|| format!("bad reference key {key:?}"))?;
    let (registry, specs) = specs(seed, EngineKind::SingleThread);
    let spec = &specs[0];
    let cfg = spec.config_at(&registry, load).map_err(|e| e.to_string())?;
    let routing = compute_routing(&cfg).map_err(|e| e.to_string())?;
    let m = measure_config(&cfg, Some(&routing), &spec.measure, load).map_err(|e| e.to_string())?;
    Ok((key.to_string(), point_digest(&m)))
}
