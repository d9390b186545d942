//! Measurement plumbing shared by the workloads: the metric tables,
//! the result record, spans recorded around library calls, process
//! memory, stolen CPU time, quantiles and output digests.

use nocem::profile::{Phase, PhaseReport};
use nocem::EngineSummary;
use nocem_telemetry::{SpanBuffer, SpanEvent, SpanTrace};
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics (printed by an untraced run), with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_flits_per_s", "flits/s"),
    ("sim_cycles_per_s", "cycles/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (printed by a traced run), with units. A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("scenarios.build_config_s", "s"),
    ("routing.compute_s", "s"),
    ("routing.flows", "count"),
    ("compile.elaborate_s", "s"),
    ("engine.build_s", "s"),
    ("compile.route_csr_entries", "count"),
    ("compile.route_direct", "bool"),
    ("rss.after_routing_mb", "MiB"),
    ("rss.after_build_mb", "MiB"),
    ("engine.step_us_per_cycle", "us"),
    ("engine.chunk_ms_p50", "ms"),
    ("engine.chunk_ms_p95", "ms"),
    ("engine.chunk_samples", "count"),
    ("engine.flits_per_cycle", "flits/cycle"),
    ("phase.decide", "ns/cycle"),
    ("phase.commit", "ns/cycle"),
    ("phase.tg-tick", "ns/cycle"),
    ("phase.ni-inject", "ns/cycle"),
    ("phase.ledger", "ns/cycle"),
    ("phase.probe", "ns/cycle"),
    ("phase.fast-forward", "ns/cycle"),
    ("clock.skipped_ratio", "ratio"),
    ("shard.sync_rounds_per_cycle", "1/cycle"),
    ("phase.worker-compute", "ns/cycle"),
    ("phase.exchange", "ns/cycle"),
    ("phase.coordinator-wait", "ns/cycle"),
    ("phase.apply", "ns/cycle"),
    ("shard.imbalance", "ratio"),
    ("shard.speedup_vs_compiled", "ratio"),
    ("curves.points", "count"),
    ("curves.bisect_points", "count"),
    ("curves.point_s_p50", "s"),
    ("curves.point_s_p80", "s"),
    ("sweep.imbalance", "ratio"),
    ("stats.extract_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("host.stolen_share", "ratio"),
];

/// The profiler phases reported as `phase.<name>` metrics.
pub const REPORTED_PHASES: [Phase; 11] = [
    Phase::Decide,
    Phase::Commit,
    Phase::TgTick,
    Phase::NiInject,
    Phase::Ledger,
    Phase::Probe,
    Phase::FastForward,
    Phase::WorkerCompute,
    Phase::Exchange,
    Phase::CoordWait,
    Phase::Apply,
];

/// The unit of a metric named in [`END_TO_END`] or [`PER_LAYER`].
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// What one measured run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (curve points or fixed-cycle chunks).
    pub attempted: u64,
    /// Operations that hit an engine error or failed an output check.
    pub failed: u64,
    /// One line per failure.
    pub errors: Vec<String>,
    /// Metric values by name (units come from the tables).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Simulated counters that must repeat exactly for one seed.
    pub sim: BTreeMap<&'static str, String>,
    /// What the out-of-process reference run must reproduce.
    pub reference: Option<(String, String)>,
    /// Spans of a traced run, plus extra trace metadata (JSON values).
    pub trace: Option<(SpanTrace, Vec<(String, String)>)>,
}

impl Outcome {
    /// Records a failed operation.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.errors.push(why.into());
    }

    /// Sets a metric; panics on a name missing from the tables, which
    /// is a bug in this benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "metric {name} is not in a table");
        self.metrics.insert(name, value);
    }

    /// Sets every table metric not set yet to 0 (layer not exercised).
    pub fn fill_missing(&mut self, table: &[(&'static str, &'static str)]) {
        for (name, _) in table {
            self.metrics.entry(name).or_insert(0.0);
        }
    }

    /// The run as one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    json_number(*v),
                    unit_of(name).expect("set() admits table names only")
                )
            })
            .collect();
        let sim: Vec<String> = self
            .sim
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", json_string(v)))
            .collect();
        let errors: Vec<String> = self.errors.iter().map(|e| json_string(e)).collect();
        let reference = match &self.reference {
            Some((key, digest)) => format!(
                "{{\"key\":{},\"digest\":{}}}",
                json_string(key),
                json_string(digest)
            ),
            None => "null".into(),
        };
        format!(
            "{{\"attempted\":{},\"failed\":{},\"errors\":[{}],\"metrics\":{{{}}},\"sim\":{{{}}},\"reference\":{}}}",
            self.attempted,
            self.failed,
            errors.join(","),
            metrics.join(","),
            sim.join(","),
            reference
        )
    }
}

/// A finite number in JSON. Non-finite values become 0, which
/// `run.py` rejects for an end-to-end metric.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Wall-clock spans recorded by the benchmark around its calls into
/// each layer. Disabled tracers record nothing.
pub struct Tracer {
    buf: Option<SpanBuffer>,
}

impl Tracer {
    /// A tracer recording on `track` against `epoch` when `enabled`.
    pub fn new(enabled: bool, epoch: Instant, track: u32) -> Self {
        Tracer {
            buf: enabled.then(|| SpanBuffer::new(epoch, track, 1 << 16)),
        }
    }

    /// Records `name` from `start` to now and returns the seconds it
    /// took (the timing is taken whether or not the tracer records).
    pub fn span(&mut self, name: &'static str, start: Instant, cycle: u64) -> f64 {
        let end = Instant::now();
        if let Some(buf) = &mut self.buf {
            buf.record_until(name, start, end, cycle);
        }
        end.duration_since(start).as_secs_f64()
    }

    /// The recorded spans and drop count.
    pub fn into_parts(self) -> (Vec<SpanEvent>, u64) {
        self.buf.map_or((Vec::new(), 0), SpanBuffer::into_parts)
    }
}

/// A `VmHWM`/`VmRSS`-style field of `/proc/self/status`, in MiB.
pub fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time the hypervisor stole from this machine so far, in clock
/// ticks of 10 ms (the `steal` column of `/proc/stat`; 0 where the
/// host does not report it).
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Seconds of one `/proc/stat` tick.
pub const TICK_S: f64 = 0.01;

/// Usable CPUs of this machine.
pub fn cpus() -> f64 {
    std::thread::available_parallelism().map_or(1, |n| n.get()) as f64
}

/// A timed interval and the CPU time stolen from the machine during it.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Host seconds of the interval.
    pub secs: f64,
    /// Ticks stolen from any CPU of the machine during it.
    pub stolen: u64,
}

impl Timed {
    /// Whether at most 5% of the machine's CPU time in the interval
    /// was stolen: for a 0.1 s interval on 2 CPUs, one tick.
    pub fn clean(&self) -> bool {
        self.stolen as f64 * TICK_S <= 0.05 * self.secs * cpus()
    }
}

/// Indices of the clean intervals, or of all of them when fewer than
/// `min` are clean. A shared virtual machine loses CPU time to its
/// neighbours in bursts; the time a neighbour took is not the
/// program's, and it moves a median when it covers most of a run.
pub fn unstolen(intervals: &[Timed], min: usize) -> Vec<usize> {
    let clean: Vec<usize> = (0..intervals.len())
        .filter(|&i| intervals[i].clean())
        .collect();
    if clean.len() >= min.max(1) {
        clean
    } else {
        (0..intervals.len()).collect()
    }
}

/// Linear-interpolated quantile `q` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// 64-bit FNV-1a of a string.
pub fn fnv64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A compact digest of everything [`EngineSummary`] equality compares:
/// the counters in clear, the two latency analyzers hashed.
pub fn summary_digest(s: &EngineSummary) -> String {
    let b = s.behavioral();
    format!(
        "cycles={} released={} injected={} delivered={} flits={} latency={:016x}",
        b.cycles,
        b.released,
        b.injected,
        b.delivered,
        b.delivered_flits,
        fnv64(&format!("{:?}|{:?}", b.network_latency, b.total_latency))
    )
}

/// Nanoseconds of `phase` per stepped cycle of `report`.
pub fn phase_ns_per_cycle(report: &PhaseReport, phase: Phase) -> f64 {
    report.ns_of(phase) as f64 / report.stepped_cycles.max(1) as f64
}

/// Shares of the stepping phases (every phase but the one-time
/// `elaborate` and `lower`) in the step time, as a JSON object.
pub fn stepping_shares_json(ns: &[(Phase, u64)]) -> String {
    let stepping: Vec<(Phase, u64)> = ns
        .iter()
        .copied()
        .filter(|(p, n)| !matches!(p, Phase::Elaborate | Phase::Lower) && *n > 0)
        .collect();
    let total: u64 = stepping.iter().map(|(_, n)| n).sum();
    let fields: Vec<String> = stepping
        .iter()
        .map(|(p, n)| format!("\"{}\":{:.6}", p.name(), *n as f64 / total.max(1) as f64))
        .collect();
    format!("{{{}}}", fields.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        for n in &all {
            assert!(valid_name(n), "bad metric name {n}");
        }
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "metric names must be unique");
        for p in REPORTED_PHASES {
            let name = format!("phase.{}", p.name());
            assert!(unit_of(&name).is_some(), "{name} has no table entry");
        }
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[0.0, 10.0], 0.8), 8.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn outcome_json_is_valid_and_carries_units() {
        let mut o = Outcome::default();
        o.set("wall_s", 1.5);
        o.fail("a \"quoted\" failure");
        o.reference = Some(("k".into(), "d".into()));
        o.fill_missing(&END_TO_END);
        let json = o.to_json();
        nocem_telemetry::validate_json(&json).expect("valid JSON");
        assert!(json.contains("\"wall_s\":{\"value\":1.5,\"unit\":\"s\"}"));
        assert!(json.contains("\"peak_rss_mb\":{\"value\":0,\"unit\":\"MiB\"}"));
    }
}
