//! End-to-end benchmark of the nocem emulator.
//!
//! ```text
//! nocem-perfbench measure --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! nocem-perfbench reference --workload <name> --seed <n> --key <key>
//! ```
//!
//! `measure` runs one workload through the public library API and
//! prints one JSON object: operations attempted and failed, the
//! metrics (end-to-end untraced, per-layer traced), the sim counters
//! that must repeat for the seed, and the `(key, digest)` the
//! reference run must reproduce. `reference` recomputes that digest
//! on the interpreted `Emulation` engine in a process of its own, so
//! the measured process's peak memory is the measured engine's alone.
//! `perfbench/run.py` builds this binary, runs both and compares.

mod curves;
mod probe;
mod steady;

use probe::json_string;
use std::process::ExitCode;

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["curves-8x8", "uniform-32x32", "transpose-64x64-s2"];

/// Parsed command line.
struct Args {
    command: String,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
    key: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or("missing command (measure | reference)")?;
    let mut args = Args {
        command,
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        trace_out: None,
        key: None,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            "--trace-out" => args.trace_out = Some(value),
            "--key" => args.key = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown --workload {:?} (one of {})",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn measure(args: &Args) -> probe::Outcome {
    let stolen = probe::steal_ticks();
    let start = std::time::Instant::now();
    let mut outcome = run_workload(args);
    if args.trace {
        let ticks = probe::steal_ticks().saturating_sub(stolen) as f64;
        let capacity = start.elapsed().as_secs_f64() * probe::cpus();
        outcome.set("host.stolen_share", ticks * probe::TICK_S / capacity);
    }
    outcome
}

fn run_workload(args: &Args) -> probe::Outcome {
    match (args.workload.as_str(), args.trace) {
        ("curves-8x8", false) => curves::run(args.seed, args.seconds),
        ("curves-8x8", true) => curves::run_traced(args.seed),
        ("uniform-32x32", false) => steady::run(&steady::uniform_32x32(), args.seed, args.seconds),
        ("uniform-32x32", true) => {
            steady::run_traced(&steady::uniform_32x32(), args.seed, args.seconds)
        }
        (_, false) => steady::run(&steady::transpose_64x64_s2(), args.seed, args.seconds),
        (_, true) => steady::run_traced(&steady::transpose_64x64_s2(), args.seed, args.seconds),
    }
}

fn reference(args: &Args) -> Result<(String, String), String> {
    match args.workload.as_str() {
        "curves-8x8" => curves::reference(args.seed, args.key.as_deref().unwrap_or_default()),
        "uniform-32x32" => steady::reference(&steady::uniform_32x32(), args.seed),
        _ => steady::reference(&steady::transpose_64x64_s2(), args.seed),
    }
}

/// The Chrome trace of a traced run, with the run's metadata and
/// metrics under a top-level `"perfbench"` key.
fn trace_json(args: &Args, outcome: &probe::Outcome) -> Option<String> {
    let (trace, meta) = outcome.trace.as_ref()?;
    let chrome = trace.to_chrome_trace();
    let body = chrome.strip_suffix('}').expect("a JSON object");
    let mut fields = vec![
        format!("\"workload\":{}", json_string(&args.workload)),
        format!("\"seed\":{}", args.seed),
        format!("\"run\":{}", outcome.to_json()),
    ];
    fields.extend(meta.iter().map(|(k, v)| format!("{}:{v}", json_string(k))));
    Some(format!("{body},\"perfbench\":{{{}}}}}", fields.join(",")))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nocem-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.command.as_str() {
        "measure" => {
            let outcome = measure(&args);
            if let (Some(path), Some(json)) = (&args.trace_out, trace_json(&args, &outcome)) {
                if let Err(e) = std::fs::write(path, json) {
                    eprintln!("nocem-perfbench: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        "reference" => match reference(&args) {
            Ok((key, digest)) => {
                println!(
                    "{{\"key\":{},\"digest\":{}}}",
                    json_string(&key),
                    json_string(&digest)
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("nocem-perfbench: reference run failed: {e}");
                ExitCode::FAILURE
            }
        },
        other => {
            eprintln!("nocem-perfbench: unknown command {other:?}");
            ExitCode::from(2)
        }
    }
}
