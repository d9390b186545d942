#!/usr/bin/env python3
"""End-to-end benchmark of the nocem emulator.

Run from the repository root:

    python3 perfbench/run.py --workload uniform-32x32 --seed 1 --seconds 10 --trace 0

The script builds the benchmark binary (``perfbench/Cargo.toml``, release
profile, into ``$CARGO_TARGET_DIR`` or ``.bench_build``), runs the
workload in one process and the reference check in a second, compares
their outputs, and prints two JSON lines: the host fingerprint with the
run's sim counters, then the result object
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 1`` reports
the per-layer metrics instead of the end-to-end ones and writes a Chrome
trace next to the binary. The exit code is 0 only for a correct run.
See ``perfbench/README.md`` for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
BIN = "nocem-perfbench"
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# Seconds the measured and reference processes get together, counted
# from the end of the build, so that a run ends within three minutes.
RUN_BUDGET_S = 170.0
BUILD_TIMEOUT_S = 850.0


def fail(message, code=2):
    """Exits without printing a result."""
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_benchmark(path):
    """The metric tables of BENCHMARK.json, checked for well-formed names."""
    with open(path, encoding="utf-8") as f:
        bench = json.load(f)
    for table in ("end_to_end", "per_layer"):
        for metric in bench[table]:
            if not NAME_RE.match(metric["name"]):
                raise ValueError(f"bad metric name {metric['name']!r}")
    return bench


def expected_metrics(bench, trace):
    """Name -> unit of the metrics a run in this mode must print."""
    table = bench["per_layer"] if trace else bench["end_to_end"]
    return {m["name"]: m["unit"] for m in table}


def metric_problems(metrics, expected, trace):
    """Why `metrics` does not match `expected` (empty when it does)."""
    problems = []
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            problems.append(f"metric {name} missing")
            continue
        value = m.get("value")
        if m.get("unit") != unit:
            problems.append(f"metric {name}: unit {m.get('unit')!r}, expected {unit!r}")
        if not isinstance(value, (int, float)) or value != value:
            problems.append(f"metric {name}: value {value!r} is not a number")
        elif not trace and value <= 0:
            problems.append(f"metric {name}: end-to-end value {value} is not positive")
    for name in metrics:
        if name not in expected:
            problems.append(f"metric {name} is not in BENCHMARK.json")
    return problems


def reference_problems(measured, reference):
    """Why the reference run does not reproduce the measured output."""
    if measured is None:
        return ["the measured run named no reference point"]
    if reference is None:
        return ["the reference run produced no output"]
    if reference.get("key") != measured.get("key"):
        return [f"reference key {reference.get('key')!r} != {measured.get('key')!r}"]
    if reference.get("digest") != measured.get("digest"):
        return [
            f"output check failed at {measured['key']}: run {measured['digest']!r}, "
            f"reference engine {reference.get('digest')!r}"
        ]
    return []


def assemble(measure, reference, expected, trace):
    """The result object and the list of everything that went wrong."""
    errors = list(measure.get("errors", []))
    failed = int(measure.get("failed", 0))
    attempted = int(measure.get("attempted", 0))
    check = reference_problems(measure.get("reference"), reference)
    if check:
        failed += 1
        errors.extend(check)
    problems = metric_problems(measure.get("metrics", {}), expected, trace)
    errors.extend(problems)
    result = {
        "correct": failed == 0 and not problems and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": min(failed, max(attempted, 1)),
        "metrics": {k: measure["metrics"][k] for k in expected if k in measure.get("metrics", {})},
    }
    return result, errors


def command_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def host_fingerprint():
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model or platform.processor() or "unknown",
        "rustc": command_output(["rustc", "-V"]) or "unknown",
        "git_rev": command_output(["git", "rev-parse", "HEAD"]) or "unknown (not a git checkout)",
    }


def steal_ticks():
    """CPU time stolen from this machine by the hypervisor, in 10 ms ticks."""
    try:
        with open("/proc/stat", encoding="utf-8") as f:
            return int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0


def run_json(cmd, env, timeout):
    """Runs `cmd` and parses its last stdout line, or returns (None, why)."""
    try:
        out = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"{cmd[1]} timed out after {timeout:.0f} s"
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return None, f"{cmd[1]} exited with {out.returncode}"
    try:
        return json.loads(lines[-1]), None
    except json.JSONDecodeError as e:
        return None, f"{cmd[1]} printed no JSON: {e}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    try:
        bench = load_benchmark("BENCHMARK.json")
    except (OSError, ValueError, KeyError) as e:
        fail(f"cannot read BENCHMARK.json in {os.getcwd()}: {e}")
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload!r}")

    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if built.returncode != 0:
        fail(f"build failed with exit code {built.returncode}")
    exe = os.path.join(target, "release", BIN)
    # The budget starts after the build, which only the first run pays.
    started = time.monotonic()
    stolen = steal_ticks()

    workload = ["--workload", args.workload, "--seed", str(args.seed)]
    measure_cmd = [exe, "measure", *workload, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    trace_file = None
    if args.trace:
        out_dir = os.path.join(target, "perfbench")
        os.makedirs(out_dir, exist_ok=True)
        trace_file = os.path.join(out_dir, f"trace-{args.workload}-s{args.seed}.json")
        measure_cmd += ["--trace-out", trace_file]
    measure, why = run_json(measure_cmd, env, RUN_BUDGET_S - (time.monotonic() - started))
    if measure is None:
        fail(f"measured run failed: {why}", code=1)

    reference = None
    key = (measure.get("reference") or {}).get("key")
    if key is not None:
        remaining = RUN_BUDGET_S - (time.monotonic() - started)
        reference, why = run_json([exe, "reference", *workload, "--key", key], env, max(remaining, 5.0))
        if reference is None:
            print(f"perfbench: reference run failed: {why}", file=sys.stderr)

    expected = expected_metrics(bench, args.trace)
    result, errors = assemble(measure, reference, expected, args.trace)
    host = host_fingerprint()
    capacity = (time.monotonic() - started) * (os.cpu_count() or 1)
    host["stolen_cpu_share"] = round((steal_ticks() - stolen) * 0.01 / capacity, 4)
    if trace_file and os.path.exists(trace_file):
        with open(trace_file, encoding="utf-8") as f:
            trace = json.load(f)
        trace["perfbench"]["host"] = host
        with open(trace_file, "w", encoding="utf-8") as f:
            json.dump(trace, f)
    for e in errors:
        print(f"perfbench: {e}", file=sys.stderr)
    print(json.dumps({
        "host": host,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "sim": measure.get("sim", {}),
        "trace_file": trace_file,
        "errors": errors,
    }))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
