//! **Set-up at scale** — mesh64x64 uniform-random (4,096 nodes,
//! ~16.8 M flows) from the scenario registry through
//! `compute_routing`, `elaborate_routed`, `CompiledEngine::new` and 64
//! cycles.
//!
//! ```text
//! cargo run --release -p nocem-bench --bin setup_scale
//! ```
//!
//! Prints each stage's host seconds, the route-table entries (tables
//! and lowered CSR) and the process's peak memory (`VmHWM`). It
//! asserts only structure — mesh XY tables are keyed by destination,
//! so route entries stay within switches × endpoints — never timing.

use nocem::{compute_routing, elaborate_routed, CompiledEngine};
use nocem_common::route::RouteKey;
use nocem_scenarios::registry::ScenarioRegistry;
use nocem_scenarios::scenario::TopologySpec;
use std::time::Instant;

const CYCLES: u64 = 64;

/// The process's peak resident memory in MiB (0 where `/proc` is
/// unavailable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() {
    let topology = TopologySpec::Mesh {
        width: 64,
        height: 64,
    };
    let lap = |name: &str, start: Instant| {
        println!("{name:<18} {:>8.2} s", start.elapsed().as_secs_f64());
    };

    let start = Instant::now();
    let cfg = ScenarioRegistry::builtin()
        .resolve("uniform_random")
        .expect("builtin scenario")
        .build_config(topology, 0.40, 4, 1_000)
        .expect("scenario config compiles");
    lap("build_config", start);

    let start = Instant::now();
    let routing = compute_routing(&cfg).expect("mesh XY routes are deadlock-free");
    lap("compute_routing", start);

    let topo = &cfg.topology;
    let switches = topo.switch_count();
    let endpoints = topo.endpoint_count();
    let entries: usize = topo
        .switch_ids()
        .map(|s| routing.switch_table(s).entry_count())
        .sum();
    let key = routing.key();
    let flows = routing.flow_count();

    let start = Instant::now();
    let elab = elaborate_routed(&cfg, routing).expect("routed config elaborates");
    lap("elaborate_routed", start);

    let start = Instant::now();
    let mut engine = CompiledEngine::new(elab);
    lap("lower + build", start);
    let csr_entries = engine.lowered().route_flows.len();
    let direct = !engine.lowered().route_direct.is_empty();

    let start = Instant::now();
    for _ in 0..CYCLES {
        engine.step().expect("mesh64x64 steps");
    }
    lap("64 cycles", start);

    println!(
        "{}: {switches} switches, {endpoints} endpoints, {flows} flows, {key:?}-keyed routes",
        cfg.name
    );
    println!("route entries      {entries} (lowered CSR {csr_entries}, direct map {direct})");
    println!("peak RSS (VmHWM)   {:.0} MiB", peak_rss_mb());

    assert_eq!(key, RouteKey::Destination, "mesh XY routes by destination");
    assert!(
        entries <= switches * endpoints,
        "{entries} route entries exceed {switches} switches x {endpoints} endpoints"
    );
    assert_eq!(csr_entries, entries, "lowering keeps every entry");
    assert_eq!(engine.now().raw(), CYCLES);
}
