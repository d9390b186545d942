//! Shared fixtures for the sharded-engine integration tests: scenario
//! configs and the lockstep harness that checks a sharded engine
//! against the interpreted `Emulation` oracle and the compiled engine
//! cycle by cycle.

use nocem::clock::SteppableEngine;
use nocem::compile::{elaborate, elaborate_routed, Elaboration};
use nocem::compiled::CompiledEngine;
use nocem::config::PlatformConfig;
use nocem::engine::Emulation;
use nocem::shard_compiled::ShardedCompiledEngine;
use nocem_scenarios::registry::ScenarioRegistry;
use nocem_scenarios::scenario::TopologySpec;
use nocem_topology::routing::RoutingTables;

/// A uniform-random scenario config on `topo` at `load` (meshes on XY
/// routing, tori on 2-VC dateline torus-XY, so flits and credits
/// cross shard boundaries on both VCs).
pub fn uniform_random(topo: TopologySpec, load: f64, packets: u64) -> PlatformConfig {
    ScenarioRegistry::builtin()
        .resolve("uniform_random")
        .unwrap()
        .build_config(topo, load, 4, packets)
        .unwrap()
}

pub const MESH8X8: TopologySpec = TopologySpec::Mesh {
    width: 8,
    height: 8,
};
pub const TORUS8X8: TopologySpec = TopologySpec::Torus {
    width: 8,
    height: 8,
};

/// Steps one sharded compiled engine per `(shards, batch)` case in
/// lockstep with two references, the compiled engine and the
/// interpreted `Emulation` oracle, and asserts full equality against
/// both: per-cycle clock + deliveries, final ledger, summary and
/// results. Every engine is built from an elaboration of `cfg` on
/// `routing` when given (else on the routing `cfg` computes). Works in
/// both clock modes: gated runs jump the same windows on every side,
/// so the per-step clock comparison stays exact.
pub fn assert_lockstep(
    cfg: &PlatformConfig,
    routing: Option<&RoutingTables>,
    cases: &[(usize, u64)],
) {
    let elab = || -> Elaboration {
        match routing {
            Some(tables) => elaborate_routed(cfg, tables.clone()).unwrap(),
            None => elaborate(cfg).unwrap(),
        }
    };
    let mut oracle = Emulation::new(elab());
    let mut reference = CompiledEngine::new(elab());
    let mut engines: Vec<((usize, u64), ShardedCompiledEngine)> = cases
        .iter()
        .map(|&(k, b)| {
            (
                (k, b),
                ShardedCompiledEngine::from_elaboration(elab(), k, b).unwrap(),
            )
        })
        .collect();
    while !oracle.finished() {
        oracle.step().unwrap();
        reference.step().unwrap();
        let (now, delivered) = (oracle.now(), oracle.delivered());
        assert_eq!(reference.now(), now, "compiled clock diverged");
        assert_eq!(reference.delivered(), delivered, "compiled diverged");
        for ((k, b), engine) in &mut engines {
            engine.step().unwrap();
            assert_eq!(
                engine.now(),
                now,
                "{k} shards batch {b}: clock diverged on {}",
                cfg.name
            );
            assert_eq!(
                engine.delivered(),
                delivered,
                "{k} shards batch {b}: deliveries diverged at cycle {} on {}",
                now.raw(),
                cfg.name
            );
        }
    }
    assert!(reference.finished(), "compiled stop condition lagged");
    let results = oracle.results();
    assert_eq!(reference.results(), results);
    for ((k, b), engine) in &mut engines {
        assert!(engine.finished(), "{k} shards batch {b}: stop lagged");
        for (name, ledger) in [
            ("Emulation", oracle.ledger()),
            ("compiled", reference.ledger()),
        ] {
            assert_eq!(
                engine.ledger(),
                ledger,
                "{k} shards batch {b}: packet ledger diverged from {name} on {}",
                cfg.name
            );
        }
        assert_eq!(
            SteppableEngine::summary(engine),
            SteppableEngine::summary(&oracle),
            "{k} shards batch {b}: summary diverged on {}",
            cfg.name
        );
        assert_eq!(SteppableEngine::summary(engine), reference.summary());
        assert_eq!(engine.cycles_skipped(), oracle.cycles_skipped());
        assert_eq!(engine.results().unwrap(), results);
    }
}
