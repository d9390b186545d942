//! Sharded equivalence: the sharded compiled engine must be
//! *bit-identical* to the interpreted [`Emulation`] oracle and to
//! [`CompiledEngine`] — same packet ledger, same summary, same
//! results, same telemetry — for every tested (shards, batch)
//! combination, because batching amortizes coordinator
//! synchronization without deferring any boundary flit or credit past
//! its one-cycle link latency.
//!
//! The harness (`common::assert_lockstep`) steps every engine in
//! lockstep with both references, comparing the clock and delivered
//! count after each cycle, so a divergence is pinpointed to the exact
//! cycle. Fixtures cover meshes and tori at low and saturating load
//! across batch sizes, the paper's non-grid platform, drain mode, the
//! cycle limit and the gated batch clamp; `tests/sharded_engine.rs`
//! holds the per-cycle-exchange (batch 1) cases against `Emulation`.
//! A proptest then drives *random partitions* (not just grid stripes)
//! at random batch sizes against the batch-1 exchange order.

use nocem::clock::{ClockMode, EngineWarning, SteppableEngine};
use nocem::compile::{compute_routing, elaborate};
use nocem::compiled::CompiledEngine;
use nocem::config::{EngineKind, PaperConfig, PlatformConfig, RoutingSpec, TrafficModel};
use nocem::engine::{build, Emulation};
use nocem::error::CompileError;
use nocem::shard_compiled::ShardedCompiledEngine;
use nocem::sweep::AnyEngine;
use nocem_scenarios::scenario::TopologySpec;
use nocem_telemetry::TelemetryConfig;
use nocem_topology::partition::PartitionMap;
use nocem_topology::routing::RouteAlgorithm;
use nocem_traffic::generator::DestinationModel;
use proptest::prelude::*;

mod common;
use common::{assert_lockstep, uniform_random, MESH8X8, TORUS8X8};

const CASES: &[(usize, u64)] = &[(2, 1), (2, 4), (2, 16), (4, 1), (4, 4), (4, 16)];

#[test]
fn mesh8x8_low_load_is_bit_identical_across_batches() {
    assert_lockstep(&uniform_random(MESH8X8, 0.05, 500), None, CASES);
}

#[test]
fn mesh8x8_saturating_load_is_bit_identical_across_batches() {
    // 40% uniform-random congests the center: worms block across
    // shard boundaries, credits starve, packets park at the sources.
    assert_lockstep(&uniform_random(MESH8X8, 0.40, 700), None, CASES);
}

#[test]
fn torus8x8_low_load_is_bit_identical_across_batches() {
    assert_lockstep(&uniform_random(TORUS8X8, 0.05, 500), None, CASES);
}

#[test]
fn torus8x8_saturating_load_is_bit_identical_across_batches() {
    assert_lockstep(&uniform_random(TORUS8X8, 0.40, 700), None, CASES);
}

/// The CI release smoke: 2 shards, batch 8, saturating mesh8x8.
#[test]
fn mesh8x8_two_shards_batch8_lockstep() {
    assert_lockstep(&uniform_random(MESH8X8, 0.40, 900), None, &[(2, 8)]);
}

/// An endless cycle limit (`u64::MAX`, the setting long steady runs
/// use) stays in lockstep from cycle 0: the window length saturates
/// instead of overflowing, which would panic in a debug build.
#[test]
fn endless_cycle_limit_is_bit_identical() {
    let mut cfg = uniform_random(MESH8X8, 0.20, 300);
    cfg.stop.cycle_limit = u64::MAX;
    assert_lockstep(&cfg, None, &[(2, 1), (2, 16)]);
}

/// One synchronization round per cycle at `batch = 1` (today's
/// per-cycle exchange protocol), ~`batch`× fewer at `batch = 16` —
/// the measured amortization the batching exists for. Drain mode is
/// the honest measurement: a delivered-packet target additionally
/// caps each window at `ceil(remaining / receptors)` cycles (the
/// zero-overshoot guarantee), which shortens windows near the target.
#[test]
fn batching_amortizes_synchronization_rounds_by_batch() {
    let mut cfg = uniform_random(MESH8X8, 0.20, 400);
    cfg.stop.delivered_packets = None;
    let mut per_cycle = ShardedCompiledEngine::with_shards(&cfg, 2, 1).unwrap();
    per_cycle.run().unwrap();
    let cycles = per_cycle.now().raw();
    assert_eq!(
        per_cycle.sync_rounds(),
        cycles,
        "batch=1 must synchronize once per cycle"
    );
    let mut batched = ShardedCompiledEngine::with_shards(&cfg, 2, 16).unwrap();
    batched.run().unwrap();
    assert_eq!(batched.now().raw(), cycles);
    assert_eq!(batched.ledger(), per_cycle.ledger());
    let rounds = batched.sync_rounds();
    // The last window may be observed mid-buffer (the stop condition
    // turns true while cycles are still buffered), so allow a couple
    // of rounds of slack over the perfect ceil(cycles / 16).
    assert!(
        rounds >= cycles.div_ceil(16),
        "{rounds} rounds for {cycles} cycles is below the batch floor"
    );
    assert!(
        rounds <= cycles.div_ceil(16) + 2,
        "batch=16 only cut {cycles} cycles to {rounds} rounds"
    );
}

/// Windowed telemetry must be bit-identical too: probe points fall on
/// the same cycles (windows never cross a probe boundary) and the
/// merged per-shard counters equal the reference's.
#[test]
fn windowed_telemetry_is_bit_identical() {
    let mut cfg = uniform_random(MESH8X8, 0.30, 500);
    cfg.telemetry = Some(TelemetryConfig::windowed(64));
    let mut reference = CompiledEngine::new(elaborate(&cfg).unwrap());
    reference.run().unwrap();
    reference.seal_telemetry();
    for batch in [1, 16] {
        let mut engine = ShardedCompiledEngine::with_shards(&cfg, 4, batch).unwrap();
        engine.run().unwrap();
        engine.seal_telemetry();
        assert_eq!(engine.ledger(), reference.ledger());
        assert_eq!(
            engine.telemetry().unwrap(),
            reference.telemetry().unwrap(),
            "batch {batch}: telemetry series diverged"
        );
    }
}

/// Drain mode: run until the TG budgets are spent and the network
/// empties. The last window may overshoot the stop cycle, but a
/// quiescent platform makes those cycles no-ops, so ledger and clock
/// still match.
#[test]
fn drain_mode_stop_condition_drains_every_shard() {
    let mut cfg = uniform_random(MESH8X8, 0.10, 300);
    cfg.stop.delivered_packets = None;
    let mut reference = CompiledEngine::new(elaborate(&cfg).unwrap());
    reference.run().unwrap();
    for batch in [1, 8] {
        let mut engine = ShardedCompiledEngine::with_shards(&cfg, 2, batch).unwrap();
        engine.run().unwrap();
        engine.ledger().verify_drained().unwrap();
        assert_eq!(engine.ledger(), reference.ledger());
        assert_eq!(engine.now(), reference.now());
    }
}

/// Gating is a per-cycle cross-shard decision: a gated config clamps
/// any larger batch to 1 (with a warning) and then skips exactly the
/// cycles the single-threaded fast-forward kernel skips.
#[test]
fn gated_clamps_batch_and_skips_like_the_compiled_kernel() {
    let mut cfg = uniform_random(MESH8X8, 0.05, 300);
    cfg.clock_mode = ClockMode::Gated;
    let mut reference = CompiledEngine::new(elaborate(&cfg).unwrap());
    reference.run().unwrap();
    let mut engine = ShardedCompiledEngine::with_shards(&cfg, 4, 16).unwrap();
    assert_eq!(engine.batch(), 1, "gated mode must clamp the batch");
    // The clamp is surfaced as a structured warning — machine-visible
    // on both the engine and its summary, not just stderr.
    match SteppableEngine::warnings(&engine) {
        [EngineWarning::GatedBatchClamp { requested }] => assert_eq!(*requested, 16),
        other => panic!("expected one GatedBatchClamp warning, got {other:?}"),
    }
    engine.run().unwrap();
    assert_eq!(
        SteppableEngine::summary(&engine).warnings,
        SteppableEngine::warnings(&engine),
        "the summary must carry the engine's warnings"
    );
    assert!(engine.cycles_skipped() > 0, "a 5%-load run must skip");
    assert_eq!(engine.cycles_skipped(), reference.cycles_skipped());
    assert_eq!(engine.ledger(), reference.ledger());
    assert_eq!(SteppableEngine::summary(&engine), reference.summary());
}

#[test]
fn engine_kind_round_trips_through_the_generic_builder() {
    let cfg = uniform_random(MESH8X8, 0.10, 200).with_engine(EngineKind::ShardedCompiled {
        shards: 2,
        batch: 8,
    });
    let mut engine = AnyEngine::build(&cfg).unwrap();
    assert!(matches!(engine, AnyEngine::ShardedCompiled(_)));
    nocem::run_engine(&mut engine).unwrap();
    let mut reference = CompiledEngine::new(elaborate(&cfg).unwrap());
    reference.run().unwrap();
    assert_eq!(engine.packet_ledger(), *reference.ledger());
}

/// The paper's 6-switch platform is not a grid, so the partitioner
/// falls back to index stripes; the run still matches the oracle.
#[test]
fn paper_platform_index_stripes_match_emulation() {
    let cfg = PaperConfig::new().total_packets(300).uniform();
    assert_lockstep(&cfg, None, &[(2, 1), (2, 16)]);
}

/// `PlatformConfig::baseline` on star(`leaves`) with generator *i*
/// sending to receptor *(i + 1) mod n*, so every flow crosses the hub.
fn cross_hub_star(leaves: u32, packets: u64) -> PlatformConfig {
    let topology = nocem_topology::builders::star(leaves).unwrap();
    let receptors = topology.receptors();
    let mut cfg = PlatformConfig::baseline(format!("star{leaves}-cross-hub"), topology).unwrap();
    for (i, (flow, model)) in cfg.flows.iter_mut().zip(&mut cfg.generators).enumerate() {
        flow.dst = receptors[(i + 1) % receptors.len()];
        let TrafficModel::Uniform(uniform) = model else {
            unreachable!("the baseline generators are uniform")
        };
        uniform.destination = DestinationModel::Fixed {
            dst: flow.dst,
            flow: flow.flow,
        };
    }
    cfg.stop.delivered_packets = Some(packets);
    cfg
}

/// The star(70) hub has 70 input slots, more than the 64-bit masks
/// hold, so the worker that owns it steps it with the dense decide and
/// commit; every flow crosses the hub and most cross a shard boundary.
#[test]
fn cross_hub_star70_runs_the_dense_hub_on_a_worker() {
    assert_lockstep(&cross_hub_star(70, 1400), None, &[(2, 1), (2, 16)]);
}

/// An elaboration built on routing tables other than the ones its
/// config computes (shortest-path tables on an XY mesh config) runs on
/// those tables in every shard worker, not on routes the worker
/// recomputes from the config.
#[test]
fn workers_run_the_elaborations_routing_tables() {
    let cfg = uniform_random(MESH8X8, 0.40, 700);
    let mut shortest = cfg.clone();
    shortest.routing = RoutingSpec::Algorithm(RouteAlgorithm::Shortest);
    let routing = compute_routing(&shortest).unwrap();
    assert_lockstep(&cfg, Some(&routing), &[(2, 1), (2, 16)]);
}

/// One shard is the whole platform: no boundary links, same ledger.
#[test]
fn single_shard_degenerates_cleanly() {
    let cfg = PaperConfig::new().total_packets(120).burst(4);
    assert_lockstep(&cfg, None, &[(1, 1), (1, 16)]);
    let engine = ShardedCompiledEngine::with_shards(&cfg, 1, 16).unwrap();
    assert!(engine.partition().boundary_links(&cfg.topology).is_empty());
}

/// Trace-driven bursty traffic over 3 shards: full results equal the
/// oracle's (the lockstep compares `results()` at the end).
#[test]
fn three_shards_on_trace_bursty_match_emulation_results() {
    let cfg = PaperConfig::new().total_packets(200).trace_bursty(4);
    assert_lockstep(&cfg, None, &[(3, 1), (3, 8)]);
}

/// A run that cannot finish trips the cycle limit with the same error
/// on the same cycle as the oracle, whatever the batch.
#[test]
fn cycle_limit_fires_on_the_same_cycle() {
    let mut cfg = PaperConfig::new().total_packets(1_000_000).uniform();
    cfg.stop.cycle_limit = 300;
    let mut oracle = build(&cfg).unwrap();
    let expected = oracle.run().unwrap_err();
    for batch in [1, 16] {
        let mut engine = ShardedCompiledEngine::with_shards(&cfg, 2, batch).unwrap();
        assert_eq!(engine.run().unwrap_err(), expected, "batch {batch}");
        assert_eq!(engine.now(), oracle.now(), "batch {batch}");
    }
}

#[test]
fn too_many_shards_is_a_compile_error() {
    let cfg = PaperConfig::new().total_packets(10).uniform();
    let err = ShardedCompiledEngine::with_shards(&cfg, 64, 1).unwrap_err();
    assert!(matches!(err, CompileError::Partition { .. }));
    assert!(err.to_string().contains("64"), "{err}");
}

/// Shard-merged windowed telemetry equals the oracle's series on the
/// paper platform.
#[test]
fn paper_platform_telemetry_matches_emulation() {
    let cfg = PaperConfig::new()
        .total_packets(300)
        .uniform()
        .with_telemetry(Some(TelemetryConfig::windowed(64)));
    let mut oracle: Emulation = build(&cfg).unwrap();
    oracle.run().unwrap();
    oracle.seal_telemetry();
    let expected = oracle.telemetry().unwrap();
    assert!(expected.windows_recorded() > 0, "run long enough to window");
    for batch in [1, 16] {
        let mut engine = ShardedCompiledEngine::with_shards(&cfg, 2, batch).unwrap();
        engine.run().unwrap();
        engine.seal_telemetry();
        assert_eq!(engine.telemetry().unwrap(), expected, "batch {batch}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batched boundary replay must equal the batch=1 exchange order
    /// for *random* partitions (arbitrary switch→shard assignments,
    /// not just contiguous stripes) × random batch sizes.
    #[test]
    fn random_partitions_replay_identically_at_any_batch(
        seed in 0u64..1_000_000,
        shards in 2usize..5,
        batch in 2u64..24,
    ) {
        let cfg = uniform_random(
            TopologySpec::Mesh { width: 4, height: 4 },
            0.30,
            120,
        );
        // A deterministic pseudo-random assignment with every shard
        // non-empty: fill round-robin first, then scatter by an LCG.
        let n = 16usize;
        let mut assign: Vec<usize> = (0..n).map(|s| s % shards).collect();
        let mut x = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        for a in assign.iter_mut() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if (x >> 33) % 3 == 0 {
                *a = ((x >> 17) as usize) % shards;
            }
        }
        for k in 0..shards {
            // Keep every shard non-empty (PartitionMap requires it).
            if !assign.contains(&k) {
                assign[k] = k;
            }
        }
        let map = PartitionMap::new(assign, shards).unwrap();
        let elab1 = elaborate(&cfg).unwrap();
        let mut per_cycle = ShardedCompiledEngine::with_partition(elab1, map.clone(), 1);
        per_cycle.run().unwrap();
        let elab2 = elaborate(&cfg).unwrap();
        let mut batched = ShardedCompiledEngine::with_partition(elab2, map, batch);
        batched.run().unwrap();
        prop_assert_eq!(batched.ledger(), per_cycle.ledger());
        prop_assert_eq!(
            SteppableEngine::summary(&batched),
            SteppableEngine::summary(&per_cycle)
        );
        prop_assert_eq!(batched.now(), per_cycle.now());
    }
}
