//! Sharded-vs-single-threaded equivalence: the sharded engine must
//! produce the *same packet ledger* as the single-threaded emulation
//! engine — same packet ids, same release/injection/delivery cycles,
//! same latency statistics — on every topology, at low and saturating
//! load, for any shard count.
//!
//! The cases here run the per-cycle exchange (batch 1) unless they say
//! otherwise; `tests/sharded_compiled.rs` covers larger batches. The
//! shared harness steps the sharded engines in lockstep with the
//! single-threaded references, comparing the clock and delivered count
//! after every cycle so a divergence is pinpointed to the exact cycle
//! rather than discovered at end of run. A second set of tests proves
//! that cross-shard clock gating (per-shard quiescence + the
//! cross-shard event horizon) skips exactly the cycles the
//! single-threaded fast-forward kernel skips.

use nocem::clock::{ClockMode, SteppableEngine};
use nocem::config::EngineKind;
use nocem::engine::build;
use nocem::shard_compiled::ShardedCompiledEngine;
use nocem::sweep::AnyEngine;

mod common;
use common::{assert_lockstep, uniform_random, MESH8X8, TORUS8X8};

/// 2 and 4 shards on the per-cycle exchange.
const PER_CYCLE: &[(usize, u64)] = &[(2, 1), (4, 1)];

#[test]
fn mesh8x8_low_load_is_ledger_identical() {
    assert_lockstep(&uniform_random(MESH8X8, 0.05, 600), None, PER_CYCLE);
}

#[test]
fn mesh8x8_saturating_load_is_ledger_identical() {
    // 40% uniform-random on an 8x8 mesh congests the center links;
    // worms block, credits starve, packets park in the source queues.
    assert_lockstep(&uniform_random(MESH8X8, 0.40, 900), None, PER_CYCLE);
}

#[test]
fn torus8x8_low_load_is_ledger_identical() {
    assert_lockstep(&uniform_random(TORUS8X8, 0.05, 600), None, PER_CYCLE);
}

#[test]
fn torus8x8_saturating_load_is_ledger_identical() {
    assert_lockstep(&uniform_random(TORUS8X8, 0.40, 900), None, PER_CYCLE);
}

/// 3 shards over 8 rows give unbalanced row stripes (3/3/2), and 5
/// shards give stripes that are not row-aligned in size.
#[test]
fn odd_shard_count_and_non_row_aligned_stripes_agree() {
    assert_lockstep(
        &uniform_random(MESH8X8, 0.20, 500),
        None,
        &[(3, 1), (3, 16), (5, 1), (5, 16)],
    );
}

/// Gated runs fast-forward over exactly the cycles the oracle's
/// single-threaded kernel skips: global quiescence is the conjunction
/// of the shard predicates and the horizon is the minimum over shard
/// next-events.
#[test]
fn gated_sharded_skips_exactly_like_the_single_threaded_kernel() {
    let mut cfg = uniform_random(MESH8X8, 0.05, 400);
    cfg.clock_mode = ClockMode::Gated;
    let mut oracle = build(&cfg).unwrap();
    oracle.run().unwrap();
    assert!(oracle.cycles_skipped() > 0, "a 5%-load run must skip");
    assert_lockstep(&cfg, None, &[(2, 1), (4, 16)]);
}

#[test]
fn gated_sharded_is_cycle_equivalent_to_ungated_sharded() {
    let cfg = uniform_random(TORUS8X8, 0.05, 300);
    let mut gated_cfg = cfg.clone();
    gated_cfg.clock_mode = ClockMode::Gated;
    let mut ungated = ShardedCompiledEngine::with_shards(&cfg, 2, 16).unwrap();
    ungated.run().unwrap();
    let mut gated = ShardedCompiledEngine::with_shards(&gated_cfg, 2, 16).unwrap();
    gated.run().unwrap();
    assert!(gated.cycles_skipped() > 0);
    assert_eq!(gated.ledger(), ungated.ledger());
    assert_eq!(
        SteppableEngine::summary(&gated).behavioral(),
        SteppableEngine::summary(&ungated).behavioral()
    );
}

#[test]
fn drain_mode_stop_condition_drains_every_shard() {
    let mut cfg = uniform_random(MESH8X8, 0.10, 400);
    // Drain mode: run until every TG budget is spent and the network
    // empties, instead of counting deliveries.
    cfg.stop.delivered_packets = None;
    let mut reference = build(&cfg).unwrap();
    reference.run().unwrap();
    let mut sharded = ShardedCompiledEngine::with_shards(&cfg, 4, 1).unwrap();
    sharded.run().unwrap();
    sharded.ledger().verify_drained().unwrap();
    assert_eq!(sharded.ledger(), reference.ledger());
    assert_eq!(sharded.now(), reference.now());
}

#[test]
fn engine_kind_round_trips_through_the_generic_builder() {
    let cfg = uniform_random(MESH8X8, 0.10, 200).with_engine(EngineKind::ShardedCompiled {
        shards: 2,
        batch: 1,
    });
    let mut engine = AnyEngine::build(&cfg).unwrap();
    assert!(matches!(engine, AnyEngine::ShardedCompiled(_)));
    nocem::run_engine(&mut engine).unwrap();
    let mut reference = build(&cfg).unwrap();
    reference.run().unwrap();
    assert_eq!(engine.packet_ledger(), *reference.ledger());
}
