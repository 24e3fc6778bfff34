//! Sharded replay: drive a 4-shard engine over a multi-community arrival
//! trace and compare it head-to-head with the monolithic engine.
//!
//! The base instance is community-structured (events grouped into
//! conflict-sharing communities, users bidding mostly inside their own)
//! and the trace keeps that shape, so the conflict-graph-locality
//! partitioner can put most of each event's bidders on one shard. The
//! example asserts the two acceptance properties of the sharded
//! architecture: the merged arrangement is *feasible* for the full
//! instance, and its utility is at least **95%** of what the monolithic
//! engine serves on the same trace.
//!
//! ```text
//! cargo run --release --example sharded_replay [num_deltas] [num_shards]
//! ```

use igepa::core::{ConstantInterest, LocalityPartitioner, NeverConflict, PartitionCut};
use igepa::datagen::{
    generate_clustered_dataset, generate_community_trace, ClusteredConfig, CommunityTraceConfig,
};
use igepa::engine::{replay, EngineConfig, EngineRequest, ShardedConfig, ShardedEngine};
use igepa::prelude::GreedyArrangement;

fn main() {
    let num_deltas: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);
    let num_shards: usize = std::env::args()
        .nth(2)
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);

    // 1. A community-structured snapshot of the platform...
    let dataset = generate_clustered_dataset(&ClusteredConfig::default(), 42);
    let base = dataset.instance.clone();
    println!(
        "base instance: {} events x {} users in {} communities, {} bids",
        base.num_events(),
        base.num_users(),
        ClusteredConfig::default().num_communities,
        base.num_bids()
    );

    // 2. ...and a multi-community arrival trace over it.
    let trace = generate_community_trace(
        &base,
        &dataset.event_communities,
        &CommunityTraceConfig::partition_friendly(num_deltas, num_shards),
        7,
    );
    let requests: Vec<EngineRequest> = trace
        .deltas
        .iter()
        .map(|t| EngineRequest::Apply {
            delta: t.delta.clone(),
        })
        .collect();
    println!(
        "trace: {} deltas over {:.1} time units",
        trace.len(),
        trace.makespan()
    );

    let engine_config = EngineConfig {
        seed: 1,
        staleness_check_interval: 128,
        max_staleness: 0.05,
        ..EngineConfig::default()
    };

    // 3. Monolithic baseline: one shard over the whole instance.
    let mut mono = ShardedEngine::single(
        base.clone(),
        Box::new(NeverConflict),
        Box::new(ConstantInterest(0.5)),
        Box::new(GreedyArrangement),
        engine_config.clone(),
    );
    let mono_outcome = replay(&mut mono, &requests);
    assert_eq!(mono_outcome.report.rejected, 0);
    let mono_utility = mono.utility();

    // 4. The sharded engine: conflict-graph-locality partitioning.
    let partitioner = LocalityPartitioner::from_instance(&base, num_shards);
    let cut = PartitionCut::measure(
        &base,
        &igepa::core::assign_users(&base, &partitioner, num_shards),
    );
    println!(
        "partition: {} of {} active events start as boundary events ({} cross conflict edges)",
        cut.boundary_events, cut.active_events, cut.cross_conflict_edges
    );
    let mut sharded = ShardedEngine::new(
        base,
        Box::new(NeverConflict),
        Box::new(ConstantInterest(0.5)),
        Box::new(GreedyArrangement),
        Box::new(partitioner),
        ShardedConfig {
            num_shards,
            shard: engine_config,
            reconcile_interval: 64,
            reconcile_rounds: 3,
        },
    );
    let sharded_outcome = replay(&mut sharded, &requests);
    assert_eq!(sharded_outcome.report.rejected, 0);
    let final_reconcile = sharded.rebalance();

    // 5. Compare.
    let mono_lat = &mono_outcome.report.latency;
    let sharded_lat = &sharded_outcome.report.latency;
    println!(
        "\nmonolithic : mean {:.1} µs | p50 {:.1} | p95 {:.1} | p99 {:.1} | max {:.1}",
        mono_lat.mean_us, mono_lat.p50_us, mono_lat.p95_us, mono_lat.p99_us, mono_lat.max_us
    );
    println!(
        "{} shards   : mean {:.1} µs | p50 {:.1} | p95 {:.1} | p99 {:.1} | max {:.1}",
        num_shards,
        sharded_lat.mean_us,
        sharded_lat.p50_us,
        sharded_lat.p95_us,
        sharded_lat.p99_us,
        sharded_lat.max_us
    );
    println!(
        "per-delta speedup: {:.2}x (mean), {:.2}x (p50)",
        mono_lat.mean_us / sharded_lat.mean_us,
        mono_lat.p50_us / sharded_lat.p50_us.max(f64::MIN_POSITIVE)
    );

    let merged = sharded.merged_arrangement();
    let feasible = merged.is_feasible(sharded.instance());
    let sharded_utility = merged.utility_value(sharded.instance());
    let stats = sharded.stats();
    let coord = sharded.coordinator_stats();
    println!(
        "\nshards served {} pairs (per shard: {:?})",
        merged.len(),
        (0..sharded.num_shards())
            .map(|k| sharded.shard(k).arrangement().len())
            .collect::<Vec<_>>()
    );
    println!(
        "repairs: {} greedy patches, {} escalations, {} staleness checks; \
         {} reconcile passes moved {} quota units ({} boundary events at the end)",
        stats.greedy_patches,
        stats.full_resolves,
        stats.staleness_checks,
        coord.reconcile_passes,
        coord.quota_moved,
        final_reconcile.boundary_events,
    );

    let ratio = sharded_utility / mono_utility;
    println!(
        "merged utility {sharded_utility:.2} vs monolithic {mono_utility:.2} → {:.1}% ({})",
        ratio * 100.0,
        if feasible { "feasible" } else { "INFEASIBLE" }
    );
    assert!(feasible, "merged arrangement must be feasible");
    assert!(
        ratio >= 0.95,
        "sharded utility fell below 95% of the monolithic engine"
    );
    println!("acceptance: feasible merged arrangement at >= 95% of monolithic utility");
}
