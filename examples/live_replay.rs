//! Live replay: drive the serving engine over a generated Meetup-style
//! arrival trace and print a latency/utility summary.
//!
//! The engine starts from a Table I synthetic snapshot, then absorbs a
//! stream of deltas — registrations, departures, event announcements,
//! capacity edits, bid churn — through its warm-start repair loop. The
//! trace is serialized to the JSON-lines request protocol and replayed
//! from the text form, exactly as a recorded production log would be.
//!
//! ```text
//! cargo run --release --example live_replay [num_deltas]
//! ```

use igepa::algos::GreedyArrangement;
use igepa::core::{ConstantInterest, NeverConflict};
use igepa::datagen::{generate_synthetic, generate_trace, SyntheticConfig, TraceConfig};
use igepa::engine::{replay_jsonl, requests_to_jsonl, EngineConfig, EngineRequest, ShardedEngine};

fn main() {
    let num_deltas: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);

    // 1. A frozen snapshot of the platform...
    let base = generate_synthetic(&SyntheticConfig::small(), 42);
    println!(
        "base instance: {} events x {} users, {} bids",
        base.num_events(),
        base.num_users(),
        base.num_bids()
    );

    // 2. ...and what happens next: a Poisson arrival process of deltas.
    let trace = generate_trace(
        &base,
        &TraceConfig {
            num_deltas,
            ..TraceConfig::default()
        },
        7,
    );
    println!(
        "trace: {} deltas over {:.1} abstract time units",
        trace.len(),
        trace.makespan()
    );

    // 3. Serialize to the JSONL request protocol — the replayable artifact.
    let requests: Vec<EngineRequest> = trace
        .deltas
        .iter()
        .map(|t| EngineRequest::Apply {
            delta: t.delta.clone(),
        })
        .collect();
    let jsonl = requests_to_jsonl(&requests);
    println!("request log: {} bytes of JSONL", jsonl.len());

    // 4. Replay through the warm-start serving engine (one shard over the
    //    whole instance).
    let mut engine = ShardedEngine::single(
        base,
        Box::new(NeverConflict),
        Box::new(ConstantInterest(0.5)),
        Box::new(GreedyArrangement),
        EngineConfig {
            seed: 1,
            staleness_check_interval: 128,
            max_staleness: 0.05,
            ..EngineConfig::default()
        },
    );
    let outcome = replay_jsonl(&mut engine, &jsonl).expect("self-generated log parses");
    assert!(engine.merged_arrangement().is_feasible(engine.instance()));

    let report = &outcome.report;
    println!(
        "\nreplayed {} requests: {} applied, {} rejected",
        report.requests, report.applied, report.rejected
    );
    println!(
        "per-delta latency: mean {:.1} µs | p50 {:.1} µs | p95 {:.1} µs | p99 {:.1} µs | max {:.1} µs",
        report.latency.mean_us,
        report.latency.p50_us,
        report.latency.p95_us,
        report.latency.p99_us,
        report.latency.max_us
    );

    let stats = engine.stats();
    println!(
        "repairs: {} greedy patches, {} escalations, {} staleness checks ({} adopted)",
        stats.greedy_patches, stats.full_resolves, stats.staleness_checks, stats.staleness_resolves
    );
    println!(
        "final instance: {} events x {} users; serving {} pairs at utility {:.2}",
        engine.instance().num_events(),
        engine.instance().num_users(),
        report.final_pairs,
        report.final_utility
    );
    let ratio = engine.cold_solve_ratio();
    println!(
        "utility vs cold solve of the final instance: {:.1}% (drift bound: {:.0}%)",
        ratio * 100.0,
        engine.config().shard.max_staleness * 100.0
    );
    assert!(
        ratio >= 0.95,
        "served utility fell below 95% of a cold solve"
    );
}
