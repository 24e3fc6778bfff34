//! Serving-engine benchmarks: warm-start repair vs cold re-solve across
//! delta-batch sizes.
//!
//! The claim under test: absorbing a delta through the engine's greedy
//! patch is much cheaper than re-running a solver from scratch, and the
//! advantage persists (though shrinks per delta) when deltas arrive in
//! bursts handled by one repair pass.

use criterion::{criterion_group, BenchmarkId, Criterion};
use igepa_algos::{ArrangementAlgorithm, GreedyArrangement};
use igepa_bench::bench_json::BenchReport;
use igepa_core::{
    CapacityTarget, ConstantInterest, Instance, InstanceDelta, NeverConflict, UserId,
};
use igepa_datagen::{
    generate_clustered_dataset, generate_community_trace, generate_synthetic, generate_trace,
    ClusteredConfig, CommunityTraceConfig, DeltaTrace, SyntheticConfig, TraceConfig,
};
use igepa_engine::{
    EngineClient, EngineConfig, EngineQuery, EngineRequest, EngineServer, EngineService, Framing,
    ServerOptions, Shard,
};
use igepa_experiments::sharded_serving_engine;
use std::hint::black_box;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

fn base_instance() -> Instance {
    generate_synthetic(
        &SyntheticConfig {
            num_events: 20,
            num_users: 200,
            bids_per_user: 5,
            ..SyntheticConfig::default()
        },
        3,
    )
}

fn trace_for(instance: &Instance, num_deltas: usize) -> DeltaTrace {
    generate_trace(
        instance,
        &TraceConfig {
            num_deltas,
            ..TraceConfig::default()
        },
        11,
    )
}

fn fresh_engine(instance: Instance) -> Shard {
    Shard::new(
        instance,
        Arc::new(NeverConflict),
        Arc::new(ConstantInterest(0.5)),
        Arc::new(GreedyArrangement),
        EngineConfig {
            seed: 5,
            // Measure pure repair cost: no periodic cold solves mixed in.
            staleness_check_interval: 0,
            ..EngineConfig::default()
        },
    )
}

/// Warm path vs cold re-solve: one engine absorbs the whole trace in
/// `batch`-sized bursts, against re-solving from scratch per burst.
fn warm_engine_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_warm_vs_cold");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(900));

    let base = base_instance();
    let trace = trace_for(&base, 256);

    for &batch in &[1usize, 8, 64] {
        group.bench_with_input(
            BenchmarkId::new("warm_repair", batch),
            &batch,
            |b, &batch| {
                b.iter(|| {
                    let mut engine = fresh_engine(base.clone());
                    for chunk in trace.deltas.chunks(batch) {
                        let deltas: Vec<_> = chunk.iter().map(|t| t.delta.clone()).collect();
                        engine.apply_batch(&deltas).expect("trace deltas are valid");
                    }
                    black_box(engine.utility())
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("cold_resolve", batch),
            &batch,
            |b, &batch| {
                b.iter(|| {
                    let mut instance = base.clone();
                    let solver = GreedyArrangement;
                    let mut utility = 0.0;
                    for (i, chunk) in trace.deltas.chunks(batch).enumerate() {
                        for timed in chunk {
                            instance
                                .apply_delta(&timed.delta, &NeverConflict, &ConstantInterest(0.5))
                                .expect("trace deltas are valid");
                        }
                        let arrangement = solver.run_seeded(&instance, i as u64);
                        utility = arrangement.utility_value(&instance);
                    }
                    black_box(utility)
                })
            },
        );
    }
    group.finish();
}

/// Single-delta absorption cost on growing instances (the serving hot path).
fn single_delta_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_single_delta");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(600));

    for &num_users in &[200usize, 800] {
        let base = generate_synthetic(
            &SyntheticConfig {
                num_events: 20,
                num_users,
                bids_per_user: 5,
                ..SyntheticConfig::default()
            },
            4,
        );
        let trace = trace_for(&base, 64);
        group.bench_with_input(BenchmarkId::new("apply", num_users), &num_users, |b, _| {
            b.iter(|| {
                let mut engine = fresh_engine(base.clone());
                for timed in &trace.deltas {
                    engine.apply(&timed.delta).expect("trace deltas are valid");
                }
                black_box(engine.arrangement().len())
            })
        });
    }
    group.finish();
}

/// Sharded vs monolithic per-delta latency on a partition-friendly
/// multi-community trace: the claim under test is that per-delta latency
/// *improves* as the shard count grows (each delta touches one smaller
/// repair loop, and staleness/escalation solves run over sub-instances).
fn sharded_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_sharded_scaling");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(1500));

    let dataset = generate_clustered_dataset(
        &ClusteredConfig {
            num_events: 40,
            num_users: 600,
            num_communities: 8,
            ..ClusteredConfig::default()
        },
        17,
    );
    let base = dataset.instance.clone();
    let trace = generate_community_trace(
        &base,
        &dataset.event_communities,
        &CommunityTraceConfig::partition_friendly(512, 4),
        23,
    );
    let deltas: Vec<_> = trace.deltas.iter().map(|t| t.delta.clone()).collect();

    for &shards in &[1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("replay", shards), &shards, |b, &shards| {
            b.iter(|| {
                // Same construction as the `serve --shards N` study, so the
                // bench measures exactly the configuration the study reports.
                let mut engine = sharded_serving_engine(base.clone(), 5, shards);
                for delta in &deltas {
                    engine.apply(delta).expect("trace deltas are valid");
                }
                black_box(engine.utility())
            })
        });
    }
    group.finish();
}

/// Service-dispatch overhead: the same read query answered by an
/// in-process `EngineService` vs over the TCP loopback transport with 1
/// and 4 per-shard worker threads. Queries barrier the worker pool, so
/// the TCP numbers put the whole decode → barrier → answer → encode →
/// socket round-trip on the perf trajectory next to raw dispatch.
fn service_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_service_dispatch");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(900));

    const QUERIES_PER_ITER: usize = 64;
    let dataset = generate_clustered_dataset(
        &ClusteredConfig {
            num_events: 40,
            num_users: 600,
            num_communities: 8,
            ..ClusteredConfig::default()
        },
        17,
    );
    let base = dataset.instance.clone();

    group.bench_function("in_process", |b| {
        let mut service = EngineService::new(sharded_serving_engine(base.clone(), 5, 4));
        b.iter(|| {
            let mut total = 0.0;
            for _ in 0..QUERIES_PER_ITER {
                if let Ok(igepa_engine::EngineResponse::Utility { total: t, .. }) = service
                    .try_handle(&igepa_engine::EngineRequest::Query {
                        query: EngineQuery::Utility,
                    })
                {
                    total += t;
                }
            }
            black_box(total)
        })
    });

    for &workers in &[1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("tcp_loopback", workers),
            &workers,
            |b, &workers| {
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                let handle = EngineServer::serve(
                    listener,
                    sharded_serving_engine(base.clone(), 5, workers),
                    ServerOptions::from(Framing::Lines),
                )
                .unwrap();
                let mut client =
                    EngineClient::connect(handle.local_addr(), Framing::Lines).unwrap();
                b.iter(|| {
                    let mut total = 0.0;
                    for _ in 0..QUERIES_PER_ITER {
                        if let Ok(igepa_engine::EngineResponse::Utility { total: t, .. }) =
                            client.query(EngineQuery::Utility)
                        {
                            total += t;
                        }
                    }
                    black_box(total)
                });
                drop(client);
                handle.shutdown().unwrap();
            },
        );
    }
    group.finish();
}

// ------------------------------------------------------------------------
// Machine-readable scenarios: everything below is measured with fixed
// iteration counts and written to `BENCH_engine.json` (mean/p50/p99 per
// scenario) so the perf trajectory is tracked across PRs. CI uploads the
// file as an artifact.

/// Whether a delta is event-scoped, i.e. broadcasts to every shard.
fn is_broadcast(delta: &InstanceDelta) -> bool {
    matches!(
        delta,
        InstanceDelta::AddEvent { .. }
            | InstanceDelta::UpdateCapacity {
                target: CapacityTarget::Event(_),
                ..
            }
    )
}

/// The announcement-heavy workload: a large-catalogue clustered base
/// instance plus a catalogue-churn trace (high `AddEvent` /
/// event-capacity mix) — the historical sharding anti-pattern. The event
/// catalogue dominates the state (|V| ≈ |U|), as on a platform whose
/// event inventory churns faster than its user base.
fn churn_setup() -> (Instance, Vec<InstanceDelta>) {
    let dataset = generate_clustered_dataset(
        &ClusteredConfig {
            num_events: 2400,
            num_users: 400,
            num_communities: 8,
            ..ClusteredConfig::default()
        },
        17,
    );
    let trace = generate_community_trace(
        &dataset.instance,
        &dataset.event_communities,
        &CommunityTraceConfig::announcement_heavy(800, 4),
        29,
    );
    (
        dataset.instance,
        trace.deltas.into_iter().map(|t| t.delta).collect(),
    )
}

/// The catalogue-backed engine under test in the churn scenarios:
/// identical repair knobs to the replicated baseline, with periodic
/// reconciliation disabled on **both** sides — reconciliation is
/// orthogonal to event-state propagation (its code is unchanged by the
/// catalogue) and would otherwise land its periodic cost on arbitrary
/// deltas of whichever side triggers it.
fn churn_engine(base: Instance, shards: usize) -> igepa_engine::ShardedEngine {
    igepa_engine::ShardedEngine::new(
        base,
        Box::new(igepa_core::TimeOverlapConflict),
        Box::new(ConstantInterest(0.5)),
        Box::new(GreedyArrangement),
        Box::new(igepa_core::HashPartitioner),
        igepa_engine::ShardedConfig {
            num_shards: shards,
            shard: EngineConfig {
                seed: 5,
                // Staleness checks are symmetric machinery (identical code
                // both sides); which delta their cold solve lands on is
                // chance that swamps the propagation signal at this sample
                // count, so the comparison disables them on both sides.
                staleness_check_interval: 0,
                ..EngineConfig::default()
            },
            reconcile_interval: 0,
            reconcile_rounds: 3,
        },
    )
}

/// The pre-catalogue architecture, reconstructed for an apples-to-apples
/// baseline: a full-capacity mirror instance plus `k` engines, each
/// owning a **private full event view** (its own conflict matrix and
/// interest table) over its slice of the users — so every event broadcast
/// is applied k+1 times, exactly as the sharded engine worked before the
/// shared catalogue. User deltas route to one engine; only broadcasts are
/// timed.
struct ReplicatedBaseline {
    mirror: Instance,
    engines: Vec<Shard>,
    /// Global user id → (engine, engine-local user id).
    owners: Vec<(usize, UserId)>,
}

/// Largest-remainder split of `capacity` proportional to `weights` (even
/// when all weights are zero) — the same quota arithmetic the sharded
/// coordinator uses, reproduced here so the baseline's engines see the
/// per-shard quotas the real pre-catalogue shards saw, not k× the true
/// capacity.
fn quota_split(capacity: usize, weights: &[usize]) -> Vec<usize> {
    let n = weights.len().max(1);
    let total: usize = weights.iter().sum();
    if total == 0 {
        let base = capacity / n;
        let rem = capacity % n;
        return (0..n).map(|k| base + usize::from(k < rem)).collect();
    }
    let mut parts: Vec<usize> = weights.iter().map(|&w| capacity * w / total).collect();
    let mut remainder = capacity - parts.iter().sum::<usize>();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&k| (std::cmp::Reverse(capacity * weights[k] % total), k));
    for &k in &order {
        if remainder == 0 {
            break;
        }
        parts[k] += 1;
        remainder -= 1;
    }
    parts
}

impl ReplicatedBaseline {
    fn new(base: &Instance, shards: usize) -> Self {
        let mut locals: Vec<Vec<UserId>> = vec![Vec::new(); shards];
        let mut owners = Vec::with_capacity(base.num_users());
        for u in 0..base.num_users() {
            let k = u % shards;
            owners.push((k, UserId::new(locals[k].len())));
            locals[k].push(UserId::new(u));
        }
        // Initial quotas proportional to each shard's bidder count, as
        // the pre-catalogue coordinator dealt them.
        let quotas: Vec<Vec<usize>> = base
            .events()
            .iter()
            .map(|event| {
                let mut bidders = vec![0usize; shards];
                for &u in &event.bidders {
                    bidders[u.index() % shards] += 1;
                }
                quota_split(event.capacity, &bidders)
            })
            .collect();
        let engines = (0..shards)
            .map(|k| {
                let mut b = Instance::builder();
                for event in base.events() {
                    b.add_event(quotas[event.id.index()][k], event.attrs.clone());
                }
                for &g in &locals[k] {
                    let user = base.user(g);
                    b.add_user(user.capacity, user.attrs.clone(), user.bids.clone());
                }
                b.interaction_scores(locals[k].iter().map(|&g| base.interaction(g)).collect());
                let sub = b
                    .build(&igepa_core::TimeOverlapConflict, &ConstantInterest(0.5))
                    .expect("baseline sub-instance is valid");
                Shard::new(
                    sub,
                    Arc::new(igepa_core::TimeOverlapConflict),
                    Arc::new(ConstantInterest(0.5)),
                    Arc::new(GreedyArrangement),
                    EngineConfig {
                        seed: 5 + k as u64,
                        staleness_check_interval: 0,
                        ..EngineConfig::default()
                    },
                )
            })
            .collect();
        ReplicatedBaseline {
            mirror: base.clone(),
            engines,
            owners,
        }
    }

    /// Applies one broadcast delta to the mirror and every engine — with
    /// the same per-shard quota splits the pre-catalogue coordinator
    /// computed (even deal for announcements, load-preserving re-split
    /// for capacity edits) — returning the wall time of the k+1
    /// applications. User deltas route to their owner untimed.
    fn apply(&mut self, delta: &InstanceDelta) -> Option<f64> {
        if is_broadcast(delta) {
            let shards = self.engines.len();
            let start = Instant::now();
            self.mirror
                .apply_delta(
                    delta,
                    &igepa_core::TimeOverlapConflict,
                    &ConstantInterest(0.5),
                )
                .expect("trace deltas are valid");
            match delta {
                InstanceDelta::AddEvent { capacity, attrs } => {
                    let split = quota_split(*capacity, &vec![0usize; shards]);
                    for (k, engine) in self.engines.iter_mut().enumerate() {
                        engine
                            .apply(&InstanceDelta::AddEvent {
                                capacity: split[k],
                                attrs: attrs.clone(),
                            })
                            .expect("broadcasts are valid everywhere");
                    }
                }
                InstanceDelta::UpdateCapacity {
                    target: CapacityTarget::Event(event),
                    capacity,
                } => {
                    // Load-preserving re-split, as the old coordinator's
                    // resplit_event: keep each shard's current seating
                    // where the total allows, deal slack by bidders,
                    // shrink proportional to loads otherwise.
                    let loads: Vec<usize> = self
                        .engines
                        .iter()
                        .map(|e| e.arrangement().load_of(*event))
                        .collect();
                    let total_load: usize = loads.iter().sum();
                    let quotas = if *capacity >= total_load {
                        let bidders: Vec<usize> = self
                            .engines
                            .iter()
                            .map(|e| e.instance().event(*event).num_bidders())
                            .collect();
                        let slack = quota_split(*capacity - total_load, &bidders);
                        loads.iter().zip(slack).map(|(&l, s)| l + s).collect()
                    } else {
                        quota_split(*capacity, &loads)
                    };
                    for (k, engine) in self.engines.iter_mut().enumerate() {
                        engine
                            .apply(&InstanceDelta::UpdateCapacity {
                                target: CapacityTarget::Event(*event),
                                capacity: quotas[k],
                            })
                            .expect("broadcasts are valid everywhere");
                    }
                }
                _ => unreachable!("is_broadcast covers exactly these kinds"),
            }
            return Some(start.elapsed().as_nanos() as f64 / 1_000.0);
        }
        self.mirror
            .apply_delta(
                delta,
                &igepa_core::TimeOverlapConflict,
                &ConstantInterest(0.5),
            )
            .expect("trace deltas are valid");
        let (k, local) = match delta {
            InstanceDelta::AddUser { .. } => {
                let global = self.mirror.num_users() - 1;
                let k = global % self.engines.len();
                let local = UserId::new(self.engines[k].instance().num_users());
                self.owners.push((k, local));
                (k, local)
            }
            InstanceDelta::RemoveUser { user }
            | InstanceDelta::UpdateBids { user, .. }
            | InstanceDelta::UpdateInteractionScore { user, .. }
            | InstanceDelta::UpdateCapacity {
                target: CapacityTarget::User(user),
                ..
            } => self.owners[user.index()],
            _ => unreachable!("broadcasts handled above"),
        };
        let rewritten = match delta {
            InstanceDelta::AddUser { .. } => delta.clone(),
            InstanceDelta::RemoveUser { .. } => InstanceDelta::RemoveUser { user: local },
            InstanceDelta::UpdateBids { bids, .. } => InstanceDelta::UpdateBids {
                user: local,
                bids: bids.clone(),
            },
            InstanceDelta::UpdateInteractionScore { score, .. } => {
                InstanceDelta::UpdateInteractionScore {
                    user: local,
                    score: *score,
                }
            }
            InstanceDelta::UpdateCapacity { capacity, .. } => InstanceDelta::UpdateCapacity {
                target: CapacityTarget::User(local),
                capacity: *capacity,
            },
            _ => unreachable!(),
        };
        self.engines[k]
            .apply(&rewritten)
            .expect("user deltas are valid on the owner");
        None
    }
}

/// Event-churn scenarios: catalogue-backed sharded engine vs the
/// replicated pre-catalogue baseline, per-broadcast latency at 1/2/4
/// shards, plus the end-to-end all-delta latency of the catalogue path.
fn churn_scenarios(report: &mut BenchReport) {
    let (base, deltas) = churn_setup();
    // The first few announcements trigger the one-time doubling of the
    // conflict/interest tables (and, catalogue-side, the first CoW buffer
    // split) — one-off costs that would swamp a 288-sample mean. Both
    // sides absorb a warm-in prefix untimed and are measured at steady
    // state.
    const WARM_IN: usize = 64;
    // One untimed warm-up replay per side, so neither pays the process's
    // cold caches and page faults.
    {
        let mut engine = churn_engine(base.clone(), 2);
        for delta in &deltas {
            engine.apply(delta).expect("trace deltas are valid");
        }
        black_box(engine.utility());
        let mut baseline = ReplicatedBaseline::new(&base, 2);
        for delta in &deltas {
            baseline.apply(delta);
        }
    }
    for &shards in &[1usize, 2, 4] {
        let mut engine = churn_engine(base.clone(), shards);
        let mut announce_us = Vec::new();
        let mut capacity_us = Vec::new();
        let mut all_us = Vec::new();
        for (i, delta) in deltas.iter().enumerate() {
            let start = Instant::now();
            engine.apply(delta).expect("trace deltas are valid");
            let us = start.elapsed().as_nanos() as f64 / 1_000.0;
            if i < WARM_IN {
                continue;
            }
            all_us.push(us);
            match delta {
                InstanceDelta::AddEvent { .. } => announce_us.push(us),
                InstanceDelta::UpdateCapacity {
                    target: CapacityTarget::Event(_),
                    ..
                } => capacity_us.push(us),
                _ => {}
            }
        }
        black_box(engine.utility());
        report.record(
            format!("event_churn/announce_catalog/{shards}"),
            announce_us,
        );
        report.record(
            format!("event_churn/capacity_catalog/{shards}"),
            capacity_us,
        );
        report.record(format!("event_churn/all_catalog/{shards}"), all_us);
    }
    for &shards in &[1usize, 2, 4] {
        let mut baseline = ReplicatedBaseline::new(&base, shards);
        let mut announce_us = Vec::new();
        let mut capacity_us = Vec::new();
        for (i, delta) in deltas.iter().enumerate() {
            if let Some(us) = baseline.apply(delta) {
                if i < WARM_IN {
                    continue;
                }
                match delta {
                    InstanceDelta::AddEvent { .. } => announce_us.push(us),
                    _ => capacity_us.push(us),
                }
            }
        }
        report.record(
            format!("event_churn/announce_replicated/{shards}"),
            announce_us,
        );
        report.record(
            format!("event_churn/capacity_replicated/{shards}"),
            capacity_us,
        );
    }
    for &shards in &[1usize, 2, 4] {
        let speedup = report
            .mean_of(&format!("event_churn/announce_replicated/{shards}"))
            .zip(report.mean_of(&format!("event_churn/announce_catalog/{shards}")))
            .map(|(replicated, catalog)| replicated / catalog);
        println!(
            "event_churn: {shards}-shard announcement speedup (replicated/catalog): {:.2}x",
            speedup.unwrap_or(f64::NAN)
        );
    }
}

/// O(1)-utility-tracking scenarios (PR 5): what the tracker removed from
/// the apply hot path, at serving scale.
///
/// * `apply_tracked/{users}` — per-delta apply latency of the current
///   engine: scoring is the tracker's O(changed pairs) updates and the
///   outcome utility is an O(1) read.
/// * `apply_recompute_baseline/{users}` — the same applies plus one
///   from-scratch `Arrangement::utility` fold per apply, reconstructing
///   what every apply paid before the tracker (the engine recomputed the
///   full O(|M|) breakdown for each outcome and shard view).
/// * `users_of_index/{users}` vs `users_of_scan/{users}` — listing an
///   event's attendees via the reverse attendee index (O(1) slice
///   borrow) vs the reconstructed pre-index full-user membership scan
///   that `greedy_patch` used to pay per dirty event.
fn utility_tracking_scenarios(report: &mut BenchReport) {
    for &num_users in &[10_000usize, 100_000] {
        let base = generate_synthetic(
            &SyntheticConfig {
                num_events: 50,
                num_users,
                bids_per_user: 4,
                ..SyntheticConfig::default()
            },
            7,
        );
        let trace = trace_for(&base, 256);

        let mut engine = fresh_engine(base.clone());
        let mut tracked_us = Vec::with_capacity(trace.deltas.len());
        for timed in &trace.deltas {
            let start = Instant::now();
            engine.apply(&timed.delta).expect("trace deltas are valid");
            tracked_us.push(start.elapsed().as_nanos() as f64 / 1_000.0);
        }
        black_box(engine.utility());
        report.record(
            format!("utility_tracking/apply_tracked/{num_users}"),
            tracked_us,
        );

        let mut engine = fresh_engine(base.clone());
        let mut recompute_us = Vec::with_capacity(trace.deltas.len());
        for timed in &trace.deltas {
            let start = Instant::now();
            engine.apply(&timed.delta).expect("trace deltas are valid");
            // The pre-tracker engine folded the full breakdown inside
            // every apply; reconstruct that cost explicitly.
            black_box(engine.arrangement().utility(engine.instance()));
            recompute_us.push(start.elapsed().as_nanos() as f64 / 1_000.0);
        }
        report.record(
            format!("utility_tracking/apply_recompute_baseline/{num_users}"),
            recompute_us,
        );

        // Attendee listing: reverse index vs reconstructed full scan. A
        // single indexed call is a ~ns slice borrow — far below
        // `Instant::now()` overhead — so each recorded sample times a
        // batch of `REPS` calls and divides, keeping the published
        // numbers an honest per-call cost rather than a timer floor.
        const REPS: usize = 1_000;
        let arrangement = engine.arrangement();
        let mut index_us = Vec::new();
        let mut scan_us = Vec::new();
        for v in 0..base.num_events() {
            let v = igepa_core::EventId::new(v);
            let start = Instant::now();
            let mut indexed = 0usize;
            for _ in 0..REPS {
                indexed = black_box(black_box(&arrangement).users_of(v).len());
            }
            index_us.push(start.elapsed().as_nanos() as f64 / 1_000.0 / REPS as f64);

            let start = Instant::now();
            let mut scanned = 0usize;
            for u in 0..arrangement.num_users() {
                if arrangement.contains(v, UserId::new(u)) {
                    scanned += 1;
                }
            }
            scan_us.push(start.elapsed().as_nanos() as f64 / 1_000.0);
            assert_eq!(indexed, scanned, "index diverged from scan");
        }
        report.record(
            format!("utility_tracking/users_of_index/{num_users}"),
            index_us,
        );
        report.record(
            format!("utility_tracking/users_of_scan/{num_users}"),
            scan_us,
        );
    }
}

/// O(changed) view-shipping scenarios (this PR): what diff-shipped cache
/// views remove from the per-apply install path, at serving scale.
///
/// * `view_diff/diff_apply/{users}` — patching the installed assignment
///   snapshot with the `ArrangementDiff` the shard recorded during the
///   apply (the worker → query-cache hot path). O(changed pairs).
/// * `view_diff/clone_from/{users}` — the pre-diff protocol: a full
///   `clone_from` of the shard's arrangement per apply. O(shard pairs)
///   even when the apply changed two rows.
///
/// Wholesale rebuilds (full re-solves, staleness adoptions) return no diff; the
/// real protocol ships a full snapshot there on both sides, so those
/// applies resync the diff-side view untimed rather than polluting the
/// diff samples.
fn view_diff_scenarios(report: &mut BenchReport) {
    for &num_users in &[10_000usize, 100_000] {
        let base = generate_synthetic(
            &SyntheticConfig {
                num_events: 50,
                num_users,
                bids_per_user: 4,
                ..SyntheticConfig::default()
            },
            7,
        );
        let trace = trace_for(&base, 256);
        let mut shard = Shard::new(
            base.clone(),
            Arc::new(NeverConflict),
            Arc::new(ConstantInterest(0.5)),
            Arc::new(GreedyArrangement),
            EngineConfig {
                seed: 5,
                staleness_check_interval: 0,
                ..EngineConfig::default()
            },
        );
        let mut diff_view = shard.arrangement().clone();
        let mut full_view = shard.arrangement().clone();
        let _ = shard.take_view_diff();
        let mut diff_us = Vec::new();
        let mut clone_us = Vec::new();
        let mut resyncs = 0usize;
        for timed in &trace.deltas {
            shard.apply(&timed.delta).expect("trace deltas are valid");
            match shard.take_view_diff() {
                Some(diff) => {
                    let start = Instant::now();
                    diff_view.apply_diff(&diff);
                    diff_us.push(start.elapsed().as_nanos() as f64 / 1_000.0);
                }
                None => {
                    diff_view.clone_from(shard.arrangement());
                    resyncs += 1;
                }
            }
            let start = Instant::now();
            full_view.clone_from(shard.arrangement());
            clone_us.push(start.elapsed().as_nanos() as f64 / 1_000.0);
        }
        assert_eq!(diff_view, full_view, "diff-patched view diverged");
        println!(
            "view_diff/{num_users}: {} diff installs, {resyncs} full resyncs",
            diff_us.len()
        );
        report.record(format!("view_diff/diff_apply/{num_users}"), diff_us);
        report.record(format!("view_diff/clone_from/{num_users}"), clone_us);
    }
    for &num_users in &[10_000usize, 100_000] {
        let speedup = report
            .mean_of(&format!("view_diff/clone_from/{num_users}"))
            .zip(report.mean_of(&format!("view_diff/diff_apply/{num_users}")))
            .map(|(clone, diff)| clone / diff);
        println!(
            "view_diff: {num_users}-user install speedup (clone_from/diff_apply): {:.1}x",
            speedup.unwrap_or(f64::NAN)
        );
    }
}

/// Serial vs pipelined client: the same query burst, once call-by-call
/// (one RTT per request) and once sent ahead with correlation-id
/// matching. Recorded per request.
fn pipeline_scenarios(report: &mut BenchReport) {
    const BURST: usize = 64;
    const ROUNDS: usize = 8;
    let dataset = generate_clustered_dataset(
        &ClusteredConfig {
            num_events: 40,
            num_users: 600,
            num_communities: 8,
            ..ClusteredConfig::default()
        },
        17,
    );
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = EngineServer::serve(
        listener,
        sharded_serving_engine(dataset.instance, 5, 4),
        ServerOptions::from(Framing::Lines),
    )
    .unwrap();
    let mut client = EngineClient::connect(handle.local_addr(), Framing::Lines).unwrap();

    let mut serial_us = Vec::new();
    for _ in 0..ROUNDS {
        for _ in 0..BURST {
            let start = Instant::now();
            client.query(EngineQuery::Utility).unwrap();
            serial_us.push(start.elapsed().as_nanos() as f64 / 1_000.0);
        }
    }
    report.record("service_dispatch/serial_query_rtt", serial_us);

    // One sample per burst (its per-request mean): pipelining only has
    // burst-granular timing, so fabricating per-request samples would
    // make the percentiles meaningless next to the serial scenario's.
    let mut pipelined_us = Vec::new();
    for _ in 0..ROUNDS {
        let burst: Vec<EngineRequest> = (0..BURST)
            .map(|_| EngineRequest::Query {
                query: EngineQuery::Utility,
            })
            .collect();
        let start = Instant::now();
        let results = client.pipeline(burst).unwrap();
        let per_request = start.elapsed().as_nanos() as f64 / 1_000.0 / BURST as f64;
        assert!(results.iter().all(|r| r.is_ok()));
        pipelined_us.push(per_request);
    }
    report.record("service_dispatch/pipelined_query_rtt", pipelined_us);

    drop(client);
    handle.shutdown().unwrap();
}

/// Repair throughput under concurrent query load: one writer applies
/// user-scoped deltas over TCP while a reader hammers either `Utility`
/// (served from the connection-thread query cache — never touches the
/// dispatch queue or the workers) or `MergedSnapshot` (still barriers
/// the worker pool per read). The comparison isolates what the read
/// *path* does to the repair path at a fixed concurrency budget: on any
/// core count, cached reads must disturb the writer far less than
/// barriering reads, and on multi-core hardware they leave apply RTT
/// essentially at its idle level (remaining single-core slowdown is CPU
/// time-sharing, not architecture).
fn concurrent_reader_scenarios(report: &mut BenchReport) {
    let dataset = generate_clustered_dataset(
        &ClusteredConfig {
            num_events: 40,
            num_users: 600,
            num_communities: 8,
            ..ClusteredConfig::default()
        },
        17,
    );
    let base = dataset.instance.clone();
    // A purely user-scoped trace (no announcements, no event-capacity
    // edits): every delta takes the worker fast path, so the writer's
    // RTT isolates exactly what reader load does to the repair path.
    let mut config = CommunityTraceConfig::partition_friendly(600, 4);
    config.base.weight_add_event = 0.0;
    config.base.weight_update_capacity = 0.0;
    let trace = generate_community_trace(&base, &dataset.event_communities, &config, 31);
    let user_deltas: Vec<InstanceDelta> = trace
        .deltas
        .into_iter()
        .map(|t| t.delta)
        .filter(|d| !is_broadcast(d))
        .collect();
    let cases: [(&str, usize, Option<EngineQuery>); 3] = [
        ("idle", 0, None),
        ("cached_reader", 1, Some(EngineQuery::Utility)),
        ("barrier_reader", 1, Some(EngineQuery::MergedSnapshot)),
    ];
    for (label, readers, query) in cases {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = EngineServer::serve(
            listener,
            sharded_serving_engine(base.clone(), 5, 4),
            ServerOptions::from(Framing::Lines),
        )
        .unwrap();
        let addr = handle.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let reader_handles: Vec<_> = (0..readers)
            .map(|_| {
                let stop = Arc::clone(&stop);
                let query = query.expect("reader cases carry a query");
                std::thread::spawn(move || {
                    let mut client = EngineClient::connect(addr, Framing::Lines).unwrap();
                    let mut queries = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        client.query(query).unwrap();
                        queries += 1;
                    }
                    queries
                })
            })
            .collect();

        let mut writer = EngineClient::connect(addr, Framing::Lines).unwrap();
        let mut rtts = Vec::with_capacity(user_deltas.len());
        for delta in &user_deltas {
            let start = Instant::now();
            writer.apply(delta.clone()).unwrap();
            rtts.push(start.elapsed().as_nanos() as f64 / 1_000.0);
        }
        stop.store(true, Ordering::Relaxed);
        let read_queries: u64 = reader_handles.into_iter().map(|h| h.join().unwrap()).sum();
        drop(writer);
        handle.shutdown().unwrap();
        println!(
            "concurrent_readers/{label}: {readers} readers answered {read_queries} queries during the write run"
        );
        report.record(format!("concurrent_readers/writer_apply_rtt/{label}"), rtts);
    }
}

/// Durability scenarios (PR 6): what write-ahead logging adds to the
/// apply hot path under each fsync policy, and how recovery time scales
/// with the length of the WAL tail that must replay.
///
/// * `durability/apply/no_wal` — the in-process apply baseline.
/// * `durability/apply/fsync_{off,interval,always}` — the same applies
///   with every request logged through a [`DurabilityController`] first
///   (frame encode + append, plus whatever the fsync policy adds).
/// * `durability/recover_tail/{n}` — wall time of `recover()` over a log
///   of `n` records and no snapshot (the worst case: the whole tail
///   replays through the standard handle path).
fn durability_scenarios(report: &mut BenchReport) {
    use igepa_engine::{recover, DurabilityController, DurabilityPolicy};

    let dataset = generate_clustered_dataset(
        &ClusteredConfig {
            num_events: 40,
            num_users: 600,
            num_communities: 8,
            ..ClusteredConfig::default()
        },
        17,
    );
    let base = dataset.instance.clone();
    let trace = generate_community_trace(
        &base,
        &dataset.event_communities,
        &CommunityTraceConfig::partition_friendly(1024, 4),
        23,
    );
    let requests: Vec<igepa_engine::EngineRequest> = trace
        .deltas
        .iter()
        .map(|t| igepa_engine::EngineRequest::Apply {
            delta: t.delta.clone(),
        })
        .collect();
    let scratch =
        std::env::temp_dir().join(format!("igepa-bench-durability-{}", std::process::id()));

    let policies: [(&str, Option<DurabilityPolicy>); 4] = [
        ("no_wal", None),
        ("fsync_off", Some(DurabilityPolicy::Off)),
        (
            "fsync_interval",
            Some(DurabilityPolicy::Interval { millis: 5 }),
        ),
        ("fsync_always", Some(DurabilityPolicy::Always)),
    ];
    for (label, policy) in policies {
        let dir = scratch.join(label);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).unwrap();
        }
        std::fs::create_dir_all(&dir).unwrap();
        let mut engine = sharded_serving_engine(base.clone(), 5, 4);
        let mut controller =
            policy.map(|p| DurabilityController::create(&dir, p).expect("scratch dir is writable"));
        let mut apply_us = Vec::with_capacity(requests.len());
        for (i, request) in requests.iter().enumerate() {
            let igepa_engine::EngineRequest::Apply { delta } = request else {
                unreachable!("the trace maps onto single applies");
            };
            let start = Instant::now();
            if let Some(controller) = &mut controller {
                controller
                    .log(i as u64 + 1, engine.catalog().epoch(), request)
                    .expect("wal append succeeds");
            }
            engine.apply(delta).expect("trace deltas are valid");
            apply_us.push(start.elapsed().as_nanos() as f64 / 1_000.0);
        }
        black_box(engine.utility());
        report.record(format!("durability/apply/{label}"), apply_us);
    }

    // Recovery time vs WAL-tail length: log the first `n` requests with
    // no checkpoint, then time full recoveries (fresh engine + replay).
    for &n in &[64usize, 256, 1024] {
        let dir = scratch.join(format!("tail-{n}"));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).unwrap();
        }
        std::fs::create_dir_all(&dir).unwrap();
        let mut engine = sharded_serving_engine(base.clone(), 5, 4);
        let mut controller = DurabilityController::create(&dir, DurabilityPolicy::Off)
            .expect("scratch dir is writable");
        for (i, request) in requests.iter().take(n).enumerate() {
            let igepa_engine::EngineRequest::Apply { delta } = request else {
                unreachable!("the trace maps onto single applies");
            };
            controller
                .log(i as u64 + 1, engine.catalog().epoch(), request)
                .expect("wal append succeeds");
            engine.apply(delta).expect("trace deltas are valid");
        }
        let expected = engine.utility();
        let mut recover_us = Vec::new();
        for _ in 0..3 {
            let start = Instant::now();
            let recovered = recover(
                &dir,
                || sharded_serving_engine(base.clone(), 5, 4),
                |_| Err("no snapshot in this scenario".to_string()),
            )
            .expect("the log recovers");
            recover_us.push(start.elapsed().as_nanos() as f64 / 1_000.0);
            assert_eq!(
                recovered.engine.utility().to_bits(),
                expected.to_bits(),
                "recovery diverged from the logged run"
            );
        }
        report.record(format!("durability/recover_tail/{n}"), recover_us);
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

criterion_group!(
    engine,
    warm_engine_replay,
    single_delta_latency,
    sharded_scaling,
    service_dispatch
);

/// Overload scenarios (PR 9): what degradation costs.
///
/// * `overload/shed_latency/cap0` — RTT of a typed `Overloaded` refusal
///   at a saturated admission gate. A shed never reaches the
///   dispatcher, the WAL or a repair worker: it is decided and answered
///   on the connection thread, so this is the floor of the engine's
///   pushback latency.
/// * `overload/degraded_reads/cap0` — RTT of cached `Utility` reads on
///   a separate connection while a flooder hammers mutations into the
///   shedding gate: the "reads keep flowing" half of the degradation
///   contract, priced.
fn overload_scenarios(report: &mut BenchReport) {
    use igepa_engine::{AdmissionPolicy, ClientError, EngineError};
    use igepa_experiments::sharded_serving_engine_with_admission;

    let dataset = generate_clustered_dataset(
        &ClusteredConfig {
            num_events: 40,
            num_users: 600,
            num_communities: 8,
            ..ClusteredConfig::default()
        },
        17,
    );
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    // Cap 0: the gate is saturated by construction, every mutation
    // sheds, and the measurements are deterministic in what they hit.
    let handle = EngineServer::serve(
        listener,
        sharded_serving_engine_with_admission(dataset.instance, 5, 4, AdmissionPolicy::bounded(0)),
        ServerOptions::from(Framing::Lines),
    )
    .unwrap();
    let addr = handle.local_addr();

    let shed_delta = InstanceDelta::UpdateInteractionScore {
        user: UserId::new(0),
        score: 0.5,
    };
    let mut client = EngineClient::connect(addr, Framing::Lines).unwrap();
    let mut rtts = Vec::with_capacity(512);
    for _ in 0..512 {
        let start = Instant::now();
        let refusal = client.apply(shed_delta.clone());
        rtts.push(start.elapsed().as_nanos() as f64 / 1_000.0);
        assert!(
            matches!(
                refusal,
                Err(ClientError::Engine(EngineError::Overloaded { .. }))
            ),
            "cap-0 server must shed every mutation"
        );
    }
    report.record("overload/shed_latency/cap0".to_string(), rtts);

    // Degraded reads: a flooder sheds continuously on one connection
    // while the measured connection reads from the barrier-free cache.
    let stop = Arc::new(AtomicBool::new(false));
    let flooder = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut client = EngineClient::connect(addr, Framing::Lines).unwrap();
            let mut sheds = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if client
                    .apply(InstanceDelta::UpdateInteractionScore {
                        user: UserId::new(0),
                        score: 0.5,
                    })
                    .is_err()
                {
                    sheds += 1;
                }
            }
            sheds
        })
    };
    let mut reader = EngineClient::connect(addr, Framing::Lines).unwrap();
    let mut rtts = Vec::with_capacity(512);
    for _ in 0..512 {
        let start = Instant::now();
        reader.query(EngineQuery::Utility).unwrap();
        rtts.push(start.elapsed().as_nanos() as f64 / 1_000.0);
    }
    stop.store(true, Ordering::Relaxed);
    let sheds = flooder.join().unwrap();
    println!("overload/degraded_reads: flooder shed {sheds} mutations during the read run");
    report.record("overload/degraded_reads/cap0".to_string(), rtts);

    drop(client);
    drop(reader);
    handle.shutdown().unwrap();
}

/// Elastic resharding scenarios (this PR): what a live migration costs.
///
/// * `reshard/migration_pause/4to6` — latency of one full 4 -> 6 grow
///   on a loaded sharded engine: the pause mutations see while users,
///   quota shares and tracker contributions move to their new owners.
/// * `reshard/per_user_move/4to6` — the same pause divided by users
///   moved: the marginal cost of migrating one user's sub-state.
///
/// Each iteration grows 4 -> 6 (measured) and shrinks back 6 -> 4
/// (unmeasured), so every sample migrates the same deterministic user
/// set from the same starting shape.
fn reshard_scenarios(report: &mut BenchReport) {
    use igepa_engine::{EngineRequest, EngineResponse};
    use igepa_experiments::sharded_serving_engine;

    let dataset = generate_clustered_dataset(
        &ClusteredConfig {
            num_events: 40,
            num_users: 600,
            num_communities: 8,
            ..ClusteredConfig::default()
        },
        17,
    );
    let trace = generate_community_trace(
        &dataset.instance,
        &dataset.event_communities,
        &CommunityTraceConfig::partition_friendly(400, 4),
        29,
    );
    let mut engine = sharded_serving_engine(dataset.instance, 5, 4);
    for timed in &trace.deltas {
        let response = engine.handle(&EngineRequest::Apply {
            delta: timed.delta.clone(),
        });
        assert!(
            matches!(response, EngineResponse::Applied { .. }),
            "generated trace applies cleanly"
        );
    }

    let mut pauses = Vec::with_capacity(64);
    let mut per_user = Vec::with_capacity(64);
    for _ in 0..64 {
        let start = Instant::now();
        let response = engine.handle(&EngineRequest::Reshard { num_shards: 6 });
        let pause = start.elapsed().as_nanos() as f64 / 1_000.0;
        let moved = match response {
            EngineResponse::Resharded { record, .. } => record.moved_users,
            other => panic!("Reshard answered {other:?}"),
        };
        assert!(moved > 0, "a loaded 4 -> 6 grow must move users");
        pauses.push(pause);
        per_user.push(pause / moved as f64);
        let shrunk = engine.handle(&EngineRequest::Reshard { num_shards: 4 });
        assert!(
            matches!(shrunk, EngineResponse::Resharded { .. }),
            "shrink back to the starting shape"
        );
    }
    report.record("reshard/migration_pause/4to6".to_string(), pauses);
    report.record("reshard/per_user_move/4to6".to_string(), per_user);
}

fn main() {
    // BENCH_JSON_ONLY=1 skips the interactive criterion groups and runs
    // just the machine-readable scenarios (the CI artifact path).
    if std::env::var("BENCH_JSON_ONLY").is_err() {
        engine();
    }
    let mut report = BenchReport::new();
    churn_scenarios(&mut report);
    view_diff_scenarios(&mut report);
    utility_tracking_scenarios(&mut report);
    pipeline_scenarios(&mut report);
    concurrent_reader_scenarios(&mut report);
    durability_scenarios(&mut report);
    overload_scenarios(&mut report);
    reshard_scenarios(&mut report);
    // Written to the workspace root so the perf trajectory is tracked
    // in one place across PRs (override with BENCH_JSON_PATH).
    report.write(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_engine.json"
    ));
}
