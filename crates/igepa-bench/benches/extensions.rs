//! Benchmarks for the extensions beyond the paper: the heuristic roster,
//! the clustered workload generator, the social-network analysis substrate
//! and the LP presolve. These back the ablation rows of EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use igepa_algos::{
    ArrangementAlgorithm, BottleneckGreedy, GreedyArrangement, Lagrangian, LpDeterministic,
    LpPacking, SimulatedAnnealing, TabuSearch,
};
use igepa_bench::bench_default_config;
use igepa_core::{AdmissibleSetIndex, EventId};
use igepa_datagen::{generate_clustered_dataset, generate_synthetic, ClusteredConfig};
use igepa_graph::{
    betweenness_centrality, closeness_centrality, core_numbers, label_propagation, pagerank,
    PageRankConfig,
};
use igepa_lp::{presolve_and_solve, LinearProgram, SimplexSolver};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;

fn configure(group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>) {
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(900));
}

/// Heuristic roster on the scaled Table I workload (ablation-extensions).
fn heuristic_roster(c: &mut Criterion) {
    let instance = generate_synthetic(&bench_default_config(), 31);
    let algorithms: Vec<(&str, Box<dyn ArrangementAlgorithm>)> = vec![
        ("LP-packing", Box::new(LpPacking::default())),
        ("LP-deterministic", Box::new(LpDeterministic::default())),
        ("Lagrangian", Box::new(Lagrangian::default())),
        ("GG", Box::new(GreedyArrangement)),
        (
            "TabuSearch",
            Box::new(TabuSearch {
                iterations: 100,
                tenure: 20,
            }),
        ),
        (
            "SimulatedAnnealing",
            Box::new(SimulatedAnnealing {
                iterations: 5_000,
                ..SimulatedAnnealing::default()
            }),
        ),
        ("Bottleneck-greedy", Box::new(BottleneckGreedy)),
    ];
    let mut group = c.benchmark_group("extensions_heuristics");
    configure(&mut group);
    for (name, algorithm) in &algorithms {
        group.bench_with_input(
            BenchmarkId::from_parameter(name),
            &instance,
            |b, instance| {
                b.iter(|| black_box(algorithm.run_seeded(instance, 5).utility(instance).total))
            },
        );
    }
    group.finish();
}

/// Paper roster on the community-structured workload (clustered table).
fn clustered_workload(c: &mut Criterion) {
    let config = ClusteredConfig {
        num_events: 20,
        num_users: 200,
        ..ClusteredConfig::small()
    };
    let dataset = generate_clustered_dataset(&config, 17);
    let mut group = c.benchmark_group("clustered_workload");
    configure(&mut group);
    group.bench_function("generate", |b| {
        b.iter(|| black_box(generate_clustered_dataset(&config, 17).instance.num_bids()))
    });
    for (name, algorithm) in igepa_bench::paper_roster() {
        group.bench_with_input(
            BenchmarkId::from_parameter(name),
            &dataset.instance,
            |b, instance| {
                b.iter(|| black_box(algorithm.run_seeded(instance, 3).utility(instance).total))
            },
        );
    }
    group.finish();
}

/// Social-network analysis substrate on a clustered friendship graph.
fn graph_analysis(c: &mut Criterion) {
    let dataset = generate_clustered_dataset(
        &ClusteredConfig {
            num_users: 400,
            ..ClusteredConfig::small()
        },
        23,
    );
    let g = dataset.network;
    let mut group = c.benchmark_group("graph_analysis");
    configure(&mut group);
    group.bench_function("closeness", |b| {
        b.iter(|| black_box(closeness_centrality(&g).len()))
    });
    group.bench_function("betweenness", |b| {
        b.iter(|| black_box(betweenness_centrality(&g).len()))
    });
    group.bench_function("pagerank", |b| {
        b.iter(|| black_box(pagerank(&g, &PageRankConfig::default()).len()))
    });
    group.bench_function("core_numbers", |b| {
        b.iter(|| black_box(core_numbers(&g).len()))
    });
    group.bench_function("label_propagation", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            black_box(label_propagation(&g, 20, &mut rng).num_communities())
        })
    });
    group.finish();
}

/// Direct simplex vs presolve + simplex on the benchmark LP.
fn presolve_speedup(c: &mut Criterion) {
    let instance = generate_synthetic(&bench_default_config(), 41);
    let admissible = AdmissibleSetIndex::build(&instance).expect("enumerable");
    let mut lp = LinearProgram::new();
    let mut event_terms: Vec<Vec<(usize, f64)>> = vec![Vec::new(); instance.num_events()];
    for user_sets in admissible.iter() {
        let mut vars = Vec::new();
        for set in &user_sets.sets {
            let var = lp.add_var(instance.set_weight(user_sets.user, set), 1.0);
            vars.push(var);
            for &v in set {
                event_terms[v.index()].push((var, 1.0));
            }
        }
        if !vars.is_empty() {
            lp.add_le_constraint(vars.into_iter().map(|v| (v, 1.0)), 1.0)
                .unwrap();
        }
    }
    for (event_index, terms) in event_terms.into_iter().enumerate() {
        if !terms.is_empty() {
            let capacity = instance.event(EventId::new(event_index)).capacity as f64;
            lp.add_le_constraint(terms, capacity).unwrap();
        }
    }

    let mut group = c.benchmark_group("lp_presolve");
    configure(&mut group);
    group.bench_function("simplex_direct", |b| {
        b.iter(|| black_box(SimplexSolver::default().solve(&lp).unwrap().objective))
    });
    group.bench_function("presolve_then_simplex", |b| {
        b.iter(|| {
            black_box(
                presolve_and_solve(&lp, &SimplexSolver::default())
                    .unwrap()
                    .objective,
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    heuristic_roster,
    clustered_workload,
    graph_analysis,
    presolve_speedup
);
criterion_main!(benches);
