//! Integration tests for the social-network analysis substrate: centrality,
//! community detection and alternative interaction measures, wired into
//! real workload instances.

use igepa::core::{InstanceSnapshot, UserId};
use igepa::datagen::{
    generate_clustered_dataset, generate_meetup_dataset, ClusteredConfig, MeetupConfig,
};
use igepa::graph::{
    betweenness_centrality, closeness_centrality, core_numbers, degree_centrality, diameter,
    is_connected, label_propagation, modularity, pagerank, InteractionMeasure, PageRankConfig,
    Partition,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn centralities_are_consistent_on_the_meetup_network() {
    let dataset = generate_meetup_dataset(&MeetupConfig::small(), 3);
    let g = &dataset.network;
    let n = g.num_users();
    assert!(n > 0);

    let degree = degree_centrality(g);
    let closeness = closeness_centrality(g);
    let betweenness = betweenness_centrality(g);
    let pr = pagerank(g, &PageRankConfig::default());
    let core = core_numbers(g);

    assert_eq!(degree.len(), n);
    assert_eq!(closeness.len(), n);
    assert_eq!(betweenness.len(), n);
    assert_eq!(pr.len(), n);
    assert_eq!(core.len(), n);

    // PageRank is a distribution.
    let pr_sum: f64 = pr.iter().sum();
    assert!((pr_sum - 1.0).abs() < 1e-6);

    // Scores are within their documented ranges and isolated users score 0.
    for u in 0..n {
        assert!((0.0..=1.0 + 1e-9).contains(&degree[u]));
        assert!((0.0..=1.0 + 1e-9).contains(&closeness[u]));
        assert!((0.0..=1.0 + 1e-9).contains(&betweenness[u]));
        assert!(core[u] <= g.degree(u));
        if g.degree(u) == 0 {
            assert_eq!(degree[u], 0.0);
            assert_eq!(closeness[u], 0.0);
        }
    }

    // The degree centrality must equal the instance's interaction scores
    // (Definition 6) because the Meetup generator uses exactly that rule.
    for u in 0..n {
        assert!(
            (degree[u] - dataset.instance.interaction(UserId::new(u))).abs() < 1e-9,
            "user {u}"
        );
    }
}

#[test]
fn community_detection_recovers_planted_clusters() {
    let config = ClusteredConfig {
        num_users: 160,
        num_communities: 4,
        p_intra: 0.35,
        p_inter: 0.004,
        ..ClusteredConfig::small()
    };
    let dataset = generate_clustered_dataset(&config, 13);
    let g = &dataset.network;
    let planted = Partition::from_labels(dataset.user_communities.clone());
    let q_planted = modularity(g, &planted);
    assert!(q_planted > 0.4, "planted modularity {q_planted}");

    let mut rng = StdRng::seed_from_u64(2);
    let lp = label_propagation(g, 40, &mut rng);
    let q_lp = modularity(g, &lp);
    assert!(
        q_lp > 0.5 * q_planted,
        "label propagation modularity {q_lp} too far below planted {q_planted}"
    );
}

#[test]
fn path_metrics_behave_on_generated_networks() {
    let dataset = generate_clustered_dataset(&ClusteredConfig::small(), 21);
    let g = &dataset.network;
    if let Some(d) = diameter(g) {
        assert!(d >= 1);
        assert!(d < g.num_users());
    }
    // Connectivity is consistent with the diameter being defined over the
    // largest component only.
    let _ = is_connected(g);
}

#[test]
fn every_interaction_measure_yields_a_valid_instance() {
    let dataset = generate_clustered_dataset(&ClusteredConfig::tiny(), 7);
    for measure in InteractionMeasure::all() {
        let scores = measure.scores(&dataset.network);
        assert_eq!(scores.len(), dataset.instance.num_users());
        let mut snapshot = InstanceSnapshot::capture(&dataset.instance);
        snapshot.interaction = scores.clone();
        let rescored = snapshot
            .restore()
            .unwrap_or_else(|e| panic!("measure {measure} produced an invalid instance: {e}"));
        for (u, &score) in scores.iter().enumerate() {
            assert!((rescored.interaction(UserId::new(u)) - score).abs() < 1e-12);
        }
    }
}

#[test]
fn interaction_measures_rank_a_planted_hub_first() {
    // Build a clustered dataset, then add a user who is friends with
    // everyone: every measure must rank that user at the top.
    let dataset = generate_clustered_dataset(&ClusteredConfig::tiny(), 2);
    let n = dataset.network.num_users();
    let mut g = igepa::graph::SocialNetwork::new(n + 1);
    for (a, b) in dataset.network.edges() {
        g.add_edge(a, b);
    }
    for other in 0..n {
        g.add_edge(n, other);
    }
    for measure in InteractionMeasure::all() {
        let scores = measure.scores(&g);
        let hub = scores[n];
        for (u, &score) in scores.iter().enumerate().take(n) {
            assert!(
                hub >= score - 1e-9,
                "{measure}: hub {hub} ranked below user {u} ({score})"
            );
        }
    }
}
