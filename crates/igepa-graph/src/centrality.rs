//! Vertex centrality measures for the social network.
//!
//! The paper measures a participant's "degree of potential interaction" by
//! their (normalised) degree, citing Freeman's classical centrality work.
//! Degree is only one point in that design space, so the reproduction also
//! implements the other standard centralities — closeness, betweenness,
//! PageRank, eigenvector and core number — which the ablation experiments
//! plug into the utility in place of `D(G, u)` to check how sensitive the
//! algorithm ordering is to the chosen interaction measure.
//!
//! All functions return one score per vertex, indexed by the vertex id used
//! by [`SocialNetwork`].

use crate::graph::SocialNetwork;
use crate::paths::{bfs_distances, UNREACHABLE};
use std::collections::VecDeque;

/// Degree centrality: `deg(u) / (n - 1)`, the paper's `D(G, u)`.
///
/// Graphs with fewer than two vertices get all-zero scores.
pub fn degree_centrality(g: &SocialNetwork) -> Vec<f64> {
    let n = g.num_users();
    if n <= 1 {
        return vec![0.0; n];
    }
    let norm = (n - 1) as f64;
    (0..n).map(|u| g.degree(u) as f64 / norm).collect()
}

/// Harmonic closeness centrality: `Σ_{w != u, reachable} 1 / d(u, w)`,
/// normalised by `n - 1` so scores stay in `[0, 1]`.
///
/// The harmonic form is used (rather than the classical reciprocal of the
/// distance sum) because EBSN friendship graphs are frequently disconnected
/// and harmonic closeness handles unreachable pairs gracefully.
pub fn closeness_centrality(g: &SocialNetwork) -> Vec<f64> {
    let n = g.num_users();
    if n <= 1 {
        return vec![0.0; n];
    }
    let norm = (n - 1) as f64;
    (0..n)
        .map(|u| {
            bfs_distances(g, u)
                .iter()
                .enumerate()
                .filter(|&(w, &d)| w != u && d != UNREACHABLE)
                .map(|(_, &d)| 1.0 / d as f64)
                .sum::<f64>()
                / norm
        })
        .collect()
}

/// Betweenness centrality via Brandes' algorithm (unweighted graphs).
///
/// Scores are normalised by `(n - 1)(n - 2) / 2`, the number of vertex
/// pairs a vertex could possibly lie between, so a vertex through which
/// every shortest path passes scores 1.
pub fn betweenness_centrality(g: &SocialNetwork) -> Vec<f64> {
    let n = g.num_users();
    let mut centrality = vec![0.0; n];
    if n < 3 {
        return centrality;
    }

    for s in 0..n {
        // Single-source shortest-path DAG via BFS.
        let mut stack: Vec<usize> = Vec::with_capacity(n);
        let mut predecessors: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut sigma = vec![0.0_f64; n];
        let mut dist = vec![-1_i64; n];
        sigma[s] = 1.0;
        dist[s] = 0;
        let mut queue = VecDeque::new();
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            stack.push(v);
            for &w in g.neighbors(v) {
                let w = w as usize;
                if dist[w] < 0 {
                    dist[w] = dist[v] + 1;
                    queue.push_back(w);
                }
                if dist[w] == dist[v] + 1 {
                    sigma[w] += sigma[v];
                    predecessors[w].push(v);
                }
            }
        }
        // Back-propagation of dependencies.
        let mut delta = vec![0.0_f64; n];
        while let Some(w) = stack.pop() {
            for &v in &predecessors[w] {
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
            }
            if w != s {
                centrality[w] += delta[w];
            }
        }
    }

    // Undirected graph: each pair was counted twice (once per endpoint as
    // the BFS source), and normalise to [0, 1].
    let norm = ((n - 1) * (n - 2)) as f64;
    for c in &mut centrality {
        *c /= norm;
    }
    centrality
}

/// Configuration for the PageRank power iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRankConfig {
    /// Damping factor, conventionally 0.85.
    pub damping: f64,
    /// Maximum number of power iterations.
    pub max_iterations: usize,
    /// L1 convergence tolerance between successive iterations.
    pub tolerance: f64,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            damping: 0.85,
            max_iterations: 200,
            tolerance: 1e-10,
        }
    }
}

/// PageRank over the (symmetric) friendship graph.
///
/// Isolated vertices behave as dangling nodes: their mass is redistributed
/// uniformly. The result sums to one over all vertices.
pub fn pagerank(g: &SocialNetwork, config: &PageRankConfig) -> Vec<f64> {
    let n = g.num_users();
    if n == 0 {
        return Vec::new();
    }
    let uniform = 1.0 / n as f64;
    let mut rank = vec![uniform; n];
    let degrees: Vec<usize> = (0..n).map(|u| g.degree(u)).collect();

    for _ in 0..config.max_iterations {
        let dangling_mass: f64 = (0..n).filter(|&u| degrees[u] == 0).map(|u| rank[u]).sum();
        let mut next =
            vec![(1.0 - config.damping) * uniform + config.damping * dangling_mass * uniform; n];
        for u in 0..n {
            if degrees[u] == 0 {
                continue;
            }
            let share = config.damping * rank[u] / degrees[u] as f64;
            for &w in g.neighbors(u) {
                next[w as usize] += share;
            }
        }
        let diff: f64 = rank
            .iter()
            .zip(next.iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        rank = next;
        if diff < config.tolerance {
            break;
        }
    }
    rank
}

/// Eigenvector centrality by power iteration, normalised so the largest
/// score is 1. Vertices in components without edges score 0.
pub fn eigenvector_centrality(
    g: &SocialNetwork,
    max_iterations: usize,
    tolerance: f64,
) -> Vec<f64> {
    let n = g.num_users();
    if n == 0 {
        return Vec::new();
    }
    if g.num_edges() == 0 {
        return vec![0.0; n];
    }
    let mut x = vec![1.0 / (n as f64).sqrt(); n];
    for _ in 0..max_iterations.max(1) {
        // Iterate with A + I rather than A: the dominant eigenvector is the
        // same, but the shift prevents the period-two oscillation that plain
        // power iteration exhibits on bipartite graphs (e.g. stars).
        let mut next = x.clone();
        for u in 0..n {
            for &w in g.neighbors(u) {
                next[w as usize] += x[u];
            }
        }
        let norm = next.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm <= f64::EPSILON {
            return vec![0.0; n];
        }
        for v in &mut next {
            *v /= norm;
        }
        let diff: f64 = x.iter().zip(next.iter()).map(|(a, b)| (a - b).abs()).sum();
        x = next;
        if diff < tolerance {
            break;
        }
    }
    let max = x.iter().cloned().fold(0.0_f64, f64::max);
    if max <= f64::EPSILON {
        vec![0.0; n]
    } else {
        x.into_iter().map(|v| v / max).collect()
    }
}

/// Core number of every vertex (k-core decomposition).
///
/// The core number of `u` is the largest `k` such that `u` belongs to a
/// subgraph in which every vertex has degree at least `k`. Computed with
/// the standard peeling algorithm in `O(|E| + |U|)`.
pub fn core_numbers(g: &SocialNetwork) -> Vec<usize> {
    let n = g.num_users();
    if n == 0 {
        return Vec::new();
    }
    let mut degree: Vec<usize> = (0..n).map(|u| g.degree(u)).collect();
    let max_degree = degree.iter().copied().max().unwrap_or(0);

    // Bucket sort vertices by current degree.
    let mut bins = vec![0usize; max_degree + 2];
    for &d in &degree {
        bins[d] += 1;
    }
    let mut start = 0;
    for b in bins.iter_mut() {
        let count = *b;
        *b = start;
        start += count;
    }
    let mut position = vec![0usize; n];
    let mut order = vec![0usize; n];
    for u in 0..n {
        position[u] = bins[degree[u]];
        order[position[u]] = u;
        bins[degree[u]] += 1;
    }
    // Restore bin starts.
    for d in (1..bins.len()).rev() {
        bins[d] = bins[d - 1];
    }
    bins[0] = 0;

    let mut core = degree.clone();
    for i in 0..n {
        let u = order[i];
        core[u] = degree[u];
        for &w in g.neighbors(u) {
            let w = w as usize;
            if degree[w] > degree[u] {
                // Move w one bucket down: swap it with the first vertex of
                // its current bucket, then shift the bucket boundary.
                let dw = degree[w];
                let pw = position[w];
                let ps = bins[dw];
                let s = order[ps];
                if s != w {
                    order[pw] = s;
                    order[ps] = w;
                    position[w] = ps;
                    position[s] = pw;
                }
                bins[dw] += 1;
                degree[w] -= 1;
            }
        }
    }
    core
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn star(n: usize) -> SocialNetwork {
        SocialNetwork::from_edges(n, (1..n).map(|i| (0, i)))
    }

    fn path(n: usize) -> SocialNetwork {
        SocialNetwork::from_edges(n, (0..n - 1).map(|i| (i, i + 1)))
    }

    #[test]
    fn degree_centrality_matches_paper_definition() {
        let g = star(5);
        let c = degree_centrality(&g);
        assert!((c[0] - 1.0).abs() < 1e-12);
        for leaf in 1..5 {
            assert!((c[leaf] - 0.25).abs() < 1e-12);
        }
        assert_eq!(degree_centrality(&SocialNetwork::new(1)), vec![0.0]);
    }

    #[test]
    fn degree_centrality_agrees_with_graph_method() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::erdos_renyi(50, 0.2, &mut rng);
        let ours = degree_centrality(&g);
        let theirs = g.degrees_of_potential_interaction();
        for (a, b) in ours.iter().zip(theirs.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn closeness_is_highest_at_the_star_center() {
        let g = star(6);
        let c = closeness_centrality(&g);
        assert!((c[0] - 1.0).abs() < 1e-12);
        for leaf in 1..6 {
            assert!(c[leaf] < c[0]);
            // leaf: 1 direct + 4 at distance 2 → (1 + 4·0.5) / 5 = 0.6
            assert!((c[leaf] - 0.6).abs() < 1e-12);
        }
    }

    #[test]
    fn closeness_handles_disconnected_graphs() {
        let g = SocialNetwork::from_edges(4, [(0, 1)]);
        let c = closeness_centrality(&g);
        assert!((c[0] - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(c[2], 0.0);
        assert_eq!(c[3], 0.0);
    }

    #[test]
    fn betweenness_of_a_path_peaks_in_the_middle() {
        let g = path(5);
        let c = betweenness_centrality(&g);
        // Endpoints lie on no shortest path between other vertices.
        assert!(c[0].abs() < 1e-12);
        assert!(c[4].abs() < 1e-12);
        // The middle vertex lies on paths between {0,1} × {3,4} and is the
        // unique interior vertex for (1,3) etc.
        assert!(c[2] > c[1]);
        assert!(c[1] > 0.0);
        // Vertex 2 separates 2×2 pairs plus (1,3): 4 + 1 = 5 of the 6 pairs? no:
        // pairs not involving 2: (0,1),(0,3),(0,4),(1,3),(1,4),(3,4) = 6 pairs,
        // those passing through 2: (0,3),(0,4),(1,3),(1,4) = 4 → 4/6.
        assert!((c[2] - 4.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn betweenness_of_star_center_is_one() {
        let g = star(7);
        let c = betweenness_centrality(&g);
        assert!((c[0] - 1.0).abs() < 1e-9);
        for leaf in 1..7 {
            assert!(c[leaf].abs() < 1e-12);
        }
    }

    #[test]
    fn betweenness_of_complete_graph_is_zero() {
        let n = 6;
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                edges.push((a, b));
            }
        }
        let g = SocialNetwork::from_edges(n, edges);
        for c in betweenness_centrality(&g) {
            assert!(c.abs() < 1e-12);
        }
    }

    #[test]
    fn pagerank_sums_to_one_and_favours_hubs() {
        let g = star(10);
        let pr = pagerank(&g, &PageRankConfig::default());
        let total: f64 = pr.iter().sum();
        assert!((total - 1.0).abs() < 1e-6);
        for leaf in 1..10 {
            assert!(pr[0] > pr[leaf]);
        }
    }

    #[test]
    fn pagerank_of_edgeless_graph_is_uniform() {
        let g = SocialNetwork::new(4);
        let pr = pagerank(&g, &PageRankConfig::default());
        for score in pr {
            assert!((score - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn pagerank_is_uniform_on_vertex_transitive_graphs() {
        // A cycle: every vertex is equivalent, so PageRank must be uniform.
        let n = 8;
        let g = SocialNetwork::from_edges(n, (0..n).map(|i| (i, (i + 1) % n)));
        let pr = pagerank(&g, &PageRankConfig::default());
        for score in pr {
            assert!((score - 1.0 / n as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn eigenvector_centrality_peaks_at_the_hub() {
        let g = star(8);
        let c = eigenvector_centrality(&g, 500, 1e-12);
        assert!((c[0] - 1.0).abs() < 1e-9);
        for leaf in 1..8 {
            assert!(c[leaf] < 1.0);
            assert!(c[leaf] > 0.0);
        }
    }

    #[test]
    fn eigenvector_centrality_of_edgeless_graph_is_zero() {
        let g = SocialNetwork::new(5);
        assert_eq!(eigenvector_centrality(&g, 100, 1e-9), vec![0.0; 5]);
    }

    #[test]
    fn core_numbers_of_path_and_clique() {
        let g = path(6);
        assert_eq!(core_numbers(&g), vec![1, 1, 1, 1, 1, 1]);

        let n = 5;
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                edges.push((a, b));
            }
        }
        let clique = SocialNetwork::from_edges(n, edges);
        assert_eq!(core_numbers(&clique), vec![4; 5]);
    }

    #[test]
    fn core_numbers_of_clique_with_pendant() {
        // Triangle {0,1,2} plus pendant vertex 3 attached to 0.
        let g = SocialNetwork::from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3)]);
        let core = core_numbers(&g);
        assert_eq!(core, vec![2, 2, 2, 1]);
    }

    #[test]
    fn core_numbers_never_exceed_degree() {
        let mut rng = StdRng::seed_from_u64(17);
        let g = generators::erdos_renyi(80, 0.1, &mut rng);
        let core = core_numbers(&g);
        for u in 0..g.num_users() {
            assert!(core[u] <= g.degree(u));
        }
    }

    #[test]
    fn centralities_have_one_score_per_vertex() {
        let mut rng = StdRng::seed_from_u64(23);
        let g = generators::barabasi_albert(60, 3, &mut rng);
        let n = g.num_users();
        assert_eq!(degree_centrality(&g).len(), n);
        assert_eq!(closeness_centrality(&g).len(), n);
        assert_eq!(betweenness_centrality(&g).len(), n);
        assert_eq!(pagerank(&g, &PageRankConfig::default()).len(), n);
        assert_eq!(eigenvector_centrality(&g, 100, 1e-9).len(), n);
        assert_eq!(core_numbers(&g).len(), n);
    }
}
