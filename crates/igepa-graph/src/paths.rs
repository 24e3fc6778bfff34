//! Shortest-path utilities over the (unweighted) social network.
//!
//! The interaction-aware utility of the paper only needs vertex degrees, but
//! the ablation studies (alternative interaction measures, workload
//! reporting) and the community/centrality modules need breadth-first
//! distances, eccentricities and connectivity checks. Everything here is
//! plain BFS on the compact adjacency representation of
//! [`SocialNetwork`].

use crate::graph::SocialNetwork;
use std::collections::VecDeque;

/// Distance value used for unreachable vertices.
pub const UNREACHABLE: usize = usize::MAX;

/// Breadth-first distances from `source` to every vertex.
///
/// Unreachable vertices get [`UNREACHABLE`]. The source itself has distance
/// zero. Runs in `O(|U| + |E|)`.
pub fn bfs_distances(g: &SocialNetwork, source: usize) -> Vec<usize> {
    let n = g.num_users();
    let mut dist = vec![UNREACHABLE; n];
    if source >= n {
        return dist;
    }
    let mut queue = VecDeque::new();
    dist[source] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let next = dist[u] + 1;
        for &w in g.neighbors(u) {
            let w = w as usize;
            if dist[w] == UNREACHABLE {
                dist[w] = next;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// The eccentricity of `source`: the largest finite BFS distance from it.
///
/// Returns `None` when the vertex has no reachable neighbours (isolated
/// vertex) or is out of range.
pub fn eccentricity(g: &SocialNetwork, source: usize) -> Option<usize> {
    if source >= g.num_users() {
        return None;
    }
    let dist = bfs_distances(g, source);
    dist.iter()
        .filter(|&&d| d != UNREACHABLE && d > 0)
        .max()
        .copied()
}

/// Exact diameter of the graph: the largest eccentricity over all vertices
/// in the same connected component.
///
/// Returns `None` for graphs without any edge. Runs one BFS per vertex, so
/// it is intended for the instance sizes of the paper's evaluation
/// (thousands of users), not for web-scale graphs.
pub fn diameter(g: &SocialNetwork) -> Option<usize> {
    (0..g.num_users()).filter_map(|u| eccentricity(g, u)).max()
}

/// Average shortest-path length over all ordered reachable pairs `(u, w)`,
/// `u != w`. Returns `None` when no pair is connected.
pub fn average_path_length(g: &SocialNetwork) -> Option<f64> {
    let n = g.num_users();
    let mut total = 0usize;
    let mut pairs = 0usize;
    for u in 0..n {
        for (w, &d) in bfs_distances(g, u).iter().enumerate() {
            if w != u && d != UNREACHABLE {
                total += d;
                pairs += 1;
            }
        }
    }
    if pairs == 0 {
        None
    } else {
        Some(total as f64 / pairs as f64)
    }
}

/// Whether every vertex can reach every other vertex.
///
/// The empty graph and the single-vertex graph are considered connected.
pub fn is_connected(g: &SocialNetwork) -> bool {
    let n = g.num_users();
    if n <= 1 {
        return true;
    }
    bfs_distances(g, 0).iter().all(|&d| d != UNREACHABLE)
}

/// Number of vertices reachable from `source`, including the source itself.
pub fn reachable_count(g: &SocialNetwork, source: usize) -> usize {
    bfs_distances(g, source)
        .iter()
        .filter(|&&d| d != UNREACHABLE)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn path_graph(n: usize) -> SocialNetwork {
        SocialNetwork::from_edges(n, (0..n.saturating_sub(1)).map(|i| (i, i + 1)))
    }

    #[test]
    fn bfs_on_a_path_counts_hops() {
        let g = path_graph(5);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
        let d = bfs_distances(&g, 2);
        assert_eq!(d, vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn unreachable_vertices_are_marked() {
        let mut g = SocialNetwork::new(4);
        g.add_edge(0, 1);
        // vertices 2 and 3 are isolated from 0/1
        let d = bfs_distances(&g, 0);
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHABLE);
        assert_eq!(d[3], UNREACHABLE);
    }

    #[test]
    fn out_of_range_source_yields_all_unreachable() {
        let g = path_graph(3);
        let d = bfs_distances(&g, 99);
        assert!(d.iter().all(|&x| x == UNREACHABLE));
        assert_eq!(eccentricity(&g, 99), None);
    }

    #[test]
    fn diameter_of_a_path_is_its_length() {
        assert_eq!(diameter(&path_graph(6)), Some(5));
        assert_eq!(diameter(&path_graph(2)), Some(1));
    }

    #[test]
    fn diameter_of_edgeless_graph_is_none() {
        let g = SocialNetwork::new(7);
        assert_eq!(diameter(&g), None);
        assert_eq!(average_path_length(&g), None);
    }

    #[test]
    fn eccentricity_of_path_center_is_half() {
        let g = path_graph(5);
        assert_eq!(eccentricity(&g, 2), Some(2));
        assert_eq!(eccentricity(&g, 0), Some(4));
    }

    #[test]
    fn average_path_length_of_a_triangle_is_one() {
        let g = SocialNetwork::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
        let apl = average_path_length(&g).unwrap();
        assert!((apl - 1.0).abs() < 1e-12);
    }

    #[test]
    fn connectivity_checks() {
        assert!(is_connected(&SocialNetwork::new(0)));
        assert!(is_connected(&SocialNetwork::new(1)));
        assert!(is_connected(&path_graph(10)));
        let mut g = path_graph(4);
        assert!(is_connected(&g));
        g.add_edge(0, 3);
        assert!(is_connected(&g));
        let disconnected = SocialNetwork::from_edges(4, [(0, 1)]);
        assert!(!is_connected(&disconnected));
    }

    #[test]
    fn reachable_count_matches_component_size() {
        let g = SocialNetwork::from_edges(6, [(0, 1), (1, 2), (3, 4)]);
        assert_eq!(reachable_count(&g, 0), 3);
        assert_eq!(reachable_count(&g, 3), 2);
        assert_eq!(reachable_count(&g, 5), 1);
    }

    #[test]
    fn dense_random_graph_has_small_diameter() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = generators::erdos_renyi(60, 0.5, &mut rng);
        // With p = 0.5 on 60 vertices the graph is almost surely connected
        // with diameter 2.
        assert!(is_connected(&g));
        assert!(diameter(&g).unwrap() <= 3);
    }

    #[test]
    fn bfs_distance_satisfies_triangle_inequality_on_random_graph() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::erdos_renyi(40, 0.15, &mut rng);
        let d0 = bfs_distances(&g, 0);
        for mid in 0..g.num_users() {
            if d0[mid] == UNREACHABLE {
                continue;
            }
            let dm = bfs_distances(&g, mid);
            for target in 0..g.num_users() {
                if d0[target] != UNREACHABLE && dm[target] != UNREACHABLE {
                    assert!(d0[target] <= d0[mid] + dm[target]);
                }
            }
        }
    }
}
