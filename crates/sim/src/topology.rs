//! Abstract topology generators.
//!
//! These produce edge lists over `0..n` vertex indices; callers create the
//! node agents and then [`crate::Sim::connect`] along each edge. Keeping the
//! graph abstract lets the RINA and the baseline Internet stacks be laid
//! over the *same* physical topology in comparison experiments.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// An undirected edge between two vertex indices.
pub type Edge = (usize, usize);

/// A chain `0 - 1 - ... - (n-1)`.
pub fn line(n: usize) -> Vec<Edge> {
    (1..n).map(|i| (i - 1, i)).collect()
}

/// A star with vertex 0 at the centre and `n-1` leaves.
pub fn star(n: usize) -> Vec<Edge> {
    (1..n).map(|i| (0, i)).collect()
}

/// A ring `0 - 1 - ... - (n-1) - 0`. Requires `n >= 3`.
pub fn ring(n: usize) -> Vec<Edge> {
    assert!(n >= 3, "a ring needs at least 3 vertices");
    let mut e = line(n);
    e.push((n - 1, 0));
    e
}

/// A complete `fanout`-ary tree of the given `depth` (root has depth 0).
/// Returns the edges and the total vertex count. Vertices are numbered in
/// BFS order, so the root is 0 and leaves occupy the tail of the range.
pub fn tree(fanout: usize, depth: usize) -> (Vec<Edge>, usize) {
    assert!(fanout >= 1);
    let mut edges = Vec::new();
    let mut level: Vec<usize> = vec![0];
    let mut next_id = 1usize;
    for _ in 0..depth {
        let mut next_level = Vec::new();
        for &p in &level {
            for _ in 0..fanout {
                edges.push((p, next_id));
                next_level.push(next_id);
                next_id += 1;
            }
        }
        level = next_level;
    }
    (edges, next_id)
}

/// A complete graph over `n` vertices.
pub fn full_mesh(n: usize) -> Vec<Edge> {
    let mut e = Vec::with_capacity(n * n.saturating_sub(1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            e.push((i, j));
        }
    }
    e
}

/// A Barabási–Albert preferential-attachment graph: scale-free degree
/// distribution, deterministic in `seed`.
///
/// Starts from a clique of `m + 1` seed vertices; each subsequent vertex
/// attaches `m` edges to distinct existing vertices chosen with
/// probability proportional to their current degree — the "rich get
/// richer" process behind hub-dominated internetworks. Requires
/// `n > m >= 1`.
pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> Vec<Edge> {
    assert!(m >= 1 && n > m, "barabasi_albert needs n > m >= 1");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = full_mesh(m + 1);
    // Degree-weighted sampling by repeated vertex endpoints: each edge
    // contributes both ends, so a uniform pick over `ends` is a pick
    // proportional to degree.
    let mut ends: Vec<usize> = edges.iter().flat_map(|&(a, b)| [a, b]).collect();
    for v in (m + 1)..n {
        let mut targets: Vec<usize> = Vec::with_capacity(m);
        while targets.len() < m {
            let t = ends[rng.gen_range(0..ends.len())];
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in &targets {
            edges.push((t, v));
            ends.push(t);
            ends.push(v);
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn connected(n: usize, edges: &[Edge]) -> bool {
        let mut adj = vec![vec![]; n];
        for &(a, b) in edges {
            adj[a].push(b);
            adj[b].push(a);
        }
        let mut seen = BTreeSet::from([0usize]);
        let mut stack = vec![0usize];
        while let Some(v) = stack.pop() {
            for &w in &adj[v] {
                if seen.insert(w) {
                    stack.push(w);
                }
            }
        }
        seen.len() == n
    }

    #[test]
    fn line_star_ring_shapes() {
        assert_eq!(line(4), vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(star(4), vec![(0, 1), (0, 2), (0, 3)]);
        assert_eq!(ring(3).len(), 3);
        assert!(connected(5, &line(5)));
        assert!(connected(5, &star(5)));
    }

    #[test]
    fn tree_counts() {
        let (edges, total) = tree(2, 3);
        assert_eq!(total, 1 + 2 + 4 + 8);
        assert_eq!(edges.len(), total - 1);
        assert!(connected(total, &edges));
    }

    #[test]
    fn full_mesh_shape() {
        let e = full_mesh(5);
        assert_eq!(e.len(), 10);
        assert!(connected(5, &e));
    }

    #[test]
    fn barabasi_albert_is_connected_deterministic_and_hubby() {
        let e1 = barabasi_albert(100, 2, 7);
        let e2 = barabasi_albert(100, 2, 7);
        assert_eq!(e1, e2, "deterministic under a fixed seed");
        assert_ne!(e1, barabasi_albert(100, 2, 8), "seed-sensitive");
        // Clique of m+1=3 (3 edges) + 2 per later vertex.
        assert_eq!(e1.len(), 3 + 97 * 2);
        assert!(connected(100, &e1));
        // Scale-free: some vertex far exceeds the mean degree (~4).
        let mut deg = vec![0usize; 100];
        for &(a, b) in &e1 {
            deg[a] += 1;
            deg[b] += 1;
        }
        assert!(deg.iter().copied().max().unwrap() >= 12, "max degree {:?}", deg.iter().max());
    }
}
