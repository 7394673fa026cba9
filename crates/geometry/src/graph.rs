//! Undirected graphs over indexed point sets.
//!
//! The routing stack manipulates several geometric graphs (unit-disk graph,
//! local Delaunay triangulation, …) that all share the same vertex set: the
//! node indices of a deployment. [`Graph`] is a simple adjacency-list
//! representation with the traversals the GLR protocol and the evaluation
//! harness need: k-hop neighbourhoods, connected components and
//! Euclidean-weighted shortest paths. [`is_plane_drawing`] checks that a
//! graph drawn at given positions has no crossing edges.

use crate::point::Point2;
use crate::predicates::segments_cross;
use std::collections::{BinaryHeap, VecDeque};

/// An undirected graph on vertices `0..n`.
///
/// Parallel edges are ignored; self-loops are rejected.
///
/// # Examples
///
/// ```
/// use glr_geometry::Graph;
///
/// let mut g = Graph::new(4);
/// g.add_edge(0, 1);
/// g.add_edge(1, 2);
/// assert!(g.has_edge(0, 1));
/// assert!(!g.has_edge(0, 2));
/// assert_eq!(g.neighbors(1).len(), 2);
/// assert_eq!(g.connected_components().len(), 2); // {0,1,2} and {3}
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Graph {
    adj: Vec<Vec<usize>>,
    edge_count: usize,
}

impl Graph {
    /// Creates an edgeless graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
            edge_count: 0,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// `true` when the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Number of (undirected) edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Adds the undirected edge `uv`. Duplicate insertions are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` (self-loop) or either endpoint is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        assert!(u != v, "self-loops are not allowed (vertex {u})");
        assert!(
            u < self.len() && v < self.len(),
            "edge ({u}, {v}) out of range for {} vertices",
            self.len()
        );
        if self.adj[u].contains(&v) {
            return;
        }
        self.adj[u].push(v);
        self.adj[v].push(u);
        self.edge_count += 1;
    }

    /// `true` when the edge `uv` is present.
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adj[u].contains(&v)
    }

    /// Neighbours of `u`, in insertion order.
    #[inline]
    pub fn neighbors(&self, u: usize) -> &[usize] {
        &self.adj[u]
    }

    /// Iterates over every undirected edge exactly once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.adj
            .iter()
            .enumerate()
            .flat_map(|(u, nbrs)| nbrs.iter().filter(move |&&v| u < v).map(move |&v| (u, v)))
    }

    /// Vertices within `k` hops of `u`, **including** `u` itself.
    ///
    /// The result is sorted. `k = 0` yields `[u]`.
    ///
    /// ```
    /// # use glr_geometry::Graph;
    /// let mut g = Graph::new(5);
    /// g.add_edge(0, 1);
    /// g.add_edge(1, 2);
    /// g.add_edge(2, 3);
    /// assert_eq!(g.k_hop_neighborhood(0, 2), vec![0, 1, 2]);
    /// ```
    pub fn k_hop_neighborhood(&self, u: usize, k: usize) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.len()];
        let mut queue = VecDeque::new();
        dist[u] = 0;
        queue.push_back(u);
        let mut out = vec![u];
        while let Some(v) = queue.pop_front() {
            if dist[v] == k {
                continue;
            }
            for &w in &self.adj[v] {
                if dist[w] == usize::MAX {
                    dist[w] = dist[v] + 1;
                    out.push(w);
                    queue.push_back(w);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Connected components, each sorted, ordered by smallest member.
    pub fn connected_components(&self) -> Vec<Vec<usize>> {
        let mut seen = vec![false; self.len()];
        let mut comps = Vec::new();
        for start in 0..self.len() {
            if seen[start] {
                continue;
            }
            let mut comp = Vec::new();
            let mut stack = vec![start];
            seen[start] = true;
            while let Some(v) = stack.pop() {
                comp.push(v);
                for &w in &self.adj[v] {
                    if !seen[w] {
                        seen[w] = true;
                        stack.push(w);
                    }
                }
            }
            comp.sort_unstable();
            comps.push(comp);
        }
        comps
    }

    /// `true` when every vertex is reachable from every other (or `n <= 1`).
    pub fn is_connected(&self) -> bool {
        self.connected_components().len() <= 1
    }

    /// Euclidean-weighted shortest-path distances from `src` using the given
    /// vertex positions (Dijkstra). Unreachable vertices get `f64::INFINITY`.
    ///
    /// # Panics
    ///
    /// Panics if `positions.len() != self.len()`.
    pub fn euclidean_shortest_paths(&self, src: usize, positions: &[Point2]) -> Vec<f64> {
        assert_eq!(
            positions.len(),
            self.len(),
            "positions length must match vertex count"
        );
        let mut dist = vec![f64::INFINITY; self.len()];
        dist[src] = 0.0;
        // Max-heap on negated distance.
        let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();
        heap.push(HeapEntry {
            dist: 0.0,
            vertex: src,
        });
        while let Some(HeapEntry { dist: d, vertex: v }) = heap.pop() {
            if d > dist[v] {
                continue;
            }
            for &w in &self.adj[v] {
                let nd = d + positions[v].dist(positions[w]);
                if nd < dist[w] {
                    dist[w] = nd;
                    heap.push(HeapEntry {
                        dist: nd,
                        vertex: w,
                    });
                }
            }
        }
        dist
    }
}

/// `true` when the graph drawn with straight edges at `positions` has no
/// crossing edges (brute force; test/diagnostic use). Edges that share only
/// an endpoint do not cross.
pub fn is_plane_drawing(g: &Graph, positions: &[Point2]) -> bool {
    let edges: Vec<_> = g.edges().collect();
    for (i, &(a, b)) in edges.iter().enumerate() {
        for &(c, d) in &edges[i + 1..] {
            if segments_cross(positions[a], positions[b], positions[c], positions[d]) {
                return false;
            }
        }
    }
    true
}

/// Heap entry ordered so the smallest distance pops first.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    dist: f64,
    vertex: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap, we want min-dist first.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| other.vertex.cmp(&self.vertex))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 1..n {
            g.add_edge(i - 1, i);
        }
        g
    }

    #[test]
    fn add_and_query_edges() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(0, 1); // duplicate ignored
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(1, 0));
        assert_eq!(g.neighbors(0).len(), 1);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let mut g = Graph::new(2);
        g.add_edge(1, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut g = Graph::new(2);
        g.add_edge(0, 5);
    }

    #[test]
    fn edges_iterator_unique() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(2, 1);
        g.add_edge(3, 0);
        let mut es: Vec<_> = g.edges().collect();
        es.sort_unstable();
        assert_eq!(es, vec![(0, 1), (0, 3), (1, 2)]);
    }

    #[test]
    fn k_hop_neighborhoods() {
        let g = path_graph(6);
        assert_eq!(g.k_hop_neighborhood(0, 0), vec![0]);
        assert_eq!(g.k_hop_neighborhood(0, 1), vec![0, 1]);
        assert_eq!(g.k_hop_neighborhood(2, 2), vec![0, 1, 2, 3, 4]);
        assert_eq!(g.k_hop_neighborhood(0, 99), (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn components_and_connectivity() {
        let mut g = Graph::new(5);
        g.add_edge(0, 1);
        g.add_edge(3, 4);
        let comps = g.connected_components();
        assert_eq!(comps, vec![vec![0, 1], vec![2], vec![3, 4]]);
        assert!(!g.is_connected());
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        assert!(g.is_connected());
    }

    #[test]
    fn empty_graph_is_connected() {
        assert!(Graph::new(0).is_connected());
        assert!(Graph::new(1).is_connected());
        assert!(Graph::new(0).is_empty());
    }

    #[test]
    fn dijkstra_on_square() {
        // Unit square with one diagonal: 0-1-2-3 cycle plus 0-2.
        let pos = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(0.0, 1.0),
        ];
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(3, 0);
        g.add_edge(0, 2);
        let d = g.euclidean_shortest_paths(0, &pos);
        assert!((d[0] - 0.0).abs() < 1e-12);
        assert!((d[1] - 1.0).abs() < 1e-12);
        assert!((d[2] - 2.0_f64.sqrt()).abs() < 1e-12);
        assert!((d[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dijkstra_unreachable_is_infinite() {
        let pos = vec![Point2::ORIGIN, Point2::new(1.0, 0.0), Point2::new(2.0, 0.0)];
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        let d = g.euclidean_shortest_paths(0, &pos);
        assert!(d[2].is_infinite());
    }

    #[test]
    fn plane_drawing_rejects_crossing_edges_only() {
        let square = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(0.0, 1.0),
        ];
        // The boundary plus one diagonal: every pair of edges is disjoint
        // or meets only at a shared endpoint.
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(3, 0);
        g.add_edge(0, 2);
        assert!(is_plane_drawing(&g, &square));
        // The second diagonal crosses the first at the centre.
        g.add_edge(1, 3);
        assert!(!is_plane_drawing(&g, &square));
    }
}
