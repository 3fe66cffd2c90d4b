//! Compressed-sparse-row (CSR) adjacency storage for simple undirected
//! graphs, with O(1) uniform-neighbor sampling and degree-proportional
//! node sampling via the Vose alias tables of `plurality-dist`.

use plurality_dist::{AliasTable, InvalidParameterError};
use rand::Rng;

/// A simple undirected graph in CSR form.
///
/// Invariants, enforced by [`Graph::from_edges`]:
///
/// * no self-loops, no multi-edges;
/// * every undirected edge `{u, v}` is stored in both adjacency rows;
/// * each row is sorted ascending (canonical form, binary-searchable).
///
/// Neighbor sampling is O(1): one offset lookup plus one bounded uniform
/// draw. Degree-proportional node sampling (equivalently: drawing the
/// initiator of a uniformly random *directed edge*) is O(1) through a
/// precomputed [`AliasTable`] over the degree sequence.
///
/// # Examples
///
/// ```
/// use plurality_topology::Graph;
///
/// // A triangle plus a pendant vertex.
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap();
/// assert_eq!(g.degree(2), 3);
/// assert_eq!(g.neighbors(2), &[0, 1, 3]);
/// assert_eq!(g.edge_count(), 4);
/// assert!(g.is_connected());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    /// Row offsets into `neighbors`; length `n + 1`.
    offsets: Vec<u32>,
    /// Concatenated sorted adjacency rows; length `2 · edge_count`.
    neighbors: Vec<u32>,
    /// Degree-proportional node sampler (`None` iff the graph has no
    /// edges).
    degree_alias: Option<AliasTable>,
}

impl Graph {
    /// Builds a graph on vertices `0..n` from an undirected edge list.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParameterError`] if `n == 0` or `n > u32::MAX as
    /// usize`, an endpoint is out of range, an edge is a self-loop, or an
    /// edge appears twice (in either orientation).
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Result<Self, InvalidParameterError> {
        if n == 0 {
            return Err(InvalidParameterError::new("graph needs at least one node"));
        }
        if u32::try_from(n).is_err() {
            return Err(InvalidParameterError::new(format!(
                "graph size {n} exceeds the u32 node-id space"
            )));
        }
        let nu = n as u32;
        for &(u, v) in edges {
            if u >= nu || v >= nu {
                return Err(InvalidParameterError::new(format!(
                    "edge ({u}, {v}) has an endpoint outside 0..{n}"
                )));
            }
            if u == v {
                return Err(InvalidParameterError::new(format!(
                    "self-loop at node {u} is not allowed"
                )));
            }
        }
        // Offsets are u32: 2·m directed slots must fit, or the prefix
        // sums below would wrap silently in release builds.
        if edges.len() > (u32::MAX / 2) as usize {
            return Err(InvalidParameterError::new(format!(
                "{} edges exceed the u32 CSR offset space",
                edges.len()
            )));
        }
        let mut canonical: Vec<(u32, u32)> =
            edges.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
        canonical.sort_unstable();
        if let Some(w) = canonical.windows(2).find(|w| w[0] == w[1]) {
            return Err(InvalidParameterError::new(format!(
                "duplicate edge ({}, {})",
                w[0].0, w[0].1
            )));
        }

        // Counting sort into CSR.
        let mut degree = vec![0u32; n];
        for &(u, v) in &canonical {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degree[i];
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut neighbors = vec![0u32; 2 * canonical.len()];
        for &(u, v) in &canonical {
            neighbors[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        // Canonical edges are sorted by (min, max), so each row receives
        // its larger neighbors in order but smaller ones interleaved;
        // sort rows for the canonical form.
        for i in 0..n {
            neighbors[offsets[i] as usize..offsets[i + 1] as usize].sort_unstable();
        }

        let degree_alias = if canonical.is_empty() {
            None
        } else {
            let weights: Vec<f64> = degree.iter().map(|&d| f64::from(d)).collect();
            Some(AliasTable::new(&weights).expect("non-empty degree sequence"))
        };
        Ok(Self {
            offsets,
            neighbors,
            degree_alias,
        })
    }

    /// The number of vertices.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// The degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: u32) -> usize {
        let v = v as usize;
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// The sorted adjacency row of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.neighbors[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Whether `{u, v}` is an edge (binary search over the sorted row).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// The smallest vertex degree.
    pub fn min_degree(&self) -> usize {
        (0..self.n() as u32)
            .map(|v| self.degree(v))
            .min()
            .unwrap_or(0)
    }

    /// The largest vertex degree.
    pub fn max_degree(&self) -> usize {
        (0..self.n() as u32)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Whether the graph is connected (BFS from vertex 0; the one-vertex
    /// graph is connected, a graph with isolated vertices is not).
    pub fn is_connected(&self) -> bool {
        let n = self.n();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0u32];
        seen[0] = true;
        let mut reached = 1usize;
        while let Some(v) = stack.pop() {
            for &w in self.neighbors(v) {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    reached += 1;
                    stack.push(w);
                }
            }
        }
        reached == n
    }

    /// Draws a uniform neighbor of `v` in O(1). Isolated vertices return
    /// themselves (the interaction degenerates to reading the node's own
    /// state, a no-op for every protocol in the workspace); this draw
    /// consumes no randomness.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline(always)]
    pub fn sample_neighbor<R: Rng + ?Sized>(&self, v: u32, rng: &mut R) -> u32 {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        if lo == hi {
            return v;
        }
        self.neighbors[lo + rng.gen_range(0..hi - lo)]
    }

    /// Draws a uniformly random *directed* edge `(initiator, responder)`:
    /// the initiator degree-proportionally (alias table), the responder
    /// uniformly among the initiator's neighbors. Returns `None` iff the
    /// graph has no edges.
    #[inline]
    pub fn sample_directed_edge<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<(u32, u32)> {
        let v = self.degree_alias.as_ref()?.sample(rng) as u32;
        Some((v, self.sample_neighbor(v, rng)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plurality_dist::rng::Xoshiro256PlusPlus;

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(Graph::from_edges(0, &[]).is_err());
        assert!(Graph::from_edges(3, &[(0, 3)]).is_err(), "out of range");
        assert!(Graph::from_edges(3, &[(1, 1)]).is_err(), "self-loop");
        assert!(
            Graph::from_edges(3, &[(0, 1), (1, 0)]).is_err(),
            "duplicate edge in reverse orientation"
        );
        assert!(Graph::from_edges(3, &[(0, 1), (0, 1)]).is_err());
    }

    #[test]
    fn csr_rows_are_sorted_and_symmetric() {
        let g = Graph::from_edges(5, &[(3, 1), (0, 4), (1, 0), (2, 1)]).unwrap();
        assert_eq!(g.neighbors(1), &[0, 2, 3]);
        assert_eq!(g.neighbors(0), &[1, 4]);
        for v in 0..5u32 {
            for &w in g.neighbors(v) {
                assert!(g.has_edge(w, v), "asymmetric edge ({v}, {w})");
            }
        }
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.min_degree(), 1);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn connectivity_detection() {
        let path = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert!(path.is_connected());
        let split = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!split.is_connected());
        let isolated = Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert!(!isolated.is_connected());
        assert!(Graph::from_edges(1, &[]).unwrap().is_connected());
    }

    #[test]
    fn neighbor_sampling_is_uniform_over_the_row() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        let mut rng = Xoshiro256PlusPlus::from_u64(1);
        let mut counts = [0u32; 5];
        const N: u32 = 40_000;
        for _ in 0..N {
            counts[g.sample_neighbor(0, &mut rng) as usize] += 1;
        }
        assert_eq!(counts[0], 0, "vertex 0 is not its own neighbor");
        for &c in &counts[1..] {
            let expected = f64::from(N) / 4.0;
            assert!(
                (f64::from(c) - expected).abs() < 5.0 * expected.sqrt(),
                "count {c}"
            );
        }
    }

    #[test]
    fn isolated_vertex_samples_itself_without_consuming_randomness() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let mut a = Xoshiro256PlusPlus::from_u64(2);
        let mut b = Xoshiro256PlusPlus::from_u64(2);
        assert_eq!(g.sample_neighbor(2, &mut a), 2);
        // The stream is untouched: the next draws agree.
        assert_eq!(a.gen_range(0..1000u32), b.gen_range(0..1000u32));
    }

    #[test]
    fn degree_proportional_sampling_matches_degrees() {
        // Star plus an extra edge: degrees [4, 2, 1, 1, 2].
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 4)]).unwrap();
        let mut rng = Xoshiro256PlusPlus::from_u64(3);
        let mut counts = [0u64; 5];
        const N: u64 = 100_000;
        for _ in 0..N {
            counts[g.sample_directed_edge(&mut rng).unwrap().0 as usize] += 1;
        }
        let total_deg = 10.0;
        for (v, &c) in counts.iter().enumerate() {
            let expected = N as f64 * g.degree(v as u32) as f64 / total_deg;
            assert!(
                (c as f64 - expected).abs() < 6.0 * expected.sqrt(),
                "vertex {v}: {c} vs {expected}"
            );
        }
    }

    #[test]
    fn directed_edge_sampling_yields_real_edges() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]).unwrap();
        let mut rng = Xoshiro256PlusPlus::from_u64(4);
        for _ in 0..1_000 {
            let (u, v) = g.sample_directed_edge(&mut rng).unwrap();
            assert!(g.has_edge(u, v), "({u}, {v}) is not an edge");
        }
        let empty = Graph::from_edges(4, &[]).unwrap();
        assert_eq!(empty.sample_directed_edge(&mut rng), None);
    }
}
