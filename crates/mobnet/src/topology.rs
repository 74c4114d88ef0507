//! Network topology and latency model.
//!
//! The paper's model is deliberately simple: "the sending and the receiving
//! of a message over the wireless cell and the message transfer between
//! adjacent MSSs takes 0.01 time units". [`Topology`] encodes that model
//! (every MSS pair is adjacent over the wired backbone) while allowing the
//! latencies to be varied for sensitivity experiments.

use crate::ids::MssId;

/// Latency parameters of the fixed + wireless network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latencies {
    /// One wireless hop (MH → MSS or MSS → MH), in time units.
    pub wireless: f64,
    /// One wired hop between two MSSs.
    pub wired: f64,
}

impl Default for Latencies {
    /// The paper's values: 0.01 time units per hop.
    fn default() -> Self {
        Latencies {
            wireless: 0.01,
            wired: 0.01,
        }
    }
}

/// The wired backbone of `r` support stations, fully connected (any MSS can
/// forward to any other in one wired hop, per the paper's model).
#[derive(Debug, Clone)]
pub struct Topology {
    n_mss: usize,
    latencies: Latencies,
}

impl Topology {
    /// A backbone of `n_mss` stations with the paper's default latencies.
    pub fn new(n_mss: usize) -> Self {
        Self::with_latencies(n_mss, Latencies::default())
    }

    /// A backbone with explicit latencies.
    pub fn with_latencies(n_mss: usize, latencies: Latencies) -> Self {
        assert!(n_mss > 0, "need at least one MSS");
        assert!(latencies.wireless >= 0.0 && latencies.wired >= 0.0);
        Topology { n_mss, latencies }
    }

    /// Number of support stations (= cells).
    pub fn n_mss(&self) -> usize {
        self.n_mss
    }

    /// All station ids.
    pub fn stations(&self) -> impl Iterator<Item = MssId> {
        (0..self.n_mss).map(MssId)
    }

    /// Latency of one wireless hop.
    pub fn wireless_latency(&self) -> f64 {
        self.latencies.wireless
    }

    /// Wired latency from `a` to `b` (zero when `a == b`).
    pub fn wired_latency(&self, a: MssId, b: MssId) -> f64 {
        assert!(a.idx() < self.n_mss && b.idx() < self.n_mss, "unknown MSS");
        if a == b {
            0.0
        } else {
            self.latencies.wired
        }
    }

    /// End-to-end latency of an MH→MH application message: wireless up,
    /// wired transfer (if the peers sit in different cells), wireless down.
    pub fn end_to_end(&self, src: MssId, dst: MssId) -> f64 {
        self.latencies.wireless + self.wired_latency(src, dst) + self.latencies.wireless
    }

    /// True when `mss` is a valid station of this topology.
    pub fn contains(&self, mss: MssId) -> bool {
        mss.idx() < self.n_mss
    }
}

/// A structural defect of a cell-adjacency graph, reported by
/// [`AdjacencyGraph`]'s constructors instead of silently simulating a
/// broken topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// Fewer than two cells: a roaming host has nowhere to switch to.
    TooFewCells(usize),
    /// A grid whose cell count does not divide into the column count.
    RaggedGrid {
        /// Total cell count.
        cells: usize,
        /// Requested column count.
        cols: usize,
    },
    /// A custom adjacency list names a cell outside `0..cells`.
    UnknownNeighbor {
        /// The cell whose list is bad.
        cell: usize,
        /// The out-of-range neighbour it names.
        neighbor: usize,
    },
    /// A cell lists itself as a hand-off destination.
    SelfLoop(usize),
    /// A cell lists the same neighbour twice (hand-off would be biased).
    DuplicateNeighbor {
        /// The cell whose list is bad.
        cell: usize,
        /// The repeated neighbour.
        neighbor: usize,
    },
    /// A cell has an empty neighbour list: a host entering it is stuck.
    NoNeighbors(usize),
    /// The graph is not strongly connected: some cells can never be
    /// reached (or never left), so long-run mobility depends on the
    /// initial placement in a way the model does not intend.
    Disconnected {
        /// Cells reachable from cell 0.
        reachable: usize,
        /// Total cell count.
        cells: usize,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            GraphError::TooFewCells(n) => {
                write!(f, "need at least two cells to switch between (got {n})")
            }
            GraphError::RaggedGrid { cells, cols } => {
                write!(f, "grid must be rectangular: {cells} cells do not divide into {cols} columns")
            }
            GraphError::UnknownNeighbor { cell, neighbor } => {
                write!(f, "cell {cell} lists unknown neighbour {neighbor}")
            }
            GraphError::SelfLoop(cell) => write!(f, "cell {cell} lists itself as a neighbour"),
            GraphError::DuplicateNeighbor { cell, neighbor } => {
                write!(f, "cell {cell} lists neighbour {neighbor} twice")
            }
            GraphError::NoNeighbors(cell) => {
                write!(f, "cell {cell} has no neighbours (empty topology row)")
            }
            GraphError::Disconnected { reachable, cells } => {
                write!(f, "topology graph is disconnected: only {reachable} of {cells} cells are mutually reachable")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// An explicit cell-adjacency graph: for every cell, the ordered list of
/// cells one hand-off away.
///
/// This is the declarative replacement for the fixed [`CellGraph`]
/// neighbour logic: scenarios describe arbitrary topologies (ring, grid,
/// mesh, or hand-written adjacency) as data, validated once at
/// construction. Neighbour order is part of the contract — a mobility
/// model that picks `neighbors(c)[rng.index(len)]` consumes the same
/// randomness as the historical `CellGraph` path only if the orderings
/// match, which the [`AdjacencyGraph::complete`], [`AdjacencyGraph::ring`]
/// and [`AdjacencyGraph::grid`] constructors guarantee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdjacencyGraph {
    adj: Vec<Vec<MssId>>,
}

impl AdjacencyGraph {
    /// The paper's complete graph: every cell neighbours every other, in
    /// ascending id order (matching [`CellGraph::Complete`]).
    pub fn complete(cells: usize) -> Result<Self, GraphError> {
        Self::build(cells, |i, out| {
            out.extend((0..cells).filter(|&j| j != i).map(MssId));
        })
    }

    /// A cycle of cells; neighbours are `[previous, next]` (matching
    /// [`CellGraph::Ring`], deduplicated for the two-cell ring).
    pub fn ring(cells: usize) -> Result<Self, GraphError> {
        Self::build(cells, |i, out| {
            let prev = (i + cells - 1) % cells;
            let next = (i + 1) % cells;
            out.push(MssId(prev));
            if prev != next {
                out.push(MssId(next));
            }
        })
    }

    /// A `cols`-wide rectangular grid; neighbours are up/down/left/right
    /// (matching [`CellGraph::Grid`]).
    pub fn grid(cells: usize, cols: usize) -> Result<Self, GraphError> {
        if cols == 0 || !cells.is_multiple_of(cols) {
            return Err(GraphError::RaggedGrid { cells, cols });
        }
        let rows = cells / cols;
        Self::build(cells, |i, out| {
            let (r, c) = (i / cols, i % cols);
            if r > 0 {
                out.push(MssId((r - 1) * cols + c));
            }
            if r + 1 < rows {
                out.push(MssId((r + 1) * cols + c));
            }
            if c > 0 {
                out.push(MssId(r * cols + c - 1));
            }
            if c + 1 < cols {
                out.push(MssId(r * cols + c + 1));
            }
        })
    }

    /// A hand-written adjacency list (`adjacency[i]` = neighbours of cell
    /// `i`, in the order hand-off sampling should see them).
    pub fn custom(adjacency: Vec<Vec<usize>>) -> Result<Self, GraphError> {
        let adj: Vec<Vec<MssId>> = adjacency
            .into_iter()
            .map(|row| row.into_iter().map(MssId).collect())
            .collect();
        Self::validated(adj)
    }

    /// Converts a legacy [`CellGraph`] shape into its explicit form.
    pub fn from_cell_graph(graph: CellGraph, cells: usize) -> Result<Self, GraphError> {
        match graph {
            CellGraph::Complete => Self::complete(cells),
            CellGraph::Ring => Self::ring(cells),
            CellGraph::Grid { cols } => Self::grid(cells, cols),
        }
    }

    fn build(cells: usize, mut fill: impl FnMut(usize, &mut Vec<MssId>)) -> Result<Self, GraphError> {
        let mut adj = vec![Vec::new(); cells];
        for (i, row) in adj.iter_mut().enumerate() {
            fill(i, row);
        }
        Self::validated(adj)
    }

    fn validated(adj: Vec<Vec<MssId>>) -> Result<Self, GraphError> {
        let cells = adj.len();
        if cells < 2 {
            return Err(GraphError::TooFewCells(cells));
        }
        // `seen[nb] == i` once row `i` has listed `nb`: one buffer serves
        // every row without clearing.
        let mut seen = vec![usize::MAX; cells];
        for (i, row) in adj.iter().enumerate() {
            if row.is_empty() {
                return Err(GraphError::NoNeighbors(i));
            }
            for &nb in row {
                if nb.idx() >= cells {
                    return Err(GraphError::UnknownNeighbor { cell: i, neighbor: nb.idx() });
                }
                if nb.idx() == i {
                    return Err(GraphError::SelfLoop(i));
                }
                if seen[nb.idx()] == i {
                    return Err(GraphError::DuplicateNeighbor { cell: i, neighbor: nb.idx() });
                }
                seen[nb.idx()] = i;
            }
        }
        // Strong connectivity: every cell reachable from cell 0 along the
        // edges, and cell 0 reachable from every cell (checked on the
        // reversed graph). For symmetric graphs both passes agree.
        let forward = Self::reach(&adj);
        if forward < cells {
            return Err(GraphError::Disconnected { reachable: forward, cells });
        }
        let mut reversed = vec![Vec::new(); cells];
        for (i, row) in adj.iter().enumerate() {
            for &nb in row {
                reversed[nb.idx()].push(MssId(i));
            }
        }
        let backward = Self::reach(&reversed);
        if backward < cells {
            return Err(GraphError::Disconnected { reachable: backward, cells });
        }
        Ok(AdjacencyGraph { adj })
    }

    /// Depth-first reachable-cell count from cell 0, walking each visited
    /// cell's row once: O(cells + edges).
    fn reach(adj: &[Vec<MssId>]) -> usize {
        let mut visited = vec![false; adj.len()];
        let mut stack = vec![0usize];
        visited[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &v in &adj[u] {
                if !visited[v.idx()] {
                    visited[v.idx()] = true;
                    count += 1;
                    stack.push(v.idx());
                }
            }
        }
        count
    }

    /// Number of cells.
    pub fn n_cells(&self) -> usize {
        self.adj.len()
    }

    /// The ordered hand-off destinations from `cell`.
    pub fn neighbors(&self, cell: MssId) -> &[MssId] {
        &self.adj[cell.idx()]
    }

    /// True when `from → to` is an edge.
    pub fn has_edge(&self, from: MssId, to: MssId) -> bool {
        self.adj[from.idx()].contains(&to)
    }
}

/// Shape of the cell-adjacency graph: which cells a roaming host can enter
/// from its current one.
///
/// The paper's model lets a host switch to any other cell (complete graph);
/// physical deployments are closer to rings (highway coverage) or grids
/// (urban coverage), where hand-offs only reach geographic neighbours.
/// Retained as the compact legacy spelling; [`AdjacencyGraph`] is the
/// explicit, validated form the simulation consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellGraph {
    /// Any cell is reachable from any other (the paper's model).
    Complete,
    /// Cells form a cycle; neighbours are the two adjacent cells.
    Ring,
    /// Cells form a `cols`-wide grid; neighbours are up/down/left/right.
    Grid {
        /// Number of columns (must divide the cell count).
        cols: usize,
    },
}

impl CellGraph {
    /// The cells reachable by one hand-off from `cell`, in a system of
    /// `n_mss` cells. Never empty and never contains `cell` itself for
    /// `n_mss >= 2`.
    pub fn neighbors(self, cell: MssId, n_mss: usize) -> Vec<MssId> {
        let mut out = Vec::new();
        self.neighbors_into(cell, n_mss, &mut out);
        out
    }

    /// Like [`CellGraph::neighbors`], but reusing a caller-owned buffer
    /// (cleared first) so the per-hand-off hot path allocates nothing once
    /// the buffer has warmed up.
    pub fn neighbors_into(self, cell: MssId, n_mss: usize, out: &mut Vec<MssId>) {
        assert!(cell.idx() < n_mss, "unknown cell");
        assert!(n_mss >= 2, "need at least two cells");
        out.clear();
        match self {
            CellGraph::Complete => {
                out.extend((0..n_mss).filter(|&j| j != cell.idx()).map(MssId));
            }
            CellGraph::Ring => {
                let i = cell.idx();
                let prev = (i + n_mss - 1) % n_mss;
                let next = (i + 1) % n_mss;
                out.push(MssId(prev));
                if prev != next {
                    out.push(MssId(next)); // prev == next only when n_mss == 2
                }
            }
            CellGraph::Grid { cols } => {
                assert!(cols >= 1 && n_mss.is_multiple_of(cols), "grid must be rectangular");
                let rows = n_mss / cols;
                let (r, c) = (cell.idx() / cols, cell.idx() % cols);
                if r > 0 {
                    out.push(MssId((r - 1) * cols + c));
                }
                if r + 1 < rows {
                    out.push(MssId((r + 1) * cols + c));
                }
                if c > 0 {
                    out.push(MssId(r * cols + c - 1));
                }
                if c + 1 < cols {
                    out.push(MssId(r * cols + c + 1));
                }
                assert!(
                    !out.is_empty(),
                    "degenerate grid: cell {cell} has no neighbours"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_graph_reaches_everyone_else() {
        let nb = CellGraph::Complete.neighbors(MssId(2), 5);
        assert_eq!(nb.len(), 4);
        assert!(!nb.contains(&MssId(2)));
    }

    #[test]
    fn ring_has_two_neighbors() {
        let nb = CellGraph::Ring.neighbors(MssId(0), 5);
        assert_eq!(nb, vec![MssId(4), MssId(1)]);
        let nb = CellGraph::Ring.neighbors(MssId(4), 5);
        assert_eq!(nb, vec![MssId(3), MssId(0)]);
    }

    #[test]
    fn two_cell_ring_deduplicates() {
        let nb = CellGraph::Ring.neighbors(MssId(0), 2);
        assert_eq!(nb, vec![MssId(1)]);
    }

    #[test]
    fn grid_neighbors_respect_edges() {
        // 2x3 grid: cells 0 1 2 / 3 4 5.
        let g = CellGraph::Grid { cols: 3 };
        let corner = g.neighbors(MssId(0), 6);
        assert_eq!(corner, vec![MssId(3), MssId(1)]);
        let middle = g.neighbors(MssId(4), 6);
        assert_eq!(middle, vec![MssId(1), MssId(3), MssId(5)]);
    }

    #[test]
    fn grid_is_symmetric() {
        let g = CellGraph::Grid { cols: 3 };
        for i in 0..6 {
            for nb in g.neighbors(MssId(i), 6) {
                assert!(
                    g.neighbors(nb, 6).contains(&MssId(i)),
                    "asymmetric edge {i} -> {nb}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "rectangular")]
    fn ragged_grid_rejected() {
        CellGraph::Grid { cols: 4 }.neighbors(MssId(0), 6);
    }

    #[test]
    fn paper_defaults() {
        let t = Topology::new(5);
        assert_eq!(t.n_mss(), 5);
        assert_eq!(t.wireless_latency(), 0.01);
        assert_eq!(t.wired_latency(MssId(0), MssId(1)), 0.01);
    }

    #[test]
    fn same_station_wired_hop_is_free() {
        let t = Topology::new(3);
        assert_eq!(t.wired_latency(MssId(2), MssId(2)), 0.0);
        assert!((t.end_to_end(MssId(2), MssId(2)) - 0.02).abs() < 1e-12);
    }

    #[test]
    fn end_to_end_crosses_backbone() {
        let t = Topology::new(3);
        assert!((t.end_to_end(MssId(0), MssId(2)) - 0.03).abs() < 1e-12);
    }

    #[test]
    fn custom_latencies() {
        let t = Topology::with_latencies(
            2,
            Latencies {
                wireless: 0.1,
                wired: 1.0,
            },
        );
        assert!((t.end_to_end(MssId(0), MssId(1)) - 1.2).abs() < 1e-12);
    }

    #[test]
    fn stations_iterates_all() {
        let t = Topology::new(4);
        let ids: Vec<_> = t.stations().collect();
        assert_eq!(ids.len(), 4);
        assert!(t.contains(MssId(3)));
        assert!(!t.contains(MssId(4)));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_stations_rejected() {
        Topology::new(0);
    }

    #[test]
    #[should_panic(expected = "unknown MSS")]
    fn unknown_station_rejected() {
        Topology::new(2).wired_latency(MssId(0), MssId(5));
    }

    #[test]
    fn adjacency_matches_cell_graph_orderings() {
        let mut buf = Vec::new();
        for (graph, n) in [
            (CellGraph::Complete, 5),
            (CellGraph::Ring, 2),
            (CellGraph::Ring, 7),
            (CellGraph::Grid { cols: 3 }, 6),
            (CellGraph::Grid { cols: 2 }, 8),
        ] {
            let adj = AdjacencyGraph::from_cell_graph(graph, n).unwrap();
            assert_eq!(adj.n_cells(), n);
            for cell in 0..n {
                graph.neighbors_into(MssId(cell), n, &mut buf);
                assert_eq!(
                    adj.neighbors(MssId(cell)),
                    &buf[..],
                    "{graph:?} n={n} cell={cell}"
                );
            }
        }
    }

    #[test]
    fn adjacency_rejects_structural_defects() {
        assert_eq!(
            AdjacencyGraph::complete(1).unwrap_err(),
            GraphError::TooFewCells(1)
        );
        assert_eq!(
            AdjacencyGraph::grid(5, 3).unwrap_err(),
            GraphError::RaggedGrid { cells: 5, cols: 3 }
        );
        assert_eq!(
            AdjacencyGraph::custom(vec![vec![1], vec![5]]).unwrap_err(),
            GraphError::UnknownNeighbor { cell: 1, neighbor: 5 }
        );
        assert_eq!(
            AdjacencyGraph::custom(vec![vec![1], vec![1]]).unwrap_err(),
            GraphError::SelfLoop(1)
        );
        assert_eq!(
            AdjacencyGraph::custom(vec![vec![1, 1], vec![0]]).unwrap_err(),
            GraphError::DuplicateNeighbor { cell: 0, neighbor: 1 }
        );
        assert_eq!(
            AdjacencyGraph::custom(vec![vec![1], vec![]]).unwrap_err(),
            GraphError::NoNeighbors(1)
        );
        // Two islands: {0,1} and {2,3}.
        assert_eq!(
            AdjacencyGraph::custom(vec![vec![1], vec![0], vec![3], vec![2]]).unwrap_err(),
            GraphError::Disconnected { reachable: 2, cells: 4 }
        );
        // Everything is reachable from 0, but nothing leads back to it:
        // only the backward pass fails.
        assert_eq!(
            AdjacencyGraph::custom(vec![vec![1], vec![2], vec![1]]).unwrap_err(),
            GraphError::Disconnected { reachable: 1, cells: 3 }
        );
        // One-way sink: 2 is reachable but cannot get back.
        assert!(matches!(
            AdjacencyGraph::custom(vec![vec![1, 2], vec![0, 2], vec![]]),
            Err(GraphError::NoNeighbors(2))
        ));
        assert!(matches!(
            AdjacencyGraph::custom(vec![vec![1, 2], vec![0, 2], vec![2]]),
            Err(GraphError::SelfLoop(2))
        ));
    }

    #[test]
    fn adjacency_custom_asymmetric_but_connected_is_ok() {
        // Directed cycle 0 -> 1 -> 2 -> 0 is strongly connected.
        let g = AdjacencyGraph::custom(vec![vec![1], vec![2], vec![0]]).unwrap();
        assert!(g.has_edge(MssId(0), MssId(1)));
        assert!(!g.has_edge(MssId(1), MssId(0)));
        assert_eq!(g.neighbors(MssId(2)), &[MssId(0)]);
    }
}
