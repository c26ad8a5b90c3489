#![warn(missing_docs)]

//! # vnet-graph
//!
//! Directed-graph substrate for the `verified-net` workspace (the Rust
//! reproduction of *"Elites Tweet?"*, ICDE 2019).
//!
//! The paper's object of study is a single large sparse directed graph:
//! 231,246 verified users and 79.2 million follow edges. Everything in this
//! crate is designed around that shape:
//!
//! * [`DiGraph`] — an immutable compressed-sparse-row (CSR) directed graph
//!   holding both out- and in-adjacency, so that forward BFS, reverse BFS,
//!   PageRank and reciprocity checks are all cache-friendly array scans.
//!   Memory is `O(V + E)` with 4-byte node ids: the full paper-scale graph
//!   fits in well under a gigabyte.
//! * [`GraphBuilder`] — the staged mutable entry point; deduplicates edges,
//!   drops self-loops (Twitter has none: you cannot follow yourself) and
//!   freezes into a [`DiGraph`] by replaying its buffer through the
//!   streaming builder.
//! * [`StreamingBuilder`] — the two-pass streaming entry point for large
//!   builds: counts degrees in pass one, counting-sorts edges straight
//!   into the final CSR arenas in pass two — no intermediate tuple `Vec`,
//!   peak memory ≈ the final CSR (see `docs/SCALING.md`).
//! * [`subgraph`] — induced sub-graphs with id remapping (the paper's
//!   dataset *is* an induced sub-graph: the verified users inside the full
//!   Twitter graph).
//! * [`undirected`] — the undirected projection (out ∪ in as one CSR),
//!   which each graph builds once and holds ([`DiGraph::undirected`]), and
//!   the one sorted merge and intersection every consumer reads through.
//! * [`io`] — plain edge-list and compact binary serialization.

pub mod builder;
pub mod csr;
pub mod io;
pub mod streaming;
pub mod subgraph;
pub mod undirected;

pub use builder::GraphBuilder;
pub use csr::{DiGraph, NodeId};
pub use streaming::{StreamStats, StreamingBuilder};
pub use subgraph::induced_subgraph;
pub use undirected::{common_count, for_each_common, union_sorted, Undirected};

/// Errors produced by graph construction and I/O.
#[derive(Debug)]
pub enum GraphError {
    /// A node id referenced an index `>=` the declared node count.
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
        /// The graph's node count.
        count: u32,
    },
    /// A malformed line in a text edge list.
    ParseLine {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// A binary blob did not start with the `VNG1` magic bytes.
    BadMagic,
    /// A binary blob's per-node degrees did not sum to its declared edge
    /// count.
    DegreeSumMismatch {
        /// Edge count the header declared.
        declared: u64,
        /// Sum of the per-node out-degrees actually read.
        sum: u64,
    },
    /// Misuse of the two-pass [`StreamingBuilder`] protocol: placement
    /// before sealing, or a pass-2 edge stream that differs from pass 1.
    StreamPass {
        /// What the protocol violation was.
        message: String,
    },
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, count } => {
                write!(f, "node {node} out of range (count {count})")
            }
            GraphError::ParseLine { line, message } => {
                write!(f, "parse error: line {line}: {message}")
            }
            GraphError::BadMagic => write!(f, "bad magic; not a VNG1 graph"),
            GraphError::DegreeSumMismatch { declared, sum } => {
                write!(f, "degree sum {sum} != edge count {declared}")
            }
            GraphError::StreamPass { message } => {
                write!(f, "streaming build pass error: {message}")
            }
            GraphError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, GraphError>;
