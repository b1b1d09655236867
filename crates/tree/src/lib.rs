//! # gofmm-tree
//!
//! Spatial / metric data structures for the GOFMM reproduction:
//!
//! * [`oracle::DistanceOracle`] — the abstraction that lets the same tree code
//!   run on geometric point distances and on the Gram-space (kernel / angle)
//!   distances defined purely from SPD matrix entries,
//! * [`tree::PartitionTree`] — the balanced binary metric ball tree
//!   (`metricSplit`, Algorithm 2.1 of the paper) and its randomized /
//!   lexicographic / shuffled variants, whose heap index is the only node
//!   identity (it plays the paper's Morton ID in near/far pruning),
//! * [`ann`] — the iterative randomized-tree all-nearest-neighbor search.

pub mod ann;
pub mod oracle;
pub mod tree;

pub use ann::{ann_search, exact_knn, AnnConfig, AnnResult, NeighborList};
pub use oracle::{DistanceOracle, PointOracle};
pub use tree::{PartitionTree, SplitRule, TreeNode, TreeOptions};
