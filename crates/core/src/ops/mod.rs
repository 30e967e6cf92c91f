//! The five basic operations of the GOOD transformation language
//! (Section 3 of the paper):
//!
//! * [`NodeAddition`] (`NA`, Section 3.1) — add a `K`-labeled node per
//!   distinct restriction of the matchings, with functional edges to the
//!   matched nodes;
//! * [`EdgeAddition`] (`EA`, Section 3.2) — add edges between matched
//!   nodes; partial (the paper's "result is not defined" cases are
//!   errors);
//! * [`NodeDeletion`] (`ND`, Section 3.3) — delete the images of one
//!   pattern node, with all incident edges;
//! * [`EdgeDeletion`] (`ED`, Section 3.4) — delete the images of pattern
//!   edges;
//! * [`Abstraction`] (`AB`, Section 3.5) — group objects by the equality
//!   of one multivalued property's target set, creating one set object
//!   per equivalence class.
//!
//! All operations are **set-oriented**: they first enumerate *all*
//! matchings of their source pattern, then apply their effect "in
//! parallel" for every matching, exactly as the paper contrasts GOOD
//! with the one-rewrite-at-a-time semantics of graph grammars
//! (Section 5). They are deterministic up to the choice of new node
//! identities; matchings are processed in canonical order so repeated
//! runs give isomorphic (in fact identical) results.
//!
//! Every operation extends the instance's scheme minimally, as in the
//! paper's "`S′` is the minimal scheme of which `S` is a subscheme".

mod abstraction;
mod edge_add;
mod edge_del;
mod node_add;
mod node_del;

pub use abstraction::Abstraction;
pub use edge_add::{EdgeAddition, EdgeToAdd};
pub use edge_del::EdgeDeletion;
pub use node_add::NodeAddition;
pub use node_del::NodeDeletion;

use good_graph::NodeId;

/// What an operation did, for reporting and tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpReport {
    /// Number of matchings of the source pattern.
    pub matchings: usize,
    /// Nodes created by this application.
    pub created_nodes: Vec<NodeId>,
    /// Number of edges added.
    pub edges_added: usize,
    /// Number of nodes deleted.
    pub nodes_deleted: usize,
    /// Number of edges deleted (excluding edges cascaded by node
    /// deletion).
    pub edges_deleted: usize,
}

impl OpReport {
    /// True if the operation created or deleted anything.
    pub fn changed(&self) -> bool {
        !self.created_nodes.is_empty()
            || self.edges_added > 0
            || self.nodes_deleted > 0
            || self.edges_deleted > 0
    }

    /// Merge another report into this one (used by programs/methods).
    pub fn absorb(&mut self, other: &OpReport) {
        self.matchings += other.matchings;
        self.created_nodes.extend_from_slice(&other.created_nodes);
        self.edges_added += other.edges_added;
        self.nodes_deleted += other.nodes_deleted;
        self.edges_deleted += other.edges_deleted;
    }
}
