//! The instance as a `good_graph` graph, for isomorphism, DOT and the
//! test oracles. An instance stores no graph: this builds one, with the
//! same node ids, when one of those asks.

use super::{Instance, NodeData};
use crate::label::{EdgeKind, Label};
use good_graph::dot::{DotEdge, DotNode};
use good_graph::Graph;

impl Instance {
    /// The instance as a `good_graph` graph with the same node ids and
    /// one `λ`-labelled edge per triple, in [`Instance::edges`] order —
    /// for isomorphism, DOT and the test oracles.
    pub fn to_graph(&self) -> Graph<NodeData, Label> {
        let mut graph = Graph::with_nodes(&self.nodes);
        for (src, label, dst) in self.edges() {
            graph.add_edge(src, dst, label.clone());
        }
        graph
    }

    /// Are two instances isomorphic (equal up to the choice of node
    /// identities)? Node keys are (label, print value); edge keys are
    /// labels.
    pub fn isomorphic_to(&self, other: &Instance) -> bool {
        let key = |node: &NodeData| (node.label.clone(), node.print.clone());
        let (one, two) = (self.to_graph(), other.to_graph());
        good_graph::iso::isomorphic(&one, &two, key, key, Label::clone, Label::clone)
    }

    /// Render as Graphviz DOT in the paper's conventions.
    pub fn to_dot(&self, title: &str) -> String {
        let scheme = &self.scheme;
        let node = |_, data: &NodeData| {
            let label = match &data.print {
                Some(value) => format!("{}\n{value}", data.label),
                None => data.label.to_string(),
            };
            match scheme.is_printable_label(&data.label) {
                true => DotNode::oval(label),
                false => DotNode::boxed(label),
            }
        };
        let edge = |label: &Label| DotEdge {
            label: label.as_str().into(),
            double_arrow: scheme.edge_kind(label) == Some(EdgeKind::Multivalued),
            bold: false,
            dashed: false,
        };
        good_graph::dot::to_dot(&self.to_graph(), title, node, edge)
    }
}
