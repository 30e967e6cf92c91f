//! Patterns — the declarative half of every GOOD operation.
//!
//! Section 3 of the paper: "a pattern is a graph used to describe
//! subgraphs in an object base instance over a given scheme. As such, a
//! pattern is syntactically itself an instance over that scheme."
//!
//! [`Pattern`] is that graph. Beyond the paper's core definition it also
//! carries the two *macro* annotations of Section 4.1 that the matcher
//! and macro compiler understand:
//!
//! * **crossed (negated) parts** — nodes and edges whose *absence* is
//!   required (Figure 26). The negation macro of
//!   [`crate::macros::negation`] compiles them away into core
//!   operations; the matcher can also evaluate them directly so the two
//!   routes can be tested against each other.
//! * **printable predicates** — "additional predicates on printable
//!   objects" in the style of QBE condition boxes, e.g. a date range
//!   (explicitly sanctioned as an extension by the paper).
//!
//! Method bodies additionally contain a diamond *method-head node*
//! (Section 3.6); it is represented here and rewritten into an ordinary
//! class node by the method machinery before matching.

use crate::error::{GoodError, Result};
use crate::label::{EdgeKind, Label, RECEIVER_EDGE};
use crate::scheme::Scheme;
use crate::value::Value;
use good_graph::dot::{DotEdge, DotNode, Shape};
use good_graph::{Graph, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A predicate over printable constants, attached to a pattern node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ValuePredicate {
    /// Exactly this value (equivalent to a print label on the node).
    Eq(Value),
    /// Anything but this value.
    Ne(Value),
    /// Strictly less than (same-type comparison).
    Lt(Value),
    /// Less than or equal.
    Le(Value),
    /// Strictly greater than.
    Gt(Value),
    /// Greater than or equal.
    Ge(Value),
    /// Inclusive range.
    Between(Value, Value),
    /// String containment (strings only).
    Contains(String),
    /// String prefix (strings only).
    StartsWith(String),
    /// Membership in an explicit list.
    OneOf(Vec<Value>),
    /// Conjunction: all sub-predicates must hold.
    All(Vec<ValuePredicate>),
}

impl ValuePredicate {
    /// Evaluate the predicate. Comparisons across different value
    /// domains are `false` (never an error — patterns are filters).
    pub fn matches(&self, value: &Value) -> bool {
        let same = |other: &Value| value.value_type() == other.value_type();
        match self {
            ValuePredicate::Eq(v) => value == v,
            ValuePredicate::Ne(v) => same(v) && value != v,
            ValuePredicate::Lt(v) => same(v) && value < v,
            ValuePredicate::Le(v) => same(v) && value <= v,
            ValuePredicate::Gt(v) => same(v) && value > v,
            ValuePredicate::Ge(v) => same(v) && value >= v,
            ValuePredicate::Between(lo, hi) => same(lo) && same(hi) && value >= lo && value <= hi,
            ValuePredicate::Contains(s) => value.as_str().is_some_and(|v| v.contains(s.as_str())),
            ValuePredicate::StartsWith(s) => {
                value.as_str().is_some_and(|v| v.starts_with(s.as_str()))
            }
            ValuePredicate::OneOf(values) => values.contains(value),
            ValuePredicate::All(predicates) => {
                predicates.iter().all(|predicate| predicate.matches(value))
            }
        }
    }
}

/// What a pattern node stands for.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PatternNodeKind {
    /// An ordinary class node (object or printable label).
    Class(Label),
    /// The diamond method-head node of a method body (Section 3.6),
    /// tagged with the method name. Rewritten before matching.
    MethodHead(String),
}

/// Payload of a pattern node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PatternNode {
    /// Class label or method head.
    pub kind: PatternNodeKind,
    /// Required print value (printable nodes only).
    pub print: Option<Value>,
    /// Optional predicate on the print value (extension, Section 4.1).
    pub predicate: Option<ValuePredicate>,
    /// Crossed node: its absence (together with the other crossed parts)
    /// is required.
    pub negated: bool,
}

/// Payload of a pattern edge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PatternEdge {
    /// The edge label.
    pub label: Label,
    /// Crossed edge: its absence is required.
    pub negated: bool,
}

/// # Example
///
/// The paper's Figure 4 pattern — "an info node, created on Jan 14,
/// 1990, with name Rock which is linked to another info node":
///
/// ```
/// use good_core::pattern::Pattern;
/// use good_core::value::Value;
///
/// let mut pattern = Pattern::new();
/// let info = pattern.node("Info");
/// let date = pattern.printable("Date", Value::date(1990, 1, 14));
/// let name = pattern.printable("String", "Rock");
/// let other = pattern.node("Info");
/// pattern.edge(info, "created", date);
/// pattern.edge(info, "name", name);
/// pattern.edge(info, "links-to", other);
/// assert_eq!(pattern.node_count(), 4);
/// ```
/// A pattern over a scheme.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Pattern {
    graph: Graph<PatternNode, PatternEdge>,
}

impl Pattern {
    /// The empty pattern — it has exactly one (empty) matching in any
    /// instance, which is how Figure 12 adds a single unconditional node.
    pub fn new() -> Self {
        Pattern::default()
    }

    /// Add a class node labeled `label`.
    pub fn node(&mut self, label: impl Into<Label>) -> NodeId {
        self.graph.add_node(PatternNode {
            kind: PatternNodeKind::Class(label.into()),
            print: None,
            predicate: None,
            negated: false,
        })
    }

    /// Add a printable class node that must match the exact `value`.
    pub fn printable(&mut self, label: impl Into<Label>, value: impl Into<Value>) -> NodeId {
        self.graph.add_node(PatternNode {
            kind: PatternNodeKind::Class(label.into()),
            print: Some(value.into()),
            predicate: None,
            negated: false,
        })
    }

    /// Add a printable class node constrained by `predicate`.
    pub fn predicate_node(&mut self, label: impl Into<Label>, predicate: ValuePredicate) -> NodeId {
        self.graph.add_node(PatternNode {
            kind: PatternNodeKind::Class(label.into()),
            print: None,
            predicate: Some(predicate),
            negated: false,
        })
    }

    /// Add a crossed (negated) class node.
    pub fn negated_node(&mut self, label: impl Into<Label>) -> NodeId {
        self.graph.add_node(PatternNode {
            kind: PatternNodeKind::Class(label.into()),
            print: None,
            predicate: None,
            negated: true,
        })
    }

    /// Add a method-head (diamond) node for method `name`.
    pub fn method_head(&mut self, name: impl Into<String>) -> NodeId {
        self.graph.add_node(PatternNode {
            kind: PatternNodeKind::MethodHead(name.into()),
            print: None,
            predicate: None,
            negated: false,
        })
    }

    /// Add an edge `src -λ→ dst`.
    pub fn edge(&mut self, src: NodeId, label: impl Into<Label>, dst: NodeId) {
        self.graph.add_edge(
            src,
            dst,
            PatternEdge {
                label: label.into(),
                negated: false,
            },
        );
    }

    /// Add a crossed (negated) edge `src -λ→ dst`.
    pub fn negated_edge(&mut self, src: NodeId, label: impl Into<Label>, dst: NodeId) {
        self.graph.add_edge(
            src,
            dst,
            PatternEdge {
                label: label.into(),
                negated: true,
            },
        );
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph<PatternNode, PatternEdge> {
        &self.graph
    }

    /// Crate-internal mutable access (the method machinery rewrites
    /// head nodes in place).
    pub(crate) fn graph_mut(&mut self) -> &mut Graph<PatternNode, PatternEdge> {
        &mut self.graph
    }

    /// Number of pattern nodes.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// The class label of a pattern node (`None` for method heads or
    /// dead ids).
    pub fn node_label(&self, node: NodeId) -> Option<&Label> {
        match self.graph.node(node).map(|n| &n.kind) {
            Some(PatternNodeKind::Class(label)) => Some(label),
            _ => None,
        }
    }

    /// The class of `node` if it is a positive (uncrossed) class node of
    /// this pattern — what an operation's bold, doomed or grouped node
    /// must be — and [`GoodError::NodeNotInPattern`] otherwise.
    pub fn positive_class(&self, node: NodeId) -> Result<&Label> {
        match self.graph.node(node) {
            Some(PatternNode {
                kind: PatternNodeKind::Class(label),
                negated: false,
                ..
            }) => Ok(label),
            _ => Err(GoodError::NodeNotInPattern(format!("{node:?}"))),
        }
    }

    /// True if the pattern has crossed nodes or edges.
    pub fn has_negation(&self) -> bool {
        self.graph.nodes().any(|n| n.payload.negated)
            || self.graph.edges().any(|e| e.payload.negated)
    }

    /// True if the pattern contains a method-head node.
    pub fn has_method_head(&self) -> bool {
        self.graph
            .nodes()
            .any(|n| matches!(n.payload.kind, PatternNodeKind::MethodHead(_)))
    }

    /// The ids of all *positive* (non-crossed) class nodes.
    pub fn positive_nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self
            .graph
            .nodes()
            .filter(|n| !n.payload.negated)
            .map(|n| n.id)
            .collect();
        nodes.sort();
        nodes
    }

    /// The pattern restricted to its positive part: crossed nodes,
    /// crossed edges, and edges incident to crossed nodes are dropped.
    /// Node ids are preserved (the subgraph reuses this graph's arena
    /// layout via cloning and deletion).
    pub fn positive_part(&self) -> Pattern {
        let mut out = self.clone();
        let doomed: Vec<NodeId> = out
            .graph
            .nodes()
            .filter(|n| n.payload.negated)
            .map(|n| n.id)
            .collect();
        for node in doomed {
            out.graph.remove_node(node);
        }
        let doomed_edges: Vec<_> = out
            .graph
            .edges()
            .filter(|e| e.payload.negated)
            .map(|e| e.id)
            .collect();
        for edge in doomed_edges {
            out.graph.remove_edge(edge);
        }
        out
    }

    /// The pattern with every crossed marker erased — the "complete
    /// pattern" the negation semantics tries to extend a matching to.
    pub fn unnegated(&self) -> Pattern {
        let mut out = self.clone();
        let nodes: Vec<NodeId> = out.graph.node_ids().collect();
        for node in nodes {
            out.graph.node_mut(node).expect("live").negated = false;
        }
        let edges: Vec<_> = out.graph.edge_ids().collect();
        for edge in edges {
            out.graph.edge_mut(edge).expect("live").negated = false;
        }
        out
    }

    /// Validate the pattern against `scheme`: labels known, print values
    /// well-typed, edges licensed by `P`, and functional edges
    /// single-valued per pattern node (a pattern is syntactically an
    /// instance).
    pub fn validate(&self, scheme: &Scheme) -> Result<()> {
        for node in self.graph.nodes() {
            match &node.payload.kind {
                PatternNodeKind::Class(label) => {
                    if !scheme.is_node_label(label) {
                        return Err(GoodError::UnknownNodeLabel(label.clone()));
                    }
                    if let Some(value) = &node.payload.print {
                        let Some(expected) = scheme.printable_type(label) else {
                            return Err(GoodError::InvalidPattern(format!(
                                "object node {label} carries a print value"
                            )));
                        };
                        if value.value_type() != expected {
                            return Err(GoodError::ValueTypeMismatch {
                                label: label.clone(),
                                expected,
                                value: value.clone(),
                            });
                        }
                    }
                    if node.payload.predicate.is_some() && !scheme.is_printable_label(label) {
                        return Err(GoodError::InvalidPattern(format!(
                            "predicate attached to non-printable node {label}"
                        )));
                    }
                }
                PatternNodeKind::MethodHead(_) => {
                    // Validated by the method machinery instead.
                }
            }
        }
        for edge in self.graph.edges() {
            let src = self.graph.node(edge.src).expect("live");
            let dst = self.graph.node(edge.dst).expect("live");
            let label = &edge.payload.label;
            match (&src.kind, &dst.kind) {
                (PatternNodeKind::Class(src_label), PatternNodeKind::Class(dst_label)) => {
                    if !scheme.is_edge_label(label) {
                        return Err(GoodError::UnknownEdgeLabel(label.clone()));
                    }
                    if !scheme.allows(src_label, label, dst_label) {
                        return Err(GoodError::EdgeNotInScheme {
                            src: src_label.clone(),
                            edge: label.clone(),
                            dst: dst_label.clone(),
                        });
                    }
                }
                (PatternNodeKind::MethodHead(_), _) => {
                    // Binding edges from the head are checked by the
                    // method machinery (parameter labels + $recv).
                    if label.as_str() != RECEIVER_EDGE && !scheme.is_edge_label(label) {
                        return Err(GoodError::UnknownEdgeLabel(label.clone()));
                    }
                }
                (_, PatternNodeKind::MethodHead(_)) => {
                    return Err(GoodError::InvalidPattern(
                        "edges may not point at a method-head node".into(),
                    ));
                }
            }
        }
        // Functional single-valuedness inside the pattern.
        for node in self.graph.node_ids() {
            let mut seen: HashMap<&Label, NodeId> = HashMap::new();
            for edge in self.graph.out_edges(node) {
                if edge.payload.negated {
                    continue;
                }
                if scheme.edge_kind(&edge.payload.label) == Some(EdgeKind::Functional) {
                    if let Some(prior) = seen.insert(&edge.payload.label, edge.dst) {
                        if prior != edge.dst {
                            return Err(GoodError::InvalidPattern(format!(
                                "pattern node has two {} (functional) edges to different nodes",
                                edge.payload.label
                            )));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Render as Graphviz DOT. Crossed parts are drawn dashed with an
    /// `✗` prefix; method heads are diamonds, as in the paper.
    pub fn to_dot(&self, title: &str, scheme: &Scheme) -> String {
        good_graph::dot::to_dot(
            &self.graph,
            title,
            |_, node| match &node.kind {
                PatternNodeKind::Class(label) => {
                    let mut text = label.as_str().to_string();
                    if let Some(value) = &node.print {
                        text.push('\n');
                        text.push_str(&value.to_string());
                    }
                    if node.negated {
                        text.insert_str(0, "✗ ");
                    }
                    let shape = if scheme.is_printable_label(label) {
                        Shape::Ellipse
                    } else {
                        Shape::Box
                    };
                    DotNode {
                        label: text,
                        shape,
                        bold: false,
                        doubled: false,
                    }
                }
                PatternNodeKind::MethodHead(name) => DotNode {
                    label: name.clone(),
                    shape: Shape::Diamond,
                    bold: false,
                    doubled: false,
                },
            },
            |edge| DotEdge {
                label: if edge.negated {
                    format!("✗ {}", edge.label)
                } else {
                    edge.label.as_str().to_string()
                },
                double_arrow: scheme.edge_kind(&edge.label) == Some(EdgeKind::Multivalued),
                bold: false,
                dashed: edge.negated,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::gen::bench_scheme as scheme;

    /// The paper's Figure 4 pattern.
    fn figure4() -> Pattern {
        let mut p = Pattern::new();
        let info = p.node("Info");
        let date = p.printable("Date", Value::date(1990, 1, 14));
        let name = p.printable("String", "Rock");
        let other = p.node("Info");
        p.edge(info, "created", date);
        p.edge(info, "name", name);
        p.edge(info, "links-to", other);
        p
    }

    #[test]
    fn figure4_validates() {
        figure4().validate(&scheme()).unwrap();
    }

    #[test]
    fn unknown_labels_rejected() {
        let mut p = Pattern::new();
        p.node("Nope");
        assert!(matches!(
            p.validate(&scheme()),
            Err(GoodError::UnknownNodeLabel(_))
        ));

        let mut p = Pattern::new();
        let a = p.node("Info");
        let b = p.node("Info");
        p.edge(a, "nope", b);
        assert!(matches!(
            p.validate(&scheme()),
            Err(GoodError::UnknownEdgeLabel(_))
        ));
    }

    #[test]
    fn edge_must_be_in_p() {
        let mut p = Pattern::new();
        let a = p.node("Info");
        let b = p.printable("String", "x");
        p.edge(a, "created", b); // created targets Date, not String
        assert!(matches!(
            p.validate(&scheme()),
            Err(GoodError::EdgeNotInScheme { .. })
        ));
    }

    #[test]
    fn print_value_type_checked() {
        let mut p = Pattern::new();
        p.printable("Date", "not a date");
        assert!(matches!(
            p.validate(&scheme()),
            Err(GoodError::ValueTypeMismatch { .. })
        ));
    }

    #[test]
    fn functional_fan_out_rejected() {
        let mut p = Pattern::new();
        let info = p.node("Info");
        let a = p.printable("String", "x");
        let b = p.printable("String", "y");
        p.edge(info, "name", a);
        p.edge(info, "name", b);
        assert!(matches!(
            p.validate(&scheme()),
            Err(GoodError::InvalidPattern(_))
        ));
    }

    #[test]
    fn multivalued_fan_out_allowed() {
        let mut p = Pattern::new();
        let info = p.node("Info");
        let a = p.node("Info");
        let b = p.node("Info");
        p.edge(info, "links-to", a);
        p.edge(info, "links-to", b);
        p.validate(&scheme()).unwrap();
    }

    #[test]
    fn positive_part_strips_crossed_elements() {
        let mut p = figure4();
        let info = p.positive_nodes()[0];
        let extra = p.negated_node("Info");
        p.edge(info, "links-to", extra);
        let date = p.printable("Date", Value::date(1990, 1, 12));
        p.negated_edge(info, "modified", date);
        assert!(p.has_negation());

        let positive = p.positive_part();
        assert!(!positive.has_negation());
        // crossed node gone, crossed edge gone, its incident edge gone,
        // but the (positive) date node survives even though it was only
        // attached by a crossed edge.
        assert_eq!(positive.node_count(), 5);
        assert_eq!(positive.graph().edge_count(), 3);

        let full = p.unnegated();
        assert!(!full.has_negation());
        assert_eq!(full.node_count(), 6);
        assert_eq!(full.graph().edge_count(), 5);
    }

    #[test]
    fn predicates_evaluate() {
        use ValuePredicate as P;
        assert!(P::Eq(Value::int(3)).matches(&Value::int(3)));
        assert!(!P::Eq(Value::int(3)).matches(&Value::int(4)));
        assert!(P::Ne(Value::int(3)).matches(&Value::int(4)));
        assert!(!P::Ne(Value::int(3)).matches(&Value::str("x"))); // cross-type: false
        assert!(P::Lt(Value::int(5)).matches(&Value::int(4)));
        assert!(P::Ge(Value::int(5)).matches(&Value::int(5)));
        assert!(
            P::Between(Value::date(1990, 1, 1), Value::date(1990, 1, 31))
                .matches(&Value::date(1990, 1, 14))
        );
        assert!(
            !P::Between(Value::date(1990, 1, 1), Value::date(1990, 1, 31))
                .matches(&Value::date(1990, 2, 1))
        );
        assert!(P::Contains("oyd".into()).matches(&Value::str("Pinkfloyd")));
        assert!(P::StartsWith("Pink".into()).matches(&Value::str("Pinkfloyd")));
        assert!(!P::StartsWith("Pink".into()).matches(&Value::int(9)));
        assert!(P::OneOf(vec![Value::int(1), Value::int(2)]).matches(&Value::int(2)));
        let conj = P::All(vec![P::Ge(Value::int(2)), P::Lt(Value::int(5))]);
        assert!(conj.matches(&Value::int(3)));
        assert!(!conj.matches(&Value::int(5)));
        assert!(P::All(vec![]).matches(&Value::int(0))); // empty conjunction is true
    }

    #[test]
    fn predicate_on_object_node_rejected() {
        let mut p = Pattern::new();
        p.predicate_node("Info", ValuePredicate::Eq(Value::int(1)));
        assert!(matches!(
            p.validate(&scheme()),
            Err(GoodError::InvalidPattern(_))
        ));
    }

    #[test]
    fn method_head_edges_validate() {
        let mut p = Pattern::new();
        let head = p.method_head("Update");
        let info = p.node("Info");
        let date = p.node("Date");
        p.edge(head, crate::label::Label::system(RECEIVER_EDGE), info);
        p.edge(head, "created", date); // any registered label is OK here
        p.validate(&scheme()).unwrap();
        assert!(p.has_method_head());

        // Edges INTO a method head are malformed.
        let mut bad = Pattern::new();
        let head = bad.method_head("Update");
        let info = bad.node("Info");
        bad.edge(info, "links-to", head);
        assert!(matches!(
            bad.validate(&scheme()),
            Err(GoodError::InvalidPattern(_))
        ));
    }

    #[test]
    fn dot_marks_negation() {
        let mut p = figure4();
        let info = p.positive_nodes()[0];
        let date = p.printable("Date", Value::date(1990, 1, 12));
        p.negated_edge(info, "modified", date);
        let dot = p.to_dot("pattern", &scheme());
        assert!(dot.contains("✗ modified"));
        assert!(dot.contains("style=dashed"));
    }

    #[test]
    fn serde_roundtrip() {
        let p = figure4();
        let json = serde_json::to_string(&p).unwrap();
        let back: Pattern = serde_json::from_str(&json).unwrap();
        assert_eq!(back.node_count(), p.node_count());
        back.validate(&scheme()).unwrap();
    }
}
