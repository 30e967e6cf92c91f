//! Compilation of GOODQL to GOOD patterns and programs.
//!
//! A query compiles to:
//!
//! * one GOOD [`Pattern`] — nodes for variables, edges for plain links,
//!   crossed edges for `NOT`, printable predicates for WHERE clauses —
//!   exactly the paper's Section 3 object ("a pattern is syntactically
//!   itself an instance"), and
//! * a **path-derivation program** of [`Step`]s: for each property path
//!   `-[:e*m..M]->` a fresh multivalued edge label is derived by edge
//!   additions and (for unbounded repetition) the recursion macro's
//!   starred edge addition (Section 4.1, Figure 28). The program is the
//!   semantics; the core lane evaluates it into transient derived
//!   relations the matcher reads beside the instance
//!   (`good_core::derived`), so no derived edge is stored.
//!
//! The walk-length algebra behind the lowering:
//!
//! ```text
//! lengths ≥ 1           = TC(B)                 (seed + starred EA)
//! lengths ≥ m, m ≥ 2    = B^(m-1) ∘ TC(B)       (m-1 composing EAs)
//! lengths 1..=K         = seed + (K-1) rounds of EA[x -d→ y -e→ z ⇒ x -d→ z]
//! lengths m..=M, m ≥ 2  = B^(m-1) ∘ (lengths 1..=M-m+1)
//! length 0              = identity over the class (one reflexive EA)
//! ```
//!
//! The same derivations are recomputed independently by the relational
//! (BFS) and Tarski (binary-relation algebra) lanes in [`crate::exec`],
//! which is what makes the three-backend differential oracle a real
//! cross-check rather than one computation viewed three ways.

use crate::ast::{CmpOp, Predicate, Query};
use crate::QueryError;
use good_core::label::Label;
use good_core::macros::recursion::RecursiveEdgeAddition;
use good_core::ops::EdgeAddition;
use good_core::pattern::{Pattern, ValuePredicate};
use good_core::program::Operation;
use good_core::scheme::Scheme;
use good_core::textual::{format_operation, format_pattern};
use good_core::value::Value;
use good_graph::NodeId;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// The largest admissible explicit path bound. Each bounded repetition
/// lowers to O(bound) edge additions, so this caps compiled program
/// size the way [`crate::parser::MAX_QUERY_LEN`] caps parse work.
pub const MAX_PATH_BOUND: u32 = 16;

/// One property path occurrence, lowered to a derived edge label.
#[derive(Debug, Clone)]
pub struct PathDerivation {
    /// Source variable of the link.
    pub src_var: String,
    /// Destination variable of the link.
    pub dst_var: String,
    /// The (homogeneous) class the path ranges over.
    pub class: Label,
    /// The base edge label being repeated.
    pub edge: Label,
    /// Minimum walk length.
    pub min: u32,
    /// Maximum walk length (`None` = unbounded).
    pub max: Option<u32>,
    /// The fresh derived edge label the pattern matches against.
    pub derived: Label,
    /// The fresh labels a `min ≥ 2` lowering passes through: the
    /// accumulator (`{derived}-walk` unbounded, `{derived}-base`
    /// bounded), then `{derived}-ge{k}` for `k` in `2..min`.
    pub intermediates: Vec<Label>,
}

/// One step of the compiled path-derivation program: a basic GOOD
/// operation or a starred (recursive) edge addition.
#[derive(Debug, Clone)]
pub enum Step {
    /// A basic operation (always `EA` today).
    Op(Operation),
    /// The recursion macro: repeat the edge addition to fixpoint.
    Star(RecursiveEdgeAddition),
}

/// A compiled query: resolved labels, the combined WHERE predicates per
/// variable, and the property-path derivations.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    /// The source AST.
    pub ast: Query,
    /// Variables in first-appearance order (pattern node order).
    pub vars: Vec<String>,
    /// Resolved class label per variable.
    pub labels: BTreeMap<String, Label>,
    /// Exact-value constraints per variable.
    pub values: BTreeMap<String, Value>,
    /// Combined WHERE predicate per variable.
    pub predicates: BTreeMap<String, ValuePredicate>,
    /// Property-path derivations, in link order.
    pub paths: Vec<PathDerivation>,
}

/// Compile a parsed query against `scheme`.
pub fn compile(query: &Query, scheme: &Scheme) -> Result<CompiledQuery, QueryError> {
    let compiler = Compiler { scheme };
    compiler.run(query)
}

struct Compiler<'a> {
    scheme: &'a Scheme,
}

fn err(pos: usize, message: impl Into<String>) -> QueryError {
    QueryError::Compile {
        pos,
        message: message.into(),
    }
}

impl<'a> Compiler<'a> {
    fn run(&self, query: &Query) -> Result<CompiledQuery, QueryError> {
        // 1. Collect variables in first-appearance order, explicit
        //    labels, and exact-value constraints.
        let mut vars: Vec<String> = Vec::new();
        let mut first_pos: BTreeMap<String, usize> = BTreeMap::new();
        let mut labels: BTreeMap<String, Label> = BTreeMap::new();
        let mut values: BTreeMap<String, Value> = BTreeMap::new();
        for chain in &query.chains {
            let nodes =
                std::iter::once(&chain.head).chain(chain.links.iter().map(|(_, node)| node));
            for node in nodes {
                if !first_pos.contains_key(&node.var) {
                    first_pos.insert(node.var.clone(), node.pos);
                    vars.push(node.var.clone());
                }
                if let Some(label) = &node.label {
                    let label = Label::new(label.as_str());
                    if !self.scheme.is_node_label(&label) {
                        return Err(err(node.pos, format!("unknown label `{label}`")));
                    }
                    if let Some(existing) = labels.get(&node.var) {
                        if existing != &label {
                            return Err(err(
                                node.pos,
                                format!(
                                    "variable `{}` is declared both as `{existing}` and `{label}`",
                                    node.var
                                ),
                            ));
                        }
                    }
                    labels.insert(node.var.clone(), label);
                }
                if let Some(value) = &node.value {
                    if let Some(existing) = values.get(&node.var) {
                        if existing != value {
                            return Err(err(
                                node.pos,
                                format!(
                                    "variable `{}` has two different value constraints",
                                    node.var
                                ),
                            ));
                        }
                    }
                    values.insert(node.var.clone(), value.clone());
                }
            }
        }

        // 2. Infer missing labels from the scheme's triple set, to a
        //    fixpoint: a link whose one endpoint is labeled determines
        //    the other when the scheme licenses exactly one class there.
        loop {
            let mut progressed = false;
            for chain in &query.chains {
                let mut prev = &chain.head;
                for (link, node) in &chain.links {
                    let edge = Label::new(link.edge.as_str());
                    let src_label = labels.get(&prev.var).cloned();
                    let dst_label = labels.get(&node.var).cloned();
                    if link.path.is_some() {
                        // Property paths are homogeneous: endpoints share
                        // one class, so either label determines the other.
                        match (&src_label, &dst_label) {
                            (Some(label), None) => {
                                labels.insert(node.var.clone(), label.clone());
                                progressed = true;
                            }
                            (None, Some(label)) => {
                                labels.insert(prev.var.clone(), label.clone());
                                progressed = true;
                            }
                            _ => {}
                        }
                    } else {
                        if src_label.is_some() && dst_label.is_none() {
                            let src = src_label.clone().expect("checked");
                            let candidates: BTreeSet<&Label> = self
                                .scheme
                                .triples()
                                .filter(|(s, e, _)| s == &src && e == &edge)
                                .map(|(_, _, d)| d)
                                .collect();
                            if candidates.len() == 1 {
                                let only = (*candidates.iter().next().expect("len 1")).clone();
                                labels.insert(node.var.clone(), only);
                                progressed = true;
                            }
                        }
                        if dst_label.is_some() && !labels.contains_key(&prev.var) {
                            let dst = dst_label.clone().expect("checked");
                            let candidates: BTreeSet<&Label> = self
                                .scheme
                                .triples()
                                .filter(|(_, e, d)| d == &dst && e == &edge)
                                .map(|(s, _, _)| s)
                                .collect();
                            if candidates.len() == 1 {
                                let only = (*candidates.iter().next().expect("len 1")).clone();
                                labels.insert(prev.var.clone(), only);
                                progressed = true;
                            }
                        }
                    }
                    prev = node;
                }
            }
            if !progressed {
                break;
            }
        }
        for var in &vars {
            if !labels.contains_key(var) {
                return Err(err(
                    first_pos[var],
                    format!("cannot infer a class for `{var}` — declare it as `({var}:Label)`"),
                ));
            }
        }

        // 3. Check links against the scheme and lower property paths.
        let mut paths: Vec<PathDerivation> = Vec::new();
        let mut used_labels: BTreeSet<Label> = BTreeSet::new();
        for chain in &query.chains {
            let mut prev = &chain.head;
            for (link, node) in &chain.links {
                let edge = Label::new(link.edge.as_str());
                let src = labels[&prev.var].clone();
                let dst = labels[&node.var].clone();
                if !self.scheme.is_edge_label(&edge) {
                    return Err(err(link.pos, format!("unknown edge label `{edge}`")));
                }
                match &link.path {
                    None => {
                        if !self.scheme.allows(&src, &edge, &dst) {
                            return Err(err(
                                link.pos,
                                format!("the scheme has no triple `{src} -{edge}-> {dst}`"),
                            ));
                        }
                    }
                    Some(spec) => {
                        if src != dst {
                            return Err(err(
                                link.pos,
                                format!(
                                    "property-path endpoints must share one class, got `{src}` \
                                     and `{dst}`"
                                ),
                            ));
                        }
                        // Homogeneity: walking `edge` from a `src` node
                        // must always land on `src` nodes, or the
                        // intermediate hops of the walk are unlabelable.
                        let mixed = self
                            .scheme
                            .triples()
                            .find(|(s, e, d)| s == &src && e == &edge && d != &src);
                        if let Some((_, _, other)) = mixed {
                            return Err(err(
                                link.pos,
                                format!(
                                    "property path over `{edge}` needs a homogeneous `{src} \
                                     -{edge}-> {src}` triple, but the scheme also has `{src} \
                                     -{edge}-> {other}`"
                                ),
                            ));
                        }
                        if !self.scheme.allows(&src, &edge, &src) {
                            return Err(err(
                                link.pos,
                                format!("the scheme has no triple `{src} -{edge}-> {src}`"),
                            ));
                        }
                        let too_big = spec.min > MAX_PATH_BOUND
                            || spec.max.is_some_and(|max| max > MAX_PATH_BOUND);
                        if too_big {
                            return Err(err(
                                link.pos,
                                format!("path bound too large (limit {MAX_PATH_BOUND})"),
                            ));
                        }
                        if let Some(max) = spec.max {
                            if spec.min > max {
                                return Err(err(
                                    link.pos,
                                    format!("empty path range *{}..{max}", spec.min),
                                ));
                            }
                        }
                        let derived = self.fresh_edge_label(
                            &format!("qpath{}-{edge}", paths.len()),
                            &mut used_labels,
                        );
                        let intermediates = (1..spec.min)
                            .map(|k| {
                                let suffix = match (k, spec.max) {
                                    (1, None) => "walk".to_string(),
                                    (1, Some(_)) => "base".to_string(),
                                    (k, _) => format!("ge{k}"),
                                };
                                let base = format!("{derived}-{suffix}");
                                self.fresh_edge_label(&base, &mut used_labels)
                            })
                            .collect();
                        paths.push(PathDerivation {
                            src_var: prev.var.clone(),
                            dst_var: node.var.clone(),
                            class: src,
                            edge,
                            min: spec.min,
                            max: spec.max,
                            derived,
                            intermediates,
                        });
                    }
                }
                prev = node;
            }
        }

        // 4. WHERE predicates: typed against the variable's class.
        let mut combined: BTreeMap<String, Vec<ValuePredicate>> = BTreeMap::new();
        for predicate in &query.predicates {
            match predicate {
                Predicate::NoEdge {
                    src,
                    edge,
                    dst,
                    pos,
                    ..
                } => {
                    let src_label = self.bound_label(&labels, src, *pos)?;
                    let dst_label = self.bound_label(&labels, dst, *pos)?;
                    let edge = Label::new(edge.as_str());
                    if !self.scheme.allows(src_label, &edge, dst_label) {
                        return Err(err(
                            *pos,
                            format!("the scheme has no triple `{src_label} -{edge}-> {dst_label}`"),
                        ));
                    }
                }
                other => {
                    let (var, pos) = match other {
                        Predicate::Cmp { var, pos, .. }
                        | Predicate::Contains { var, pos, .. }
                        | Predicate::StartsWith { var, pos, .. }
                        | Predicate::Between { var, pos, .. }
                        | Predicate::OneOf { var, pos, .. } => (var, *pos),
                        Predicate::NoEdge { .. } => unreachable!("handled above"),
                    };
                    let label = self.bound_label(&labels, var, pos)?;
                    let Some(expected) = self.scheme.printable_type(label) else {
                        return Err(err(
                            pos,
                            format!("`{var}` is a `{label}` object — predicates need a printable"),
                        ));
                    };
                    let value_pred = match other {
                        Predicate::Cmp { op, value, .. } => {
                            if value.value_type() != expected {
                                return Err(err(
                                    pos,
                                    format!(
                                        "`{var}` holds {expected} values, not {}",
                                        value.value_type()
                                    ),
                                ));
                            }
                            match op {
                                CmpOp::Eq => ValuePredicate::Eq(value.clone()),
                                CmpOp::Ne => ValuePredicate::Ne(value.clone()),
                                CmpOp::Lt => ValuePredicate::Lt(value.clone()),
                                CmpOp::Le => ValuePredicate::Le(value.clone()),
                                CmpOp::Gt => ValuePredicate::Gt(value.clone()),
                                CmpOp::Ge => ValuePredicate::Ge(value.clone()),
                            }
                        }
                        Predicate::Contains { needle, .. } => {
                            self.require_str(expected, var, pos)?;
                            ValuePredicate::Contains(needle.clone())
                        }
                        Predicate::StartsWith { prefix, .. } => {
                            self.require_str(expected, var, pos)?;
                            ValuePredicate::StartsWith(prefix.clone())
                        }
                        Predicate::Between { lo, hi, .. } => {
                            if lo.value_type() != expected || hi.value_type() != expected {
                                return Err(err(pos, format!("`{var}` holds {expected} values")));
                            }
                            ValuePredicate::Between(lo.clone(), hi.clone())
                        }
                        Predicate::OneOf { values, .. } => {
                            for value in values {
                                if value.value_type() != expected {
                                    return Err(err(
                                        pos,
                                        format!("`{var}` holds {expected} values"),
                                    ));
                                }
                            }
                            ValuePredicate::OneOf(values.clone())
                        }
                        Predicate::NoEdge { .. } => unreachable!("handled above"),
                    };
                    combined.entry(var.clone()).or_default().push(value_pred);
                }
            }
        }
        let predicates: BTreeMap<String, ValuePredicate> = combined
            .into_iter()
            .map(|(var, mut preds)| {
                let pred = if preds.len() == 1 {
                    preds.remove(0)
                } else {
                    ValuePredicate::All(preds)
                };
                (var, pred)
            })
            .collect();

        // 5. Exact values and predicates only make sense on printables.
        for (var, value) in &values {
            let label = &labels[var];
            let Some(expected) = self.scheme.printable_type(label) else {
                return Err(err(
                    first_pos[var],
                    format!("`{var}` is a `{label}` object — it cannot carry a value"),
                ));
            };
            if value.value_type() != expected {
                return Err(err(
                    first_pos[var],
                    format!(
                        "`{var}` holds {expected} values, not {}",
                        value.value_type()
                    ),
                ));
            }
        }

        // 6. RETURN variables must be bound in MATCH.
        for var in &query.returns {
            if !labels.contains_key(var) {
                return Err(err(
                    0,
                    format!("RETURN variable `{var}` is not bound in MATCH"),
                ));
            }
        }

        Ok(CompiledQuery {
            ast: query.clone(),
            vars,
            labels,
            values,
            predicates,
            paths,
        })
    }

    fn bound_label<'b>(
        &self,
        labels: &'b BTreeMap<String, Label>,
        var: &str,
        pos: usize,
    ) -> Result<&'b Label, QueryError> {
        labels
            .get(var)
            .ok_or_else(|| err(pos, format!("variable `{var}` is not bound in MATCH")))
    }

    fn require_str(
        &self,
        expected: good_core::value::ValueType,
        var: &str,
        pos: usize,
    ) -> Result<(), QueryError> {
        if expected != good_core::value::ValueType::Str {
            return Err(err(pos, format!("`{var}` is not a string printable")));
        }
        Ok(())
    }

    /// A derived edge label absent from both the scheme and the set of
    /// labels this compilation has already minted.
    fn fresh_edge_label(&self, base: &str, used: &mut BTreeSet<Label>) -> Label {
        let mut candidate = Label::new(base);
        while self.scheme.is_edge_label(&candidate)
            || self.scheme.is_node_label(&candidate)
            || used.contains(&candidate)
        {
            candidate = Label::new(format!("{candidate}-q"));
        }
        used.insert(candidate.clone());
        candidate
    }
}

impl CompiledQuery {
    /// Build the GOOD pattern. With `include_predicates` false, WHERE
    /// predicates are left off the printable nodes (the Tarski lane
    /// post-filters instead — its binary decomposition keeps no value
    /// column). Node ids are deterministic: variables in
    /// first-appearance order, so both flavors agree on ids.
    pub fn pattern(&self, include_predicates: bool) -> (Pattern, BTreeMap<String, NodeId>) {
        let mut pattern = Pattern::new();
        let mut nodes: BTreeMap<String, NodeId> = BTreeMap::new();
        for var in &self.vars {
            let label = self.labels[var].clone();
            let value = self.values.get(var);
            let predicate = self.predicates.get(var);
            let node = match (value, predicate, include_predicates) {
                (Some(value), None, _) | (Some(value), Some(_), false) => {
                    pattern.printable(label, value.clone())
                }
                (Some(value), Some(pred), true) => pattern.predicate_node(
                    label,
                    ValuePredicate::All(vec![ValuePredicate::Eq(value.clone()), pred.clone()]),
                ),
                (None, Some(pred), true) => pattern.predicate_node(label, pred.clone()),
                (None, _, _) => pattern.node(label),
            };
            nodes.insert(var.clone(), node);
        }
        let mut path_index = 0usize;
        for chain in &self.ast.chains {
            let mut prev = &chain.head;
            for (link, node) in &chain.links {
                let src = nodes[&prev.var];
                let dst = nodes[&node.var];
                match &link.path {
                    None => pattern.edge(src, Label::new(link.edge.as_str()), dst),
                    Some(_) => {
                        pattern.edge(src, self.paths[path_index].derived.clone(), dst);
                        path_index += 1;
                    }
                }
                prev = node;
            }
        }
        for predicate in &self.ast.predicates {
            if let Predicate::NoEdge { src, edge, dst, .. } = predicate {
                pattern.negated_edge(nodes[src], Label::new(edge.as_str()), nodes[dst]);
            }
        }
        (pattern, nodes)
    }

    /// The compiled path-derivation program: the GOOD operations (edge
    /// additions plus starred edge additions) that derive each path
    /// label — the semantics of the query's paths. Applied to an
    /// instance they add the derived edges to it; the core lane applies
    /// them to derived relations instead (`exec::derive`).
    pub fn core_steps(&self) -> Vec<Step> {
        self.lowering().0
    }

    /// Every derived edge label the compiled program mints, paired with
    /// its class: `(class, label)` means the scratch scheme needs the
    /// multivalued triple `class -label-> class`. Execution engines
    /// pre-register these so a derivation that happens to add zero
    /// edges (empty seed) still leaves the match pattern valid.
    pub fn derived_triples(&self) -> Vec<(Label, Label)> {
        self.lowering().1
    }

    /// One pass over the property paths: the derivation program and the
    /// `(class, label)` pairs it mints ([`CompiledQuery::core_steps`],
    /// [`CompiledQuery::derived_triples`]).
    pub(crate) fn lowering(&self) -> (Vec<Step>, Vec<(Label, Label)>) {
        let mut steps = Vec::new();
        let mut triples = Vec::new();
        for path in &self.paths {
            path_steps(path, &mut steps);
            let labels = std::iter::once(&path.derived).chain(&path.intermediates);
            triples.extend(labels.map(|label| (path.class.clone(), label.clone())));
        }
        (steps, triples)
    }

    /// Render the compiled program — derivation steps plus the final
    /// match pattern — in the paper's bracket notation.
    pub fn render_program(&self, scheme: &Scheme) -> String {
        let mut out = String::new();
        let steps = self.core_steps();
        if steps.is_empty() {
            out.push_str("-- no path derivations --\n");
        }
        for (index, step) in steps.iter().enumerate() {
            match step {
                Step::Op(op) => {
                    writeln!(out, "step {}:", index + 1).expect("write");
                    out.push_str(&format_operation(op, scheme));
                }
                Step::Star(star) => {
                    writeln!(out, "step {}: (starred — repeat to fixpoint)", index + 1)
                        .expect("write");
                    out.push_str(&format_operation(
                        &Operation::EdgeAdd(star.base.clone()),
                        scheme,
                    ));
                }
            }
        }
        let (pattern, nodes) = self.pattern(true);
        out.push_str("match J where J =\n");
        out.push_str(&format_pattern(&pattern));
        out.push_str("variables:");
        for var in &self.vars {
            write!(out, " {var}={:?}", nodes[var]).expect("write");
        }
        out.push('\n');
        out
    }
}

/// Emit the derivation steps for one property path (see the module docs
/// for the walk-length algebra). With `min ≥ 2` the repetition goes to
/// the first intermediate label and [`compose_prefix`] shifts it.
fn path_steps(path: &PathDerivation, steps: &mut Vec<Step>) {
    let class = &path.class;
    let edge = &path.edge;
    let derived = &path.derived;
    let acc = path.intermediates.first().unwrap_or(derived);
    match path.max {
        None => {
            // Unbounded: lengths ≥ 1 is the transitive closure — the
            // recursion macro's seed + star (Figure 28).
            steps.push(Step::Op(Operation::EdgeAdd(ea_seed(class, edge, acc))));
            steps.push(Step::Star(RecursiveEdgeAddition::new(ea_extend(
                class, acc, edge,
            ))));
            if path.min == 0 {
                steps.push(Step::Op(Operation::EdgeAdd(ea_reflexive(class, derived))));
            }
            compose_prefix(path, acc, steps);
        }
        Some(0) => {
            // `*0..0`: the identity pairs only.
            steps.push(Step::Op(Operation::EdgeAdd(ea_reflexive(class, derived))));
        }
        Some(max) => {
            // Bounded: lengths 1..=K, then shift by composing with the
            // base edge min-1 times.
            let k = max - path.min.max(1) + 1;
            steps.push(Step::Op(Operation::EdgeAdd(ea_seed(class, edge, acc))));
            for _ in 1..k {
                steps.push(Step::Op(Operation::EdgeAdd(ea_extend(class, acc, edge))));
            }
            if path.min == 0 {
                steps.push(Step::Op(Operation::EdgeAdd(ea_reflexive(class, derived))));
            }
            compose_prefix(path, acc, steps);
        }
    }
}

/// `derived = B^(min-1) ∘ acc` for `min ≥ 2`: a chain of composing edge
/// additions through the intermediate labels.
fn compose_prefix(path: &PathDerivation, acc: &Label, steps: &mut Vec<Step>) {
    let Some(later) = path.intermediates.get(1..) else {
        return;
    };
    let mut prev = acc;
    for out in later.iter().chain([&path.derived]) {
        let compose = ea_compose(&path.class, &path.edge, prev, out);
        steps.push(Step::Op(Operation::EdgeAdd(compose)));
        prev = out;
    }
}

/// `EA[x -edge→ y ⇒ x -out→ y]`.
fn ea_seed(class: &Label, edge: &Label, out: &Label) -> EdgeAddition {
    let mut p = Pattern::new();
    let x = p.node(class.clone());
    let y = p.node(class.clone());
    p.edge(x, edge.clone(), y);
    EdgeAddition::multivalued(p, x, out.clone(), y)
}

/// `EA[x -acc→ y -edge→ z ⇒ x -acc→ z]` — one closure round.
fn ea_extend(class: &Label, acc: &Label, edge: &Label) -> EdgeAddition {
    let mut p = Pattern::new();
    let x = p.node(class.clone());
    let y = p.node(class.clone());
    let z = p.node(class.clone());
    p.edge(x, acc.clone(), y);
    p.edge(y, edge.clone(), z);
    EdgeAddition::multivalued(p, x, acc.clone(), z)
}

/// `EA[x -edge→ y -prev→ z ⇒ x -out→ z]` — prepend one base hop.
fn ea_compose(class: &Label, edge: &Label, prev: &Label, out: &Label) -> EdgeAddition {
    let mut p = Pattern::new();
    let x = p.node(class.clone());
    let y = p.node(class.clone());
    let z = p.node(class.clone());
    p.edge(x, edge.clone(), y);
    p.edge(y, prev.clone(), z);
    EdgeAddition::multivalued(p, x, out.clone(), z)
}

/// `EA[x ⇒ x -out→ x]` — the identity pairs (walk length 0).
fn ea_reflexive(class: &Label, out: &Label) -> EdgeAddition {
    let mut p = Pattern::new();
    let x = p.node(class.clone());
    EdgeAddition::multivalued(p, x, out.clone(), x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use good_core::gen::bench_scheme;

    fn compiled(text: &str) -> CompiledQuery {
        compile(&parse_query(text).expect("parse"), &bench_scheme()).expect("compile")
    }

    fn compile_err(text: &str) -> QueryError {
        compile(&parse_query(text).expect("parse"), &bench_scheme())
            .expect_err("should not compile")
    }

    #[test]
    fn labels_inferred_from_scheme() {
        let q = compiled("MATCH (a:Info)-[:name]->(n) RETURN n");
        assert_eq!(q.labels["n"].as_str(), "String");
        let q = compiled("MATCH (a)-[:created]->(d:Date) RETURN a");
        assert_eq!(q.labels["a"].as_str(), "Info");
    }

    #[test]
    fn path_endpoint_labels_inferred() {
        let q = compiled("MATCH (a:Info)-[:links-to*]->(b) RETURN b");
        assert_eq!(q.labels["b"].as_str(), "Info");
    }

    #[test]
    fn unknown_label_rejected() {
        let err = compile_err("MATCH (a:Nope) RETURN a");
        assert!(err.to_string().contains("unknown label"), "{err}");
    }

    #[test]
    fn uninferable_label_rejected() {
        let err = compile_err("MATCH (a) RETURN a");
        assert!(err.to_string().contains("cannot infer"), "{err}");
    }

    #[test]
    fn heterogeneous_path_rejected() {
        let err = compile_err("MATCH (a:Info)-[:name*]->(n:String) RETURN a");
        assert!(err.to_string().contains("share one class"), "{err}");
    }

    #[test]
    fn oversized_bound_rejected() {
        let err = compile_err("MATCH (a:Info)-[:links-to*1..99]->(b:Info) RETURN a");
        assert!(err.to_string().contains("path bound too large"), "{err}");
    }

    #[test]
    fn empty_range_rejected() {
        let err = compile_err("MATCH (a:Info)-[:links-to*3..2]->(b:Info) RETURN a");
        assert!(err.to_string().contains("empty path range"), "{err}");
    }

    #[test]
    fn predicate_on_object_rejected() {
        let err = compile_err("MATCH (a:Info) WHERE a = 3 RETURN a");
        assert!(err.to_string().contains("printable"), "{err}");
    }

    #[test]
    fn type_mismatch_rejected() {
        let err = compile_err("MATCH (a:Info)-[:name]->(n:String) WHERE n < 3 RETURN a");
        assert!(err.to_string().contains("string"), "{err}");
    }

    #[test]
    fn unbound_return_rejected() {
        let err = compile_err("MATCH (a:Info) RETURN b");
        assert!(err.to_string().contains("not bound"), "{err}");
    }

    #[test]
    fn star_path_compiles_to_seed_plus_star() {
        let q = compiled("MATCH (a:Info)-[:links-to*]->(b:Info) RETURN a, b");
        let steps = q.core_steps();
        assert_eq!(steps.len(), 2);
        assert!(matches!(steps[0], Step::Op(Operation::EdgeAdd(_))));
        assert!(matches!(steps[1], Step::Star(_)));
    }

    #[test]
    fn bounded_path_compiles_to_plain_edge_additions() {
        let q = compiled("MATCH (a:Info)-[:links-to*1..3]->(b:Info) RETURN a, b");
        let steps = q.core_steps();
        assert_eq!(steps.len(), 3); // seed + 2 extension rounds
        assert!(steps
            .iter()
            .all(|step| matches!(step, Step::Op(Operation::EdgeAdd(_)))));
    }

    #[test]
    fn min_two_path_gets_compose_step() {
        let q = compiled("MATCH (a:Info)-[:links-to*2..3]->(b:Info) RETURN a, b");
        // lengths 1..=2 (seed + 1 round) then one compose into derived.
        assert_eq!(q.core_steps().len(), 3);
    }

    #[test]
    fn derived_labels_are_fresh() {
        let q = compiled("MATCH (a:Info)-[:links-to*]->(b:Info)-[:links-to*]->(c:Info) RETURN a");
        assert_eq!(q.paths.len(), 2);
        assert_ne!(q.paths[0].derived, q.paths[1].derived);
        assert!(!bench_scheme().is_edge_label(&q.paths[0].derived));
    }

    #[test]
    fn pattern_flavors_share_node_ids() {
        let q = compiled("MATCH (a:Info)-[:name]->(n:String) WHERE n CONTAINS \"info\" RETURN a");
        let (with, nodes_with) = q.pattern(true);
        let (without, nodes_without) = q.pattern(false);
        assert_eq!(nodes_with, nodes_without);
        assert_eq!(with.node_count(), without.node_count());
        let n = nodes_with["n"];
        assert!(with.graph().node(n).unwrap().predicate.is_some());
        assert!(without.graph().node(n).unwrap().predicate.is_none());
    }

    #[test]
    fn not_predicate_becomes_crossed_edge() {
        let q = compiled("MATCH (a:Info), (b:Info) WHERE NOT (a)-[:links-to]->(b) RETURN a, b");
        let (pattern, _) = q.pattern(true);
        assert!(pattern.has_negation());
        assert!(!pattern.positive_part().has_negation());
    }

    #[test]
    fn patterns_validate_against_scheme_with_derivations() {
        // A non-path pattern validates against the plain scheme.
        let q = compiled("MATCH (a:Info)-[:links-to]->(b:Info)-[:name]->(n:String) RETURN a");
        let (pattern, _) = q.pattern(true);
        pattern.validate(&bench_scheme()).expect("valid");
    }
}
