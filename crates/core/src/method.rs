//! Methods (Section 3.6): specification, body, interface, call.
//!
//! A GOOD method is a named procedure with
//!
//! * a **specification** `(s_M, R_M)`: parameter edge labels with their
//!   node labels, and the receiver's node label;
//! * a **body**: a sequence of parameterized operations whose source
//!   patterns may contain one diamond *M-head node* binding pattern
//!   nodes to the formal receiver (unlabeled edge, modeled as the
//!   reserved [`RECEIVER_EDGE`] label) and formal parameters;
//! * an **interface**: a scheme describing the method's effect at the
//!   scheme level — temporaries the body creates that appear in neither
//!   the original scheme nor the interface are filtered out of the
//!   result (the `Elapsed` example of Figures 23–25);
//! * a **call**: a pattern with actual receiver and parameters.
//!
//! The call semantics follows the paper's K-construction exactly:
//!
//! 1. a hidden node addition introduces a fresh frame label `K` with
//!    functional edges to the actual parameters and receiver, one frame
//!    per distinct (receiver, parameters) restriction of the call
//!    pattern's matchings;
//! 2. each body operation is rewritten — its M-head node (if any) is
//!    substituted by a `K`-labeled class node, otherwise an isolated
//!    `K` node is added to its source pattern — and executed;
//! 3. all `K` nodes are deleted;
//! 4. the result is restricted to the union of the call-time scheme and
//!    the method interface.
//!
//! Recursion terminates operationally when a recursive call's pattern
//! has no matchings: no frames are created and the body is skipped
//! (with zero frames every rewritten body operation is vacuous, so
//! skipping is semantics-preserving). Runaway recursion that keeps
//! creating frames is caught by the environment's fuel bound.

use crate::error::{GoodError, Result};
use crate::instance::Instance;
use crate::label::{Label, RECEIVER_EDGE};
use crate::ops::{NodeAddition, NodeDeletion, OpReport};
use crate::pattern::{Pattern, PatternNodeKind};
use crate::program::{Env, Operation};
use crate::scheme::Scheme;
use good_graph::NodeId;
use good_trace::LiveCounter;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Method calls executed, recursive ones included.
static LIVE_CALLS: LiveCounter = LiveCounter::new("method.calls");

/// A method specification: name, parameter labels with node labels, and
/// receiver label.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodSpec {
    /// The method name.
    pub name: String,
    /// `s_M`: parameter (functional) edge labels → node labels.
    pub params: BTreeMap<Label, Label>,
    /// `R_M`: the receiver's node label.
    pub receiver: Label,
}

impl MethodSpec {
    /// Construct a specification.
    pub fn new(
        name: impl Into<String>,
        receiver: impl Into<Label>,
        params: impl IntoIterator<Item = (Label, Label)>,
    ) -> Self {
        MethodSpec {
            name: name.into(),
            receiver: receiver.into(),
            params: params.into_iter().collect(),
        }
    }
}

/// A complete method: specification, body, interface.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Method {
    /// The specification.
    pub spec: MethodSpec,
    /// The body: parameterized operations (their patterns may contain
    /// one M-head node named after this method).
    pub body: Vec<Operation>,
    /// The interface scheme. Use `Scheme::new()` for methods whose
    /// effects are pure side effects on existing classes.
    pub interface: Scheme,
}

impl Method {
    /// Construct a method.
    pub fn new(spec: MethodSpec, body: Vec<Operation>, interface: Scheme) -> Self {
        Method {
            spec,
            body,
            interface,
        }
    }
}

/// A method call `MC[J, S, I, M, g, n]`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MethodCall {
    /// The method name.
    pub method: String,
    /// The call's source pattern `J`.
    pub pattern: Pattern,
    /// The pattern node bound as the actual receiver (`n`).
    pub receiver: NodeId,
    /// Actual parameters: parameter label → pattern node (`g`).
    pub args: BTreeMap<Label, NodeId>,
}

impl MethodCall {
    /// Construct a call.
    pub fn new(
        method: impl Into<String>,
        pattern: Pattern,
        receiver: NodeId,
        args: impl IntoIterator<Item = (Label, NodeId)>,
    ) -> Self {
        MethodCall {
            method: method.into(),
            pattern,
            receiver,
            args: args.into_iter().collect(),
        }
    }
}

/// Rewrite one body operation for execution under frame label `frame`:
/// substitute the M-head node, or add an isolated frame node.
fn rewrite_body_op(op: &Operation, method_name: &str, frame: &Label) -> Result<Operation> {
    let mut rewritten = op.clone();
    let pattern = rewritten.pattern_mut();
    let heads: Vec<NodeId> = pattern
        .graph()
        .nodes()
        .filter_map(|node| match &node.payload.kind {
            PatternNodeKind::MethodHead(name) => Some((node.id, name.clone())),
            _ => None,
        })
        .map(|(id, name)| {
            if name == method_name {
                Ok(id)
            } else {
                Err(GoodError::MethodSignatureMismatch(format!(
                    "body of {method_name} contains a head node for method {name}"
                )))
            }
        })
        .collect::<Result<_>>()?;
    match heads.as_slice() {
        [] => {
            // "an isolated node labeled K is added to the source
            // pattern" — the operation only fires while a frame exists.
            pattern.node(frame.clone());
        }
        [head] => {
            pattern.graph_mut().node_mut(*head).expect("live").kind =
                PatternNodeKind::Class(frame.clone());
        }
        _ => {
            return Err(GoodError::MethodSignatureMismatch(format!(
                "body operation of {method_name} contains more than one head node"
            )))
        }
    }
    Ok(rewritten)
}

/// Adapt a rewritten body operation for a subclass receiver
/// (Section 4.2): relabel the pattern node(s) bound by the frame's
/// `$recv` edge from the declared receiver class to the actual class,
/// then route any now-inherited properties through explicit `isa`
/// chains ([`crate::inheritance::rewrite_pattern_with_map`]) and
/// retarget the operation's edge specifications to the chain nodes —
/// the internal translation the paper illustrates in Figures 30–31.
fn adapt_for_subclass_receiver(
    op: &mut Operation,
    frame: &Label,
    declared: &Label,
    actual: &Label,
    db: &Instance,
) -> Result<()> {
    use crate::pattern::PatternNodeKind;
    let recv_edge = Label::system(RECEIVER_EDGE);
    {
        let pattern = op.pattern_mut();
        // Find the frame node and its $recv targets.
        let receiver_nodes: Vec<good_graph::NodeId> = pattern
            .graph()
            .edges()
            .filter(|edge| {
                edge.payload.label == recv_edge
                    && matches!(
                        pattern.graph().node(edge.src).map(|n| &n.kind),
                        Some(PatternNodeKind::Class(label)) if label == frame
                    )
            })
            .map(|edge| edge.dst)
            .collect();
        for node in receiver_nodes {
            if let Some(data) = pattern.graph_mut().node_mut(node) {
                if data.kind == PatternNodeKind::Class(declared.clone()) {
                    data.kind = PatternNodeKind::Class(actual.clone());
                }
            }
        }
    }
    // Bold edges of an edge addition are not pattern edges, so they
    // need their own isa routing: if the (relabeled) source class does
    // not license the property but an ancestor does, graft the chain
    // into the pattern and re-root the bold edge at its end.
    if let Operation::EdgeAdd(ea) = op {
        let scheme = db.scheme().clone();
        for index in 0..ea.edges.len() {
            let (src, label, dst) = {
                let edge = &ea.edges[index];
                (edge.src, edge.label.clone(), edge.dst)
            };
            let pattern = &mut ea.pattern;
            let (Some(src_label), Some(dst_label)) = (
                pattern.node_label(src).cloned(),
                pattern.node_label(dst).cloned(),
            ) else {
                continue;
            };
            if scheme.allows(&src_label, &label, &dst_label) || !scheme.is_edge_label(&label) {
                continue; // licensed directly, or a brand-new label
            }
            let Ok(path) =
                crate::inheritance::isa_path_to_licensor(&scheme, &src_label, &label, &dst_label)
            else {
                continue; // no ancestor licenses it: EA will extend the scheme
            };
            let mut current = src;
            for (isa_edge, super_label) in path {
                let chain = pattern.node(super_label);
                pattern.edge(current, isa_edge, chain);
                current = chain;
            }
            ea.edges[index].src = current;
        }
    }
    // Route inherited properties used in the pattern itself through isa
    // chains and retarget edge-deletion specs accordingly.
    let (rewritten, reroutes) =
        crate::inheritance::rewrite_pattern_with_map(op.pattern(), db.scheme())?;
    *op.pattern_mut() = rewritten;
    if let Operation::EdgeDel(ed) = op {
        for (src, label, dst) in &mut ed.edges {
            if let Some(&new_src) = reroutes.get(&(*src, label.clone(), *dst)) {
                *src = new_src;
            }
        }
    }
    Ok(())
}

/// Execute a method call (the `MC` operation).
pub fn execute_call(call: &MethodCall, db: &mut Instance, env: &mut Env) -> Result<OpReport> {
    let method = env.method(&call.method)?.clone();

    // ---- validate the call against the specification -------------------
    let receiver_label = call
        .pattern
        .node_label(call.receiver)
        .ok_or_else(|| GoodError::NodeNotInPattern(format!("{:?}", call.receiver)))?;
    // Section 4.2: "a method can be called on objects belonging to
    // subclasses of the method's specified receiver and parameter
    // classes" — accept the exact class or any `isa` descendant.
    let conforms = |actual: &Label, expected: &Label| {
        actual == expected || db.scheme().ancestors_of(actual).contains(expected)
    };
    if !conforms(receiver_label, &method.spec.receiver) {
        return Err(GoodError::MethodSignatureMismatch(format!(
            "receiver has label {receiver_label}, expected {} (or a subclass)",
            method.spec.receiver
        )));
    }
    if call.args.len() != method.spec.params.len()
        || !call.args.keys().eq(method.spec.params.keys())
    {
        return Err(GoodError::MethodSignatureMismatch(format!(
            "call passes parameters {:?}, expected {:?}",
            call.args.keys().collect::<Vec<_>>(),
            method.spec.params.keys().collect::<Vec<_>>()
        )));
    }
    for (param, node) in &call.args {
        let expected = &method.spec.params[param];
        let actual = call
            .pattern
            .node_label(*node)
            .ok_or_else(|| GoodError::NodeNotInPattern(format!("{node:?}")))?;
        if !conforms(actual, expected) {
            return Err(GoodError::MethodSignatureMismatch(format!(
                "parameter {param} has label {actual}, expected {expected} (or a subclass)"
            )));
        }
    }

    // The scope entry and span cover the whole K-construction (frame
    // addition, body, frame deletion, scheme restriction); the closure
    // guarantees the scope stack unwinds on every exit path.
    env.enter_method(&call.method);
    let mut method_span = if good_trace::enabled() {
        good_trace::span("method", &format!("method/{}", call.method))
    } else {
        good_trace::SpanGuard::disabled()
    };
    LIVE_CALLS.incr();
    if method_span.is_live() {
        method_span.arg("depth", env.method_depth());
    }
    let fuel_before = env.fuel_left();
    let result = run_call(&method, call, receiver_label, db, env);
    if method_span.is_live() {
        method_span.arg("fuel_burned", fuel_before - env.fuel_left());
        if let Ok(report) = &result {
            method_span.arg("matchings", report.matchings);
        }
    }
    drop(method_span);
    env.exit_method();
    result
}

/// The K-construction proper (steps 1–4 of the module doc), factored
/// out of [`execute_call`] so scope/span bookkeeping wraps every exit
/// path exactly once.
fn run_call(
    method: &Method,
    call: &MethodCall,
    receiver_label: &Label,
    db: &mut Instance,
    env: &mut Env,
) -> Result<OpReport> {
    // ---- snapshot the call-time scheme for the final restriction -------
    let call_scheme = db.scheme().clone();

    // ---- 1. frame node addition ----------------------------------------
    let frame = Label::system(format!(
        "$frame:{}:{}",
        method.spec.name,
        env.next_frame_id()
    ));
    let mut frame_edges: Vec<(Label, NodeId)> = call
        .args
        .iter()
        .map(|(param, node)| (param.clone(), *node))
        .collect();
    frame_edges.push((Label::system(RECEIVER_EDGE), call.receiver));
    let frame_na = NodeAddition::new(call.pattern.clone(), frame.clone(), frame_edges);
    env.burn_fuel()?;
    let frame_report = frame_na.apply(db)?;
    let mut report = OpReport {
        matchings: frame_report.matchings,
        ..OpReport::default()
    };

    // ---- 2. body execution (skipped when no frames exist: every
    //         rewritten body operation would be vacuous) -----------------
    if !frame_report.created_nodes.is_empty() {
        let subclass_receiver = if receiver_label == &method.spec.receiver {
            None
        } else {
            Some(receiver_label.clone())
        };
        for (body_index, body_op) in method.body.iter().enumerate() {
            let mut rewritten = rewrite_body_op(body_op, &method.spec.name, &frame)?;
            if let Some(actual) = &subclass_receiver {
                adapt_for_subclass_receiver(
                    &mut rewritten,
                    &frame,
                    &method.spec.receiver,
                    actual,
                    db,
                )?;
            }
            env.enter_op(body_index, body_op.mnemonic());
            let sub_report = rewritten.apply(db, env);
            env.exit_op();
            report.absorb(&sub_report?);
        }
        // `matchings` reports the CALL pattern's matchings, not the sum
        // over body operations.
        report.matchings = frame_report.matchings;
    }

    // ---- 3. delete the frame nodes --------------------------------------
    let mut frame_pattern = Pattern::new();
    let frame_node = frame_pattern.node(frame.clone());
    env.burn_fuel()?;
    NodeDeletion::new(frame_pattern, frame_node).apply(db)?;

    // ---- 4. restrict to (call-time scheme) ∪ interface -------------------
    let result_scheme = call_scheme.union(&method.interface)?;
    db.restrict_to_scheme(&result_scheme);

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{EdgeAddition, EdgeDeletion};
    use crate::scheme::SchemeBuilder;
    use crate::value::{Value, ValueType};

    use crate::gen::bench_scheme as scheme;

    fn named_info(db: &mut Instance, name: &str) -> NodeId {
        let info = db.add_object("Info").unwrap();
        let s = db.add_printable("String", name).unwrap();
        db.add_edge(info, "name", s).unwrap();
        info
    }

    /// The paper's `Update` method (Figure 20): delete the old modified
    /// edge, add a new one to the Date parameter.
    fn update_method() -> Method {
        let spec = MethodSpec::new(
            "Update",
            "Info",
            [(Label::new("parameter"), Label::new("Date"))],
        );
        // Body op 1: ED — delete (receiver) -modified-> Date.
        let mut p1 = Pattern::new();
        let head1 = p1.method_head("Update");
        let info1 = p1.node("Info");
        let old_date = p1.node("Date");
        p1.edge(head1, Label::system(RECEIVER_EDGE), info1);
        p1.edge(info1, "modified", old_date);
        let ed = EdgeDeletion::single(p1, info1, "modified", old_date);
        // Body op 2: EA — add (receiver) -modified-> (parameter).
        let mut p2 = Pattern::new();
        let head2 = p2.method_head("Update");
        let info2 = p2.node("Info");
        let new_date = p2.node("Date");
        p2.edge(head2, Label::system(RECEIVER_EDGE), info2);
        p2.edge(head2, "parameter", new_date);
        let ea = EdgeAddition::functional(p2, info2, "modified", new_date);
        Method::new(
            spec,
            vec![Operation::EdgeDel(ed), Operation::EdgeAdd(ea)],
            Scheme::new(),
        )
    }

    /// Figure 21: call Update on every Music History info with Jan 16.
    fn update_call() -> MethodCall {
        let mut p = Pattern::new();
        let info = p.node("Info");
        let name = p.printable("String", "Music History");
        let date = p.printable("Date", Value::date(1990, 1, 16));
        p.edge(info, "name", name);
        MethodCall::new("Update", p, info, [(Label::new("parameter"), date)])
    }

    #[test]
    fn figure20_21_update_changes_modified_date() {
        let mut db = Instance::new(scheme());
        let music = named_info(&mut db, "Music History");
        let other = named_info(&mut db, "Other");
        let d14 = db.add_printable("Date", Value::date(1990, 1, 14)).unwrap();
        db.add_edge(music, "modified", d14).unwrap();
        db.add_edge(other, "modified", d14).unwrap();
        db.add_printable("Date", Value::date(1990, 1, 16)).unwrap();

        let mut env = Env::new();
        env.register(update_method());
        execute_call(&update_call(), &mut db, &mut env).unwrap();

        let target = db.functional_target(music, &"modified".into()).unwrap();
        assert_eq!(db.print_value(target), Some(&Value::date(1990, 1, 16)));
        // Unmatched receivers are untouched.
        let other_target = db.functional_target(other, &"modified".into()).unwrap();
        assert_eq!(
            db.print_value(other_target),
            Some(&Value::date(1990, 1, 14))
        );
        // No frame residue.
        assert!(db.nodes().all(|(_, data)| !data.label.is_system()));
        assert_eq!(db.scheme(), &scheme());
        db.validate().unwrap();
    }

    #[test]
    fn update_works_when_no_modified_edge_exists_yet() {
        // The ED body op simply has no matchings; the EA still fires.
        let mut db = Instance::new(scheme());
        let music = named_info(&mut db, "Music History");
        db.add_printable("Date", Value::date(1990, 1, 16)).unwrap();
        let mut env = Env::new();
        env.register(update_method());
        execute_call(&update_call(), &mut db, &mut env).unwrap();
        assert!(db.functional_target(music, &"modified".into()).is_some());
    }

    #[test]
    fn call_with_no_matchings_is_noop() {
        let mut db = Instance::new(scheme());
        named_info(&mut db, "Something Else");
        db.add_printable("Date", Value::date(1990, 1, 16)).unwrap();
        let mut env = Env::new();
        env.register(update_method());
        let snapshot = db.clone();
        execute_call(&update_call(), &mut db, &mut env).unwrap();
        assert!(db.isomorphic_to(&snapshot));
    }

    #[test]
    fn signature_mismatches_rejected() {
        let mut db = Instance::new(scheme());
        named_info(&mut db, "Music History");
        let mut env = Env::new();
        env.register(update_method());

        // Wrong receiver label.
        let mut p = Pattern::new();
        let date = p.node("Date");
        let call = MethodCall::new("Update", p, date, []);
        assert!(matches!(
            execute_call(&call, &mut db, &mut env),
            Err(GoodError::MethodSignatureMismatch(_))
        ));

        // Missing parameter.
        let mut p = Pattern::new();
        let info = p.node("Info");
        let call = MethodCall::new("Update", p, info, []);
        assert!(matches!(
            execute_call(&call, &mut db, &mut env),
            Err(GoodError::MethodSignatureMismatch(_))
        ));

        // Parameter with wrong node label.
        let mut p = Pattern::new();
        let info = p.node("Info");
        let wrong = p.node("String");
        let call = MethodCall::new("Update", p, info, [(Label::new("parameter"), wrong)]);
        assert!(matches!(
            execute_call(&call, &mut db, &mut env),
            Err(GoodError::MethodSignatureMismatch(_))
        ));
    }

    #[test]
    fn unknown_method_is_an_error() {
        let mut db = Instance::new(scheme());
        let mut p = Pattern::new();
        let info = p.node("Info");
        let call = MethodCall::new("Nope", p, info, []);
        let mut env = Env::new();
        assert!(matches!(
            execute_call(&call, &mut db, &mut env),
            Err(GoodError::UnknownMethod(_))
        ));
    }

    #[test]
    fn methods_dispatch_on_subclasses() {
        // Section 4.2: "a method can be called on objects belonging to
        // subclasses of the method's specified receiver". The Update
        // method is declared on Info; we call it on a Reference whose
        // properties live on its isa-target Info object.
        let scheme = SchemeBuilder::new()
            .object("Info")
            .object("Reference")
            .printable("String", ValueType::Str)
            .printable("Date", ValueType::Date)
            .functional("Info", "name", "String")
            .functional("Info", "modified", "Date")
            .subclass("Reference", "isa", "Info")
            .build();
        let mut db = Instance::new(scheme);
        let info = db.add_object("Info").unwrap();
        let name = db.add_printable("String", "Music History").unwrap();
        db.add_edge(info, "name", name).unwrap();
        let d14 = db.add_printable("Date", Value::date(1990, 1, 14)).unwrap();
        db.add_edge(info, "modified", d14).unwrap();
        let reference = db.add_object("Reference").unwrap();
        db.add_edge(reference, "isa", info).unwrap();
        db.add_printable("Date", Value::date(1990, 1, 16)).unwrap();

        let mut env = Env::new();
        env.register(update_method());
        // Call Update with a Reference receiver.
        let mut p = Pattern::new();
        let recv = p.node("Reference");
        let date = p.printable("Date", Value::date(1990, 1, 16));
        let call = MethodCall::new("Update", p, recv, [(Label::new("parameter"), date)]);
        execute_call(&call, &mut db, &mut env).unwrap();

        // The write landed on the underlying Info object (the paper's
        // Figure 31 internal translation), not on the Reference.
        let target = db.functional_target(info, &"modified".into()).unwrap();
        assert_eq!(db.print_value(target), Some(&Value::date(1990, 1, 16)));
        assert!(db
            .functional_target(reference, &"modified".into())
            .is_none());
        assert_eq!(db.label_count(&"Reference".into()), 1);
        db.validate().unwrap();
    }

    #[test]
    fn unrelated_receiver_classes_still_rejected() {
        let scheme = SchemeBuilder::new()
            .object("Info")
            .object("Version")
            .printable("Date", ValueType::Date)
            .functional("Info", "modified", "Date")
            .build();
        let mut db = Instance::new(scheme);
        db.add_object("Version").unwrap();
        let mut env = Env::new();
        env.register(update_method());
        let mut p = Pattern::new();
        let recv = p.node("Version");
        let date = p.node("Date");
        let call = MethodCall::new("Update", p, recv, [(Label::new("parameter"), date)]);
        assert!(matches!(
            execute_call(&call, &mut db, &mut env),
            Err(GoodError::MethodSignatureMismatch(_))
        ));
    }

    #[test]
    fn interface_filters_temporaries() {
        // A method that creates a Temp node per receiver and an Out node
        // declared in the interface: Temp disappears, Out persists.
        let mut interface = Scheme::new();
        interface.add_object_label("Out").unwrap();
        interface.add_functional_label("for").unwrap();
        interface.add_object_label("Info").unwrap();
        interface.add_triple("Out", "for", "Info").unwrap();

        // Body op 1: NA Temp with edge to receiver.
        let mut p1 = Pattern::new();
        let head1 = p1.method_head("M");
        let recv1 = p1.node("Info");
        p1.edge(head1, Label::system(RECEIVER_EDGE), recv1);
        let na_temp = NodeAddition::new(p1, "Temp", [(Label::new("t"), recv1)]);
        // Body op 2: NA Out with edge to receiver (via the Temp node, to
        // prove intermediates are usable inside the body).
        let mut p2 = Pattern::new();
        let head2 = p2.method_head("M");
        let recv2 = p2.node("Info");
        let temp2 = p2.node("Temp");
        p2.edge(head2, Label::system(RECEIVER_EDGE), recv2);
        p2.edge(temp2, "t", recv2);
        let na_out = NodeAddition::new(p2, "Out", [(Label::new("for"), recv2)]);

        let method = Method::new(
            MethodSpec::new("M", "Info", []),
            vec![Operation::NodeAdd(na_temp), Operation::NodeAdd(na_out)],
            interface,
        );

        let mut db = Instance::new(scheme());
        let info = named_info(&mut db, "x");
        let mut env = Env::new();
        env.register(method);
        let mut p = Pattern::new();
        let pinfo = p.node("Info");
        execute_call(&MethodCall::new("M", p, pinfo, []), &mut db, &mut env).unwrap();

        // Temp has been filtered out (it is in neither the original
        // scheme nor the interface), Out persists.
        assert_eq!(db.label_count(&"Temp".into()), 0);
        assert!(!db.scheme().is_object_label(&"Temp".into()));
        assert_eq!(db.label_count(&"Out".into()), 1);
        let out = db.nodes_with_label(&"Out".into()).next().unwrap();
        assert_eq!(db.functional_target(out, &"for".into()), Some(info));
        db.validate().unwrap();
    }

    #[test]
    fn one_frame_per_distinct_receiver_parameter_combination() {
        // Two matchings with the same receiver image must execute the
        // body once (the frame NA deduplicates restrictions).
        let mut db = Instance::new(scheme());
        let hub = named_info(&mut db, "hub");
        let a = named_info(&mut db, "a");
        let b = named_info(&mut db, "b");
        db.add_edge(hub, "links-to", a).unwrap();
        db.add_edge(hub, "links-to", b).unwrap();

        // Method: NA a Mark node attached to the receiver. Marks are
        // deduplicated per receiver by NA semantics anyway, so instead
        // count via interface-persistent class.
        let mut interface = Scheme::new();
        interface.add_object_label("Mark").unwrap();
        interface.add_functional_label("on").unwrap();
        interface.add_object_label("Info").unwrap();
        interface.add_triple("Mark", "on", "Info").unwrap();
        let mut pb = Pattern::new();
        let head = pb.method_head("Mark");
        let recv = pb.node("Info");
        pb.edge(head, Label::system(RECEIVER_EDGE), recv);
        let na = NodeAddition::new(pb, "Mark", [(Label::new("on"), recv)]);
        let method = Method::new(
            MethodSpec::new("Mark", "Info", []),
            vec![Operation::NodeAdd(na)],
            interface,
        );

        // Call pattern: Info -links-to-> Info, receiver = source. Two
        // matchings, one distinct receiver.
        let mut p = Pattern::new();
        let src = p.node("Info");
        let dst = p.node("Info");
        p.edge(src, "links-to", dst);
        let mut env = Env::new();
        env.register(method);
        let report = execute_call(&MethodCall::new("Mark", p, src, []), &mut db, &mut env).unwrap();
        assert_eq!(report.matchings, 2);
        assert_eq!(db.label_count(&"Mark".into()), 1);
        let mark = db.nodes_with_label(&"Mark".into()).next().unwrap();
        assert_eq!(db.functional_target(mark, &"on".into()), Some(hub));
    }
}
