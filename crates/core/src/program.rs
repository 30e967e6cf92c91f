//! Programs — sequences of GOOD operations — and the execution
//! environment.
//!
//! "In GOOD, basic operations are applied in a predetermined order
//! (possibly within method executions), and, importantly, work on every
//! matching of the pattern, in parallel" (Section 5). [`Program`] is
//! that predetermined order; [`Env`] carries the method registry and a
//! fuel bound that makes divergent recursion detectable (the full
//! language simulates Turing machines, so termination cannot be checked
//! statically).

use crate::derived::ViewMut;
use crate::error::{GoodError, Result};
use crate::instance::Instance;
use crate::method::{execute_call, Method, MethodCall};
use crate::ops::{Abstraction, EdgeAddition, EdgeDeletion, NodeAddition, NodeDeletion, OpReport};
use crate::pattern::Pattern;
use good_trace::LiveCounter;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Basic operations applied (directly or as a fixpoint rule).
static LIVE_APPLIED: LiveCounter = LiveCounter::new("op.applied");

/// One step of a GOOD program: a basic operation or a method call.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Operation {
    /// Node addition (`NA`).
    NodeAdd(NodeAddition),
    /// Edge addition (`EA`).
    EdgeAdd(EdgeAddition),
    /// Node deletion (`ND`).
    NodeDel(NodeDeletion),
    /// Edge deletion (`ED`).
    EdgeDel(EdgeDeletion),
    /// Abstraction (`AB`).
    Abstract(Abstraction),
    /// Method call (`MC`).
    Call(MethodCall),
}

impl Operation {
    /// The operation's source pattern.
    pub fn pattern(&self) -> &Pattern {
        match self {
            Operation::NodeAdd(op) => &op.pattern,
            Operation::EdgeAdd(op) => &op.pattern,
            Operation::NodeDel(op) => &op.pattern,
            Operation::EdgeDel(op) => &op.pattern,
            Operation::Abstract(op) => &op.pattern,
            Operation::Call(op) => &op.pattern,
        }
    }

    /// Mutable access to the source pattern (used by the method
    /// machinery to graft frame nodes).
    pub(crate) fn pattern_mut(&mut self) -> &mut Pattern {
        match self {
            Operation::NodeAdd(op) => &mut op.pattern,
            Operation::EdgeAdd(op) => &mut op.pattern,
            Operation::NodeDel(op) => &mut op.pattern,
            Operation::EdgeDel(op) => &mut op.pattern,
            Operation::Abstract(op) => &mut op.pattern,
            Operation::Call(op) => &mut op.pattern,
        }
    }

    /// A short mnemonic, as in the paper (`NA`, `EA`, `ND`, `ED`, `AB`,
    /// `MC`).
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Operation::NodeAdd(_) => "NA",
            Operation::EdgeAdd(_) => "EA",
            Operation::NodeDel(_) => "ND",
            Operation::EdgeDel(_) => "ED",
            Operation::Abstract(_) => "AB",
            Operation::Call(_) => "MC",
        }
    }

    /// Apply this operation to `db` within `env`.
    pub fn apply(&self, db: &mut Instance, env: &mut Env) -> Result<OpReport> {
        self.apply_to(ViewMut::new(db, None), env)
    }

    /// [`Operation::apply`] with an edge addition's edges going where
    /// `target` takes them (see [`ViewMut`]); every other operation acts
    /// on the instance.
    pub fn apply_to(&self, target: ViewMut<'_>, env: &mut Env) -> Result<OpReport> {
        env.burn_fuel()?;
        // Static span names for the five basic ops keep the disabled
        // path allocation-free; the method call's dynamic name is built
        // only when a recorder is installed.
        let mut op_span = match self {
            Operation::NodeAdd(_) => good_trace::span("op", "op/NA"),
            Operation::EdgeAdd(_) => good_trace::span("op", "op/EA"),
            Operation::NodeDel(_) => good_trace::span("op", "op/ND"),
            Operation::EdgeDel(_) => good_trace::span("op", "op/ED"),
            Operation::Abstract(_) => good_trace::span("op", "op/AB"),
            Operation::Call(op) => {
                if good_trace::enabled() {
                    good_trace::span("op", &format!("op/MC:{}", op.method))
                } else {
                    good_trace::SpanGuard::disabled()
                }
            }
        };
        let db = &mut *target.instance;
        let result = match self {
            Operation::NodeAdd(op) => op.apply(db),
            Operation::EdgeAdd(op) => op.apply_to(target),
            Operation::NodeDel(op) => op.apply(db),
            Operation::EdgeDel(op) => op.apply(db),
            Operation::Abstract(op) => op.apply(db),
            Operation::Call(op) => execute_call(op, db, env),
        };
        record_report(&mut op_span, &result);
        result
    }
}

/// Close an `op/*` span over `result`: count the application and attach
/// the report's numbers. Shared with the fixpoint evaluator, which
/// applies edge-addition rules without going through
/// [`Operation::apply`].
pub(crate) fn record_report(op_span: &mut good_trace::SpanGuard, result: &Result<OpReport>) {
    LIVE_APPLIED.incr();
    if op_span.is_live() {
        if let Ok(report) = result {
            op_span.arg("matchings", report.matchings);
            op_span.arg("nodes_added", report.created_nodes.len());
            op_span.arg("edges_added", report.edges_added);
            op_span.arg("nodes_deleted", report.nodes_deleted);
            op_span.arg("edges_deleted", report.edges_deleted);
        }
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operation::NodeAdd(op) => write!(
                f,
                "NA[{} node(s), add {} with {} bold edge(s)]",
                op.pattern.node_count(),
                op.label,
                op.edges.len()
            ),
            Operation::EdgeAdd(op) => write!(
                f,
                "EA[{} node(s), add {} bold edge(s)]",
                op.pattern.node_count(),
                op.edges.len()
            ),
            Operation::NodeDel(op) => {
                write!(f, "ND[{} node(s)]", op.pattern.node_count())
            }
            Operation::EdgeDel(op) => write!(
                f,
                "ED[{} node(s), delete {} edge(s)]",
                op.pattern.node_count(),
                op.edges.len()
            ),
            Operation::Abstract(op) => write!(
                f,
                "AB[{} node(s), {} per {} via {}]",
                op.pattern.node_count(),
                op.group_label,
                op.key_edge,
                op.member_edge
            ),
            Operation::Call(op) => write!(f, "MC[{}]", op.method),
        }
    }
}

/// One entry of the execution scope stack: which program op or method
/// call the engine is currently inside. Maintained by [`Program::apply`]
/// and the method machinery so fuel exhaustion can say *where* the
/// budget ran out.
#[derive(Debug, Clone)]
enum ScopeEntry {
    /// Inside a method call of the named method.
    Method(String),
    /// Inside a program or method-body operation.
    Op {
        index: usize,
        mnemonic: &'static str,
    },
}

/// The execution environment: registered methods plus a fuel bound.
#[derive(Debug, Clone)]
pub struct Env {
    methods: HashMap<String, Method>,
    fuel: u64,
    budget: u64,
    frame_counter: u64,
    scope: Vec<ScopeEntry>,
}

/// Default fuel: generous for any reasonable program, small enough that
/// a divergent recursion fails in well under a second.
pub const DEFAULT_FUEL: u64 = 100_000;

impl Default for Env {
    fn default() -> Self {
        Env::with_fuel(DEFAULT_FUEL)
    }
}

impl Env {
    /// An environment with the default fuel and no methods.
    pub fn new() -> Self {
        Env::default()
    }

    /// An environment with an explicit fuel budget.
    pub fn with_fuel(fuel: u64) -> Self {
        Env {
            methods: HashMap::new(),
            fuel,
            budget: fuel,
            frame_counter: 0,
            scope: Vec::new(),
        }
    }

    /// Register a method under its specification name. Replaces any
    /// previous definition with the same name.
    pub fn register(&mut self, method: Method) {
        self.methods.insert(method.spec.name.clone(), method);
    }

    /// Look up a method by name.
    pub fn method(&self, name: &str) -> Result<&Method> {
        self.methods
            .get(name)
            .ok_or_else(|| GoodError::UnknownMethod(name.to_string()))
    }

    /// Consume one unit of fuel. Public so that macro layers and system
    /// methods built outside this crate can participate in the fuel
    /// accounting.
    pub fn burn_fuel(&mut self) -> Result<()> {
        if self.fuel == 0 {
            return Err(GoodError::OutOfFuel {
                budget: self.budget,
                context: self.scope_context(),
            });
        }
        self.fuel -= 1;
        Ok(())
    }

    /// Human description of the current execution scope — the method
    /// call stack interleaved with op indices, outermost first, e.g.
    /// `op 2 (MC) > method Update > op 1 (EA)`. Empty outside any
    /// program or method.
    pub fn scope_context(&self) -> String {
        self.scope
            .iter()
            .map(|entry| match entry {
                ScopeEntry::Method(name) => format!("method {name}"),
                ScopeEntry::Op { index, mnemonic } => format!("op {index} ({mnemonic})"),
            })
            .collect::<Vec<_>>()
            .join(" > ")
    }

    /// Current method recursion depth (number of method frames on the
    /// scope stack).
    pub fn method_depth(&self) -> usize {
        self.scope
            .iter()
            .filter(|entry| matches!(entry, ScopeEntry::Method(_)))
            .count()
    }

    pub(crate) fn enter_op(&mut self, index: usize, mnemonic: &'static str) {
        self.scope.push(ScopeEntry::Op { index, mnemonic });
    }

    pub(crate) fn exit_op(&mut self) {
        debug_assert!(matches!(self.scope.last(), Some(ScopeEntry::Op { .. })));
        self.scope.pop();
    }

    pub(crate) fn enter_method(&mut self, name: &str) {
        self.scope.push(ScopeEntry::Method(name.to_string()));
    }

    pub(crate) fn exit_method(&mut self) {
        debug_assert!(matches!(self.scope.last(), Some(ScopeEntry::Method(_))));
        self.scope.pop();
    }

    /// Remaining fuel (for diagnostics).
    pub fn fuel_left(&self) -> u64 {
        self.fuel
    }

    /// Reset fuel to the original budget.
    pub fn refuel(&mut self) {
        self.fuel = self.budget;
    }

    /// A fresh, unique frame counter value for method-call frame labels.
    pub(crate) fn next_frame_id(&mut self) -> u64 {
        let id = self.frame_counter;
        self.frame_counter += 1;
        id
    }
}

/// A sequence of operations.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Program {
    ops: Vec<Operation>,
}

impl Program {
    /// The empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Build from operations.
    pub fn from_ops(ops: impl IntoIterator<Item = Operation>) -> Self {
        Program {
            ops: ops.into_iter().collect(),
        }
    }

    /// Append an operation.
    pub fn push(&mut self, op: Operation) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// The operations in order.
    pub fn ops(&self) -> &[Operation] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the program has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Run all operations in order, merging their reports. Stops at the
    /// first error (the paper treats a failing edge addition as an
    /// undefined result for the whole program).
    pub fn apply(&self, db: &mut Instance, env: &mut Env) -> Result<OpReport> {
        let mut total = OpReport::default();
        for (index, op) in self.ops.iter().enumerate() {
            env.enter_op(index, op.mnemonic());
            let result = op.apply(db, env);
            env.exit_op();
            total.absorb(&result?);
        }
        Ok(total)
    }

    /// Run the program in **query mode** (Section 3's "whether this
    /// latter database graph is only a temporary entity or actually
    /// replaces the original database graph depends on whether the
    /// transformation represents, e.g., a query or an update"): the
    /// program is applied to a copy, the original stays untouched, and
    /// the resulting temporary instance is returned.
    pub fn apply_as_query(&self, db: &Instance, env: &mut Env) -> Result<(Instance, OpReport)> {
        let mut temporary = db.clone();
        let report = self.apply(&mut temporary, env)?;
        Ok((temporary, report))
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (index, op) in self.ops.iter().enumerate() {
            writeln!(f, "{:>3}. {op}", index + 1)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::NodeAddition;
    use crate::scheme::SchemeBuilder;
    use crate::value::ValueType;

    fn db() -> Instance {
        let scheme = SchemeBuilder::new()
            .object("Info")
            .printable("String", ValueType::Str)
            .functional("Info", "name", "String")
            .build();
        let mut db = Instance::new(scheme);
        let info = db.add_object("Info").unwrap();
        let s = db.add_printable("String", "x").unwrap();
        db.add_edge(info, "name", s).unwrap();
        db
    }

    #[test]
    fn program_runs_operations_in_order() {
        let mut db = db();
        let mut env = Env::new();
        let mut program = Program::new();
        // Tag every Info, then tag every Tag.
        let mut p = Pattern::new();
        let info = p.node("Info");
        program.push(Operation::NodeAdd(NodeAddition::new(
            p,
            "Tag",
            [(crate::label::Label::new("of"), info)],
        )));
        let mut p2 = Pattern::new();
        let tag = p2.node("Tag");
        program.push(Operation::NodeAdd(NodeAddition::new(
            p2,
            "Meta",
            [(crate::label::Label::new("over"), tag)],
        )));
        let report = program.apply(&mut db, &mut env).unwrap();
        assert_eq!(report.created_nodes.len(), 2);
        assert_eq!(db.label_count(&"Tag".into()), 1);
        assert_eq!(db.label_count(&"Meta".into()), 1);
    }

    #[test]
    fn query_mode_leaves_the_original_untouched() {
        let original = db();
        let mut env = Env::new();
        let mut p = Pattern::new();
        let info = p.node("Info");
        let program = Program::from_ops([Operation::NodeAdd(NodeAddition::new(
            p,
            "Answer",
            [(crate::label::Label::new("of"), info)],
        ))]);
        let (result, report) = program.apply_as_query(&original, &mut env).unwrap();
        assert_eq!(report.created_nodes.len(), 1);
        assert_eq!(result.label_count(&"Answer".into()), 1);
        // The original knows nothing of Answer — not even its label.
        assert_eq!(original.label_count(&"Answer".into()), 0);
        assert!(!original.scheme().is_object_label(&"Answer".into()));
    }

    #[test]
    fn fuel_exhaustion_reported() {
        let mut db = db();
        let mut env = Env::with_fuel(1);
        let program = Program::from_ops([
            Operation::NodeAdd(NodeAddition::new(Pattern::new(), "A", [])),
            Operation::NodeAdd(NodeAddition::new(Pattern::new(), "B", [])),
        ]);
        let err = program.apply(&mut db, &mut env).unwrap_err();
        assert!(matches!(err, GoodError::OutOfFuel { budget: 1, .. }));
        // The error names the op whose application exhausted the budget.
        assert!(
            err.to_string().contains("op 1 (NA)"),
            "fuel error should carry scope context: {err}"
        );
        env.refuel();
        assert_eq!(env.fuel_left(), 1);
    }

    #[test]
    fn scope_context_unwinds_cleanly() {
        let mut db = db();
        let mut env = Env::new();
        let mut p = Pattern::new();
        let info = p.node("Info");
        let program = Program::from_ops([Operation::NodeAdd(NodeAddition::new(
            p,
            "Tag",
            [(crate::label::Label::new("of"), info)],
        ))]);
        program.apply(&mut db, &mut env).unwrap();
        assert_eq!(env.scope_context(), "");
        assert_eq!(env.method_depth(), 0);
    }

    #[test]
    fn unknown_method_lookup() {
        let env = Env::new();
        assert!(matches!(
            env.method("nope"),
            Err(GoodError::UnknownMethod(_))
        ));
    }

    #[test]
    fn display_lists_steps() {
        let program = Program::from_ops([Operation::NodeAdd(NodeAddition::new(
            Pattern::new(),
            "A",
            [],
        ))]);
        let text = program.to_string();
        assert!(text.contains("1. NA["));
    }

    #[test]
    fn empty_program_is_noop() {
        let mut instance = db();
        let before = instance.node_count();
        Program::new()
            .apply(&mut instance, &mut Env::new())
            .unwrap();
        assert_eq!(instance.node_count(), before);
    }
}
