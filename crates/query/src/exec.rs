//! Query execution: three independent lanes over one compiled query.
//!
//! * **Core** — the compiled GOOD program (edge additions + starred
//!   edge additions) materializes derived path labels into an `O(1)`
//!   scratch clone, then the native pattern matcher answers the match
//!   (negation included).
//! * **Relational** — property paths are recomputed with a plain-Rust
//!   BFS over exact-length frontiers, the derived edges inserted into
//!   a scratch clone, and `RelBackend` (the paper's relational
//!   encoding) answers the positive match; crossed edges become the
//!   negation macro's set difference.
//! * **Tarski** — the same pairs are recomputed a third way, in the
//!   binary-relation algebra (`compose` / `union` / `identity` /
//!   `transitive_closure`), and `TarskiBackend` answers a
//!   predicate-free match with WHERE predicates post-filtered.
//!
//! The three lanes share only the parsed AST — path computation, join
//! machinery, and negation handling are all independent — so
//! [`run_differential`] is a genuine cross-check of the paper's
//! equivalence theorems, not one computation viewed three ways.
//!
//! Rows are canonicalized identically everywhere: cells render as the
//! GOODQL literal for printables and `label#index` for objects; rows
//! sort lexicographically; `DISTINCT` dedups; `LIMIT` truncates after
//! the sort. Identical `QueryOutput`s therefore mean identical answer
//! sets. The projection works on node ids: every lane hands it the
//! RETURN columns as a flat id table, each cell gets an integer sort key
//! that orders as its text would (see [`index_key`]; printables are
//! rendered once per distinct node and ranked), rows are ordered,
//! deduplicated and truncated as key tuples, and `String`s are
//! allocated only for the rows that survive ([`RowSet::into_output`]).

use crate::ast::render_value;
use crate::compile::{compile, CompiledQuery, PathDerivation, Step};
use crate::parser::parse_query;
use crate::QueryError;
use good_core::instance::Instance;
use good_core::label::Label;
use good_core::matching::{explain_plan_profiled, find_match_table, MatchConfig, Matching};
use good_core::pattern::Pattern;
use good_core::program::Env;
use good_graph::NodeId;
use good_relational::backend::RelBackend;
use good_tarski::{BinRel, TarskiBackend};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Which execution lane answers the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The GOOD pattern matcher over the compiled program (default).
    Core,
    /// The relational encoding (`good-relational`).
    Relational,
    /// The binary-relation algebra (`good-tarski`).
    Tarski,
}

impl Backend {
    /// All lanes, in differential-comparison order.
    pub const ALL: [Backend; 3] = [Backend::Core, Backend::Relational, Backend::Tarski];

    /// The lane's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Core => "core",
            Backend::Relational => "relational",
            Backend::Tarski => "tarski",
        }
    }

    /// Parse a CLI name.
    pub fn from_name(name: &str) -> Option<Backend> {
        match name {
            "core" => Some(Backend::Core),
            "relational" | "rel" => Some(Backend::Relational),
            "tarski" => Some(Backend::Tarski),
            _ => None,
        }
    }
}

/// A canonicalized query answer: column names (the RETURN variables)
/// and lexicographically sorted rows of rendered cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOutput {
    /// The RETURN variables, in RETURN order.
    pub columns: Vec<String>,
    /// Sorted rows; printables render as literals, objects as
    /// `label#index`.
    pub rows: Vec<Vec<String>>,
}

/// A canonicalized answer before its cells become `String`s. Lets a
/// caller size a reply ([`RowSet::cell_bytes`]) before paying for it.
#[derive(Debug, Clone)]
pub struct RowSet {
    columns: Vec<String>,
    /// What each column's cells hold — a variable has one class, so a
    /// column is all objects of one label or all printables.
    kinds: Vec<ColumnKind>,
    /// Row-major cells of the surviving rows, in canonical order.
    cells: Vec<u64>,
}

#[derive(Debug, Clone)]
enum ColumnKind {
    /// Objects of this class; a cell is the node's arena index and
    /// renders `class#index`.
    Objects(Label),
    /// Printables; a cell indexes these literals, the column's distinct
    /// rendered values in ascending order.
    Printables(Vec<String>),
}

impl RowSet {
    /// The RETURN variables, in RETURN order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.cells.len() / self.columns.len().max(1)
    }

    /// True for the empty answer.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    fn rows(&self) -> impl Iterator<Item = &[u64]> {
        self.cells.chunks(self.columns.len().max(1))
    }

    /// Total bytes of rendered cell text over all rows.
    pub fn cell_bytes(&self) -> usize {
        let cell_len = |(kind, &cell): (&ColumnKind, &u64)| match kind {
            ColumnKind::Objects(class) => {
                class.as_str().len() + 1 + cell.checked_ilog10().map_or(1, |log| log as usize + 1)
            }
            ColumnKind::Printables(literals) => literals[cell as usize].len(),
        };
        self.rows()
            .flat_map(|row| self.kinds.iter().zip(row).map(cell_len))
            .sum()
    }

    /// Render the rows: one exact-size allocation per cell, no
    /// `format!`.
    pub fn into_output(self) -> QueryOutput {
        let render = |(kind, &cell): (&ColumnKind, &u64)| match kind {
            ColumnKind::Objects(class) => {
                let mut digits = [0u8; 20];
                let (mut at, mut rest) = (digits.len(), cell);
                loop {
                    at -= 1;
                    digits[at] = b'0' + (rest % 10) as u8;
                    rest /= 10;
                    if rest == 0 {
                        break;
                    }
                }
                let digits = std::str::from_utf8(&digits[at..]).expect("ascii digits");
                [class.as_str(), "#", digits].concat()
            }
            ColumnKind::Printables(literals) => literals[cell as usize].clone(),
        };
        let rows = self
            .rows()
            .map(|row| self.kinds.iter().zip(row).map(render).collect())
            .collect();
        QueryOutput {
            columns: self.columns,
            rows,
        }
    }
}

/// Parse, compile, and execute `text` against `db` on one backend.
pub fn run(db: &Instance, text: &str, backend: Backend) -> Result<QueryOutput, QueryError> {
    let query = parse_query(text)?;
    let compiled = compile(&query, db.scheme())?;
    execute(db, &compiled, backend)
}

/// Execute a compiled query on one backend.
pub fn execute(
    db: &Instance,
    compiled: &CompiledQuery,
    backend: Backend,
) -> Result<QueryOutput, QueryError> {
    execute_rows(db, compiled, backend).map(RowSet::into_output)
}

/// [`execute`], stopping before the row `String`s are allocated.
pub fn execute_rows(
    db: &Instance,
    compiled: &CompiledQuery,
    backend: Backend,
) -> Result<RowSet, QueryError> {
    let cells = match backend {
        Backend::Core => core_cells(db, compiled)?,
        Backend::Relational => returned(compiled, &relational_tuples(db, compiled)?),
        Backend::Tarski => returned(compiled, &tarski_tuples(db, compiled)?),
    };
    Ok(project(db, compiled, &cells))
}

/// Execute on all three backends and require bit-identical outputs —
/// the differential oracle. Returns the (agreed) output.
pub fn run_differential(db: &Instance, text: &str) -> Result<QueryOutput, QueryError> {
    let query = parse_query(text)?;
    let compiled = compile(&query, db.scheme())?;
    let core = execute(db, &compiled, Backend::Core)?;
    for backend in [Backend::Relational, Backend::Tarski] {
        let other = execute(db, &compiled, backend)?;
        if other != core {
            return Err(QueryError::Exec(format!(
                "differential mismatch: core returned {} row(s), {} returned {} row(s) \
                 for `{query}`",
                core.rows.len(),
                backend.name(),
                other.rows.len(),
            )));
        }
    }
    Ok(core)
}

/// Parse, compile, and render the compiled program plus the match plan
/// (`explain_plan_profiled` with a pinned single-thread config, so the
/// render is stable for goldens).
pub fn explain(db: &Instance, text: &str) -> Result<String, QueryError> {
    let query = parse_query(text)?;
    let compiled = compile(&query, db.scheme())?;
    let scratch = materialize_core(db, &compiled)?;
    let mut out = compiled.render_program(scratch.scheme());
    let (pattern, nodes) = compiled.pattern(true);
    let plan = explain_plan_profiled(&pattern, &scratch, pinned_config())?;
    let by_node: BTreeMap<NodeId, String> =
        nodes.into_iter().map(|(var, node)| (node, var)).collect();
    out.push('\n');
    out.push_str(&plan.render_with(|node| by_node.get(&node).cloned()));
    Ok(out)
}

/// The plan config pinned for stable golden renders.
pub fn pinned_config() -> MatchConfig {
    MatchConfig {
        threads: 1,
        parallel_threshold: 128,
    }
}

// ---- core lane ------------------------------------------------------------

/// Apply the compiled path-derivation program to a scratch clone.
fn materialize_core(db: &Instance, compiled: &CompiledQuery) -> Result<Instance, QueryError> {
    let mut scratch = db.clone();
    // Pre-register every derived label: a derivation whose seed matches
    // nothing never reaches the minimal scheme extension, but the match
    // pattern still references the label.
    let (steps, derived) = compiled.lowering();
    for (class, label) in derived {
        scratch.extend_multivalued(class.clone(), label, class)?;
    }
    let mut env = Env::new();
    for step in steps {
        match step {
            Step::Op(op) => {
                op.apply(&mut scratch, &mut env)?;
            }
            Step::Star(star) => {
                star.apply(&mut scratch, &mut env)?;
            }
        }
    }
    Ok(scratch)
}

/// The RETURN columns of the core lane's answer, row-major, read
/// straight off the match table by column index.
fn core_cells(db: &Instance, compiled: &CompiledQuery) -> Result<Vec<NodeId>, QueryError> {
    let scratch = materialize_core(db, compiled)?;
    let (pattern, nodes) = compiled.pattern(true);
    let table = find_match_table(&pattern, &scratch, MatchConfig::default())?;
    let columns: Vec<usize> = (compiled.ast.returns.iter())
        .map(|var| table.column(nodes[var]).expect("variables are positive"))
        .collect();
    Ok(table
        .rows()
        .flat_map(|row| columns.iter().map(|&column| row[column]))
        .collect())
}

// ---- relational lane ------------------------------------------------------

fn relational_tuples(
    db: &Instance,
    compiled: &CompiledQuery,
) -> Result<Vec<Vec<NodeId>>, QueryError> {
    let mut scratch = db.clone();
    for path in &compiled.paths {
        let pairs = bfs_pairs(db, path);
        scratch.extend_multivalued(path.class.clone(), path.derived.clone(), path.class.clone())?;
        for (src, dst) in pairs {
            scratch.add_edge(src, path.derived.clone(), dst)?;
        }
    }
    let backend = RelBackend::from_instance(&scratch);
    let (pattern, nodes) = compiled.pattern(true);
    subtract_negated(
        |p| backend.match_pattern(p).map_err(QueryError::from),
        &pattern,
        &nodes,
        &compiled.vars,
    )
}

/// Walk-semantics path pairs by breadth-first search over exact-length
/// frontiers — the relational lane's independent path computation.
fn bfs_pairs(db: &Instance, path: &PathDerivation) -> BTreeSet<(NodeId, NodeId)> {
    let members: Vec<NodeId> = db.nodes_with_label(&path.class).collect();
    let succ: BTreeMap<NodeId, Vec<NodeId>> = members
        .iter()
        .map(|&node| (node, db.targets(node, &path.edge).collect()))
        .collect();
    let mut pairs = BTreeSet::new();
    if path.min == 0 {
        for &node in &members {
            pairs.insert((node, node));
        }
    }
    match path.max {
        Some(max) => {
            // frontier(l) = nodes reachable by some walk of length
            // exactly l; collect frontiers for l in [max(min,1), max].
            let lo = path.min.max(1);
            for &start in &members {
                let mut frontier: BTreeSet<NodeId> = BTreeSet::from([start]);
                for length in 1..=max {
                    let next: BTreeSet<NodeId> = frontier
                        .iter()
                        .flat_map(|node| succ[node].iter().copied())
                        .collect();
                    if length >= lo {
                        for &dst in &next {
                            pairs.insert((start, dst));
                        }
                    }
                    if next.is_empty() {
                        break;
                    }
                    frontier = next;
                }
            }
        }
        None if path.min <= 1 => {
            // Plain reachability (≥ 1 step).
            for &start in &members {
                let mut seen: BTreeSet<NodeId> = BTreeSet::new();
                let mut queue: VecDeque<NodeId> = succ[&start].iter().copied().collect();
                while let Some(node) = queue.pop_front() {
                    if seen.insert(node) {
                        pairs.insert((start, node));
                        queue.extend(succ[&node].iter().copied());
                    }
                }
            }
        }
        None => {
            // Lengths ≥ m: an exact (m-1)-walk to a midpoint, then ≥ 1
            // more steps (the B^(m-1) ∘ TC decomposition, recomputed by
            // search instead of edge additions).
            let mut closure: BTreeMap<NodeId, BTreeSet<NodeId>> = BTreeMap::new();
            for &start in &members {
                let mut seen: BTreeSet<NodeId> = BTreeSet::new();
                let mut queue: VecDeque<NodeId> = succ[&start].iter().copied().collect();
                while let Some(node) = queue.pop_front() {
                    if seen.insert(node) {
                        queue.extend(succ[&node].iter().copied());
                    }
                }
                closure.insert(start, seen);
            }
            for &start in &members {
                let mut frontier: BTreeSet<NodeId> = BTreeSet::from([start]);
                for _ in 0..(path.min - 1) {
                    frontier = frontier
                        .iter()
                        .flat_map(|node| succ[node].iter().copied())
                        .collect();
                    if frontier.is_empty() {
                        break;
                    }
                }
                for mid in &frontier {
                    for &dst in &closure[mid] {
                        pairs.insert((start, dst));
                    }
                }
            }
        }
    }
    pairs
}

// ---- tarski lane ----------------------------------------------------------

fn tarski_tuples(db: &Instance, compiled: &CompiledQuery) -> Result<Vec<Vec<NodeId>>, QueryError> {
    let mut scratch = db.clone();
    for path in &compiled.paths {
        let members: Vec<NodeId> = db.nodes_with_label(&path.class).collect();
        let base = BinRel::from_pairs(members.iter().flat_map(|&node| {
            db.targets(node, &path.edge)
                .map(move |dst| (node, dst))
                .collect::<Vec<_>>()
        }));
        let rel = path_rel(&base, &members, path.min, path.max);
        scratch.extend_multivalued(path.class.clone(), path.derived.clone(), path.class.clone())?;
        for (src, dst) in rel.iter() {
            scratch.add_edge(*src, path.derived.clone(), *dst)?;
        }
    }
    let backend = TarskiBackend::from_instance(&scratch);
    // The binary decomposition keeps no value column, so predicates are
    // post-filtered on the tuple images instead of pushed into the match.
    let (pattern, nodes) = compiled.pattern(false);
    let mut tuples = subtract_negated(
        |p| backend.match_pattern(p).map_err(QueryError::from),
        &pattern,
        &nodes,
        &compiled.vars,
    )?;
    for (var, predicate) in &compiled.predicates {
        let index = compiled
            .vars
            .iter()
            .position(|v| v == var)
            .expect("predicate variables are bound");
        tuples.retain(|tuple| {
            db.print_value(tuple[index])
                .is_some_and(|value| predicate.matches(value))
        });
    }
    Ok(tuples)
}

/// The walk-semantics repetition in the binary-relation algebra — the
/// Tarski lane's independent path computation.
fn path_rel(
    base: &BinRel<NodeId>,
    members: &[NodeId],
    min: u32,
    max: Option<u32>,
) -> BinRel<NodeId> {
    let mut rel = match max {
        None => {
            let closure = base.transitive_closure();
            if min <= 1 {
                closure
            } else {
                // B^(min-1) ∘ TC.
                let mut prefix = base.clone();
                for _ in 2..min {
                    prefix = prefix.compose(base);
                }
                prefix.compose(&closure)
            }
        }
        Some(0) => BinRel::from_pairs(Vec::new()),
        Some(max) => {
            // Union of the exact powers B^l for l in [max(min,1), max].
            let lo = min.max(1);
            let mut rel = BinRel::from_pairs(Vec::new());
            let mut power = base.clone();
            for length in 1..=max {
                if length >= lo {
                    rel = rel.union(&power);
                }
                if length < max {
                    power = power.compose(base);
                }
            }
            rel
        }
    };
    if min == 0 {
        rel = rel.union(&BinRel::identity(members.iter().copied()));
    }
    rel
}

// ---- shared helpers -------------------------------------------------------

/// Positive matchings minus the ones that extend to the unnegated
/// pattern — the negation macro's set difference, applied tuple-wise.
/// `positive_part`/`unnegated` preserve the node arena, so tuples from
/// both matches are directly comparable.
fn subtract_negated(
    matcher: impl Fn(&Pattern) -> Result<Vec<Matching>, QueryError>,
    pattern: &Pattern,
    nodes: &BTreeMap<String, NodeId>,
    vars: &[String],
) -> Result<Vec<Vec<NodeId>>, QueryError> {
    let positive = pattern.positive_part();
    let mut tuples = to_tuples(&matcher(&positive)?, nodes, vars);
    if pattern.has_negation() {
        let violating: BTreeSet<Vec<NodeId>> =
            to_tuples(&matcher(&pattern.unnegated())?, nodes, vars)
                .into_iter()
                .collect();
        tuples.retain(|tuple| !violating.contains(tuple));
    }
    Ok(tuples)
}

/// Matchings → var tuples (images of `vars`, in order).
fn to_tuples(
    matchings: &[Matching],
    nodes: &BTreeMap<String, NodeId>,
    vars: &[String],
) -> Vec<Vec<NodeId>> {
    let var_nodes: Vec<NodeId> = vars.iter().map(|var| nodes[var]).collect();
    matchings
        .iter()
        .map(|matching| var_nodes.iter().map(|&n| matching.image(n)).collect())
        .collect()
}

/// Var tuples → their RETURN columns, row-major.
fn returned(compiled: &CompiledQuery, tuples: &[Vec<NodeId>]) -> Vec<NodeId> {
    let indices: Vec<usize> = (compiled.ast.returns.iter())
        .map(|var| {
            let at = compiled.vars.iter().position(|v| v == var);
            at.expect("RETURN variables are bound")
        })
        .collect();
    tuples
        .iter()
        .flat_map(|tuple| indices.iter().map(|&index| tuple[index]))
        .collect()
}

/// Canonicalize rows of RETURN-column node ids (`cells`, row-major):
/// give every cell an integer key that orders, within its column, as
/// its rendered text does — equal exactly when the texts are — then
/// sort the rows as key tuples and apply DISTINCT and LIMIT.
fn project(db: &Instance, compiled: &CompiledQuery, cells: &[NodeId]) -> RowSet {
    let returns = &compiled.ast.returns;
    let width = returns.len().max(1);
    let mut keys = vec![0u64; cells.len()];
    let mut kinds = Vec::with_capacity(returns.len());
    for (column, var) in returns.iter().enumerate() {
        let slots = (column..cells.len()).step_by(width);
        let class = &compiled.labels[var];
        if !db.scheme().is_printable_label(class) {
            // `Info#10` sorts before `Info#9`: digit strings, not numbers.
            for slot in slots {
                keys[slot] = index_key(cells[slot].index());
            }
            kinds.push(ColumnKind::Objects(class.clone()));
            continue;
        }
        // Printables: render each distinct node once and rank the texts
        // (distinct values can render alike — every `Bytes` does).
        let mut nodes: Vec<NodeId> = slots.clone().map(|slot| cells[slot]).collect();
        nodes.sort_unstable();
        nodes.dedup();
        let mut texts: Vec<(String, usize)> = (nodes.iter().enumerate())
            .map(|(at, &node)| (render_printable(db, node), at))
            .collect();
        texts.sort_unstable();
        let mut rank = vec![0u64; nodes.len()];
        let mut literals: Vec<String> = Vec::new();
        for (text, at) in texts {
            if literals.last() != Some(&text) {
                literals.push(text);
            }
            rank[at] = literals.len() as u64 - 1;
        }
        for slot in slots {
            let at = nodes.binary_search(&cells[slot]).expect("collected above");
            keys[slot] = rank[at];
        }
        kinds.push(ColumnKind::Printables(literals));
    }
    let row_keys = |row: usize| &keys[row * width..(row + 1) * width];
    let mut order: Vec<usize> = (0..cells.len() / width).collect();
    order.sort_unstable_by_key(|&row| row_keys(row));
    if compiled.ast.distinct {
        order.dedup_by_key(|row| row_keys(*row));
    }
    if let Some(limit) = compiled.ast.limit {
        order.truncate(limit as usize);
    }
    // A surviving object cell is its arena index, a printable cell its
    // rank, which is its key.
    let cell = |slot: usize| match kinds[slot % width] {
        ColumnKind::Objects(_) => cells[slot].index() as u64,
        ColumnKind::Printables(_) => keys[slot],
    };
    let cells = order
        .iter()
        .flat_map(|&row| (row * width..(row + 1) * width).map(cell))
        .collect();
    RowSet {
        columns: returns.clone(),
        kinds,
        cells,
    }
}

/// A key that orders node indices as their decimal strings order: the
/// digits left-aligned in a fixed width (`9` → 9000000000, `10` →
/// 1000000000), ties — one string a prefix of the other, the rest
/// zeros — broken by length, shorter first.
fn index_key(index: usize) -> u64 {
    const LEFT_ALIGN: [u64; 10] = [
        1_000_000_000,
        100_000_000,
        10_000_000,
        1_000_000,
        100_000,
        10_000,
        1_000,
        100,
        10,
        1,
    ];
    let index = u32::try_from(index).expect("arena slots are u32");
    let digits = index.checked_ilog10().map_or(1, |log| log as usize + 1);
    u64::from(index) * LEFT_ALIGN[digits - 1] * 16 + digits as u64
}

/// The GOODQL literal of a printable node.
fn render_printable(db: &Instance, node: NodeId) -> String {
    db.print_value(node)
        .map_or_else(|| "?".to_string(), render_value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use good_core::gen::bench_scheme;
    use good_core::label::Label;
    use good_core::value::Value;

    /// A small hand-built instance: a links-to cycle of three Infos plus
    /// a dangling fourth, with names.
    fn small_instance() -> Instance {
        let mut db = Instance::new(bench_scheme());
        let links = Label::new("links-to");
        let name = Label::new("name");
        let infos: Vec<NodeId> = (0..4)
            .map(|_| db.add_object("Info").expect("node"))
            .collect();
        for (index, &info) in infos.iter().enumerate() {
            let text = db
                .add_printable("String", Value::str(format!("doc-{index}")))
                .expect("printable");
            db.add_edge(info, name.clone(), text).expect("edge");
        }
        db.add_edge(infos[0], links.clone(), infos[1])
            .expect("edge");
        db.add_edge(infos[1], links.clone(), infos[2])
            .expect("edge");
        db.add_edge(infos[2], links.clone(), infos[0])
            .expect("edge");
        db.add_edge(infos[0], links.clone(), infos[3])
            .expect("edge");
        db
    }

    /// The projection `project` replaced, kept as its reference: render
    /// every cell (`format!` and all), sort the rows of strings, dedup,
    /// truncate.
    fn reference_project(db: &Instance, compiled: &CompiledQuery, cells: &[NodeId]) -> QueryOutput {
        let render_cell = |node: &NodeId| match db.print_value(*node) {
            Some(value) => render_value(value),
            None => {
                let label = db.node_label(*node).map_or("?".into(), |l| l.to_string());
                format!("{label}#{}", node.index())
            }
        };
        let width = compiled.ast.returns.len();
        let mut rows: Vec<Vec<String>> = cells
            .chunks(width)
            .map(|row| row.iter().map(render_cell).collect())
            .collect();
        rows.sort();
        if compiled.ast.distinct {
            rows.dedup();
        }
        if let Some(limit) = compiled.ast.limit {
            rows.truncate(limit as usize);
        }
        QueryOutput {
            columns: compiled.ast.returns.clone(),
            rows,
        }
    }

    /// `project` ≡ `reference_project` on the core lane's cells, under
    /// every DISTINCT/LIMIT combination asked for.
    fn assert_projection_matches(db: &Instance, query: &crate::ast::Query) -> QueryOutput {
        let mut last = None;
        for distinct in [false, true] {
            for limit in [None, Some(0), Some(1), Some(3), Some(1000)] {
                let mut query = query.clone();
                query.distinct = distinct;
                query.limit = limit;
                let compiled = compile(&query, db.scheme()).expect("compiles");
                let cells = core_cells(db, &compiled).expect("executes");
                let projected = project(db, &compiled, &cells);
                let expected = reference_project(db, &compiled, &cells);
                let bytes: usize = expected.rows.iter().flatten().map(String::len).sum();
                assert_eq!(projected.len(), expected.rows.len(), "{query}");
                assert_eq!(projected.cell_bytes(), bytes, "{query}");
                assert_eq!(projected.into_output(), expected, "{query}");
                last = Some(expected);
            }
        }
        last.expect("ran")
    }

    proptest::proptest! {
        #[test]
        fn projection_equals_reference_on_generated_queries(seed in 0u64..1_000_000) {
            let db = good_core::gen::random_instance(&good_core::gen::GenConfig {
                infos: 2 + (seed % 23) as usize,
                avg_links: 2.0,
                distinct_dates: 1 + (seed % 4) as usize,
                seed,
            });
            assert_projection_matches(&db, &crate::gen::random_query(seed));
        }

        #[test]
        fn index_keys_order_as_decimal_strings(a in proptest::prelude::any::<u32>(), b in 0u32..2000) {
            for (x, y) in [(a, b), (a, a / 10), (a, a.wrapping_mul(10)), (b, b + 1)] {
                let by_key = index_key(x as usize).cmp(&index_key(y as usize));
                proptest::prop_assert_eq!(by_key, x.to_string().cmp(&y.to_string()), "{} vs {}", x, y);
            }
        }
    }

    #[test]
    fn projection_orders_objects_as_strings_and_keeps_bags() {
        let mut db = small_instance();
        for _ in 0..12 {
            db.add_object("Info").expect("node");
        }
        let all = parse_query("MATCH (a:Info) RETURN a").expect("parses");
        let out = assert_projection_matches(&db, &all);
        let at = |text: &str| out.rows.iter().position(|row| row[0] == text);
        assert!(at("Info#10").expect("present") < at("Info#9").expect("present"));
        // Rows that differ only in a variable that is not returned:
        // kept without DISTINCT, collapsed with it — and the empty answer.
        for text in [
            "MATCH (a:Info)-[:links-to]->(b:Info) RETURN a",
            "MATCH (a:Info)-[:links-to]->(b:Info), (b)-[:name]->(n:String) RETURN n, a",
            "MATCH (a:Info)-[:name]->(n:String = \"nobody\") RETURN a, n",
        ] {
            assert_projection_matches(&db, &parse_query(text).expect("parses"));
        }
    }

    #[test]
    fn projection_handles_values_that_render_alike() {
        use good_core::scheme::SchemeBuilder;
        use good_core::value::ValueType;
        // Two printable classes over one domain (`Age` 7 and `Count` 7
        // both render `7`), and a class of byte strings, which all
        // render `"<bytes>"`.
        let scheme = SchemeBuilder::new()
            .object("Person")
            .printable("Age", ValueType::Int)
            .printable("Count", ValueType::Int)
            .printable("Blob", ValueType::Bytes)
            .functional("Person", "age", "Age")
            .functional("Person", "count", "Count")
            .functional("Person", "blob", "Blob")
            .build();
        let mut db = Instance::new(scheme);
        for (age, count, blob) in [(7, 7, 1u8), (7, 30, 2), (30, 7, 3), (100, 7, 3)] {
            let person = db.add_object("Person").expect("node");
            let age = db.add_printable("Age", Value::Int(age)).expect("printable");
            let count = db
                .add_printable("Count", Value::Int(count))
                .expect("printable");
            let blob = db
                .add_printable("Blob", Value::bytes(vec![blob]))
                .expect("printable");
            db.add_edge(person, "age", age).expect("edge");
            db.add_edge(person, "count", count).expect("edge");
            db.add_edge(person, "blob", blob).expect("edge");
        }
        for text in [
            "MATCH (p:Person)-[:age]->(x:Age), (p)-[:count]->(y:Count) RETURN x, y",
            "MATCH (p:Person)-[:age]->(x:Age), (p)-[:count]->(y:Count) RETURN y, x, p",
            "MATCH (p:Person)-[:blob]->(b:Blob) RETURN b",
        ] {
            assert_projection_matches(&db, &parse_query(text).expect("parses"));
        }
        let blobs = run(
            &db,
            "MATCH (p:Person)-[:blob]->(b:Blob) RETURN DISTINCT b",
            Backend::Core,
        );
        assert_eq!(
            blobs.expect("runs").rows,
            vec![vec!["\"<bytes>\"".to_string()]]
        );
    }

    fn agreed(db: &Instance, text: &str) -> QueryOutput {
        run_differential(db, text).expect("differential")
    }

    #[test]
    fn simple_match_agrees() {
        let db = small_instance();
        let out = agreed(&db, "MATCH (a:Info)-[:links-to]->(b:Info) RETURN a, b");
        assert_eq!(out.rows.len(), 4);
    }

    #[test]
    fn predicates_agree() {
        let db = small_instance();
        let out = agreed(
            &db,
            "MATCH (a:Info)-[:name]->(n:String) WHERE n CONTAINS \"2\" RETURN n",
        );
        assert_eq!(out.rows, vec![vec!["\"doc-2\"".to_string()]]);
    }

    #[test]
    fn transitive_closure_on_cycle_agrees() {
        let db = small_instance();
        let out = agreed(&db, "MATCH (a:Info)-[:links-to*]->(b:Info) RETURN a, b");
        // The 3-cycle reaches everything incl. itself (9 pairs) plus the
        // dangling node from each cycle member (3 pairs).
        assert_eq!(out.rows.len(), 12);
    }

    #[test]
    fn zero_or_more_includes_identity() {
        let db = small_instance();
        let closure = agreed(&db, "MATCH (a:Info)-[:links-to*]->(b:Info) RETURN a, b");
        let reflexive = agreed(&db, "MATCH (a:Info)-[:links-to*0..]->(b:Info) RETURN a, b");
        // The three cycle members already reach themselves; only the
        // dangling node's identity pair is new.
        assert_eq!(reflexive.rows.len(), closure.rows.len() + 1);
    }

    #[test]
    fn bounded_path_matches_walk_semantics() {
        let db = small_instance();
        // Walks of length exactly 2 from the 3-cycle: each cycle node
        // reaches its second successor, and 2→0→3 reaches the dangler.
        let out = agreed(&db, "MATCH (a:Info)-[:links-to*2]->(b:Info) RETURN a, b");
        assert_eq!(out.rows.len(), 4);
    }

    #[test]
    fn min_bound_shifts_the_window() {
        let db = small_instance();
        // Length ≥ 4 walks exist only through the cycle, which loops, so
        // pairs coincide with the full closure restricted to sources on
        // the cycle.
        let out = agreed(&db, "MATCH (a:Info)-[:links-to*4..]->(b:Info) RETURN a, b");
        assert_eq!(out.rows.len(), 12);
    }

    #[test]
    fn negation_agrees() {
        let db = small_instance();
        let out = agreed(
            &db,
            "MATCH (a:Info), (b:Info) WHERE NOT (a)-[:links-to]->(b) RETURN a, b",
        );
        assert_eq!(out.rows.len(), 16 - 4);
    }

    #[test]
    fn distinct_and_limit_canonicalize() {
        let db = small_instance();
        let all = agreed(&db, "MATCH (a:Info)-[:links-to]->(b:Info) RETURN a");
        assert_eq!(all.rows.len(), 4); // bag semantics: Info#0 twice
        let distinct = agreed(
            &db,
            "MATCH (a:Info)-[:links-to]->(b:Info) RETURN DISTINCT a",
        );
        assert_eq!(distinct.rows.len(), 3);
        let limited = agreed(
            &db,
            "MATCH (a:Info)-[:links-to]->(b:Info) RETURN DISTINCT a LIMIT 2",
        );
        assert_eq!(limited.rows.len(), 2);
        assert_eq!(limited.rows[..], distinct.rows[..2]);
    }

    #[test]
    fn exact_value_constraint_agrees() {
        let db = small_instance();
        let out = agreed(
            &db,
            "MATCH (a:Info)-[:name]->(n:String = \"doc-1\") RETURN a, n",
        );
        assert_eq!(out.rows.len(), 1);
    }

    #[test]
    fn empty_base_edge_set_is_fine() {
        // rec-links-to has no edges in the small instance: the seed adds
        // nothing, and all three lanes must still agree on the empty
        // answer (this exercises derived-label pre-registration).
        let db = small_instance();
        let out = agreed(&db, "MATCH (a:Info)-[:rec-links-to*]->(b:Info) RETURN a, b");
        assert!(out.rows.is_empty());
    }

    #[test]
    fn explain_renders_program_and_plan() {
        let db = small_instance();
        let text = explain(&db, "MATCH (a:Info)-[:links-to*]->(b:Info) RETURN a").expect("explain");
        assert!(text.contains("starred"), "{text}");
        assert!(text.contains("match J where J ="), "{text}");
    }
}
