//! The `good-db` session: a command interpreter over one object base.
//!
//! Every command is a pure-ish function from (session state, arguments)
//! to a textual report, which makes the whole surface unit-testable
//! without driving a terminal. The binary in `main.rs` is a thin REPL /
//! script-runner around [`Session::execute`].
//!
//! ```text
//! class Info                          # declare an object class
//! printable String string             # declare a printable class
//! functional Info name String        # add a functional triple
//! multivalued Info links-to Info     # add a multivalued triple
//! init                               # freeze the scheme, open the base
//!
//! insert Info as rock                # create objects (with handles)
//! value String "Rock" as rockname    # create/share printables
//! edge rock name rockname            # add edges between handles
//!
//! match { i: Info; n: String; i -name-> n; }
//! tag { i: Info; } i Tag of          # node addition
//! connect { ... } a label b multivalued
//! delete { i: Info; n: String = "x"; i -name-> n; } i
//! unlink { a: Info; b: Info; a -links-to-> b; } a links-to b
//! abstract { i: Info; } i Group member links-to
//!
//! stats | validate | dot [path] | save <path> | load <path> | help
//! ```

use good_core::error::GoodError;
use good_core::instance::Instance;
use good_core::label::Label;
use good_core::matching::{
    default_threads, explain_plan_profiled, find_matchings, set_default_threads, MatchConfig,
};
use good_core::ops::{Abstraction, EdgeAddition, EdgeDeletion, NodeAddition, NodeDeletion};
use good_core::program::Env;
use good_core::scheme::Scheme;
use good_core::textual::parse_pattern;
use good_core::value::{Date, Value, ValueType};
use good_graph::NodeId;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// CLI errors: user mistakes with readable messages.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}
impl std::error::Error for CliError {}

impl From<GoodError> for CliError {
    fn from(err: GoodError) -> Self {
        CliError(err.to_string())
    }
}

type Result<T> = std::result::Result<T, CliError>;

/// Session state: a scheme under construction, then an open instance.
pub struct Session {
    scheme: Scheme,
    db: Option<Instance>,
    env: Env,
    handles: BTreeMap<String, NodeId>,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// A fresh session with an empty scheme and no open base.
    pub fn new() -> Self {
        Session {
            scheme: Scheme::new(),
            db: None,
            env: Env::new(),
            handles: BTreeMap::new(),
        }
    }

    /// The open instance, if `init`/`load` has happened.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn instance(&self) -> Option<&Instance> {
        self.db.as_ref()
    }

    fn db_mut(&mut self) -> Result<&mut Instance> {
        self.db
            .as_mut()
            .ok_or_else(|| CliError("no open object base — run `init` or `load <path>`".into()))
    }

    fn db_ref(&self) -> Result<&Instance> {
        self.db
            .as_ref()
            .ok_or_else(|| CliError("no open object base — run `init` or `load <path>`".into()))
    }

    fn handle(&self, name: &str) -> Result<NodeId> {
        self.handles.get(name).copied().ok_or_else(|| {
            CliError(format!(
                "unknown handle {name} — create it with `... as {name}`"
            ))
        })
    }

    fn describe_node(&self, db: &Instance, node: NodeId) -> String {
        let handle = self
            .handles
            .iter()
            .find(|(_, id)| **id == node)
            .map(|(name, _)| name.clone());
        let label = db
            .node_label(node)
            .map(|l| l.to_string())
            .unwrap_or_else(|| "?".into());
        match (handle, db.print_value(node)) {
            (Some(name), _) => format!("{label}({name})"),
            (None, Some(value)) => format!("{label}({value})"),
            (None, None) => format!("{label}({node:?})"),
        }
    }

    /// Execute one command line (pattern braces must already be
    /// balanced — the REPL accumulates lines until they are). Returns
    /// the textual report.
    pub fn execute(&mut self, line: &str) -> Result<String> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(String::new());
        }
        let (command, rest) = match line.split_once(char::is_whitespace) {
            Some((head, tail)) => (head, tail.trim()),
            None => (line, ""),
        };
        match command {
            "help" => Ok(HELP.to_string()),
            "class" => self.cmd_class(rest),
            "printable" => self.cmd_printable(rest),
            "functional" => self.cmd_triple(rest, true),
            "multivalued" => self.cmd_triple(rest, false),
            "subclass" => self.cmd_subclass(rest),
            "init" => self.cmd_init(),
            "insert" => self.cmd_insert(rest),
            "value" => self.cmd_value(rest),
            "edge" => self.cmd_edge(rest),
            "match" => self.cmd_match(rest),
            "query" => self.cmd_query(rest),
            "explain" => self.cmd_explain(rest),
            "tag" => self.cmd_tag(rest),
            "connect" => self.cmd_connect(rest),
            "delete" => self.cmd_delete(rest),
            "unlink" => self.cmd_unlink(rest),
            "abstract" => self.cmd_abstract(rest),
            "scheme" => self.cmd_scheme(),
            "stats" => self.cmd_stats(),
            "threads" => self.cmd_threads(rest),
            "validate" => self.cmd_validate(),
            "dot" => self.cmd_dot(rest),
            "save" => self.cmd_save(rest),
            "load" => self.cmd_load(rest),
            other => Err(CliError(format!("unknown command {other:?} — try `help`"))),
        }
    }

    // ---- scheme construction ------------------------------------------

    fn cmd_class(&mut self, rest: &str) -> Result<String> {
        let name = one_word(rest, "class <Name>")?;
        self.scheme.add_object_label(name)?;
        Ok(format!("object class {name} declared"))
    }

    fn cmd_printable(&mut self, rest: &str) -> Result<String> {
        let words: Vec<&str> = rest.split_whitespace().collect();
        let [name, domain] = words.as_slice() else {
            return Err(CliError(
                "usage: printable <Name> <string|int|real|bool|date|bytes>".into(),
            ));
        };
        let value_type = match *domain {
            "string" => ValueType::Str,
            "int" => ValueType::Int,
            "real" => ValueType::Real,
            "bool" => ValueType::Bool,
            "date" => ValueType::Date,
            "bytes" => ValueType::Bytes,
            other => return Err(CliError(format!("unknown domain {other}"))),
        };
        self.scheme.add_printable_label(*name, value_type)?;
        Ok(format!("printable class {name} over {value_type} declared"))
    }

    fn cmd_triple(&mut self, rest: &str, functional: bool) -> Result<String> {
        let words: Vec<&str> = rest.split_whitespace().collect();
        let [src, edge, dst] = words.as_slice() else {
            return Err(CliError(
                "usage: functional|multivalued <Src> <edge> <Dst>".into(),
            ));
        };
        if functional {
            self.scheme.add_functional(*src, *edge, *dst)?;
        } else {
            self.scheme.add_multivalued(*src, *edge, *dst)?;
        }
        let arrow = if functional { "->" } else { "->>" };
        Ok(format!("{src} -{edge}{arrow} {dst} added to P"))
    }

    fn cmd_subclass(&mut self, rest: &str) -> Result<String> {
        let words: Vec<&str> = rest.split_whitespace().collect();
        let [sub, edge, sup] = words.as_slice() else {
            return Err(CliError("usage: subclass <Sub> <isa-edge> <Super>".into()));
        };
        self.scheme.add_functional(*sub, *edge, *sup)?;
        self.scheme.mark_subclass(*sub, *edge, *sup)?;
        Ok(format!("{sub} isa {sup} (via {edge})"))
    }

    fn cmd_init(&mut self) -> Result<String> {
        self.scheme.validate()?;
        let triples = self.scheme.triples().count();
        self.db = Some(Instance::new(self.scheme.clone()));
        self.handles.clear();
        Ok(format!("object base opened ({triples} scheme triples)"))
    }

    // ---- data entry ----------------------------------------------------------

    fn cmd_insert(&mut self, rest: &str) -> Result<String> {
        let (class, handle) = with_optional_handle(rest, "insert <Class> [as <name>]")?;
        let class_label = Label::new(class);
        let db = self.db_mut()?;
        let node = db.add_object(class_label)?;
        let mut out = format!("created {class} object {node:?}");
        if let Some(handle) = handle {
            self.handles.insert(handle.to_string(), node);
            write!(out, " as {handle}").expect("write");
        }
        Ok(out)
    }

    fn cmd_value(&mut self, rest: &str) -> Result<String> {
        // value <Class> <literal> [as <name>]
        let (head, handle) = split_off_handle(rest);
        let (class, literal) = head
            .split_once(char::is_whitespace)
            .ok_or_else(|| CliError("usage: value <Class> <literal> [as <name>]".into()))?;
        let class = class.trim();
        let value = parse_literal(literal.trim())?;
        let db = self.db_mut()?;
        let node = db.add_printable(class, value.clone())?;
        let mut out = format!("printable {class} = {value} is {node:?}");
        if let Some(handle) = handle {
            self.handles.insert(handle.to_string(), node);
            write!(out, " as {handle}").expect("write");
        }
        Ok(out)
    }

    fn cmd_edge(&mut self, rest: &str) -> Result<String> {
        let words: Vec<&str> = rest.split_whitespace().collect();
        let [src, label, dst] = words.as_slice() else {
            return Err(CliError(
                "usage: edge <src-handle> <label> <dst-handle>".into(),
            ));
        };
        let src = self.handle(src)?;
        let dst = self.handle(dst)?;
        let label = Label::new(*label);
        self.db_mut()?.add_edge(src, label.clone(), dst)?;
        Ok(format!("edge {label} added"))
    }

    // ---- queries and operations ------------------------------------------------

    fn cmd_match(&mut self, rest: &str) -> Result<String> {
        let (pattern, names) = parse_pattern(rest)?;
        let db = self.db_ref()?;
        let matchings = find_matchings(&pattern, db)?;
        let mut out = format!("{} matching(s)\n", matchings.len());
        for (index, matching) in matchings.iter().enumerate() {
            write!(out, "  #{}:", index + 1).expect("write");
            for (name, node) in &names {
                if let Some(image) = matching.get(*node) {
                    write!(out, " {name}={}", self.describe_node(db, image)).expect("write");
                }
            }
            out.push('\n');
        }
        Ok(out)
    }

    /// `query [core|relational|tarski|diff] <GOODQL>` — parse a
    /// MATCH/WHERE/RETURN query, compile it to GOOD operations, run it,
    /// and print the answer rows. `diff` runs all three backends and
    /// checks they agree.
    fn cmd_query(&mut self, rest: &str) -> Result<String> {
        let (lane, text) = split_query_lane(rest);
        let text = unquote_query(text);
        if text.is_empty() {
            return Err(CliError(
                "usage: query [core|relational|tarski|diff] <MATCH ... RETURN ...>".into(),
            ));
        }
        let db = self.db_ref()?;
        let (output, note) = match lane {
            QueryLane::Backend(backend) => (
                good_query::run(db, text, backend).map_err(|err| CliError(err.render(text)))?,
                format!("backend: {}", backend.name()),
            ),
            QueryLane::Diff => (
                good_query::run_differential(db, text).map_err(|err| CliError(err.render(text)))?,
                "backends: core = relational = tarski".to_string(),
            ),
        };
        Ok(render_query_output(&output, &note))
    }

    /// `explain { pattern }` — print the access plan the matcher would
    /// run, executed once to annotate each step with actual row counts.
    /// `explain query <GOODQL>` — print the compiled GOOD program and
    /// the matcher's plan for the final pattern.
    fn cmd_explain(&mut self, rest: &str) -> Result<String> {
        if let Some(tail) = rest.strip_prefix("query") {
            if tail.is_empty() || tail.starts_with(char::is_whitespace) {
                let text = unquote_query(tail.trim());
                if text.is_empty() {
                    return Err(CliError(
                        "usage: explain query <MATCH ... RETURN ...>".into(),
                    ));
                }
                let db = self.db_ref()?;
                return good_query::explain(db, text).map_err(|err| CliError(err.render(text)));
            }
        }
        let (pattern, names) = parse_pattern(rest)?;
        let db = self.db_ref()?;
        let plan = explain_plan_profiled(&pattern, db, MatchConfig::default())?;
        let by_node: BTreeMap<NodeId, &String> =
            names.iter().map(|(name, node)| (*node, name)).collect();
        Ok(plan.render_with(|node| by_node.get(&node).map(|name| name.to_string())))
    }

    /// `tag { pattern } <node> <Class> <edge>` — node addition.
    fn cmd_tag(&mut self, rest: &str) -> Result<String> {
        let (pattern_text, tail) = split_pattern(rest)?;
        let (pattern, names) = parse_pattern(pattern_text)?;
        let words: Vec<&str> = tail.split_whitespace().collect();
        let [node, class, edge] = words.as_slice() else {
            return Err(CliError(
                "usage: tag { pattern } <node> <Class> <edge>".into(),
            ));
        };
        let target = *names
            .get(*node)
            .ok_or_else(|| CliError(format!("pattern does not declare {node}")))?;
        let na = NodeAddition::new(pattern, *class, [(Label::new(*edge), target)]);
        let report = na.apply(self.db_mut()?)?;
        Ok(format!(
            "{} matching(s), {} {class} object(s) created",
            report.matchings,
            report.created_nodes.len()
        ))
    }

    /// `connect { pattern } <src> <label> <dst> [functional|multivalued]`.
    fn cmd_connect(&mut self, rest: &str) -> Result<String> {
        let (pattern_text, tail) = split_pattern(rest)?;
        let (pattern, names) = parse_pattern(pattern_text)?;
        let words: Vec<&str> = tail.split_whitespace().collect();
        let (src, label, dst, kind) = match words.as_slice() {
            [src, label, dst] => (src, label, dst, "multivalued"),
            [src, label, dst, kind] => (src, label, dst, *kind),
            _ => {
                return Err(CliError(
                    "usage: connect { pattern } <src> <label> <dst> [functional|multivalued]"
                        .into(),
                ))
            }
        };
        let src = *names
            .get(*src)
            .ok_or_else(|| CliError(format!("pattern does not declare {src}")))?;
        let dst = *names
            .get(*dst)
            .ok_or_else(|| CliError(format!("pattern does not declare {dst}")))?;
        let ea = match kind {
            "functional" => EdgeAddition::functional(pattern, src, *label, dst),
            "multivalued" => EdgeAddition::multivalued(pattern, src, *label, dst),
            other => return Err(CliError(format!("unknown edge kind {other}"))),
        };
        let report = ea.apply(self.db_mut()?)?;
        Ok(format!(
            "{} matching(s), {} edge(s) added",
            report.matchings, report.edges_added
        ))
    }

    /// `delete { pattern } <node>` — node deletion.
    fn cmd_delete(&mut self, rest: &str) -> Result<String> {
        let (pattern_text, tail) = split_pattern(rest)?;
        let (pattern, names) = parse_pattern(pattern_text)?;
        let node = one_word(tail, "delete { pattern } <node>")?;
        let target = *names
            .get(node)
            .ok_or_else(|| CliError(format!("pattern does not declare {node}")))?;
        let report = NodeDeletion::new(pattern, target).apply(self.db_mut()?)?;
        Ok(format!(
            "{} matching(s), {} node(s) deleted",
            report.matchings, report.nodes_deleted
        ))
    }

    /// `unlink { pattern } <src> <label> <dst>` — edge deletion.
    fn cmd_unlink(&mut self, rest: &str) -> Result<String> {
        let (pattern_text, tail) = split_pattern(rest)?;
        let (pattern, names) = parse_pattern(pattern_text)?;
        let words: Vec<&str> = tail.split_whitespace().collect();
        let [src, label, dst] = words.as_slice() else {
            return Err(CliError(
                "usage: unlink { pattern } <src> <label> <dst>".into(),
            ));
        };
        let src = *names
            .get(*src)
            .ok_or_else(|| CliError(format!("pattern does not declare {src}")))?;
        let dst = *names
            .get(*dst)
            .ok_or_else(|| CliError(format!("pattern does not declare {dst}")))?;
        let report = EdgeDeletion::single(pattern, src, *label, dst).apply(self.db_mut()?)?;
        Ok(format!(
            "{} matching(s), {} edge(s) deleted",
            report.matchings, report.edges_deleted
        ))
    }

    /// `abstract { pattern } <node> <Class> <member-edge> <key-edge>`.
    fn cmd_abstract(&mut self, rest: &str) -> Result<String> {
        let (pattern_text, tail) = split_pattern(rest)?;
        let (pattern, names) = parse_pattern(pattern_text)?;
        let words: Vec<&str> = tail.split_whitespace().collect();
        let [node, class, member, key] = words.as_slice() else {
            return Err(CliError(
                "usage: abstract { pattern } <node> <Class> <member-edge> <key-edge>".into(),
            ));
        };
        let target = *names
            .get(*node)
            .ok_or_else(|| CliError(format!("pattern does not declare {node}")))?;
        let ab = Abstraction::new(pattern, target, *class, *member, *key);
        let report = ab.apply(self.db_mut()?)?;
        Ok(format!(
            "{} matching(s), {} group(s) created",
            report.matchings,
            report.created_nodes.len()
        ))
    }

    // ---- inspection and persistence --------------------------------------------

    fn cmd_scheme(&mut self) -> Result<String> {
        let scheme = match &self.db {
            Some(db) => db.scheme(),
            None => &self.scheme,
        };
        let mut out = String::new();
        for label in scheme.object_labels() {
            writeln!(out, "class {label}").expect("write");
        }
        for (label, value_type) in scheme.printable_labels() {
            writeln!(out, "printable {label} {value_type}").expect("write");
        }
        for (src, edge, dst) in scheme.triples() {
            let arrow = match scheme.edge_kind(edge) {
                Some(good_core::label::EdgeKind::Functional) => "->",
                _ => "->>",
            };
            let subclass = if scheme
                .subclass_triples()
                .any(|t| t == &(src.clone(), edge.clone(), dst.clone()))
            {
                "   (subclass)"
            } else {
                ""
            };
            writeln!(out, "{src} -{edge}{arrow} {dst}{subclass}").expect("write");
        }
        Ok(out)
    }

    fn cmd_stats(&mut self) -> Result<String> {
        let db = self.db_ref()?;
        let mut out = format!("{} nodes, {} edges\n", db.node_count(), db.edge_count());
        let mut classes: Vec<(&Label, usize)> = db
            .scheme()
            .object_labels()
            .chain(db.scheme().printable_labels().map(|(l, _)| l))
            .map(|label| (label, db.label_count(label)))
            .filter(|(_, count)| *count > 0)
            .collect();
        classes.sort_by_key(|(label, _)| label.as_str().to_string());
        for (label, count) in classes {
            writeln!(out, "  {label}: {count}").expect("write");
        }
        let triples = db.stats().triples_sorted();
        if !triples.is_empty() {
            writeln!(out, "planner statistics ({} edge triples):", triples.len()).expect("write");
            for (src, edge, dst, stats) in triples {
                writeln!(
                    out,
                    "  {src} -{edge}-> {dst}: {} edges, {} sources (max out <= {}), {} targets (max in <= {})",
                    stats.edges,
                    stats.distinct_sources(),
                    stats.out_degrees.max_degree_bound(),
                    stats.distinct_targets(),
                    stats.in_degrees.max_degree_bound(),
                )
                .expect("write");
            }
        }
        // The process's runtime metrics so far (the same document the
        // server's `Stats` frame carries under "metrics").
        writeln!(out, "metrics: {}", good_trace::metrics_snapshot().to_json()).expect("write");
        Ok(out)
    }

    fn cmd_threads(&mut self, rest: &str) -> Result<String> {
        let rest = rest.trim();
        if !rest.is_empty() {
            let n: usize = rest
                .parse()
                .map_err(|_| CliError(format!("bad thread count {rest:?}")))?;
            set_default_threads(n);
        }
        Ok(format!("matching threads: {}", default_threads()))
    }

    fn cmd_validate(&mut self) -> Result<String> {
        self.db_ref()?.validate()?;
        Ok("all invariants hold".into())
    }

    fn cmd_dot(&mut self, rest: &str) -> Result<String> {
        let dot = self.db_ref()?.to_dot("good-db");
        if rest.is_empty() {
            Ok(dot)
        } else {
            std::fs::write(rest, &dot).map_err(|err| CliError(err.to_string()))?;
            Ok(format!("DOT written to {rest}"))
        }
    }

    fn cmd_save(&mut self, rest: &str) -> Result<String> {
        let path = one_word(rest, "save <path>")?;
        let json = serde_json::to_string_pretty(self.db_ref()?)
            .map_err(|err| CliError(err.to_string()))?;
        std::fs::write(path, json).map_err(|err| CliError(err.to_string()))?;
        Ok(format!("saved to {path}"))
    }

    fn cmd_load(&mut self, rest: &str) -> Result<String> {
        let path = one_word(rest, "load <path>")?;
        let json = std::fs::read_to_string(path).map_err(|err| CliError(err.to_string()))?;
        let db: Instance = serde_json::from_str(&json).map_err(|err| CliError(err.to_string()))?;
        self.scheme = db.scheme().clone();
        self.db = Some(db);
        self.handles.clear();
        let _ = &self.env;
        Ok(format!("loaded {path}"))
    }
}

// ---- small parsing helpers --------------------------------------------------

fn one_word<'a>(rest: &'a str, usage: &str) -> Result<&'a str> {
    let mut words = rest.split_whitespace();
    match (words.next(), words.next()) {
        (Some(word), None) => Ok(word),
        _ => Err(CliError(format!("usage: {usage}"))),
    }
}

/// Split `{ pattern } tail` into the pattern text (with braces) and the
/// tail after the matching close brace.
fn split_pattern(rest: &str) -> Result<(&str, &str)> {
    let start = rest
        .find('{')
        .ok_or_else(|| CliError("expected a `{ pattern }` block".into()))?;
    let mut depth = 0usize;
    for (offset, ch) in rest[start..].char_indices() {
        match ch {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    let end = start + offset + 1;
                    return Ok((&rest[..end], rest[end..].trim()));
                }
            }
            _ => {}
        }
    }
    Err(CliError("unbalanced braces in pattern".into()))
}

fn with_optional_handle<'a>(rest: &'a str, usage: &str) -> Result<(&'a str, Option<&'a str>)> {
    let (head, handle) = split_off_handle(rest);
    let word = one_word(head.trim(), usage)?;
    Ok((word, handle))
}

/// Split a trailing ` as <name>` suffix off, if present.
fn split_off_handle(rest: &str) -> (&str, Option<&str>) {
    if let Some(position) = rest.rfind(" as ") {
        let candidate = rest[position + 4..].trim();
        if !candidate.is_empty() && !candidate.contains(char::is_whitespace) {
            return (&rest[..position], Some(candidate));
        }
    }
    (rest, None)
}

/// Parse a value literal: quoted string, integer, real, bool, or
/// `date(YYYY-MM-DD)`.
fn parse_literal(text: &str) -> Result<Value> {
    if let Some(stripped) = text.strip_prefix('"') {
        let inner = stripped
            .strip_suffix('"')
            .ok_or_else(|| CliError("unterminated string literal".into()))?;
        return Ok(Value::str(inner));
    }
    if text == "true" || text == "false" {
        return Ok(Value::Bool(text == "true"));
    }
    if let Some(inner) = text.strip_prefix("date(").and_then(|t| t.strip_suffix(')')) {
        let parts: Vec<&str> = inner.split('-').collect();
        let [year, month, day] = parts.as_slice() else {
            return Err(CliError(format!("bad date literal {text}")));
        };
        let (year, month, day) = (
            year.parse().map_err(|_| CliError("bad year".into()))?,
            month.parse().map_err(|_| CliError("bad month".into()))?,
            day.parse().map_err(|_| CliError("bad day".into()))?,
        );
        if !(1..=12).contains(&month) || !(1..=31).contains(&day) {
            return Err(CliError(format!("date out of range: {text}")));
        }
        return Ok(Value::Date(Date::new(year, month, day)));
    }
    if text.contains('.') {
        if let Ok(real) = text.parse::<f64>() {
            return Ok(Value::real(real));
        }
    }
    text.parse::<i64>()
        .map(Value::Int)
        .map_err(|_| CliError(format!("cannot parse literal {text:?}")))
}

/// Which execution lane `query` should use.
enum QueryLane {
    Backend(good_query::Backend),
    Diff,
}

/// Peel an optional leading lane keyword off a `query` command line.
/// `query tarski MATCH ...` selects a backend, `query diff MATCH ...`
/// runs the three-way differential check; the default is the core
/// pattern matcher.
fn split_query_lane(rest: &str) -> (QueryLane, &str) {
    if let Some((head, tail)) = rest.split_once(char::is_whitespace) {
        if head == "diff" {
            return (QueryLane::Diff, tail.trim_start());
        }
        if let Some(backend) = good_query::Backend::from_name(head) {
            return (QueryLane::Backend(backend), tail.trim_start());
        }
    }
    (QueryLane::Backend(good_query::Backend::Core), rest)
}

/// Queries may be wrapped in one layer of double quotes (the scripted
/// form in the issue examples); GOODQL string literals never appear at
/// both ends of a valid query, so stripping the pair is unambiguous.
fn unquote_query(text: &str) -> &str {
    let text = text.trim();
    match text.strip_prefix('"').and_then(|t| t.strip_suffix('"')) {
        Some(inner) if !inner.is_empty() => inner,
        _ => text,
    }
}

/// Render answer rows as an aligned table with a trailing row count.
fn render_query_output(output: &good_query::QueryOutput, note: &str) -> String {
    let mut widths: Vec<usize> = output.columns.iter().map(|c| c.chars().count()).collect();
    for row in &output.rows {
        for (cell, width) in row.iter().zip(widths.iter_mut()) {
            *width = (*width).max(cell.chars().count());
        }
    }
    let mut out = String::new();
    let render_row = |out: &mut String, cells: &[String]| {
        for (index, (cell, width)) in cells.iter().zip(&widths).enumerate() {
            if index > 0 {
                out.push_str("  ");
            }
            write!(out, "{cell:<width$}").expect("write");
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };
    render_row(&mut out, &output.columns);
    for row in &output.rows {
        render_row(&mut out, row);
    }
    write!(out, "{} row(s) — {note}", output.rows.len()).expect("write");
    out
}

const HELP: &str = "\
scheme:  class <Name> | printable <Name> <domain> | functional <S> <e> <D>
         multivalued <S> <e> <D> | subclass <Sub> <isa> <Super> | init
data:    insert <Class> [as h] | value <Class> <lit> [as h] | edge <h> <label> <h>
query:   match { pattern } | explain { pattern }
         query [core|relational|tarski|diff] <MATCH ... RETURN ...>
         explain query <MATCH ... RETURN ...>
ops:     tag { p } <node> <Class> <edge>
         connect { p } <src> <label> <dst> [functional|multivalued]
         delete { p } <node> | unlink { p } <src> <label> <dst>
         abstract { p } <node> <Class> <member-edge> <key-edge>
misc:    scheme | stats | threads [n] | validate | dot [path] | save <path> | load <path>
         help | quit
";

#[cfg(test)]
mod tests {
    use super::*;

    fn bootstrapped() -> Session {
        let mut session = Session::new();
        for command in [
            "class Info",
            "printable String string",
            "printable Date date",
            "functional Info name String",
            "functional Info created Date",
            "multivalued Info links-to Info",
            "init",
            "insert Info as rock",
            "insert Info as doors",
            "value String \"Rock\" as rockname",
            "edge rock name rockname",
            "value Date date(1990-01-14) as d14",
            "edge rock created d14",
            "edge rock links-to doors",
        ] {
            session
                .execute(command)
                .unwrap_or_else(|err| panic!("{command}: {err}"));
        }
        session
    }

    #[test]
    fn scheme_and_data_commands_build_an_instance() {
        let session = bootstrapped();
        let db = session.instance().unwrap();
        assert_eq!(db.node_count(), 4);
        assert_eq!(db.edge_count(), 3);
        db.validate().unwrap();
    }

    #[test]
    fn match_reports_bindings_with_handles() {
        let mut session = bootstrapped();
        let out = session
            .execute("match { i: Info; n: String = \"Rock\"; i -name-> n; }")
            .unwrap();
        assert!(out.starts_with("1 matching(s)"));
        assert!(out.contains("i=Info(rock)"));
    }

    #[test]
    fn explain_prints_a_plan_with_pattern_names() {
        let mut session = bootstrapped();
        let out = session
            .execute("explain { i: Info; n: String = \"Rock\"; i -name-> n; }")
            .unwrap();
        assert!(out.starts_with("match plan (2 steps"), "{out}");
        assert!(out.contains("bind n [String]"), "{out}");
        assert!(out.contains("bind i [Info]"), "{out}");
        assert!(out.contains("root candidates:"), "{out}");
        assert!(out.contains("sequential"), "{out}");
        // The session explain executes the plan, so every step carries
        // an actual row count next to its estimate.
        assert!(out.contains("actual 1 rows"), "{out}");
        assert!(out.contains("strategy: expand"), "{out}");
        // Without an open base it errors like the other query commands.
        let mut fresh = Session::new();
        fresh.execute("class Info").unwrap();
        assert!(fresh.execute("explain { i: Info; }").is_err());
    }

    #[test]
    fn query_runs_goodql_text_end_to_end() {
        let mut session = bootstrapped();
        let out = session
            .execute("query MATCH (i:Info)-[:name]->(n:String) RETURN n")
            .unwrap();
        assert!(out.contains("Rock"), "{out}");
        assert!(out.contains("1 row(s)"), "{out}");
        assert!(out.contains("backend: core"), "{out}");
        // Quoted form, explicit backend, and the differential lane.
        let quoted = session
            .execute("query tarski \"MATCH (i:Info) RETURN i\"")
            .unwrap();
        assert!(quoted.contains("2 row(s)"), "{quoted}");
        assert!(quoted.contains("backend: tarski"), "{quoted}");
        let diff = session
            .execute("query diff MATCH (i:Info)-[:links-to*]->(j:Info) RETURN i, j")
            .unwrap();
        assert!(diff.contains("core = relational = tarski"), "{diff}");
        assert!(diff.contains("1 row(s)"), "{diff}");
    }

    #[test]
    fn query_errors_render_a_caret_and_need_an_open_base() {
        let mut session = bootstrapped();
        let err = session
            .execute("query MATCH (i:Info RETURN i")
            .unwrap_err()
            .to_string();
        assert!(err.contains("parse error"), "{err}");
        assert!(err.contains('^'), "{err}");
        let unknown = session
            .execute("query MATCH (i:Nope) RETURN i")
            .unwrap_err()
            .to_string();
        assert!(unknown.contains("Nope"), "{unknown}");
        let mut fresh = Session::new();
        assert!(fresh.execute("query MATCH (i:Info) RETURN i").is_err());
    }

    #[test]
    fn explain_query_prints_the_compiled_program_and_plan() {
        let mut session = bootstrapped();
        let out = session
            .execute("explain query MATCH (i:Info)-[:links-to*]->(j:Info) RETURN j")
            .unwrap();
        assert!(out.contains("step 1:"), "{out}");
        assert!(out.contains("match plan"), "{out}");
        assert!(out.contains("i="), "{out}");
        assert!(session.execute("explain query").is_err());
    }

    #[test]
    fn stats_prints_planner_statistics_and_the_metrics_snapshot() {
        let mut session = bootstrapped();
        session.execute("match { i: Info; }").unwrap();
        let out = session.execute("stats").unwrap();
        // No recorder is installed: the one registry is always on.
        assert!(out.contains("metrics: {\"counters\":{"), "{out}");
        assert!(out.contains("\"match.calls\":"), "{out}");
        assert!(
            out.contains("planner statistics (3 edge triples):"),
            "{out}"
        );
        assert!(
            out.contains(
                "Info -links-to-> Info: 1 edges, 1 sources (max out <= 1), 1 targets (max in <= 1)"
            ),
            "{out}"
        );
    }

    #[test]
    fn tag_runs_a_node_addition() {
        let mut session = bootstrapped();
        let out = session
            .execute("tag { i: Info; o: Info; i -links-to-> o; } o Tag of")
            .unwrap();
        assert!(out.contains("1 Tag object(s) created"), "{out}");
        let db = session.instance().unwrap();
        assert_eq!(db.label_count(&"Tag".into()), 1);
    }

    #[test]
    fn connect_and_unlink_round_trip() {
        let mut session = bootstrapped();
        session
            .execute("connect { a: Info; b: Info; a -links-to-> b; } b rev-links a multivalued")
            .unwrap();
        let db = session.instance().unwrap();
        assert_eq!(db.edge_count(), 4);
        session
            .execute("unlink { a: Info; b: Info; a -rev-links-> b; } a rev-links b")
            .unwrap();
        assert_eq!(session.instance().unwrap().edge_count(), 3);
    }

    #[test]
    fn delete_removes_matched_nodes() {
        let mut session = bootstrapped();
        session
            .execute("delete { i: Info; n: String = \"Rock\"; i -name-> n; } i")
            .unwrap();
        let db = session.instance().unwrap();
        assert_eq!(db.label_count(&"Info".into()), 1);
    }

    #[test]
    fn abstract_groups_objects() {
        let mut session = bootstrapped();
        let out = session
            .execute("abstract { i: Info; } i Group member links-to")
            .unwrap();
        assert!(out.contains("group(s) created"), "{out}");
        assert_eq!(session.instance().unwrap().label_count(&"Group".into()), 2);
    }

    #[test]
    fn scheme_command_lists_the_scheme() {
        let mut session = bootstrapped();
        let out = session.execute("scheme").unwrap();
        assert!(out.contains("class Info"));
        assert!(out.contains("printable String string"));
        assert!(out.contains("Info -links-to->> Info"));
        assert!(out.contains("Info -name-> String"));
        // Works before init too.
        let mut fresh = Session::new();
        fresh.execute("class A").unwrap();
        assert!(fresh.execute("scheme").unwrap().contains("class A"));
    }

    #[test]
    fn subclass_command_marks_isa() {
        let mut session = Session::new();
        for command in ["class A", "class B", "subclass A isa B", "init"] {
            session.execute(command).unwrap();
        }
        let out = session.execute("scheme").unwrap();
        assert!(out.contains("(subclass)"), "{out}");
    }

    #[test]
    fn stats_validate_and_dot() {
        let mut session = bootstrapped();
        let stats = session.execute("stats").unwrap();
        assert!(stats.contains("4 nodes, 3 edges"));
        assert!(stats.contains("Info: 2"));
        assert_eq!(session.execute("validate").unwrap(), "all invariants hold");
        assert!(session.execute("dot").unwrap().contains("digraph"));
    }

    #[test]
    fn save_and_load_round_trip() {
        let mut path = std::env::temp_dir();
        path.push(format!("good-cli-test-{}.json", std::process::id()));
        let path_text = path.to_str().unwrap().to_string();

        let mut session = bootstrapped();
        session.execute(&format!("save {path_text}")).unwrap();

        let mut fresh = Session::new();
        fresh.execute(&format!("load {path_text}")).unwrap();
        let out = fresh
            .execute("match { i: Info; n: String = \"Rock\"; i -name-> n; }")
            .unwrap();
        assert!(out.starts_with("1 matching(s)"));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn helpful_errors() {
        let mut session = Session::new();
        let err = session.execute("stats").unwrap_err();
        assert!(err.0.contains("no open object base"));
        let err = session.execute("bogus command").unwrap_err();
        assert!(err.0.contains("unknown command"));
        session.execute("class Info").unwrap();
        session.execute("init").unwrap();
        let err = session.execute("edge a name b").unwrap_err();
        assert!(err.0.contains("unknown handle"));
        let err = session
            .execute("tag { i: Info; } missing Tag of")
            .unwrap_err();
        assert!(err.0.contains("does not declare"));
    }

    #[test]
    fn threads_command_reports_and_sets() {
        let mut session = Session::new();
        let out = session.execute("threads 2").unwrap();
        assert_eq!(out, "matching threads: 2");
        assert!(session.execute("threads nope").is_err());
        // Restore auto-detection for other tests in this process.
        let restored = session.execute("threads 0").unwrap();
        assert!(restored.starts_with("matching threads: "));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let mut session = Session::new();
        assert_eq!(session.execute("").unwrap(), "");
        assert_eq!(session.execute("# a comment").unwrap(), "");
    }

    #[test]
    fn literals_parse() {
        assert_eq!(parse_literal("\"x y\"").unwrap(), Value::str("x y"));
        assert_eq!(parse_literal("42").unwrap(), Value::int(42));
        assert_eq!(parse_literal("2.5").unwrap(), Value::real(2.5));
        assert_eq!(parse_literal("true").unwrap(), Value::Bool(true));
        assert_eq!(
            parse_literal("date(1990-01-14)").unwrap(),
            Value::date(1990, 1, 14)
        );
        assert!(parse_literal("wat").is_err());
        assert!(parse_literal("date(1990-13-01)").is_err());
    }

    #[test]
    fn split_pattern_handles_nesting_and_errors() {
        let (pattern, tail) = split_pattern("{ a: A; } x y").unwrap();
        assert_eq!(pattern, "{ a: A; }");
        assert_eq!(tail, "x y");
        assert!(split_pattern("no braces").is_err());
        assert!(split_pattern("{ unbalanced").is_err());
    }
}
