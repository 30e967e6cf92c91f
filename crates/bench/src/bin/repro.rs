//! `repro` — regenerate every figure of the paper and check every
//! Section 4.3 theorem, printing a report and emitting DOT renderings.
//!
//! Usage:
//!   repro [out-dir]     # default out-dir: ./repro-out
//!
//! The report lines double as the "measured" column of EXPERIMENTS.md.

use good_core::label::Label;
use good_core::matching::find_matchings;
use good_core::program::Env;
use good_core::value::Value;
use good_hypermedia::{build_instance, build_scheme, build_versions_instance, figures};
use std::fmt::Write as _;
use std::path::Path;

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "repro-out".to_string());
    let out = Path::new(&out_dir);
    std::fs::create_dir_all(out).expect("create output directory");
    let mut report = String::new();

    macro_rules! line {
        ($($arg:tt)*) => {{
            let text = format!($($arg)*);
            println!("{text}");
            writeln!(report, "{text}").expect("write report");
        }};
    }

    // All figure DOT renderings come from the same generator the
    // golden tests diff (see crates/bench/tests/figures.rs).
    for (name, contents) in good_bench::figure_dots() {
        std::fs::write(out.join(name), contents).expect("write dot file");
    }

    line!("# GOOD figure reproduction report");
    line!("");

    // ---- Figures 1–3 -----------------------------------------------------
    let scheme = build_scheme();
    line!(
        "F1   scheme: {} object classes, {} printable classes, {} triples -> fig1-scheme.dot",
        scheme.object_labels().count(),
        scheme.printable_labels().count(),
        scheme.triples().count()
    );

    let (db0, h) = build_instance();
    line!(
        "F2-3 instance: {} nodes, {} edges; Jan 12 1990 is one shared node with {} created-sources",
        db0.node_count(),
        db0.edge_count(),
        db0.sources(
            db0.find_printable(&"Date".into(), &Value::date(1990, 1, 12))
                .expect("date"),
            &Label::new("created")
        )
        .count()
    );

    // ---- Figures 4–5 -------------------------------------------------------
    let (pattern, _) = figures::fig4_pattern();
    let matchings = find_matchings(&pattern, &db0).expect("fig4 matches");
    line!("F4-5 pattern matchings: {} (paper: 2)", matchings.len());

    // ---- Figure 6–7 ----------------------------------------------------------
    let mut db = db0.clone();
    let report6 = figures::fig6_node_addition().apply(&mut db).expect("fig6");
    line!(
        "F6-7 node addition: {} matchings, {} tag nodes added (paper: 2)",
        report6.matchings,
        report6.created_nodes.len()
    );

    // ---- Figure 8 ---------------------------------------------------------------
    let mut db = db0.clone();
    let report8 = figures::fig8_node_addition().apply(&mut db).expect("fig8");
    line!(
        "F8   aggregates: {} matchings, {} Pair nodes (paper: four matchings, four pairs)",
        report8.matchings,
        report8.created_nodes.len()
    );

    // ---- Figures 10–11 --------------------------------------------------------------
    let mut db = db0.clone();
    let report10 = figures::fig10_edge_addition()
        .apply(&mut db)
        .expect("fig10");
    line!(
        "F10-11 edge addition: {} data-creation edges (paper: 2)",
        report10.edges_added
    );

    // ---- Figures 12–13 ----------------------------------------------------------------
    let mut db = db0.clone();
    let set = figures::figs12_13_build_set(&mut db, &mut Env::new()).expect("figs12-13");
    line!(
        "F12-13 set building: Created-Jan-14-1990 contains {} infos (paper: the Jan 14 infos)",
        db.targets(set, &Label::new("contains")).count()
    );

    // ---- Figures 14–15 ------------------------------------------------------------------
    let mut db = db0.clone();
    figures::fig14_node_deletion()
        .apply(&mut db)
        .expect("fig14");
    line!(
        "F14-15 node deletion: Classical Music gone={}, Mozart isolated={} (paper: both)",
        !db.contains_node(h.classical),
        db.in_degree(h.mozart) == 0 && db.contains_node(h.mozart)
    );

    // ---- Figure 16 ----------------------------------------------------------------------
    let mut db = db0.clone();
    figures::fig16_update(&mut db, &mut Env::new()).expect("fig16");
    let modified = db
        .functional_target(h.music_history, &Label::new("modified"))
        .and_then(|d| db.print_value(d).cloned());
    line!(
        "F16  update: Music History modified = {} (paper: Jan 16, 1990)",
        modified.expect("date")
    );

    // ---- Figures 17–19 ---------------------------------------------------------------------
    let (mut vdb, vh) = build_versions_instance();
    for ab in figures::fig18_abstractions() {
        ab.apply(&mut vdb).expect("fig18");
    }
    let same_group = {
        let contains = Label::new("contains");
        let g0: Vec<_> = vdb.sources(vh.documents[0], &contains).collect();
        let g1: Vec<_> = vdb.sources(vh.documents[1], &contains).collect();
        g0 == g1 && g0.len() == 1
    };
    line!(
        "F17-19 abstraction: {} Same-Info groups; equal-link-set documents share one group={} ",
        vdb.label_count(&Label::new("Same-Info")),
        same_group
    );

    // ---- Figures 20–21 -----------------------------------------------------------------------
    let mut db = db0.clone();
    db.add_printable("Date", Value::date(1990, 1, 16))
        .expect("date");
    let mut env = Env::new();
    env.register(figures::fig20_update_method());
    good_core::method::execute_call(&figures::fig21_update_call(), &mut db, &mut env)
        .expect("fig21");
    let updated = db
        .functional_target(h.music_history, &Label::new("modified"))
        .and_then(|d| db.print_value(d).cloned());
    line!(
        "F20-21 Update method: modified = {}, scheme restored = {}",
        updated.expect("date"),
        db.scheme() == &build_scheme()
    );

    // ---- Figure 22 -------------------------------------------------------------------------------
    let mut db = db0.clone();
    let mut env = Env::new();
    figures::remove_rock_old_versions(&mut db, &mut env, &h).expect("fig22");
    line!(
        "F22  R-O-V: old version deleted={}, version node deleted={}, receiver kept={}",
        !db.contains_node(h.rock_old),
        !db.contains_node(h.version),
        db.contains_node(h.rock_new)
    );

    // ---- Figures 23–25 -----------------------------------------------------------------------------
    let mut db = db0.clone();
    figures::method_e_apply(&mut db, &mut Env::new()).expect("fig23-25");
    let days = db
        .functional_target(h.music_history, &Label::new("days-unmod"))
        .and_then(|d| db.print_value(d).cloned());
    line!(
        "F23-25 Elapsed method: days-unmod(Music History) = {}, Elapsed temporaries left = {}",
        days.expect("number"),
        db.label_count(&Label::new("Elapsed"))
    );

    // ---- Figures 26–27 -------------------------------------------------------------------------------
    let mut db = db0.clone();
    let (pattern26, _, _) = figures::fig26_pattern();
    let direct = find_matchings(&pattern26, &db).expect("fig26");
    let via_macro = figures::fig27_expansion()
        .evaluate(&mut db, &mut Env::new())
        .expect("fig27");
    line!(
        "F26-27 negation: direct = {} matchings, Figure-27 macro = {} (must agree: {})",
        direct.len(),
        via_macro.len(),
        direct == via_macro
    );

    // ---- Figures 28–29 ---------------------------------------------------------------------------------
    let mut db = db0.clone();
    let (method, call) = figures::figs28_29_closure();
    let mut env = Env::new();
    env.register(method);
    good_core::method::execute_call(&call, &mut db, &mut env).expect("fig28-29");
    let rec = Label::new("rec-links-to");
    let closure_size = db.edges().filter(|(_, label, _)| **label == rec).count();
    let links = Label::new("links-to");
    let expected: usize =
        good_graph::algo::transitive_closure_by(&db.to_graph(), |label| *label == links)
            .values()
            .map(|set| set.len())
            .sum();
    line!(
        "F28-29 transitive closure: {} rec-links-to edges, graph-theoretic closure = {} (equal: {})",
        closure_size,
        expected,
        closure_size == expected
    );

    // ---- Figures 30–31 -----------------------------------------------------------------------------------
    let results = figures::fig30_query(&db0).expect("fig30");
    line!(
        "F30-31 inheritance: {} reference(s) to Jazz found, name = {}",
        results.len(),
        db0.print_value(results[0].1).expect("name")
    );

    // ---- Theorems -------------------------------------------------------------------------------------------
    line!("");
    line!("# Section 4.3 theorems");
    t1(&mut report);
    t2(&mut report);
    t3(&mut report);

    std::fs::write(out.join("report.md"), &report).expect("write report.md");
    println!("\nDOT files and report.md written to {out_dir}/");
}

fn t1(report: &mut String) {
    use good_core::value::ValueType;
    use good_relational::algebra::{Predicate, RelExpr};
    use good_relational::compile::Compiler;
    use good_relational::encode::{decode, encode};
    use good_relational::relation::{RelDatabase, RelSchema, Relation};

    let mut emp = Relation::new(RelSchema::new([
        ("name", ValueType::Str),
        ("dept", ValueType::Str),
    ]));
    for (name, dept) in [("ann", "db"), ("bob", "os"), ("cal", "db"), ("dee", "pl")] {
        emp.insert(vec![Value::str(name), Value::str(dept)])
            .expect("row");
    }
    let mut db = RelDatabase::new();
    db.add("emp", emp);
    let expr = RelExpr::base("emp")
        .select(Predicate::AttrEqConst("dept".into(), Value::str("db")))
        .project(["name"])
        .union(
            RelExpr::base("emp")
                .project(["name"])
                .difference(RelExpr::base("emp").project(["name"])),
        );
    let expected = expr.eval(&db).expect("native");
    let mut instance = encode(&db).expect("encode");
    let compiled = Compiler::new().compile(&expr, &db).expect("compile");
    compiled
        .program
        .apply(&mut instance, &mut Env::new())
        .expect("run");
    let actual = decode(&instance, &compiled.class, &compiled.schema).expect("decode");
    let text = format!(
        "T1   relational completeness: native = {} rows, GOOD simulation = {} rows, equal = {}",
        expected.len(),
        actual.len(),
        expected == actual
    );
    println!("{text}");
    report.push_str(&text);
    report.push('\n');
}

fn t2(report: &mut String) {
    use good_core::value::ValueType;
    use good_relational::encode::{class_label, encode};
    use good_relational::nested::{decode_nest, nest, nest_in_good};
    use good_relational::relation::{RelDatabase, RelSchema, Relation};

    let mut flat = Relation::new(RelSchema::new([
        ("k", ValueType::Str),
        ("v", ValueType::Str),
    ]));
    for (k, v) in [("a", "x"), ("a", "y"), ("b", "x"), ("c", "x"), ("c", "y")] {
        flat.insert(vec![Value::str(k), Value::str(v)])
            .expect("row");
    }
    let mut db = RelDatabase::new();
    db.add("t", flat.clone());
    let mut instance = encode(&db).expect("encode");
    let good_nest = nest_in_good(
        &mut instance,
        &mut Env::new(),
        &class_label("t"),
        flat.schema(),
        &["k"],
        "n",
    )
    .expect("nest in good");
    let expected = nest(&flat, &["k"], "vs").expect("nest");
    let decoded = decode_nest(
        &instance,
        &good_nest,
        &RelSchema::new([("k".to_string(), ValueType::Str)]),
        &RelSchema::new([("v".to_string(), ValueType::Str)]),
        "vs",
    )
    .expect("decode");
    let groups = instance.label_count(&good_nest.group_class);
    let text = format!(
        "T2   nested algebra: nest agrees = {}, abstraction found {} distinct relation values (a and c share one)",
        decoded.rows == expected.rows,
        groups
    );
    println!("{text}");
    report.push_str(&text);
    report.push('\n');
}

fn t3(report: &mut String) {
    use good_turing::machine::{binary_increment, Outcome};
    use good_turing::run_in_good;
    let machine = binary_increment();
    let mut all_agree = true;
    for input in ["0", "1", "1011"] {
        let expected = match machine.run(input, 100_000) {
            Outcome::Halted { config, .. } => config,
            Outcome::OutOfSteps(_) => unreachable!(),
        };
        let actual = run_in_good(&machine, input, 1_000_000).expect("halts");
        all_agree &= actual == expected;
    }
    let text = format!(
        "T3   Turing completeness: binary increment via recursive GOOD method agrees on all inputs = {all_agree}"
    );
    println!("{text}");
    report.push_str(&text);
    report.push('\n');
}
