//! The paper's running example, narrated: Figures 1–16 on the
//! hyper-media object base.
//!
//! Run with `cargo run --example hypermedia`.

use good::hypermedia::{build_instance, figures};
use good::model::error::Result;
use good::model::label::Label;
use good::model::matching::find_matchings;
use good::model::program::Env;
use good::model::value::Value;

fn main() -> Result<()> {
    // Figures 1–3: scheme and instance.
    let (mut db, handles) = build_instance();
    println!(
        "Figures 1-3: hyper-media instance with {} nodes and {} edges",
        db.node_count(),
        db.edge_count()
    );
    println!(
        "  (the Jan 12, 1990 date is ONE node shared by {} `created` edges)",
        db.sources(
            db.find_printable(&"Date".into(), &Value::date(1990, 1, 12))
                .expect("date"),
            &Label::new("created"),
        )
        .count()
    );

    // Figures 4–5: the pattern and its two matchings.
    let (pattern, nodes) = figures::fig4_pattern();
    let matchings = find_matchings(&pattern, &db)?;
    println!(
        "\nFigure 4: pattern has {} matchings (the paper shows two)",
        matchings.len()
    );
    for matching in &matchings {
        let other = matching.image(nodes.other);
        let name = db
            .functional_target(other, &"name".into())
            .and_then(|n| db.print_value(n).cloned());
        println!("  Rock links to {}", name.expect("named"));
    }

    // Figures 6–7: node addition tags the two targets.
    let report = figures::fig6_node_addition().apply(&mut db)?;
    println!(
        "\nFigure 6: node addition created {} tag nodes",
        report.created_nodes.len()
    );

    // Figure 8: aggregate pairs of creation dates.
    let report = figures::fig8_node_addition().apply(&mut db)?;
    println!(
        "Figure 8: {} matchings yielded {} Pair aggregates",
        report.matchings,
        report.created_nodes.len()
    );

    // Figures 10–11: edge addition.
    let report = figures::fig10_edge_addition().apply(&mut db)?;
    println!(
        "Figure 10: added {} data-creation edges",
        report.edges_added
    );

    // Figures 12–13: building a set object.
    let mut env = Env::new();
    let set = figures::figs12_13_build_set(&mut db, &mut env)?;
    println!(
        "Figures 12-13: set object collects {} infos created on Jan 14, 1990",
        db.targets(set, &"contains".into()).count()
    );

    // Figures 14–15: node deletion isolates Mozart.
    figures::fig14_node_deletion().apply(&mut db)?;
    println!(
        "Figure 14: Classical Music deleted; Mozart now has in-degree {}",
        db.in_degree(handles.mozart)
    );

    // Figure 16: update the last-modified date.
    figures::fig16_update(&mut db, &mut env)?;
    let modified = db
        .functional_target(handles.music_history, &"modified".into())
        .and_then(|d| db.print_value(d).cloned());
    println!(
        "Figure 16: Music History last modified {}",
        modified.expect("date")
    );

    db.validate()?;
    println!("\ninstance still validates — done");
    Ok(())
}
