//! E2 — throughput of the five basic operations over instance size.
//! Validates that operations are set-oriented: cost tracks the number
//! of matchings, applied "in parallel" per the paper's Section 5.

use good_bench::harness::Bench;
use good_bench::{instance_of, SIZES};
use good_core::instance::Instance;
use good_core::label::Label;
use good_core::ops::{Abstraction, EdgeAddition, EdgeDeletion, NodeAddition, NodeDeletion};
use good_core::pattern::Pattern;
use good_graph::NodeId;

/// `a -links-to-> b` over Infos: the pattern four of the five share.
fn link_pattern() -> (Pattern, NodeId, NodeId) {
    let mut p = Pattern::new();
    let a = p.node("Info");
    let b = p.node("Info");
    p.edge(a, "links-to", b);
    (p, a, b)
}

fn node_addition(db: &mut Instance) {
    let mut p = Pattern::new();
    let info = p.node("Info");
    let date = p.node("Date");
    p.edge(info, "created", date);
    NodeAddition::new(p, "Tag", [(Label::new("of"), info)])
        .apply(db)
        .expect("applies");
}

fn edge_addition(db: &mut Instance) {
    let (p, a, b) = link_pattern();
    EdgeAddition::multivalued(p, b, "rec-links-to", a)
        .apply(db)
        .expect("applies");
}

fn node_deletion(db: &mut Instance) {
    let (p, _, b) = link_pattern();
    NodeDeletion::new(p, b).apply(db).expect("applies");
}

fn edge_deletion(db: &mut Instance) {
    let (p, a, b) = link_pattern();
    EdgeDeletion::single(p, a, "links-to", b)
        .apply(db)
        .expect("applies");
}

fn abstraction(db: &mut Instance) {
    let mut p = Pattern::new();
    let info = p.node("Info");
    Abstraction::new(p, info, "Grp", "member", "links-to")
        .apply(db)
        .expect("applies");
}

type Apply = fn(&mut Instance);

fn main() {
    Bench::run("operations", &[], |bench| {
        let operations: [(&str, Apply); 5] = [
            ("node-addition", node_addition),
            ("edge-addition", edge_addition),
            ("node-deletion", node_deletion),
            ("edge-deletion", edge_deletion),
            ("abstraction", abstraction),
        ];
        for (name, apply) in operations {
            for size in SIZES {
                bench.time_with_setup(
                    &format!("{name}/{size}"),
                    || instance_of(size),
                    |mut db| {
                        apply(&mut db);
                        db
                    },
                );
            }
        }
    });
}
