//! E6 — relational algebra natively vs via the GOOD simulation
//! (Section 4.3 T1), over relation cardinality. Reports the constant-
//! factor cost of faithfulness.

use good_bench::harness::Bench;
use good_core::program::Env;
use good_core::value::{Value, ValueType};
use good_relational::algebra::{Predicate, RelExpr};
use good_relational::compile::Compiler;
use good_relational::encode::encode;
use good_relational::relation::{RelDatabase, RelSchema, Relation};

const CARDINALITIES: [usize; 3] = [50, 200, 800];

fn database(rows: usize) -> RelDatabase {
    let mut emp = Relation::new(RelSchema::new([
        ("name", ValueType::Str),
        ("dept", ValueType::Str),
        ("grade", ValueType::Int),
    ]));
    for index in 0..rows {
        emp.insert(vec![
            Value::str(format!("e{index}")),
            Value::str(format!("d{}", index % 10)),
            Value::int((index % 5) as i64),
        ])
        .expect("typed row");
    }
    let mut dept = Relation::new(RelSchema::new([
        ("dept", ValueType::Str),
        ("floor", ValueType::Int),
    ]));
    for index in 0..10 {
        dept.insert(vec![
            Value::str(format!("d{index}")),
            Value::int(index as i64),
        ])
        .expect("typed row");
    }
    let mut db = RelDatabase::new();
    db.add("emp", emp);
    db.add("dept", dept);
    db
}

fn query() -> RelExpr {
    RelExpr::base("emp")
        .join(RelExpr::base("dept"))
        .select(Predicate::AttrEqConst("grade".into(), Value::int(2)))
        .project(["name", "floor"])
}

fn main() {
    Bench::run("relational", &[], |bench| {
        let expr = query();
        for rows in CARDINALITIES {
            let db = database(rows);
            bench.time(&format!("native-algebra/{rows}"), || {
                expr.eval(&db).expect("evaluates")
            });
            bench.time_with_setup(
                &format!("good-simulation/{rows}"),
                || encode(&db).expect("encodes"),
                |mut instance| {
                    let compiled = Compiler::new().compile(&expr, &db).expect("compiles");
                    compiled
                        .program
                        .apply(&mut instance, &mut Env::with_fuel(10_000_000))
                        .expect("runs");
                    instance
                },
            );
            bench.time(&format!("encode-cost/{rows}"), || {
                encode(&db).expect("encodes")
            });
        }
    });
}
