//! E8 — method machinery overhead: call cost over receiver fan-out and
//! body length, and the price of interface filtering (temporaries
//! created and then restricted away).

use good_bench::harness::Bench;
use good_bench::instance_of;
use good_core::instance::Instance;
use good_core::label::{receiver_label, Label};
use good_core::method::{execute_call, Method, MethodCall, MethodSpec};
use good_core::ops::NodeAddition;
use good_core::pattern::Pattern;
use good_core::program::{Env, Operation};
use good_core::scheme::Scheme;

/// A method whose body is `body_len` no-op-ish node additions tagging
/// the receiver with temp classes (filtered by the empty interface).
fn temp_tagging_method(body_len: usize) -> Method {
    let mut body = Vec::new();
    for index in 0..body_len {
        let mut p = Pattern::new();
        let head = p.method_head("Tagger");
        let recv = p.node("Info");
        p.edge(head, receiver_label(), recv);
        body.push(Operation::NodeAdd(NodeAddition::new(
            p,
            format!("Temp{index}").as_str(),
            [(Label::new(format!("t{index}")), recv)],
        )));
    }
    Method::new(MethodSpec::new("Tagger", "Info", []), body, Scheme::new())
}

/// Register `method` and call it on every Info (`anchor` absent) or on
/// the one Info named `anchor`.
fn call(mut db: Instance, method: Method, anchor: Option<&str>) -> Instance {
    let name = method.spec.name.clone();
    let mut env = Env::with_fuel(1_000_000);
    env.register(method);
    let mut p = Pattern::new();
    let info = p.node("Info");
    if let Some(anchor) = anchor {
        let printable = p.printable("String", anchor);
        p.edge(info, "name", printable);
    }
    execute_call(&MethodCall::new(name, p, info, []), &mut db, &mut env).expect("call");
    db
}

fn main() {
    Bench::run("methods", &[], |bench| {
        for body_len in [1usize, 4, 16] {
            bench.time_with_setup(
                &format!("body-length/{body_len}"),
                || instance_of(100),
                |db| call(db, temp_tagging_method(body_len), Some("info-3")),
            );
        }
        // One call, many receivers: the set-oriented frame construction.
        for size in [50usize, 200, 800] {
            bench.time_with_setup(
                &format!("receiver-fanout/{size}"),
                || instance_of(size),
                |db| call(db, temp_tagging_method(2), None),
            );
        }
        // The restriction sweep alone, isolated by calling a body-less
        // method on a large instance: cost ≈ restrict_to_scheme.
        for size in [100usize, 400, 1600] {
            bench.time_with_setup(
                &format!("interface-filtering/{size}"),
                || instance_of(size),
                |db| {
                    let noop = Method::new(
                        MethodSpec::new("Noop", "Info", []),
                        Vec::new(),
                        Scheme::new(),
                    );
                    call(db, noop, None)
                },
            );
        }
    });
}
