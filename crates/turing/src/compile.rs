//! Compiling a Turing machine into GOOD operations (theorem T3).
//!
//! Every transition rule `(q, s) → (w, D, q′)` becomes a block of basic
//! operations guarded by a rule-specific `Apply:q:s` tag object:
//!
//! 1. **fire** — a node addition creates the tag when a `Tick` marker
//!    is present and the machine is in state `q` reading `s`;
//! 2. **write** — edge deletion + edge addition rewrite the `symbol`
//!    edge to `w`;
//! 3. **extend** — for a move into unvisited tape, a node addition with
//!    a *crossed* pattern ("no neighbour cell exists") materializes a
//!    fresh `Cell`, edge additions link it into the chain and give it
//!    the blank symbol (again via a crossed "has no symbol" pattern);
//! 4. **move** — edge deletion + addition re-target the `head` edge;
//! 5. **switch** — edge deletion + addition re-target the `state` edge;
//! 6. **commit** — node deletions remove the `Tick` marker (so no later
//!    rule block fires in the same step) and the tag.
//!
//! Because every block is guarded by the `Tick`-and-configuration
//! pattern and at most one `(q, s)` pair applies, exactly one block per
//! step has any effect — the rest are vacuous pattern mismatches, which
//! is how a *fixed sequence* of set-oriented operations implements a
//! *conditional* step relation.
//!
//! The whole step relation then becomes a **recursive method**
//! ([`step_method`]): its body performs one step and calls itself while
//! a step happened (detected by the paper's crossed-pattern idiom: the
//! `Tick` survives exactly when no rule fired). The method interface is
//! the tape scheme itself, so the `Tick`/`Apply`/`mate` scaffolding is
//! filtered out of the final instance — the same mechanism that hides
//! the `Elapsed` temporaries in the paper's Figures 23–25.

use crate::encode::{encode_config, sym_value, tm_scheme};
use crate::machine::{Config, Machine, Move, Rule};
use good_core::error::Result;
use good_core::label::{receiver_label, Label};
use good_core::method::{execute_call, Method, MethodCall, MethodSpec};
use good_core::ops::{EdgeAddition, EdgeDeletion, NodeAddition, NodeDeletion};
use good_core::pattern::Pattern;
use good_core::program::{Env, Operation};
use good_graph::NodeId;

/// The tag class guarding one rule's block.
fn apply_label(rule: &Rule) -> Label {
    Label::new(format!("Apply:{}:{}", rule.state, rule.read))
}

/// A pattern seeded with the method head bound to the TM object.
/// Returns `(pattern, tm node)`.
fn tm_pattern(method: &str) -> (Pattern, NodeId) {
    let mut p = Pattern::new();
    let head = p.method_head(method);
    let tm = p.node("TM");
    p.edge(head, receiver_label(), tm);
    (p, tm)
}

/// The operations of one rule block (see module docs).
fn rule_block(machine: &Machine, rule: &Rule, method: &str) -> Vec<Operation> {
    let apply = apply_label(rule);
    let mut ops = Vec::new();

    // 1. fire: NA Apply:q:s — Tick present, state q, reading s.
    {
        let (mut p, tm) = tm_pattern(method);
        let tick = p.node("Tick");
        p.edge(tick, "on", tm);
        let state = p.printable("CtlState", rule.state.as_str());
        p.edge(tm, "state", state);
        let cell = p.node("Cell");
        p.edge(tm, "head", cell);
        let sym = p.printable("Sym", sym_value(rule.read));
        p.edge(cell, "symbol", sym);
        ops.push(Operation::NodeAdd(NodeAddition::new(
            p,
            apply.clone(),
            [(Label::new("at"), cell)],
        )));
    }

    // 2a. write: delete the old symbol edge.
    {
        let mut p = Pattern::new();
        let tag = p.node(apply.clone());
        let cell = p.node("Cell");
        p.edge(tag, "at", cell);
        let sym = p.printable("Sym", sym_value(rule.read));
        p.edge(cell, "symbol", sym);
        ops.push(Operation::EdgeDel(EdgeDeletion::single(
            p, cell, "symbol", sym,
        )));
    }
    // 2b. write: add the new symbol edge.
    {
        let mut p = Pattern::new();
        let tag = p.node(apply.clone());
        let cell = p.node("Cell");
        p.edge(tag, "at", cell);
        let sym = p.printable("Sym", sym_value(rule.write));
        ops.push(Operation::EdgeAdd(EdgeAddition::functional(
            p, cell, "symbol", sym,
        )));
    }

    // 3–4. movement.
    if rule.movement != Move::Stay {
        let (ahead, back, mate): (&str, &str, Label) = match rule.movement {
            Move::Right => ("right", "left", Label::new("mate-right")),
            Move::Left => ("left", "right", Label::new("mate-left")),
            Move::Stay => unreachable!(),
        };
        // 3a. extend: a fresh Cell when no neighbour exists.
        {
            let mut p = Pattern::new();
            let tag = p.node(apply.clone());
            let cell = p.node("Cell");
            p.edge(tag, "at", cell);
            let missing = p.negated_node("Cell");
            p.negated_edge(cell, ahead, missing);
            ops.push(Operation::NodeAdd(NodeAddition::new(
                p,
                "Cell",
                [(mate.clone(), cell)],
            )));
        }
        // 3b. link the fresh cell into the chain (both directions).
        {
            let mut p = Pattern::new();
            let tag = p.node(apply.clone());
            let cell = p.node("Cell");
            p.edge(tag, "at", cell);
            let fresh = p.node("Cell");
            p.edge(fresh, mate.clone(), cell);
            ops.push(Operation::EdgeAdd(EdgeAddition::new(
                p,
                [
                    good_core::ops::EdgeToAdd {
                        src: cell,
                        label: Label::new(ahead),
                        kind: good_core::label::EdgeKind::Functional,
                        dst: fresh,
                    },
                    good_core::ops::EdgeToAdd {
                        src: fresh,
                        label: Label::new(back),
                        kind: good_core::label::EdgeKind::Functional,
                        dst: cell,
                    },
                ],
            )));
        }
        // 3c. blank-fill a neighbour that has no symbol yet.
        {
            let mut p = Pattern::new();
            let tag = p.node(apply.clone());
            let cell = p.node("Cell");
            p.edge(tag, "at", cell);
            let next = p.node("Cell");
            p.edge(cell, ahead, next);
            let any_sym = p.negated_node("Sym");
            p.negated_edge(next, "symbol", any_sym);
            let blank = p.printable("Sym", sym_value(machine.blank));
            ops.push(Operation::EdgeAdd(EdgeAddition::functional(
                p, next, "symbol", blank,
            )));
        }
        // 4a. move: drop the head edge.
        {
            let (mut p, tm) = tm_pattern(method);
            let tag = p.node(apply.clone());
            let cell = p.node("Cell");
            p.edge(tag, "at", cell);
            p.edge(tm, "head", cell);
            ops.push(Operation::EdgeDel(EdgeDeletion::single(
                p, tm, "head", cell,
            )));
        }
        // 4b. move: head to the neighbour.
        {
            let (mut p, tm) = tm_pattern(method);
            let tag = p.node(apply.clone());
            let cell = p.node("Cell");
            p.edge(tag, "at", cell);
            let next = p.node("Cell");
            p.edge(cell, ahead, next);
            ops.push(Operation::EdgeAdd(EdgeAddition::functional(
                p, tm, "head", next,
            )));
        }
    }

    // 5a. switch: drop the state edge.
    {
        let (mut p, tm) = tm_pattern(method);
        let tag = p.node(apply.clone());
        let cell = p.node("Cell");
        p.edge(tag, "at", cell);
        let state = p.printable("CtlState", rule.state.as_str());
        p.edge(tm, "state", state);
        ops.push(Operation::EdgeDel(EdgeDeletion::single(
            p, tm, "state", state,
        )));
    }
    // 5b. switch: enter the next state.
    {
        let (mut p, tm) = tm_pattern(method);
        let tag = p.node(apply.clone());
        let cell = p.node("Cell");
        p.edge(tag, "at", cell);
        let next = p.printable("CtlState", rule.next.as_str());
        ops.push(Operation::EdgeAdd(EdgeAddition::functional(
            p, tm, "state", next,
        )));
    }

    // 6a. commit: consume the Tick so no later block fires this step.
    {
        let mut p = Pattern::new();
        let tag = p.node(apply.clone());
        let tick = p.node("Tick");
        ops.push(Operation::NodeDel(NodeDeletion::new(p, tick)));
        let _ = tag;
    }
    // 6b. commit: drop the tag.
    {
        let mut p = Pattern::new();
        let tag = p.node(apply);
        ops.push(Operation::NodeDel(NodeDeletion::new(p, tag)));
    }

    ops
}

/// The name of the step method for `machine`.
pub const STEP_METHOD: &str = "TM-Step";

/// Build the recursive step method for `machine`.
pub fn step_method(machine: &Machine) -> Method {
    let spec = MethodSpec::new(STEP_METHOD, "TM", []);
    let mut body = Vec::new();

    // Raise the Tick marker on the receiver.
    {
        let (p, tm) = tm_pattern(STEP_METHOD);
        body.push(Operation::NodeAdd(NodeAddition::new(
            p,
            "Tick",
            [(Label::new("on"), tm)],
        )));
    }
    // One block per rule, in deterministic order.
    for rule in machine.rules() {
        body.extend(rule_block(machine, rule, STEP_METHOD));
    }
    // Recurse while a step happened — i.e. the Tick is gone.
    {
        let (mut p, tm) = tm_pattern(STEP_METHOD);
        let tick = p.negated_node("Tick");
        p.negated_edge(tick, "on", tm);
        body.push(Operation::Call(MethodCall::new(STEP_METHOD, p, tm, [])));
    }
    // Halt cleanup: remove the surviving Tick.
    {
        let (mut p, tm) = tm_pattern(STEP_METHOD);
        let tick = p.node("Tick");
        p.edge(tick, "on", tm);
        body.push(Operation::NodeDel(NodeDeletion::new(p, tick)));
    }

    // The interface is the tape scheme itself: everything else (Tick,
    // Apply tags, mate edges) is scaffolding and gets filtered out.
    Method::new(spec, body, tm_scheme())
}

/// Run `machine` on `input` entirely inside GOOD: encode, register the
/// recursive step method, call it once on the TM object, decode.
///
/// `fuel` bounds the total number of operation applications — a
/// diverging machine surfaces as [`good_core::error::GoodError::OutOfFuel`].
pub fn run_in_good(machine: &Machine, input: &str, fuel: u64) -> Result<Config> {
    let (mut db, _) = encode_config(machine, input)?;
    let mut env = Env::with_fuel(fuel);
    env.register(step_method(machine));
    let mut p = Pattern::new();
    let tm = p.node("TM");
    let call = MethodCall::new(STEP_METHOD, p, tm, []);
    execute_call(&call, &mut db, &mut env)?;
    db.validate()?;
    crate::encode::decode_config(&db, machine.blank)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{binary_increment, diverger, palindrome, unary_addition, Outcome};
    use good_core::error::GoodError;

    /// Interpreter ground truth.
    fn reference(machine: &Machine, input: &str) -> Config {
        match machine.run(input, 100_000) {
            Outcome::Halted { config, .. } => config,
            Outcome::OutOfSteps(config) => panic!("did not halt: {config}"),
        }
    }

    #[test]
    fn binary_increment_agrees() {
        let machine = binary_increment();
        for input in ["0", "1", "101", "111", "1011"] {
            let expected = reference(&machine, input);
            let actual = run_in_good(&machine, input, 200_000).unwrap();
            assert_eq!(actual, expected, "increment({input})");
        }
    }

    #[test]
    fn unary_addition_agrees() {
        let machine = unary_addition();
        for input in ["1+1", "11+1", "1+111"] {
            let expected = reference(&machine, input);
            let actual = run_in_good(&machine, input, 400_000).unwrap();
            assert_eq!(actual, expected, "sum({input})");
        }
    }

    #[test]
    fn palindrome_agrees() {
        let machine = palindrome();
        for input in ["", "a", "ab", "aba", "abba", "aab"] {
            let expected = reference(&machine, input);
            let actual = run_in_good(&machine, input, 2_000_000).unwrap();
            assert_eq!(actual, expected, "palindrome({input:?})");
            assert_eq!(actual.state == "yes", expected.state == "yes");
        }
    }

    #[test]
    fn busy_beaver3_agrees() {
        let machine = crate::machine::busy_beaver3();
        let expected = reference(&machine, "");
        let actual = run_in_good(&machine, "", 200_000).unwrap();
        assert_eq!(actual, expected);
        assert_eq!(actual.tape.len(), 6);
    }

    #[test]
    fn diverger_exhausts_fuel() {
        let err = run_in_good(&diverger(), "", 2_000).unwrap_err();
        assert!(matches!(err, GoodError::OutOfFuel { .. }));
    }

    #[test]
    fn scaffolding_is_filtered_from_the_result() {
        let machine = binary_increment();
        let (mut db, _) = encode_config(&machine, "11").unwrap();
        let mut env = Env::with_fuel(200_000);
        env.register(step_method(&machine));
        let mut p = Pattern::new();
        let tm = p.node("TM");
        execute_call(&MethodCall::new(STEP_METHOD, p, tm, []), &mut db, &mut env).unwrap();
        assert_eq!(db.scheme(), &tm_scheme());
        assert_eq!(db.label_count(&Label::new("Tick")), 0);
        assert!(db
            .edges()
            .all(|(_, label, _)| !label.as_str().starts_with("mate-")));
        db.validate().unwrap();
    }

    #[test]
    fn head_can_walk_into_fresh_tape_on_both_sides() {
        // A machine that writes an `x` two cells left of the input.
        let rule = |state: &str, read, write, movement, next: &str| Rule {
            state: state.into(),
            read,
            write,
            movement,
            next: next.into(),
        };
        let machine = Machine::new(
            '_',
            "l1",
            [
                rule("l1", 'a', 'a', Move::Left, "l2"),
                rule("l2", '_', '_', Move::Left, "w"),
                rule("w", '_', 'x', Move::Stay, "done"),
            ],
        );
        let expected = reference(&machine, "a");
        let actual = run_in_good(&machine, "a", 50_000).unwrap();
        assert_eq!(actual, expected);
        assert_eq!(actual.tape.get(&-2), Some(&'x'));
    }

    #[test]
    fn single_step_method_body_shape() {
        let machine = binary_increment();
        let method = step_method(&machine);
        // 1 Tick NA + 12 ops per moving rule (6 rules, all move) + MC + ND.
        assert_eq!(method.body.len(), 1 + 6 * 12 + 2);
        assert_eq!(method.spec.receiver, Label::new("TM"));
    }
}
