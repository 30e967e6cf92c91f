//! `good-core` — the GOOD object database model and its graph
//! transformation language.
//!
//! This crate is the reproduction of the paper's primary contribution
//! (Gyssens, Paredaens, Van den Bussche, Van Gucht, *A Graph-Oriented
//! Object Database Model*, PODS 1990):
//!
//! * **Section 2** — [`scheme`] and [`instance`]: object base schemes
//!   `S = (OL, POL, FEL, MEL, P)` and instances as labeled graphs with
//!   the paper's three invariants enforced at mutation time.
//! * **Section 3** — [`pattern`] and [`matching`]: patterns and matchings
//!   (label/print/edge-preserving homomorphisms); [`ops`]: the five basic
//!   operations — node addition, edge addition, node deletion, edge
//!   deletion, abstraction; [`method`]: the method mechanism
//!   (specification, body, interface, call) with recursion;
//!   [`program`]: sequencing and the execution environment.
//! * **Section 4.1** — [`macros`]: negation, recursive (starred)
//!   additions, set building, functional update, printable predicates.
//! * **Section 4.2** — [`inheritance`]: `isa` subclass edges as a
//!   virtual view, with pattern rewriting and subclass method dispatch.
//! * **Section 5** — [`rules`]: operations as condition ⇒ action rules
//!   with fixpoint saturation (the G-Log direction); [`browse`]:
//!   pattern-directed browsing; [`meta`]: schemes as instances, so GOOD
//!   programs perform scheme manipulation; [`textual`]: a parseable
//!   textual notation for patterns and the paper's bracket notation for
//!   operations.
//!
//! The expressiveness results of Section 4.3 live in the sibling crates
//! `good-relational` (relational & nested relational completeness) and
//! `good-turing` (Turing completeness).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod browse;
pub mod error;
mod fixpoint;
pub mod gen;
pub mod inheritance;
pub mod instance;
pub mod label;
pub mod macros;
pub mod matching;
pub mod meta;
pub mod method;
pub mod ops;
pub mod pattern;
pub mod persist;
pub mod planner;
pub mod program;
pub mod rules;
pub mod scheme;
pub mod snapshot;
pub mod stats;
pub mod textual;
pub mod value;
pub mod wcoj;

/// Commonly used types, for `use good_core::prelude::*`.
pub mod prelude {
    pub use crate::error::{GoodError, Result};
    pub use crate::instance::Instance;
    pub use crate::label::{EdgeKind, Label, NodeKind};
    pub use crate::matching::{
        default_threads, explain_plan_profiled, find_match_table, find_matchings,
        find_matchings_with, set_default_threads, MatchConfig, MatchTable, Matching, Plan,
        PlanStep,
    };
    pub use crate::method::{Method, MethodCall, MethodSpec};
    pub use crate::ops::{Abstraction, EdgeAddition, EdgeDeletion, NodeAddition, NodeDeletion};
    pub use crate::pattern::{Pattern, ValuePredicate};
    pub use crate::planner::{find_matchings_binary, plan, JoinStrategy, PlanChoice};
    pub use crate::program::{Env, Operation, Program};
    pub use crate::rules::{Rule, RuleSet};
    pub use crate::scheme::{Scheme, SchemeBuilder};
    pub use crate::snapshot::{Snapshot, SnapshotCell};
    pub use crate::stats::{DegreeHistogram, InstanceStats, TripleStats};
    pub use crate::textual::{format_pattern, parse_pattern};
    pub use crate::value::{Date, Value, ValueType};
    pub use crate::wcoj::find_matchings_wcoj;
}
