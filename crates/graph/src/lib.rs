//! `good-graph` — the generic labeled-multigraph substrate underlying the
//! GOOD object database model reproduction.
//!
//! The GOOD paper (Gyssens, Paredaens, Van den Bussche, Van Gucht, PODS
//! 1990) represents *everything* — schemes, instances, patterns — as
//! directed labeled graphs. This crate provides the storage layer those
//! higher-level structures are built on:
//!
//! * [`Graph`] — a generational-arena directed multigraph with payloads on
//!   nodes and edges, O(1) insertion/removal and stable identifiers;
//! * [`NodeId`] / [`EdgeId`] — copyable, generation-checked handles;
//! * [`pvec`] — the persistent, structurally shared vector the arenas
//!   store their slots in, making `Graph::clone` O(1) `Arc` bumps and
//!   mutation O(delta · log n) path copies (the substrate of the MVCC
//!   snapshot layer in `good-core`/`good-server`);
//! * [`algo`] — the transitive closure the recursion experiments are
//!   checked against;
//! * [`iso`] — a VF2-style (sub)graph isomorphism checker, used by the
//!   test suites to compare instances "up to the particular choice of new
//!   objects" as the paper phrases determinism;
//! * [`dot`] — Graphviz DOT emission, the reproduction's stand-in for the
//!   paper's graphical user interface.
//!
//! The crate is deliberately independent of GOOD semantics: labels,
//! printable values and invariants live in `good-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod arena;
pub mod dot;
pub mod graph;
pub mod iso;
pub mod pvec;

pub use arena::{Arena, ArenaId};
pub use graph::{EdgeId, EdgeRef, Graph, NodeId, NodeRef};
