//! # good-query — GOODQL, a declarative query language for GOOD
//!
//! A small GQL/Cypher-flavored MATCH/WHERE/RETURN fragment that
//! compiles to the GOOD model's native machinery: one query string
//! becomes one GOOD [`Pattern`](good_core::pattern::Pattern) plus a
//! path-derivation program of edge additions and starred (recursive)
//! edge additions. The same AST also compiles to the `relational` and
//! `tarski` backends, so every query is answered three independent
//! ways — the paper's completeness theorems as an always-on
//! differential oracle.
//!
//! ```text
//! MATCH (a:Info)-[:links-to*1..3]->(b:Info), (a)-[:name]->(n:String)
//! WHERE n STARTS WITH "info" AND NOT (b)-[:links-to]->(a)
//! RETURN DISTINCT a, b LIMIT 10
//! ```
//!
//! Pipeline: [`parser::parse_query`] → [`compile::compile`] →
//! [`exec::execute`] (pick a [`exec::Backend`]) or [`exec::explain`]
//! for the compiled program + match plan.

#![warn(missing_docs)]

pub mod ast;
pub mod compile;
pub mod exec;
pub mod gen;
pub mod parser;

pub use ast::Query;
pub use compile::{compile, CompiledQuery, MAX_PATH_BOUND};
pub use exec::{
    execute, execute_rows, explain, profile, run, run_differential, Backend, QueryOutput, RowSet,
};
pub use parser::{parse_query, MAX_QUERY_LEN};

use good_core::error::GoodError;
use std::fmt;

/// Errors from parsing, compiling, or executing a GOODQL query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The text did not parse. `pos` is a byte offset into the source.
    Parse {
        /// Byte offset of the error in the query text.
        pos: usize,
        /// What went wrong / what was expected.
        message: String,
    },
    /// The query parsed but does not compile against the scheme.
    Compile {
        /// Byte offset of the offending construct.
        pos: usize,
        /// What went wrong.
        message: String,
    },
    /// Execution failed (matching error, fuel exhaustion, ...).
    Exec(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse { pos, message } => {
                write!(f, "parse error at byte {pos}: {message}")
            }
            QueryError::Compile { pos, message } => {
                write!(f, "compile error at byte {pos}: {message}")
            }
            QueryError::Exec(message) => write!(f, "execution error: {message}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<GoodError> for QueryError {
    fn from(err: GoodError) -> Self {
        QueryError::Exec(err.to_string())
    }
}

impl QueryError {
    /// The byte offset the error points at, when it has one.
    pub fn pos(&self) -> Option<usize> {
        match self {
            QueryError::Parse { pos, .. } | QueryError::Compile { pos, .. } => Some(*pos),
            QueryError::Exec(_) => None,
        }
    }

    /// Render the error with a caret marking the offending position in
    /// `source` — the CLI / server diagnostic format:
    ///
    /// ```text
    /// parse error at byte 9: expected `)`
    ///   MATCH (a:
    ///            ^
    /// ```
    pub fn render(&self, source: &str) -> String {
        let mut out = self.to_string();
        let Some(pos) = self.pos() else {
            return out;
        };
        let pos = pos.min(source.len());
        // The line containing `pos`, and the caret's column within it.
        let line_start = source[..pos].rfind('\n').map_or(0, |i| i + 1);
        let line_end = source[pos..].find('\n').map_or(source.len(), |i| pos + i);
        let line = &source[line_start..line_end];
        let column = source[line_start..pos].chars().count();
        out.push_str("\n  ");
        out.push_str(line);
        out.push_str("\n  ");
        for _ in 0..column {
            out.push(' ');
        }
        out.push('^');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caret_points_at_offset() {
        let err = QueryError::Parse {
            pos: 9,
            message: "expected `)`".into(),
        };
        let rendered = err.render("MATCH (a:");
        assert_eq!(
            rendered,
            "parse error at byte 9: expected `)`\n  MATCH (a:\n           ^"
        );
    }

    #[test]
    fn caret_lands_on_right_line_of_multiline_source() {
        let source = "MATCH (a:Info)\nRETRUN a";
        let err = QueryError::Parse {
            pos: 15,
            message: "expected RETURN".into(),
        };
        let rendered = err.render(source);
        assert!(rendered.ends_with("\n  RETRUN a\n  ^"), "{rendered}");
    }

    #[test]
    fn exec_errors_render_without_caret() {
        let err = QueryError::Exec("out of fuel".into());
        assert_eq!(err.render("MATCH"), "execution error: out of fuel");
    }

    #[test]
    fn caret_clamps_past_the_end() {
        let err = QueryError::Parse {
            pos: 999,
            message: "unexpected end of query".into(),
        };
        let rendered = err.render("MATCH");
        assert!(rendered.ends_with("\n  MATCH\n       ^"), "{rendered}");
    }
}
