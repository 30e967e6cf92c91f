//! Format identity: `tests/golden/serde/*.json` were written by the
//! tree-based `serde` stand-in of PR 16 (generator: that directory's
//! README) and are never regenerated. Each must read into its type and
//! write back to exactly its bytes: old journals and frames stay current.
//! The exceptions are the documents holding an instance or a pattern,
//! whose shape changed when edges, then pattern edges, became triples:
//! each has a `*-triples.json` twin in the current shape, and the old
//! file must still open and write back as its twin.

use good_bench::harness::{workspace_root, Envelope};
use good_core::macros::recursion::RecursiveEdgeAddition;
use good_core::{scheme::Scheme, value::Value};
use good_store::LogRecord;
use serde::{Deserialize, Serialize};

fn golden(file: &str) -> String {
    let path = workspace_root().join("tests/golden/serde").join(file);
    let golden = std::fs::read_to_string(path).expect(file);
    golden.strip_suffix('\n').unwrap_or(&golden).to_string()
}

/// Identity through the document's own type and through the dynamic one.
fn identical<T: Serialize + Deserialize>(file: &str) {
    let golden = &golden(file);
    let typed: T = serde_json::from_str(golden).unwrap_or_else(|err| panic!("{file}: {err}"));
    let dynamic: serde_json::Value = serde_json::from_str(golden).expect(file);
    let written = match file.contains(".pretty.") {
        true => [
            serde_json::to_string_pretty(&typed),
            serde_json::to_string_pretty(&dynamic),
        ],
        false => [
            serde_json::to_string(&typed),
            serde_json::to_string(&dynamic),
        ],
    };
    let same = |back: &serde_json::Result<String>| back.as_deref().ok() == Some(golden);
    assert!(written.iter().all(same), "{file} re-serialises differently");
}

#[test]
fn every_golden_round_trips_byte_for_byte() {
    identical::<Scheme>("scheme.pretty.json");
    identical::<Vec<Value>>("values.json");
    identical::<Envelope>("bench-envelope.pretty.json");
}

/// `old` opens and writes back as its twin, which round-trips.
fn opens_as_its_twin<T: Serialize + Deserialize>(old: &str) {
    let twin = format!("{old}-triples.json");
    let read: T = serde_json::from_str(&golden(&format!("{old}.json"))).expect(old);
    let written = serde_json::to_string(&read).expect("writes");
    assert!(written == golden(&twin), "{old}: {written}");
    identical::<T>(&twin);
}

#[test]
fn the_edge_arena_snapshot_opens_as_its_triples_document() {
    let records =
        "snapshot register-method apply-na apply-ea apply-nd apply-ed apply-ab apply-call";
    for record in records.split(' ') {
        opens_as_its_twin::<LogRecord>(record);
    }
    opens_as_its_twin::<Vec<LogRecord>>("batch");
    opens_as_its_twin::<RecursiveEdgeAddition>("star-ea");
}
