//! Format identity: `tests/golden/serde/*.json` were written by the
//! tree-based `serde` stand-in of PR 16 (generator: that directory's
//! README) and are never regenerated. Each must read into its type and
//! write back to exactly its bytes: old journals and frames stay current.
//! The one exception is the instance snapshot, whose shape changed when
//! edges became triples: `snapshot-triples.json` is the current shape,
//! and the old `snapshot.json` must still open and write back as it.

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
    let records =
        "snapshot-triples register-method apply-na apply-ea apply-nd apply-ed apply-ab apply-call";
    for record in records.split(' ') {
        identical::<LogRecord>(&format!("{record}.json"));
    }
    identical::<Vec<LogRecord>>("batch.json");
    identical::<RecursiveEdgeAddition>("star-ea.json");
    identical::<Scheme>("scheme.pretty.json");
    identical::<Vec<Value>>("values.json");
    identical::<Envelope>("bench-envelope.pretty.json");
}

#[test]
fn the_edge_arena_snapshot_opens_as_its_triples_document() {
    let old: LogRecord = serde_json::from_str(&golden("snapshot.json")).expect("old shape opens");
    let written = serde_json::to_string(&old).expect("writes");
    assert!(written == golden("snapshot-triples.json"), "{written}");
}
