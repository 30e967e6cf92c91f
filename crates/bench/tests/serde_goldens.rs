//! Format identity: `tests/golden/serde/*.json` were written by the
//! tree-based `serde` stand-in of PR 16 (generator: that directory's
//! README) and are never regenerated. Each must read into its type and
//! write back to exactly its bytes: old journals and frames stay current.

use good_bench::harness::{workspace_root, Envelope};
use good_core::macros::recursion::RecursiveEdgeAddition;
use good_core::{scheme::Scheme, value::Value};
use good_store::LogRecord;
use serde::{Deserialize, Serialize};

/// Identity through the document's own type and through the dynamic one.
fn identical<T: Serialize + Deserialize>(file: &str) {
    let path = workspace_root().join("tests/golden/serde").join(file);
    let golden = std::fs::read_to_string(path).expect(file);
    let golden = golden.strip_suffix('\n').unwrap_or(&golden);
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
        "snapshot register-method apply-na apply-ea apply-nd apply-ed apply-ab apply-call";
    for record in records.split(' ') {
        identical::<LogRecord>(&format!("{record}.json"));
    }
    identical::<Vec<LogRecord>>("batch.json");
    identical::<RecursiveEdgeAddition>("star-ea.json");
    identical::<Scheme>("scheme.pretty.json");
    identical::<Vec<Value>>("values.json");
    identical::<Envelope>("bench-envelope.pretty.json");
}
