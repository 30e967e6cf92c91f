//! Every checked-in `BENCH_*.json` must be a schema-1 harness envelope
//! that says where it came from — so a hand-edited or stale-format
//! baseline fails tier-1, not a nightly `--check` — and must come back
//! out of the typed envelope byte for byte (format identity).

use good_bench::harness::{workspace_root, Envelope};

#[test]
fn every_checked_in_baseline_is_a_schema_1_envelope() {
    let mut benches = Vec::new();
    for entry in std::fs::read_dir(workspace_root()).expect("workspace root") {
        let path = entry.expect("directory entry").path();
        let file = path
            .file_name()
            .and_then(|name| name.to_str())
            .unwrap_or("");
        let Some(bench) = file
            .strip_prefix("BENCH_")
            .and_then(|rest| rest.strip_suffix(".json"))
        else {
            continue;
        };
        let text = std::fs::read_to_string(&path).expect("readable");
        let envelope = Envelope::from_json(&text).unwrap_or_else(|err| panic!("{file}: {err}"));
        assert_eq!(
            envelope.bench, bench,
            "{file}: `bench` must match the file name"
        );
        assert!(envelope.to_json() == text, "{file}: round trip differs");
        assert!(
            !envelope.commit.is_empty() && !envelope.rustc.is_empty() && envelope.cores > 0,
            "{file}: commit/rustc/cores must say where the numbers came from"
        );
        assert!(!envelope.results.is_empty(), "{file}: no results");
        for result in &envelope.results {
            assert!(
                result.n > 0 && result.quiet > 0.0 && result.quiet <= result.p75,
                "{file}: implausible summary for {}",
                result.name
            );
        }
        benches.push(bench.to_string());
    }
    benches.sort();
    // One baseline per bench target (E1–E20 but the retired E12).
    let expected = [
        "abstraction",
        "backends",
        "instance",
        "matching",
        "methods",
        "negation",
        "net",
        "obs",
        "operations",
        "planner",
        "publish",
        "query",
        "recovery",
        "recursion",
        "relational",
        "server",
        "store",
        "trace",
        "turing",
    ];
    assert_eq!(benches, expected);
}
