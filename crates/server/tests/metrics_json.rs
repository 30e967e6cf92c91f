//! The metrics JSON snapshot shape: schema round-trip through the
//! vendored JSON reader, and proptests that arbitrary metric names and
//! values — control characters, quotes, backslashes, unicode — always
//! serialize to parseable JSON with the values intact (the escaping
//! contract of `MetricsSnapshot::to_json`).

use good_trace::{HistogramSnapshot, MetricsSnapshot};
use proptest::prelude::*;
use serde_json::Value;

/// Metric names drawn from a hostile alphabet: quotes, backslashes,
/// ASCII control characters (NUL through US), slashes, and multi-byte
/// unicode up to emoji — everything the JSON escaper must handle.
fn hostile_text(max: usize) -> impl Strategy<Value = String> {
    const CLASS: &str = "[\"\\\\\u{0}-\u{1f}a-z/=\u{e9}\u{4e16}\u{1f600}-\u{1f603}]";
    proptest::string::string_regex(&format!("{CLASS}{{0,{max}}}"))
        .expect("hostile alphabet pattern")
}

fn parse(json: &str) -> Value {
    serde_json::from_str(json)
        .unwrap_or_else(|err| panic!("snapshot JSON must parse: {err}\n{json}"))
}

#[test]
fn snapshot_json_schema_round_trips_through_the_reader() {
    let snapshot = MetricsSnapshot {
        counters: vec![
            ("net/accepted".into(), 12),
            ("server/committed".into(), u64::MAX),
        ],
        gauges: vec![
            ("net/connections".into(), 3),
            ("server/queue_depth".into(), -1),
        ],
        histograms: vec![(
            "server/commit_ns".into(),
            HistogramSnapshot {
                count: 4,
                sum: 1_000,
                max: 700,
                buckets: vec![(127, 1), (255, 2), (1023, 1)],
            },
        )],
    };
    let doc = parse(&snapshot.to_json());

    assert_eq!(doc["counters"]["net/accepted"].as_u64(), Some(12));
    // u64::MAX exceeds i64: the vendored reader parses integers as
    // i128, so the full range survives.
    assert_eq!(
        doc["counters"]["server/committed"].as_f64(),
        Some(u64::MAX as f64)
    );
    assert_eq!(doc["gauges"]["net/connections"].as_i64(), Some(3));
    assert_eq!(doc["gauges"]["server/queue_depth"].as_i64(), Some(-1));
    let histogram = &doc["histograms"]["server/commit_ns"];
    assert_eq!(histogram["count"].as_u64(), Some(4));
    assert_eq!(histogram["sum"].as_u64(), Some(1_000));
    assert_eq!(histogram["max"].as_u64(), Some(700));
    let buckets = histogram["buckets"].as_seq().expect("buckets array");
    assert_eq!(buckets.len(), 3);
    assert_eq!(buckets[1].at(0).and_then(Value::as_u64), Some(255));
    assert_eq!(buckets[1].at(1).and_then(Value::as_u64), Some(2));

    // Empty snapshot: still a complete, parseable schema.
    let empty = parse(&MetricsSnapshot::default().to_json());
    for section in ["counters", "gauges", "histograms"] {
        assert_eq!(empty[section].as_map().map(<[_]>::len), Some(0));
    }
}

#[test]
fn live_snapshot_json_parses_against_the_same_schema() {
    // The always-on registry renders through the same code path; a
    // smoke check that a real live snapshot (whatever other tests in
    // this process have recorded) parses.
    static PROBE: good_trace::LiveCounter = good_trace::LiveCounter::new("metrics_json/probe");
    PROBE.incr();
    let doc = parse(&good_trace::metrics_snapshot().to_json());
    assert!(doc["counters"]["metrics_json/probe"].as_u64().unwrap() >= 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary names — including quotes, backslashes, control
    /// characters, and unicode — always yield parseable JSON, and every
    /// name/value pair survives the round trip exactly.
    #[test]
    fn prop_arbitrary_names_and_values_stay_parseable(
        counters in proptest::collection::vec((hostile_text(12), any::<u64>()), 0..8),
        gauges in proptest::collection::vec((hostile_text(12), any::<i64>()), 0..8),
        hist_name in hostile_text(12),
        observations in proptest::collection::vec(any::<u64>(), 0..32),
    ) {
        let mut histogram = HistogramSnapshot::default();
        for &value in &observations {
            histogram.count += 1;
            histogram.sum = histogram.sum.saturating_add(value);
            histogram.max = histogram.max.max(value);
        }
        histogram.buckets = if observations.is_empty() {
            Vec::new()
        } else {
            vec![(u64::MAX, observations.len() as u64)]
        };
        let snapshot = MetricsSnapshot {
            counters: counters.clone(),
            gauges: gauges.clone(),
            histograms: vec![(hist_name.clone(), histogram.clone())],
        };
        let doc = parse(&snapshot.to_json());

        // Lookup returns a duplicated name's first occurrence, so
        // assert against that.
        for (name, value) in &counters {
            let expected = counters.iter().find(|(n, _)| n == name).unwrap().1;
            let got = doc["counters"][name.as_str()].as_f64();
            prop_assert_eq!(got, Some(expected as f64), "counter {:?} = {}", name, value);
        }
        for (name, value) in &gauges {
            let expected = gauges.iter().find(|(n, _)| n == name).unwrap().1;
            let got = doc["gauges"][name.as_str()].as_i64();
            prop_assert_eq!(got, Some(expected), "gauge {:?} = {}", name, value);
        }
        let entry = &doc["histograms"][hist_name.as_str()];
        prop_assert_eq!(entry["count"].as_u64(), Some(histogram.count));
        prop_assert_eq!(entry["max"].as_f64(), Some(histogram.max as f64));
    }

    /// The escaping helper itself: any string embedded via
    /// `escape_json_str` parses back to the original.
    #[test]
    fn prop_escape_json_str_round_trips(text in hostile_text(40)) {
        let json = format!("\"{}\"", good_trace::escape_json_str(&text));
        let back: String = serde_json::from_str(&json)
            .unwrap_or_else(|err| panic!("escaped string must parse: {err}\n{json}"));
        prop_assert_eq!(back, text);
    }
}
