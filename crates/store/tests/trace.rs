//! Trace capture over the store and torture harness.
//!
//! The recorder is process-global, so these tests serialize on a local
//! lock; concurrent spans from other tests in this binary can only add
//! records, never violate the per-thread ordering asserted here.

use good_store::torture::{crash_schedule, TortureConfig};
use std::sync::{Arc, Mutex};

/// Serialize tests that install the global recorder.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Assert the span list is chronologically ordered within each thread
/// when visited in `(thread, seq)` order — the shape a crash-schedule
/// timeline must have to be readable as "what I/O preceded the crash".
fn assert_per_thread_chronological(spans: &[good_trace::Span]) {
    let mut last: Option<(u64, u64, u64)> = None;
    for span in spans {
        if let Some((thread, seq, start_ns)) = last {
            if span.thread == thread {
                assert!(span.seq > seq, "seq must increase within a thread");
                assert!(
                    span.start_ns >= start_ns,
                    "span {} opened before its predecessor on thread {thread}",
                    span.name
                );
            }
        }
        last = Some((span.thread, span.seq, span.start_ns));
    }
}

#[test]
fn crash_schedule_emits_store_span_timeline() {
    let _guard = lock();
    let collector = Arc::new(good_trace::Collector::new());
    let previous = good_trace::swap_recorder(Some(collector.clone()));
    let config = TortureConfig {
        seed: 7,
        programs: 6,
        checkpoint_every: 3,
        max_batch: 1,
    };
    let result = crash_schedule(&config, 9);
    good_trace::swap_recorder(previous);
    let outcome = result.unwrap_or_else(|failure| panic!("{failure}"));
    assert!(!outcome.fault_log.is_empty());

    let spans = collector.take();
    assert!(!spans.is_empty(), "crash schedule produced no spans");
    let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    for expected in [
        "store/append",
        "store/fsync",
        "store/execute",
        "store/recovery",
    ] {
        assert!(
            names.contains(&expected),
            "timeline lacks {expected}; got {names:?}"
        );
    }
    // A recovery says where its time went.
    let recovery = spans.iter().find(|s| s.name == "store/recovery").unwrap();
    for arg in ["bytes", "parse_ns", "replay_ns", "validate_ns"] {
        assert!(recovery.args.iter().any(|(key, _)| *key == arg), "{arg}");
    }
    assert_per_thread_chronological(&spans);
}

/// Nightly: a full-size crash schedule with trace capture. The captured
/// timeline must be non-empty, cover the store category, and read
/// chronologically per thread, so a failing schedule's trace can be
/// lined up against its fault log.
#[test]
#[ignore = "nightly: crash schedule with trace capture via --ignored"]
fn nightly_crash_schedule_emits_ordered_trace_timeline() {
    let _guard = lock();
    let collector = Arc::new(good_trace::Collector::new());
    let previous = good_trace::swap_recorder(Some(collector.clone()));
    let config = TortureConfig::default();
    let result = crash_schedule(&config, 25);
    good_trace::swap_recorder(previous);
    let outcome = result.unwrap_or_else(|failure| panic!("{failure}"));

    let spans = collector.take();
    assert!(!spans.is_empty(), "no spans captured");
    assert!(
        spans.iter().any(|s| s.cat == "store"),
        "store category missing from the timeline"
    );
    assert_per_thread_chronological(&spans);
    // The timeline must cover both the pre-crash workload (appends)
    // and the post-reboot recovery scan.
    let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    assert!(names.contains(&"store/append"), "{names:?}");
    assert!(names.contains(&"store/recovery"), "{names:?}");
    println!(
        "captured {} spans across crash schedule (acked {}, attempted {})",
        spans.len(),
        outcome.acked,
        outcome.attempted
    );
}
