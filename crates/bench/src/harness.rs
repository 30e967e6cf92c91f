//! The one measurement loop behind every bench target (E1–E20).
//!
//! Three decisions live here and nowhere else:
//!
//! * **sampling policy** — a bench's body runs [`PASSES`] times and
//!   every case watches its routine for about [`CASE_NANOS`] in all, in
//!   samples of about [`SAMPLE_NANOS`]; a case's samples are
//!   therefore spread over the whole run, interleaved with every other
//!   case's, and are summarized by the benchmark's own robust
//!   statistics (`examples/e2e/src/stats.rs`, included below, so the
//!   repository has one median/quartile/quietest-tenth implementation);
//! * **result format** — the schema-1 [`Envelope`] written to
//!   `BENCH_<bench>.json` at the workspace root and read back through
//!   the same typed structs;
//! * **regression policy** — `--check` judges a bench's [`Gate`] table
//!   ([`check`]) on each case's `quiet` figure (the median of its
//!   quietest tenth of samples: noise on a shared runner only ever adds
//!   time) and fails on a regressed, un-baselined or unmeasured row.
//!   A checking run measures exactly what a recording run measures, in
//!   the same order — a case's time depends on what the process did
//!   before it (allocator state, above all), so skipping the ungated
//!   cases would compare a case against a baseline of something else —
//!   and differs only in its last step: judge instead of write. A
//!   failed judgement is re-measured, [`CHECK_ATTEMPTS`] times at most.
//!
//! A bench is a `main` that hands [`Bench::run`] a body which builds
//! its inputs and names its cases:
//!
//! ```no_run
//! use good_bench::harness::{Bench, Gate};
//! const GATES: &[Gate] = &[Gate::vs_baseline("sum/1000", 1.10, 1_000.0)];
//! Bench::run("example", GATES, |bench| {
//!     bench.time("sum/1000", || (0..1000u64).sum::<u64>());
//! });
//! ```

#[allow(dead_code)]
#[path = "../examples/e2e/src/stats.rs"]
mod stats;

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Times a bench's body runs. The sandbox's slow spells last seconds,
/// so no single window is safe: each pass gives every case one window,
/// and the windows of one case are a whole pass apart. Same-run ratio
/// rows get their two cases measured alternately for free.
pub const PASSES: usize = 10;
/// Wall time one case watches its routine for, over all passes.
pub const CASE_NANOS: u128 = 3_000_000_000;
/// Target on-the-clock time of one sample; iterations per sample are
/// sized to it.
pub const SAMPLE_NANOS: u128 = 10_000_000;
/// Floor on samples per case and pass, for routines so slow that the
/// budget would buy fewer.
pub const MIN_SAMPLES: usize = 2;
/// Untimed calibration run before a pass's first sample: fills caches
/// and yields the per-call estimate the plan is sized from.
pub const WARM_UP_NANOS: u128 = 5_000_000;
/// Ceiling on iterations per sample.
const MAX_ITERATIONS: u128 = 1_000_000;
/// Times `--check` measures before it believes a failure: it fails only
/// if every attempt does. On a shared runner a whole attempt can sit in
/// a slow spell, and a same-run ratio of multi-threaded cases carries
/// ±2% of scheduling luck however long it is sampled (two *identical*
/// arms of E19's A/B read 1.00 ± 0.02). The hand-rolled mains this
/// harness replaced did the same case by case: best of two medians,
/// best of three A/B attempts.
pub const CHECK_ATTEMPTS: usize = 3;
/// One pass's sampling plan for a routine that calibration timed at
/// `clocked` ns per call on the clock and `wall` ns per call in all
/// (untimed setup included): `(iterations per sample, samples)`.
fn plan(clocked: u128, wall: u128) -> (u128, usize) {
    let iterations = (SAMPLE_NANOS / clocked.max(1)).clamp(1, MAX_ITERATIONS);
    let sample_wall = (iterations * wall.max(1)).max(SAMPLE_NANOS);
    let budget = CASE_NANOS / PASSES as u128;
    let samples = ((budget / sample_wall) as usize).max(MIN_SAMPLES);
    (iterations, samples)
}

/// Envelope format version.
pub const SCHEMA: u32 = 1;

/// One measured case: the robust summary of its samples (nanoseconds)
/// plus free-form numeric annotations (row counts, bytes, percentiles).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseResult {
    /// Case name, unique within its bench.
    pub name: String,
    /// Unit of `quiet`/`median`/`p25`/`p75` — always `"ns"` today.
    pub unit: String,
    /// Median of the quietest tenth of the samples: the figure gates
    /// compare and the tables in EXPERIMENTS.md quote. On a shared
    /// machine a sample is either undisturbed or slowed by a neighbour,
    /// so the low end measures the program and the rest the neighbour.
    pub quiet: f64,
    /// Median of the samples.
    pub median: f64,
    /// Lower quartile of the samples.
    pub p25: f64,
    /// Upper quartile of the samples.
    pub p75: f64,
    /// Number of samples.
    pub n: usize,
    /// Annotations a bench attaches with [`Recorded::note`].
    pub notes: BTreeMap<String, f64>,
}

impl CaseResult {
    /// Summarize `samples` (nanoseconds, any order, at least one) as
    /// the case `name`.
    pub fn summarize(name: &str, samples: &[f64]) -> CaseResult {
        // Tenths of a nanosecond are below any clock this runs on and
        // keep the checked-in files free of 17-digit noise.
        let round = |ns: f64| (ns * 10.0).round() / 10.0;
        let median = stats::median(samples);
        let (p25, p75) = if samples.len() < 2 {
            (median, median)
        } else {
            let (q1, _, q3) = stats::quartiles(samples);
            (q1, q3)
        };
        CaseResult {
            name: name.to_string(),
            unit: "ns".to_string(),
            quiet: round(stats::quiet(samples, false)),
            median: round(median),
            p25: round(p25),
            p75: round(p75),
            n: samples.len(),
            notes: BTreeMap::new(),
        }
    }
}

/// The `BENCH_<bench>.json` document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Envelope {
    /// Format version ([`SCHEMA`]).
    pub schema: u32,
    /// Bench name; the file is `BENCH_<bench>.json`.
    pub bench: String,
    /// `git describe --always --dirty` of the tree that was measured.
    pub commit: String,
    /// `rustc -V` of the toolchain that built it.
    pub rustc: String,
    /// `available_parallelism` of the machine that ran it.
    pub cores: usize,
    /// One entry per measured case, in run order.
    pub results: Vec<CaseResult>,
}

impl Envelope {
    /// Describe this machine and tree around `results`.
    pub fn current(bench: &str, results: Vec<CaseResult>) -> Envelope {
        let tool = |program: &str, args: &[&str]| {
            std::process::Command::new(program)
                .args(args)
                .current_dir(workspace_root())
                .output()
                .ok()
                .filter(|output| output.status.success())
                .map(|output| String::from_utf8_lossy(&output.stdout).trim().to_string())
                .filter(|line| !line.is_empty())
                .unwrap_or_else(|| "unknown".to_string())
        };
        Envelope {
            schema: SCHEMA,
            bench: bench.to_string(),
            commit: tool("git", &["describe", "--always", "--dirty", "--exclude=*"]),
            rustc: tool("rustc", &["-V"]),
            cores: std::thread::available_parallelism().map_or(1, usize::from),
            results,
        }
    }

    /// Render as pretty-printed JSON with a trailing newline.
    pub fn to_json(&self) -> String {
        let mut json = serde_json::to_string_pretty(self).expect("finite numbers");
        json.push('\n');
        json
    }

    /// Parse a schema-1 envelope.
    pub fn from_json(text: &str) -> Result<Envelope, String> {
        let envelope: Envelope = serde_json::from_str(text).map_err(|err| err.to_string())?;
        if envelope.schema != SCHEMA {
            return Err(format!("schema {} (expected {SCHEMA})", envelope.schema));
        }
        Ok(envelope)
    }

    /// Read and parse the envelope at `path`; the error names the file.
    pub fn read(path: &std::path::Path) -> Result<Envelope, String> {
        std::fs::read_to_string(path)
            .map_err(|err| err.to_string())
            .and_then(|text| Envelope::from_json(&text))
            .map_err(|err| format!("{}: {err}", path.display()))
    }

    fn case(&self, name: &str) -> Option<&CaseResult> {
        self.results.iter().find(|result| result.name == name)
    }

    fn origin(&self) -> String {
        format!(
            "commit {}, {} core(s), {}",
            self.commit, self.cores, self.rustc
        )
    }
}

/// The workspace root (where the `BENCH_*.json` files live).
pub fn workspace_root() -> PathBuf {
    let mut path = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    path.pop(); // crates/
    path.pop(); // workspace root
    path
}

/// Which side of a same-run ratio's bound passes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// `ratio >= bound` passes.
    AtLeast(f64),
    /// `ratio <= bound` passes.
    AtMost(f64),
}

/// One row of a bench's tolerance table. There are exactly two kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// The case's fresh `quiet` must not exceed
    /// `ratio × recorded quiet + slack_ns`.
    VsBaseline {
        /// The gated case.
        case: &'static str,
        /// Allowed multiple of the recorded figure.
        ratio: f64,
        /// Absolute allowance on top, for clock and scheduler grain.
        slack_ns: f64,
    },
    /// `quiet(case) / quiet(over)`, both measured in this run, must
    /// stay on the passing side of `bound`.
    SameRun {
        /// Numerator case.
        case: &'static str,
        /// Denominator case.
        over: &'static str,
        /// The bound and its direction.
        bound: Bound,
    },
}

impl Gate {
    /// A [`Gate::VsBaseline`] row.
    pub const fn vs_baseline(case: &'static str, ratio: f64, slack_ns: f64) -> Gate {
        Gate::VsBaseline {
            case,
            ratio,
            slack_ns,
        }
    }

    /// A [`Gate::SameRun`] row.
    pub const fn same_run(case: &'static str, over: &'static str, bound: Bound) -> Gate {
        Gate::SameRun { case, over, bound }
    }
}

fn ns(value: f64) -> String {
    good_trace::format_ns(value.round() as u64)
}

/// Judge `run` against `gates` and the recorded `baseline`. Returns
/// the report — both origins, then one line per row — and whether every
/// row passed. A gated case missing from the baseline or from the run
/// fails its row. (An unreadable baseline never gets this far:
/// [`Bench::run`] refuses before measuring.)
pub fn check(gates: &[Gate], run: &Envelope, baseline: &Envelope) -> (String, bool) {
    let (rows, passed) = judge(gates, run, baseline);
    let origins = format!(
        "{bench}: baseline {}\n{bench}: current  {}\n",
        baseline.origin(),
        run.origin(),
        bench = run.bench,
    );
    (origins + &rows, passed)
}

/// One report line per gate, and whether all of them passed.
fn judge(gates: &[Gate], run: &Envelope, baseline: &Envelope) -> (String, bool) {
    let mut report = String::new();
    let mut passed = true;
    for gate in gates {
        let (row, ok) = match *gate {
            Gate::VsBaseline {
                case,
                ratio,
                slack_ns,
            } => match (run.case(case), baseline.case(case)) {
                (None, _) => (format!("{case:<40} NOT MEASURED in this run"), false),
                (_, None) => (format!("{case:<40} NOT IN BASELINE"), false),
                (Some(now), Some(then)) => {
                    let allowed = then.quiet * ratio + slack_ns;
                    (
                        format!(
                            "{case:<40} {:>10}  baseline {:>10}  x{:.3}  (allowed x{ratio} + {} = {})",
                            ns(now.quiet),
                            ns(then.quiet),
                            now.quiet / then.quiet,
                            ns(slack_ns),
                            ns(allowed),
                        ),
                        now.quiet <= allowed,
                    )
                }
            },
            Gate::SameRun { case, over, bound } => {
                let label = format!("{case} / {over}");
                match (run.case(case), run.case(over)) {
                    (Some(top), Some(bottom)) => {
                        let ratio = top.quiet / bottom.quiet;
                        let (ok, wanted) = match bound {
                            Bound::AtLeast(floor) => (ratio >= floor, format!(">= {floor}")),
                            Bound::AtMost(ceiling) => (ratio <= ceiling, format!("<= {ceiling}")),
                        };
                        (
                            format!(
                                "{label:<40} {:>10} / {:>10} = {ratio:.3}  (must be {wanted})",
                                ns(top.quiet),
                                ns(bottom.quiet),
                            ),
                            ok,
                        )
                    }
                    _ => (format!("{label:<40} NOT MEASURED in this run"), false),
                }
            }
        };
        let _ = writeln!(report, "  {row}  {}", if ok { "ok" } else { "FAILED" });
        passed &= ok;
    }
    (report, passed)
}

/// Per-call nanoseconds of `routine`, timed as whole-sample loops (the
/// clock is read twice per sample, so ns-scale routines stay
/// measurable).
fn sample_looped<O>(mut routine: impl FnMut() -> O) -> Vec<f64> {
    let warm_up = Instant::now();
    let mut calls: u128 = 0;
    while calls == 0 || warm_up.elapsed().as_nanos() < WARM_UP_NANOS {
        black_box(routine());
        calls += 1;
    }
    let per_call = warm_up.elapsed().as_nanos() / calls;
    let (iterations, samples) = plan(per_call, per_call);
    (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iterations {
                black_box(routine());
            }
            start.elapsed().as_nanos() as f64 / iterations as f64
        })
        .collect()
}

/// Per-call nanoseconds of `routine` over fresh `setup()` inputs: only
/// the routine is on the clock; its input is built, and its output
/// dropped, off it.
fn sample_with_setup<I, O>(
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(I) -> O,
) -> Vec<f64> {
    let mut timed = |iterations: u128| {
        let mut total: u128 = 0;
        for _ in 0..iterations {
            let input = setup();
            let start = Instant::now();
            let output = black_box(routine(input));
            total += start.elapsed().as_nanos();
            drop(output);
        }
        total as f64 / iterations as f64
    };
    let wall = Instant::now();
    let clocked = timed(1) as u128;
    let (iterations, samples) = plan(clocked, wall.elapsed().as_nanos());
    (0..samples).map(|_| timed(iterations)).collect()
}

/// One case's raw material, pooled over the passes.
struct Case {
    name: String,
    samples: Vec<f64>,
    /// Every operation's latency, for latency cases (the `p99` note).
    operations: Vec<f64>,
    notes: BTreeMap<String, f64>,
}

/// Handle on the case just measured, for attaching annotations.
pub struct Recorded<'a>(&'a mut Case);

impl Recorded<'_> {
    /// Attach a numeric annotation (a row count, a byte size…).
    pub fn note(self, key: &str, value: f64) -> Self {
        self.0.notes.insert(key.to_string(), value);
        self
    }
}

/// A bench run: measures the cases its body names, then either writes
/// `BENCH_<name>.json` or, under `--check`, judges the gates against
/// it.
pub struct Bench {
    name: &'static str,
    gates: &'static [Gate],
    /// The recorded baseline to judge against, when checking.
    baseline: Option<Envelope>,
    cases: Vec<Case>,
}

impl Bench {
    /// Run the bench `name` (its baseline is `BENCH_<name>.json`) with
    /// its tolerance table: `body` is called [`PASSES`] times and must
    /// name the same cases each time. `--check` on the command line
    /// selects check mode, which exits non-zero if [`CHECK_ATTEMPTS`]
    /// attempts all fail.
    pub fn run(name: &'static str, gates: &'static [Gate], mut body: impl FnMut(&mut Bench)) {
        let path = workspace_root().join(format!("BENCH_{name}.json"));
        let baseline = std::env::args().any(|arg| arg == "--check").then(|| {
            // Refuse before measuring anything.
            Envelope::read(&path).unwrap_or_else(|reason| {
                println!("{name}: --check FAILED: cannot read baseline {reason}");
                std::process::exit(1)
            })
        });
        println!(
            "{name}: {} — {PASSES} passes, ~{} per case in samples of ~{}",
            if baseline.is_some() {
                "check"
            } else {
                "record"
            },
            ns(CASE_NANOS as f64),
            ns(SAMPLE_NANOS as f64)
        );
        let mut bench = Bench {
            name,
            gates,
            baseline,
            cases: Vec::new(),
        };
        for attempt in 1..=CHECK_ATTEMPTS {
            for pass in 1..=PASSES {
                let start = Instant::now();
                body(&mut bench);
                println!("{name}: pass {pass}/{PASSES} took {:.1?}", start.elapsed());
            }
            if bench.finish(&path) {
                return;
            }
            println!("{name}: --check attempt {attempt}/{CHECK_ATTEMPTS} failed");
        }
        std::process::exit(1);
    }

    /// The pooled entry for `name`.
    fn case(&mut self, name: &str) -> &mut Case {
        let index = match self.cases.iter().position(|case| case.name == name) {
            Some(index) => index,
            None => {
                self.cases.push(Case {
                    name: name.to_string(),
                    samples: Vec::new(),
                    operations: Vec::new(),
                    notes: BTreeMap::new(),
                });
                self.cases.len() - 1
            }
        };
        &mut self.cases[index]
    }

    /// Measure `routine`, called back to back.
    pub fn time<O>(&mut self, case: &str, routine: impl FnMut() -> O) -> Recorded<'_> {
        let case = self.case(case);
        case.samples.extend(sample_looped(routine));
        Recorded(case)
    }

    /// Measure `routine` on a fresh `setup()` input per call, setup
    /// and the drop of the routine's output untimed.
    pub fn time_with_setup<I, O>(
        &mut self,
        case: &str,
        setup: impl FnMut() -> I,
        routine: impl FnMut(I) -> O,
    ) -> Recorded<'_> {
        let case = self.case(case);
        case.samples.extend(sample_with_setup(setup, routine));
        Recorded(case)
    }

    /// Summarize a latency distribution the bench collects itself:
    /// `latencies` holds one nanosecond latency per operation of one
    /// run. Each pass contributes one sample, its p50 — spread inside a
    /// run (queueing behind other clients, say) is the workload's own,
    /// only spread between runs is noise — so `quiet` is the p50 of the
    /// least disturbed pass. The 99th percentile over all operations
    /// rides along as the note `p99`.
    pub fn latencies(&mut self, case: &str, latencies: Vec<f64>) -> Recorded<'_> {
        let case = self.case(case);
        case.samples.push(stats::median(&latencies));
        case.operations.extend(latencies);
        Recorded(case)
    }

    /// Summarize and print every case, then write the baseline or
    /// judge the gates; `false` when a check failed.
    fn finish(&mut self, path: &std::path::Path) -> bool {
        let results: Vec<CaseResult> = std::mem::take(&mut self.cases)
            .into_iter()
            .map(|case| {
                let mut result = CaseResult::summarize(&case.name, &case.samples);
                result.notes = case.notes;
                if !case.operations.is_empty() {
                    let p99 = stats::percentile(&case.operations, 0.99);
                    result.notes.insert("p99".to_string(), p99);
                }
                println!(
                    "{:<60} quiet {:>10}  median {:>10}  [p25 {} .. p75 {}]  n={}",
                    format!("{}/{}", self.name, result.name),
                    ns(result.quiet),
                    ns(result.median),
                    ns(result.p25),
                    ns(result.p75),
                    result.n,
                );
                result
            })
            .collect();
        let run = Envelope::current(self.name, results);
        if let Some(baseline) = &self.baseline {
            let (report, passed) = check(self.gates, &run, baseline);
            print!("{report}");
            println!(
                "{}: --check {}",
                self.name,
                if passed { "passed" } else { "FAILED" }
            );
            return passed;
        }
        // Same-run rows need no baseline: show them while recording.
        let same_run: Vec<Gate> = self
            .gates
            .iter()
            .copied()
            .filter(|gate| matches!(gate, Gate::SameRun { .. }))
            .collect();
        print!("{}", judge(&same_run, &run, &run).0);
        std::fs::write(path, run.to_json())
            .unwrap_or_else(|err| panic!("cannot write {}: {err}", path.display()));
        println!("wrote {}", path.display());
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn envelope(cases: &[(&str, f64)]) -> Envelope {
        Envelope {
            schema: SCHEMA,
            bench: "synthetic".into(),
            commit: "abc1234".into(),
            rustc: "rustc 1.0.0".into(),
            cores: 2,
            results: cases
                .iter()
                .map(|(name, quiet)| CaseResult::summarize(name, &[*quiet]))
                .collect(),
        }
    }

    #[test]
    fn summary_of_odd_and_even_sample_counts() {
        let odd = CaseResult::summarize("odd", &[50.0, 10.0, 30.0, 20.0, 40.0]);
        assert_eq!((odd.median, odd.p25, odd.p75, odd.n), (30.0, 15.0, 45.0, 5));
        assert_eq!(odd.quiet, 10.0);
        let even = CaseResult::summarize("even", &[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(
            (even.median, even.p25, even.p75, even.n),
            (2.5, 1.3, 3.8, 4)
        );
        let one = CaseResult::summarize("one", &[7.04]);
        assert_eq!((one.median, one.p25, one.p75, one.n), (7.0, 7.0, 7.0, 1));
        assert_eq!((one.quiet, one.unit.as_str()), (7.0, "ns"));
        // The quietest tenth of thirty samples is three of them; their
        // median shrugs off one lucky outlier and any number of slow
        // samples.
        let mut noisy = vec![900.0; 30];
        noisy[..4].copy_from_slice(&[100.0, 101.0, 102.0, 1.0]);
        assert_eq!(CaseResult::summarize("noisy", &noisy).quiet, 100.0);
    }

    #[test]
    fn plan_spends_the_case_budget() {
        let full = (CASE_NANOS / SAMPLE_NANOS) as usize / PASSES;
        // 1µs routine: 10 000 calls fill a sample, 30 samples a pass.
        assert_eq!(plan(1_000, 1_000), (10_000, full));
        // ns-scale: capped iterations, still a full pass of samples.
        assert_eq!(plan(0, 0), (MAX_ITERATIONS, full));
        // 25ms per call: one call per sample, 12 samples in 0.3s.
        assert_eq!(plan(25_000_000, 25_000_000), (1, 12));
        // 1ms on the clock behind 49ms of untimed setup: the budget
        // counts the wall, so 10 calls x 50ms per sample -> the floor.
        assert_eq!(plan(1_000_000, 50_000_000), (10, MIN_SAMPLES));
        // Slower than the whole budget: the floor.
        assert_eq!(plan(3 * CASE_NANOS, 3 * CASE_NANOS), (1, MIN_SAMPLES));
    }

    #[test]
    fn samplers_follow_the_plan() {
        let mut calls = 0u64;
        let samples = sample_looped(|| calls += 1);
        assert_eq!(samples.len(), plan(0, 0).1);
        assert!(calls > 1_000_000 && samples.iter().all(|ns| *ns < 1_000.0));
        let mut built = 0u64;
        let samples = sample_with_setup(
            || {
                built += 1;
                std::time::Duration::from_millis(50)
            },
            std::thread::sleep,
        );
        // One call per sample plus the calibration call, each on its own
        // fresh input; six 50ms calls would fill a pass's budget.
        assert!(samples.len() <= 6 && built == samples.len() as u64 + 1);
        assert!(samples.len() >= MIN_SAMPLES && samples.iter().all(|ns| *ns >= 50e6));
    }

    #[test]
    fn vs_baseline_rows() {
        let gates = [Gate::vs_baseline("a", 1.5, 500.0)];
        let baseline = envelope(&[("a", 1_000.0)]);
        let verdict = |now: f64| check(&gates, &envelope(&[("a", now)]), &baseline);
        assert!(verdict(900.0).1);
        // Inside the ratio alone, then inside only thanks to the slack.
        assert!(verdict(1_500.0).1);
        assert!(verdict(1_900.0).1);
        // Exactly at ratio × recorded + slack passes; a tenth over fails
        // and the report names the row.
        assert!(verdict(2_000.0).1);
        let (report, passed) = verdict(2_000.1);
        assert!(!passed);
        assert!(
            report.contains("  a ") && report.contains("FAILED"),
            "{report}"
        );
        assert!(
            report.contains("baseline commit abc1234, 2 core(s)"),
            "{report}"
        );
    }

    #[test]
    fn same_run_rows() {
        let run = envelope(&[("slow", 1_000.0), ("fast", 100.0)]);
        let judge_one = |bound| {
            let gates = [Gate::same_run("slow", "fast", bound)];
            // Same-run rows never look at the baseline's numbers.
            check(&gates, &run, &envelope(&[])).1
        };
        assert!(judge_one(Bound::AtLeast(9.0)));
        assert!(judge_one(Bound::AtLeast(10.0)));
        assert!(!judge_one(Bound::AtLeast(10.1)));
        assert!(judge_one(Bound::AtMost(11.0)));
        assert!(judge_one(Bound::AtMost(10.0)));
        assert!(!judge_one(Bound::AtMost(9.9)));
    }

    #[test]
    fn check_refuses_what_it_cannot_judge() {
        let gates = [
            Gate::vs_baseline("a", 1.1, 0.0),
            Gate::same_run("a", "b", Bound::AtMost(2.0)),
        ];
        let full = envelope(&[("a", 10.0), ("b", 10.0)]);
        assert!(check(&gates, &full, &full).1);

        // Baseline unreadable — a missing file, a stale-format file, a
        // newer schema: `Bench::run` exits on the error, which names
        // the file.
        let missing = Envelope::read(std::path::Path::new("/nonexistent/BENCH_x.json"));
        assert!(missing
            .unwrap_err()
            .starts_with("/nonexistent/BENCH_x.json: "));
        assert!(Envelope::from_json("{\"bench\": \"E18-planner\", \"results\": []}").is_err());
        let future = full.to_json().replace("\"schema\": 1", "\"schema\": 2");
        assert!(Envelope::from_json(&future)
            .unwrap_err()
            .contains("schema 2"));

        // Gated row missing from the baseline.
        let (report, passed) = check(&gates, &full, &envelope(&[("b", 10.0)]));
        assert!(!passed && report.contains("NOT IN BASELINE"), "{report}");

        // Gated row missing from the run (either side of a ratio).
        let (report, passed) = check(&gates, &envelope(&[("b", 10.0)]), &full);
        assert!(
            !passed && report.matches("NOT MEASURED").count() == 2,
            "{report}"
        );
    }

    #[test]
    fn envelope_round_trips() {
        let mut written = Envelope::current("synthetic", vec![]);
        assert!(written.cores >= 1 && !written.commit.is_empty() && !written.rustc.is_empty());
        let mut case = CaseResult::summarize("lat \"quoted\"", &[1.5, 2.5, 1e9, 0.1]);
        case.notes.insert("p99".into(), 1e9);
        case.notes.insert("rows".into(), 2500.0);
        written.results.push(case);
        assert_eq!(Envelope::from_json(&written.to_json()), Ok(written));
    }

    #[test]
    fn passes_pool_per_case() {
        let mut bench = Bench {
            name: "synthetic",
            gates: &[],
            baseline: None,
            cases: Vec::new(),
        };
        // Two passes of a latency case, the second ten times slower:
        // one sample (its p50) each, every operation kept for the p99.
        for scale in [1.0, 10.0] {
            let pass = [3.0, 1.0, 2.0].map(|ns| ns * scale);
            bench.latencies("a", pass.to_vec()).note("rows", scale);
            bench.latencies("b", vec![scale]);
        }
        let [a, b] = &bench.cases[..] else {
            panic!("one entry per case name");
        };
        assert_eq!(a.samples, [2.0, 20.0]);
        assert_eq!(a.operations.len(), 6);
        assert_eq!(a.notes["rows"], 10.0);
        assert_eq!((b.name.as_str(), b.samples.len()), ("b", 2));
    }
}
