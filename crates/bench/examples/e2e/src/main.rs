//! `e2e` — the repository's end-to-end benchmark. See README.md in
//! this directory and BENCHMARK.json at the repository root.

mod gen;
mod layers;
mod pin;
mod report;
mod rig;
mod run;
mod stats;

use report::Metric;
use run::{Spec, REFERENCE_SECONDS, WORKLOADS};
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Share of `--seconds` the traced run spends on its loopback part;
/// the rest goes to the in-process replay.
const TRACED_LOOPBACK_SHARE: f64 = 0.4;
/// `--smoke` divides every operation count by this.
const SMOKE_DIVISOR: f64 = 50.0;

enum Mode {
    Run,
    Stability,
    Smoke,
}

struct Args {
    mode: Mode,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    dir: PathBuf,
}

fn usage() -> String {
    format!(
        "usage: e2e --workload <{}> [--seed <n>] [--seconds <n>] [--trace <0|1>] [--dir <path>]\n\
         \x20      e2e --stability [--workload <name>] [--seed <n>] [--seconds <n>]\n\
         \x20      e2e --smoke",
        WORKLOADS.map(|spec| spec.name).join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    // Scratch files live beside the executable: inside the build
    // directory, which is inside the checkout and ignored by git.
    let default_dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|dir| dir.join("e2e-data")))
        .unwrap_or_else(|| PathBuf::from("e2e-data"));
    let mut args = Args {
        mode: Mode::Run,
        workload: None,
        seed: 1,
        seconds: REFERENCE_SECONDS,
        trace: false,
        dir: default_dir,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--dir" => args.dir = PathBuf::from(value()?),
            "--stability" => args.mode = Mode::Stability,
            "--smoke" => args.mode = Mode::Smoke,
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    Ok(args)
}

/// What one run of one workload produced.
struct Outcome {
    envelope: String,
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

/// One run: untraced (end-to-end metrics) or traced (layer metrics).
fn run_once(spec: Spec, seed: u64, scale: f64, trace: bool, dir: &Path) -> io::Result<Outcome> {
    let trace_file = dir.join(format!("{}.trace.json", spec.name));
    // Each run gets its own scratch directory, so concurrent runs in
    // one checkout cannot share a journal.
    let dir = dir.join(format!("{}-{}", spec.name, std::process::id()));
    let result = measure(spec, seed, scale, trace, &dir, &trace_file);
    // Only a traced run's span file stays behind.
    let _ = std::fs::remove_dir_all(&dir);
    let (measured, metrics) = result?;
    Ok(Outcome {
        envelope: report::envelope(seed, trace, &dir, &measured, &metrics),
        metrics,
        attempted: measured.attempted,
        failed: measured.failed,
    })
}

fn measure(
    spec: Spec,
    seed: u64,
    scale: f64,
    trace: bool,
    dir: &Path,
    trace_file: &Path,
) -> io::Result<(run::Measured, Vec<Metric>)> {
    if !trace {
        let measured = run::run(spec.scaled(scale), seed, dir, false)?;
        let metrics = report::end_to_end(&measured);
        return Ok((measured, metrics));
    }
    let loopback = run::run(spec.scaled(scale * TRACED_LOOPBACK_SHARE), seed, dir, true)?;
    let metrics = layers::trace(&spec, seed, dir, scale, &loopback, trace_file)?;
    Ok((loopback, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("e2e: {message}");
            return ExitCode::from(2);
        }
    };
    let selected: Vec<Spec> = match &args.workload {
        Some(name) => match Spec::by_name(name) {
            Some(spec) => vec![spec],
            None => {
                eprintln!("e2e: unknown workload `{name}`\n{}", usage());
                return ExitCode::from(2);
            }
        },
        None => WORKLOADS.to_vec(),
    };
    let scale = args.seconds / REFERENCE_SECONDS;
    let passed = match args.mode {
        Mode::Run => {
            let [spec] = selected[..] else {
                eprintln!("e2e: --workload is required\n{}", usage());
                return ExitCode::from(2);
            };
            pin::pin_to_one_cpu();
            match run_once(spec, args.seed, scale, args.trace, &args.dir) {
                Ok(outcome) => {
                    println!("{}", outcome.envelope);
                    println!(
                        "{}",
                        report::final_line(outcome.attempted, outcome.failed, &outcome.metrics)
                    );
                    outcome.failed == 0
                }
                Err(err) => {
                    eprintln!("e2e: {err}");
                    false
                }
            }
        }
        Mode::Stability => stability(&selected, &args),
        Mode::Smoke => {
            pin::pin_to_one_cpu();
            smoke(&args.dir)
        }
    };
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The end-to-end metrics of one untraced run in a process of its own
/// (peak memory is per process), read back from its envelope.
fn child_run(spec: &Spec, args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|err| err.to_string())?;
    let output = std::process::Command::new(exe)
        .args(["--workload", spec.name, "--trace", "0"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .arg("--dir")
        .arg(&args.dir)
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|err| err.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let envelope = stdout.lines().next().unwrap_or_default();
    let doc: serde_json::Value = serde_json::from_str(envelope).map_err(|e| e.to_string())?;
    let failed = doc.get("failed").and_then(|v| v.as_u64());
    if !output.status.success() || failed != Some(0) {
        return Err(format!(
            "run failed ({}, failed operations: {failed:?})",
            output.status
        ));
    }
    if !matches!(doc.get("noisy"), Some(serde_json::Value::Bool(false))) {
        eprintln!("e2e: {}: the run reports noisy: true", spec.name);
    }
    report::END_TO_END
        .iter()
        .map(|def| {
            doc.get("metrics")
                .and_then(|metrics| metrics.get(def.name))
                .and_then(|metric| metric.get("value"))
                .and_then(|value| value.as_f64())
                .ok_or(format!("metric {} missing", def.name))
        })
        .collect()
}

/// Run every selected workload twice and compare the two sets of
/// end-to-end metrics against the bounds.
fn stability(selected: &[Spec], args: &Args) -> bool {
    let mut all_pass = true;
    for spec in selected {
        let (first, second) = match (child_run(spec, args), child_run(spec, args)) {
            (Ok(first), Ok(second)) => (first, second),
            (Err(err), _) | (_, Err(err)) => {
                eprintln!("e2e: {}: {err}", spec.name);
                all_pass = false;
                continue;
            }
        };
        println!("workload {} seed {}", spec.name, args.seed);
        for (def, (a, b)) in report::END_TO_END.iter().zip(first.iter().zip(&second)) {
            // How much worse the second run reads, as a share of the first.
            let worse = if def.higher_is_better {
                (a - b) / a
            } else {
                (b - a) / a
            };
            let pass = worse <= def.bound;
            all_pass &= pass;
            println!(
                "  {:<26} {a:>14.4} {b:>14.4}  {:>+7.2}%  bound {:>4.1}%  {}",
                def.name,
                (b - a) / a * 100.0,
                def.bound * 100.0,
                if pass { "PASS" } else { "FAIL" }
            );
        }
    }
    all_pass
}

/// Every workload, untraced and traced, at a fiftieth of the size:
/// every metric BENCHMARK.json names must be emitted and every check
/// must pass.
fn smoke(dir: &Path) -> bool {
    let declared = match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|err| err.to_string())
        .and_then(|text| {
            serde_json::from_str::<serde_json::Value>(&text).map_err(|err| err.to_string())
        }) {
        Ok(doc) => doc,
        Err(err) => {
            eprintln!("e2e: cannot read BENCHMARK.json (run from the repository root): {err}");
            return false;
        }
    };
    let names = |key: &str| -> Vec<String> {
        let entries = declared.get(key).and_then(|v| v.as_seq()).unwrap_or(&[]);
        let mut names: Vec<String> = entries
            .iter()
            .filter_map(|entry| entry.get("name").and_then(|v| v.as_str()))
            .map(str::to_string)
            .collect();
        names.sort_unstable();
        names
    };
    let mut ok = true;
    let mut workloads: Vec<&str> = WORKLOADS.iter().map(|spec| spec.name).collect();
    workloads.sort_unstable();
    if names("workloads") != workloads {
        eprintln!(
            "e2e: BENCHMARK.json names workloads {:?}",
            names("workloads")
        );
        ok = false;
    }
    for spec in WORKLOADS {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let outcome = match run_once(spec, 1, 1.0 / SMOKE_DIVISOR, trace, dir) {
                Ok(outcome) => outcome,
                Err(err) => {
                    eprintln!("e2e: {} ({key}): {err}", spec.name);
                    ok = false;
                    continue;
                }
            };
            let mut emitted: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
            emitted.sort_unstable();
            let declared = names(key);
            let same = emitted == declared;
            println!(
                "smoke {:<8} {key:<10} {:>2} metrics, {:>5} attempted, {} failed{}",
                spec.name,
                emitted.len(),
                outcome.attempted,
                outcome.failed,
                if same {
                    ""
                } else {
                    "  METRIC NAMES DIFFER FROM BENCHMARK.json"
                }
            );
            if !same {
                eprintln!("e2e: emitted  {emitted:?}\ne2e: declared {declared:?}");
            }
            ok &= same && outcome.failed == 0 && outcome.attempted > 0;
        }
    }
    ok
}
