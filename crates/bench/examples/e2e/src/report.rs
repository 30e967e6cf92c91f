//! Metric definitions and the two output documents: the result
//! envelope (first line) and the driver's result object (last line).

use crate::run::Measured;
use crate::stats::{fastest, median, quiet, spread_pct};
use std::fmt::Write as _;
use std::path::Path;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in BENCHMARK.json.
    pub name: String,
    /// Unit, as in BENCHMARK.json.
    pub unit: &'static str,
    /// The value, with all its digits.
    pub value: f64,
    /// How many samples the value summarises.
    pub samples: usize,
    /// How far the run disagrees with itself about this value, percent:
    /// for block metrics the even-blocks/odd-blocks difference, for
    /// repeated or sampled ones the quartile spread of the samples.
    pub spread_pct: f64,
}

impl Metric {
    /// The median of `samples`, with their quartile spread.
    pub fn of_samples(name: &str, unit: &'static str, samples: &[f64]) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value: if samples.is_empty() {
                0.0
            } else {
                median(samples)
            },
            samples: samples.len(),
            spread_pct: spread_pct(samples),
        }
    }

    /// A single measured or derived number.
    pub fn single(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            samples: 1,
            spread_pct: 0.0,
        }
    }
}

/// One end-to-end metric's definition. BENCHMARK.json repeats these;
/// the smoke run checks that the names agree.
pub struct Definition {
    /// Name, as in BENCHMARK.json.
    pub name: &'static str,
    /// Unit, as in BENCHMARK.json.
    pub unit: &'static str,
    /// Direction: true for rates, false for times and sizes.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn def(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Definition {
    Definition {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

/// The seven end-to-end metrics.
pub const END_TO_END: [Definition; 7] = [
    def("setup_s", "s", false, 0.25),
    def("queries_per_s", "1/s", true, 0.25),
    def("query_p50_us", "us", false, 0.25),
    def("commits_per_s", "1/s", true, 0.25),
    def("recovery_s", "s", false, 0.25),
    def("journal_bytes_per_commit", "B", false, 0.01),
    def("peak_rss_mib", "MiB", false, 0.05),
];

/// `VmHWM` of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// How far a block metric disagrees with itself: the metric read from
/// the even-numbered and from the odd-numbered measured blocks, their
/// difference as a percentage of their mean.
fn split_half_pct(blocks: &[f64], higher_is_better: bool) -> f64 {
    let half = |parity: usize| -> Vec<f64> {
        blocks
            .iter()
            .enumerate()
            .filter(|(index, _)| index % 2 == parity)
            .map(|(_, value)| *value)
            .collect()
    };
    let (even, odd) = (half(0), half(1));
    if even.is_empty() || odd.is_empty() {
        return 0.0;
    }
    let (a, b) = (
        quiet(&even, higher_is_better),
        quiet(&odd, higher_is_better),
    );
    (a - b).abs() / ((a + b) / 2.0) * 100.0
}

/// How far the second fastest of `secs` is behind the fastest, percent:
/// whether the fastest repetition was a repeatable one.
fn runner_up_gap_pct(secs: &[f64]) -> f64 {
    let mut sorted = secs.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted[..] {
        [best, next, ..] => (next - best) / best * 100.0,
        _ => 0.0,
    }
}

/// The seven end-to-end metrics of one run, in `END_TO_END` order.
///
/// Block metrics are read from the quietest tenth of the hundred
/// measured blocks (`stats::quiet`); `setup_s` is the median of its
/// repetitions and `recovery_s` the fastest of its repetitions.
pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    let block = |blocks: Vec<f64>, higher: bool| {
        (
            quiet(&blocks, higher),
            blocks.len(),
            split_half_pct(&blocks, higher),
        )
    };
    // (value, samples, how far the run disagrees with itself)
    let values = [
        (
            median(&m.setup_secs),
            m.setup_secs.len(),
            spread_pct(&m.setup_secs),
        ),
        block(m.queries.rates(), true),
        block(m.queries.block_p50s(), false),
        block(m.pipelined.rates(), true),
        (
            fastest(&m.recovery_secs),
            m.recovery_secs.len(),
            runner_up_gap_pct(&m.recovery_secs),
        ),
        (
            m.journal_growth as f64 / m.acked_commits.max(1) as f64,
            1,
            0.0,
        ),
        (m.peak_rss_mib, 1, 0.0),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(def, (value, samples, spread_pct))| Metric {
            name: def.name.to_string(),
            unit: def.unit,
            value,
            samples,
            spread_pct,
        })
        .collect()
}

/// True when some end-to-end metric disagrees with itself by more than
/// half its bound: the run was too unsteady to compare against.
/// `setup_s` is left out, as the acceptance check leaves it out: its
/// first repetition always pays for a cold heap.
pub fn noisy(metrics: &[Metric]) -> bool {
    metrics.iter().any(|metric| {
        END_TO_END.iter().any(|def| {
            def.name == metric.name && def.name != "setup_s" && metric.spread_pct > def.bound * 50.0
        })
    })
}

fn json_str(text: &str) -> String {
    format!("\"{}\"", good_trace::escape_json_str(text))
}

/// Output of `program --version`-style commands, or "unknown".
fn tool_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |text| text.trim().to_string())
}

fn metrics_json(metrics: &[Metric], detailed: bool) -> String {
    let mut out = String::from("{");
    for (index, metric) in metrics.iter().enumerate() {
        if index > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {:?}, \"unit\": {}",
            json_str(&metric.name),
            metric.value,
            json_str(metric.unit)
        );
        if detailed {
            let _ = write!(
                out,
                ", \"samples\": {}, \"spread_pct\": {:.3}",
                metric.samples, metric.spread_pct
            );
        }
        out.push('}');
    }
    out.push('}');
    out
}

/// The measured blocks behind the three block metrics, in run order.
fn blocks_json(m: &Measured) -> String {
    let list = |values: Vec<f64>| {
        let items: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
        format!("[{}]", items.join(", "))
    };
    format!(
        "{{\"queries_per_s\": {}, \"query_p50_us\": {}, \"commits_per_s\": {}}}",
        list(m.queries.rates()),
        list(m.queries.block_p50s()),
        list(m.pipelined.rates()),
    )
}

/// The result envelope: `{bench, workload, seed, commit, rustc, cores,
/// matcher_threads, dir, flush_policy, op_counts, metrics, attempted,
/// failed, noisy}`.
pub fn envelope(seed: u64, traced: bool, dir: &Path, m: &Measured, metrics: &[Metric]) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"bench\": \"e2e\", \"workload\": {}, \"seed\": {seed}, \"traced\": {traced}, \"commit\": {}, \
         \"rustc\": {}, \"cores\": {cores}, \"matcher_threads\": {}, \"dir\": {}, \
         \"flush_policy\": \"store default: one fsync per commit group\", \
         \"op_counts\": {{\"blocks\": {}, \"query_block\": {}, \"pipelined_block\": {}, \
         \"sync_block\": {}, \"journal_records\": {}, \"sequence_hash\": \"{:016x}\"}}, \
         \"metrics\": {}, \"attempted\": {}, \"failed\": {}, \"noisy\": {}, \"blocks\": {}}}",
        json_str(m.spec.name),
        json_str(&tool_line("git", &["rev-parse", "HEAD"])),
        json_str(&tool_line("rustc", &["--version"])),
        good_core::matching::default_threads(),
        json_str(&dir.display().to_string()),
        crate::stats::BLOCKS,
        m.spec.query_block,
        m.spec.pipelined_block,
        m.spec.sync_block,
        m.journal_records,
        m.sequence_hash,
        metrics_json(metrics, true),
        m.attempted,
        m.failed,
        noisy(metrics),
        blocks_json(m),
    )
}

/// The driver's result object: exactly `correct`, `attempted`,
/// `failed`, `metrics`.
pub fn final_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics_json(metrics, false)
    )
}
