//! Robust statistics for the noise rules: medians, percentiles,
//! quartile spread, and the block layout every timed phase shares.

/// Every timed phase runs `WARM_UP + MEASURED` equal blocks; the first
/// `WARM_UP` are discarded. Many short blocks, not a few long ones:
/// the sandbox's slow spells last tens of milliseconds, so a short
/// block is either inside one or not, whereas every long block would
/// contain its share of them and vary with it.
pub const WARM_UP: usize = 5;
/// Blocks that count.
pub const MEASURED: usize = 100;
/// Blocks per phase.
pub const BLOCKS: usize = WARM_UP + MEASURED;

/// Median of `values` (mean of the two middle values for an even
/// count). Panics on an empty slice: every caller measures at least
/// one block.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The smallest of `values`: the fastest repetition.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Nearest-rank percentile (`q` in 0..=1) of `values`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Quartiles by the exclusive method — the same numbers Python's
/// `statistics.quantiles(values, n=4)` gives, which is what the
/// acceptance check uses.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let lower = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lower as f64;
        sorted[lower - 1] + (sorted[lower] - sorted[lower - 1]) * frac
    };
    (at(1), at(2), at(3))
}

/// Interquartile range as a percentage of the median: the spread the
/// acceptance check bounds.
pub fn spread_pct(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2 * 100.0
    }
}

/// Share of the measured blocks that a block metric is read from: the
/// quietest tenth.
///
/// On the shared two-vCPU sandbox this benchmark was written on, a
/// block runs in one of two modes: quiet, or 40-100% slower while a
/// neighbour is busy, flipping from block to block, with the slow mode
/// covering anything from a tenth to nine tenths of a run. The median
/// over all blocks then measures the neighbour. The fastest blocks
/// measure the program: noise only ever adds time. The median *of the
/// quietest tenth* ignores a lucky outlier or two and needs only a
/// tenth of the run to be undisturbed.
pub const QUIET_SHARE: f64 = 0.1;

/// Median of the quietest `QUIET_SHARE` of `blocks`: the lowest values,
/// or the highest when `higher_is_better` (rates).
pub fn quiet(blocks: &[f64], higher_is_better: bool) -> f64 {
    let mut sorted = blocks.to_vec();
    sorted.sort_by(f64::total_cmp);
    if higher_is_better {
        sorted.reverse();
    }
    let keep = ((blocks.len() as f64 * QUIET_SHARE).round() as usize).clamp(1, blocks.len());
    median(&sorted[..keep])
}

/// One timed phase: per-block wall time and the per-operation latency
/// samples of each block, warm-up blocks included.
#[derive(Debug, Default)]
pub struct Phase {
    /// Operations per block.
    pub block_ops: usize,
    /// Wall seconds of each block, block 0 first.
    pub block_secs: Vec<f64>,
    /// Latency samples (µs) of each block; empty for pipelined phases.
    pub block_lat_us: Vec<Vec<f64>>,
}

impl Phase {
    /// An empty phase of `block_ops` operations per block.
    pub fn new(block_ops: usize) -> Phase {
        Phase {
            block_ops,
            ..Phase::default()
        }
    }

    /// Record one block.
    pub fn push(&mut self, secs: f64, latencies_us: Vec<f64>) {
        self.block_secs.push(secs);
        self.block_lat_us.push(latencies_us);
    }

    /// Operations per second of each measured block.
    pub fn rates(&self) -> Vec<f64> {
        self.block_secs[WARM_UP..]
            .iter()
            .map(|secs| self.block_ops as f64 / secs)
            .collect()
    }

    /// Every latency sample of the measured blocks.
    pub fn latencies(&self) -> Vec<f64> {
        self.block_lat_us[WARM_UP..]
            .iter()
            .flatten()
            .copied()
            .collect()
    }

    /// Median latency of each measured block, for the spread report.
    pub fn block_p50s(&self) -> Vec<f64> {
        self.block_lat_us[WARM_UP..]
            .iter()
            .map(|block| median(block))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.5), 50.0);
        assert_eq!(percentile(&values, 0.99), 99.0);
        assert_eq!(percentile(&values, 1.0), 100.0);
        assert_eq!(percentile(&[5.0], 0.99), 5.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 20.0, 40.0));
        assert!((spread_pct(&values) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn quiet_reads_the_best_tenth() {
        let latencies: Vec<f64> = (1..=100).map(f64::from).collect();
        // Lowest ten are 1..=10, median 5.5; highest ten 91..=100.
        assert_eq!(quiet(&latencies, false), 5.5);
        assert_eq!(quiet(&latencies, true), 95.5);
        assert_eq!(quiet(&[3.0, 9.0], false), 3.0);
    }

    #[test]
    fn phase_drops_the_warm_up_blocks() {
        let mut phase = Phase::new(100);
        for _ in 0..WARM_UP {
            phase.push(9.0, vec![900.0]);
        }
        phase.push(1.0, vec![1.0, 3.0]);
        phase.push(2.0, vec![5.0]);
        assert_eq!(phase.rates(), vec![100.0, 50.0]);
        assert_eq!(phase.latencies(), vec![1.0, 3.0, 5.0]);
        assert_eq!(phase.block_p50s(), vec![2.0, 5.0]);
    }
}
