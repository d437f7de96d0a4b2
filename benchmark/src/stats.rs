//! Percentiles, block medians and the benchmark's own noise estimate.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-quantile (`0 < p < 1`) of ascending `sorted`,
/// or `None` when fewer than [`MIN_BEYOND`] samples lie beyond it on
/// the thinner side — a p99 of 500 samples is five values, not a
/// measurement.
pub fn percentile(sorted: &[u32], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = (n - rank.min(n)).min(rank - 1);
    if beyond < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1] as f64)
}

pub fn mean(samples: &[u32]) -> f64 {
    samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64
}

/// A statistic over the blocks (or windows) of one run: `min` and `iqr`
/// are printed beside the reported value as the benchmark's own
/// estimate of how noisy the run was.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverBlocks {
    pub median: f64,
    pub min: f64,
    /// The lowest decile.
    pub p10: f64,
    pub iqr: f64,
    pub blocks: usize,
}

/// Summarizes one value per block; `None` when no block reported.
pub fn over_blocks(values: &[f64]) -> Option<OverBlocks> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let (q1, q3) = (quantile(&v, 0.25), quantile(&v, 0.75));
    Some(OverBlocks {
        median: quantile(&v, 0.5),
        min: v[0],
        p10: quantile(&v, 0.1),
        iqr: q3 - q1,
        blocks: v.len(),
    })
}

/// Linear-interpolated quantile of ascending `v`, the "exclusive"
/// method of Python's `statistics.quantiles` (position `p·(n+1)`,
/// clamped to the data), so the noise estimate printed here is the one
/// `aa.py` and the driver compute over runs.
fn quantile(v: &[f64], p: f64) -> f64 {
    let pos = (p * (v.len() + 1) as f64 - 1.0).clamp(0.0, (v.len() - 1) as f64);
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<u32> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v, 0.5), Some(500.0));
        // 999 samples leave nine beyond the p99 rank.
        assert_eq!(percentile(&v[..999], 0.99), None);
        // The rule is two-sided: a median of 20 has ten above, 19 has nine.
        let small: Vec<u32> = (1..=21).collect();
        assert_eq!(percentile(&small, 0.5), Some(11.0));
        assert_eq!(percentile(&small[..20], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn block_summary_matches_python_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 10], n=4) == [1.5, 3.0, 7.0]
        let s = over_blocks(&[10.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!((s.median, s.min, s.iqr, s.blocks), (3.0, 1.0, 5.5, 5));
        // Position 0.1 * 6 - 1 is before the first value: clamped to it.
        assert_eq!(s.p10, 1.0);
        // statistics.quantiles(range(1, 20), n=10)[0] == 2.0
        let nineteen: Vec<f64> = (1..20).map(f64::from).collect();
        assert_eq!(over_blocks(&nineteen).unwrap().p10, 2.0);
        // An even count interpolates the median.
        assert_eq!(over_blocks(&[4.0, 2.0]).unwrap().median, 3.0);
        let one = over_blocks(&[7.0]).unwrap();
        assert_eq!((one.median, one.iqr), (7.0, 0.0));
        assert_eq!(over_blocks(&[]), None);
    }
}
