//! Measurement: flow completion times, queue-delay samples, drops,
//! throughput time series, fairness.

use std::collections::HashMap;

/// One completed flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FctRecord {
    /// Flow id.
    pub flow: u64,
    /// Flow size, application bytes.
    pub bytes: u64,
    /// Arrival at the sender (ps).
    pub start_ps: u64,
    /// Last byte delivered in order at the receiver (ps).
    pub end_ps: u64,
    /// Completion time normalized by the empty-network time for the same
    /// size and path (§6.5's normalization); ≥ 1 up to measurement noise.
    pub slowdown: f64,
    /// Size in full packets (for the Figure 8 bins).
    pub packets: u64,
}

impl FctRecord {
    /// Raw flow completion time, ps.
    pub fn fct_ps(&self) -> u64 {
        self.end_ps - self.start_ps
    }

    /// Figure 8 size-bin label for this flow.
    pub fn size_bin(&self) -> &'static str {
        match self.packets {
            0 | 1 => "1 packet",
            2..=10 => "1-10 packets",
            11..=100 => "10-100 packets",
            101..=1000 => "100-1000 packets",
            _ => "large",
        }
    }
}

/// All measurements of one simulation run.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Completed flows.
    pub fcts: Vec<FctRecord>,
    /// Queue-delay samples (ps), tagged by hop count of the sampled port
    /// ("2 hops" = host-facing ports, "4 hops" = fabric ports; Figure 9
    /// reports both).
    pub queue_delay_samples: Vec<(u8, u64)>,
    /// Total bytes dropped, by cause (queue overflow, AQM).
    pub dropped_bytes: u64,
    /// Dropped data bytes only (Figure 10 counts data).
    pub dropped_data_bytes: u64,
    /// Total application bytes delivered in order.
    pub delivered_bytes: u64,
    /// Control-plane wire bytes to the allocator.
    pub ctrl_bytes_to_alloc: u64,
    /// Control-plane wire bytes from the allocator.
    pub ctrl_bytes_from_alloc: u64,
    /// Per-flow delivered-byte time series in fixed bins (Figure 4);
    /// enabled selectively because it is memory-hungry.
    pub throughput_bins: HashMap<u64, Vec<u64>>,
    /// Bin width for `throughput_bins`, ps.
    pub throughput_bin_ps: u64,
}

impl Metrics {
    /// Fresh metrics; `throughput_bin_ps` of 0 disables the time series.
    pub fn new(throughput_bin_ps: u64) -> Self {
        Self {
            throughput_bin_ps,
            ..Self::default()
        }
    }

    /// Records delivered application bytes (and the Figure-4 series if
    /// enabled).
    pub fn on_delivered(&mut self, flow: u64, bytes: u64, now_ps: u64) {
        self.delivered_bytes += bytes;
        if let Some(bin) = now_ps.checked_div(self.throughput_bin_ps) {
            let bin = bin as usize;
            let series = self.throughput_bins.entry(flow).or_default();
            if series.len() <= bin {
                series.resize(bin + 1, 0);
            }
            series[bin] += bytes;
        }
    }

    /// The p-th percentile (0–100) of completed-flow slowdowns within a
    /// size bin; `None` if the bin is empty.
    pub fn p_slowdown(&self, bin: &str, p: f64) -> Option<f64> {
        let mut v: Vec<f64> = self
            .fcts
            .iter()
            .filter(|r| r.size_bin() == bin)
            .map(|r| r.slowdown)
            .collect();
        percentile(&mut v, p)
    }

    /// The p-th percentile of queue delay (ps) over samples with the
    /// given hop tag.
    pub fn p_queue_delay(&self, hops: u8, p: f64) -> Option<u64> {
        let mut v: Vec<f64> = self
            .queue_delay_samples
            .iter()
            .filter(|(h, _)| *h == hops)
            .map(|(_, d)| *d as f64)
            .collect();
        percentile(&mut v, p).map(|x| x as u64)
    }

    /// Mean per-flow proportional-fairness score `log₂(rate)`, rates in
    /// Gbit/s over each flow's lifetime (Figure 11 plots differences of
    /// this quantity between schemes, so the unit cancels).
    pub fn fairness_score(&self) -> f64 {
        let scores: Vec<f64> = self
            .fcts
            .iter()
            .filter(|r| r.end_ps > r.start_ps)
            .map(|r| {
                let gbps = r.bytes as f64 * 8.0 / ((r.end_ps - r.start_ps) as f64 / 1e12) / 1e9;
                gbps.log2()
            })
            .collect();
        if scores.is_empty() {
            return f64::NAN;
        }
        scores.iter().sum::<f64>() / scores.len() as f64
    }

    /// Dropped data expressed in Gbit/s over `duration_ps` (Figure 10).
    pub fn drop_gbps(&self, duration_ps: u64) -> f64 {
        self.dropped_data_bytes as f64 * 8.0 / (duration_ps as f64 / 1e12) / 1e9
    }
}

/// Nearest-rank percentile of an unsorted sample.
pub fn percentile(v: &mut [f64], p: f64) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((p / 100.0) * (v.len() as f64 - 1.0)).round() as usize;
    Some(v[rank.min(v.len() - 1)])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(flow: u64, packets: u64, slowdown: f64) -> FctRecord {
        FctRecord {
            flow,
            bytes: packets * 1442,
            start_ps: 0,
            end_ps: 1_000_000,
            slowdown,
            packets,
        }
    }

    #[test]
    fn size_bins_match_figure8() {
        assert_eq!(rec(1, 1, 1.0).size_bin(), "1 packet");
        assert_eq!(rec(1, 5, 1.0).size_bin(), "1-10 packets");
        assert_eq!(rec(1, 50, 1.0).size_bin(), "10-100 packets");
        assert_eq!(rec(1, 500, 1.0).size_bin(), "100-1000 packets");
        assert_eq!(rec(1, 5000, 1.0).size_bin(), "large");
    }

    #[test]
    fn percentile_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        assert_eq!(percentile(&mut v, 99.0), Some(99.0));
        // Median of 1..=100 rounds to either neighbour of 50.5.
        let p50 = percentile(&mut v, 50.0).unwrap();
        assert!((p50 - 50.5).abs() <= 0.5, "{p50}");
        assert_eq!(percentile(&mut v, 100.0), Some(100.0));
        assert_eq!(percentile(&mut [], 50.0), None);
    }

    #[test]
    fn p99_slowdown_by_bin() {
        let mut m = Metrics::new(0);
        for i in 0..100 {
            m.fcts.push(rec(i, 1, 1.0 + i as f64));
        }
        m.fcts.push(rec(1000, 50, 42.0));
        let p99 = m.p_slowdown("1 packet", 99.0).unwrap();
        assert!((p99 - 99.0).abs() < 1.5);
        assert_eq!(m.p_slowdown("10-100 packets", 99.0), Some(42.0));
        assert_eq!(m.p_slowdown("large", 99.0), None);
    }

    #[test]
    fn throughput_bins_accumulate() {
        let mut m = Metrics::new(100);
        m.on_delivered(7, 10, 50);
        m.on_delivered(7, 20, 150);
        m.on_delivered(7, 5, 160);
        assert_eq!(m.throughput_bins[&7], vec![10, 25]);
        assert_eq!(m.delivered_bytes, 35);
    }

    #[test]
    fn disabled_series_records_totals_only() {
        let mut m = Metrics::new(0);
        m.on_delivered(7, 10, 50);
        assert!(m.throughput_bins.is_empty());
        assert_eq!(m.delivered_bytes, 10);
    }

    #[test]
    fn fairness_score_mean_log_rate() {
        let mut m = Metrics::new(0);
        // 1 Gbit/s for 1 ms → log2(1) = 0.
        m.fcts.push(FctRecord {
            flow: 1,
            bytes: 125_000,
            start_ps: 0,
            end_ps: 1_000_000_000,
            slowdown: 1.0,
            packets: 87,
        });
        // 2 Gbit/s → log2(2) = 1.
        m.fcts.push(FctRecord {
            flow: 2,
            bytes: 250_000,
            start_ps: 0,
            end_ps: 1_000_000_000,
            slowdown: 1.0,
            packets: 174,
        });
        assert!((m.fairness_score() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn drop_rate_units() {
        let mut m = Metrics::new(0);
        m.dropped_data_bytes = 125_000_000; // 1 Gbit
        assert!((m.drop_gbps(1_000_000_000_000) - 1.0).abs() < 1e-9);
    }
}
