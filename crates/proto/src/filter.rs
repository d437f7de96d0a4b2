//! Rate-update suppression (§6.4).
//!
//! "The allocator notifies servers when the rates assigned to flows change
//! by a factor larger than a threshold. For example, with a threshold of
//! 0.01, a flow allocated 1 Gbit/s will only be notified when its rate
//! changes above 1.01 or below 0.99 Gbits/s." The matching capacity
//! headroom lives in `flowtune_alloc::AllocConfig::capacity_fraction`.
//!
//! [`ThresholdFilter::passes`] is the rule's one scalar statement. The
//! allocator's tick does not call it: the engines run the same rule
//! packed, over their own rate columns, with the last-sent memory kept
//! beside each flow's rate (`flowtune_alloc::flowblock::report_pass`),
//! and a differential test there pins that kernel to `passes` bit for
//! bit. The token-keyed [`ThresholdFilter`] is the reference the service
//! model test and the benchmark's probes run.

use std::collections::HashMap;

use crate::Token;

/// Per-flowlet last-sent-rate tracker implementing the update threshold.
#[derive(Debug, Clone)]
pub struct ThresholdFilter {
    threshold: f64,
    last_sent: HashMap<Token, f64>,
    suppressed: u64,
    sent: u64,
}

impl ThresholdFilter {
    /// Creates a filter; `threshold` is the relative change (e.g. 0.01)
    /// below which updates are suppressed. A threshold of 0 forwards
    /// everything.
    ///
    /// # Panics
    /// Panics if `threshold` is negative or not finite.
    pub fn new(threshold: f64) -> Self {
        assert!(
            threshold >= 0.0 && threshold.is_finite(),
            "threshold must be ≥ 0"
        );
        Self {
            threshold,
            last_sent: HashMap::new(),
            suppressed: 0,
            sent: 0,
        }
    }

    /// The §6.4 rule itself, free of any bookkeeping: must `rate` be sent
    /// to a flowlet whose last *sent* rate was `prev` (`None` = nothing
    /// sent yet, which always passes)? Only changes beyond `threshold`
    /// relative to `prev` pass; leaving a zero rate is always a change,
    /// staying at zero never is. The one scalar statement of the rule:
    /// [`ThresholdFilter::should_send`] calls it, and the engines' packed
    /// report kernel is tested against it bit for bit — keep the
    /// `(rate − prev).abs() / prev > threshold` form, a rearrangement
    /// rounds differently.
    pub fn passes(threshold: f64, prev: Option<f64>, rate: f64) -> bool {
        match prev {
            None => true,
            Some(prev) => {
                if prev == 0.0 {
                    rate != 0.0
                } else {
                    (rate - prev).abs() / prev > threshold
                }
            }
        }
    }

    /// Decides whether `rate` for `token` must be sent. The first rate for
    /// a token is always sent; afterwards only changes beyond the
    /// threshold (relative to the *last sent* rate, not the last computed
    /// one) pass. Records the rate as sent when it passes.
    pub fn should_send(&mut self, token: Token, rate: f64) -> bool {
        let send = Self::passes(self.threshold, self.last_sent.get(&token).copied(), rate);
        if send {
            self.last_sent.insert(token, rate);
            self.sent += 1;
        } else {
            self.suppressed += 1;
        }
        send
    }

    /// Forgets a flowlet (on `FlowletEnd`), so a token reuse starts fresh.
    pub fn forget(&mut self, token: Token) {
        self.last_sent.remove(&token);
    }

    /// Number of updates that passed the filter.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Number of updates suppressed by the filter.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// Currently tracked flowlets.
    pub fn tracked(&self) -> usize {
        self.last_sent.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: u32) -> Token {
        Token::new(v)
    }

    #[test]
    fn first_update_always_sent() {
        let mut f = ThresholdFilter::new(0.01);
        assert!(f.should_send(t(1), 5.0));
        assert_eq!(f.sent(), 1);
    }

    #[test]
    fn small_changes_suppressed_relative_to_last_sent() {
        let mut f = ThresholdFilter::new(0.01);
        assert!(f.should_send(t(1), 1.0));
        assert!(!f.should_send(t(1), 1.005)); // +0.5%
        assert!(!f.should_send(t(1), 0.995)); // −0.5%
                                              // Drift accumulates relative to the last *sent* value (1.0):
        assert!(f.should_send(t(1), 1.011)); // +1.1% vs 1.0 → send
        assert_eq!(f.suppressed(), 2);
        assert_eq!(f.sent(), 2);
    }

    #[test]
    fn exact_threshold_is_suppressed() {
        // The paper's wording: notified when the change is *larger* than
        // the threshold — an exactly-at-threshold change stays quiet.
        // (0.5, 2.0 and 3.0 are exactly representable, so the comparison
        // is float-exact.)
        let mut f = ThresholdFilter::new(0.5);
        assert!(f.should_send(t(1), 2.0));
        assert!(!f.should_send(t(1), 3.0));
        assert!(f.should_send(t(1), 3.5));
    }

    #[test]
    fn zero_threshold_forwards_changes_only() {
        let mut f = ThresholdFilter::new(0.0);
        assert!(f.should_send(t(1), 1.0));
        assert!(!f.should_send(t(1), 1.0), "identical rate never resent");
        assert!(f.should_send(t(1), 1.0000001));
    }

    #[test]
    fn zero_rate_transitions() {
        let mut f = ThresholdFilter::new(0.05);
        assert!(f.should_send(t(1), 0.0));
        assert!(!f.should_send(t(1), 0.0));
        assert!(f.should_send(t(1), 0.5), "leaving zero is always a change");
    }

    #[test]
    fn passes_is_the_rule_should_send_applies() {
        // No history always passes; zero is sticky; the comparison is
        // strict and relative to the previous *sent* rate.
        assert!(ThresholdFilter::passes(0.5, None, 0.0));
        assert!(!ThresholdFilter::passes(0.5, Some(0.0), 0.0));
        assert!(ThresholdFilter::passes(0.5, Some(0.0), 1e-9));
        assert!(!ThresholdFilter::passes(0.5, Some(2.0), 3.0));
        assert!(ThresholdFilter::passes(0.5, Some(2.0), 3.5));
        assert!(ThresholdFilter::passes(0.5, Some(2.0), 0.0));
    }

    #[test]
    fn forget_resets_tracking() {
        let mut f = ThresholdFilter::new(0.01);
        assert!(f.should_send(t(1), 1.0));
        f.forget(t(1));
        assert_eq!(f.tracked(), 0);
        assert!(f.should_send(t(1), 1.0), "fresh after forget");
    }

    #[test]
    fn independent_tokens() {
        let mut f = ThresholdFilter::new(0.01);
        assert!(f.should_send(t(1), 1.0));
        assert!(f.should_send(t(2), 1.0));
        assert!(!f.should_send(t(1), 1.0));
    }

    #[test]
    #[should_panic(expected = "≥ 0")]
    fn negative_threshold_rejected() {
        let _ = ThresholdFilter::new(-0.1);
    }
}
