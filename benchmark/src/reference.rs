//! The reference kernel: how fast is the core's clock right now?
//!
//! The box is a small guest on a shared host, and the speed of its cores
//! is not constant: for seconds to minutes at a time everything that
//! runs out of the core and its own caches — a round, a set-up, a loop
//! of register arithmetic — takes 1.27 times as long as before, by the
//! same factor. Ten runs that fall on both sides of such a step spread
//! by more than any bound the benchmark may state, with the program
//! unchanged. So between rounds, outside everything that is timed, the
//! harness runs a fixed kernel — one dependent chain of integer and
//! floating-point multiply-adds, no memory — every few milliseconds, and
//! reports times in *reference seconds*: wall time ÷ (what the kernel
//! took over the same stretch ÷ [`NOMINAL_NS`]). The kernel is part of
//! the benchmark and touches nothing of the program, so two commits are
//! measured with the same ruler.
//!
//! The ruler does not see the other way the box slows down, neighbours
//! evicting the program's working set from the shared caches; that one
//! the statistic over windows takes care of (see `main.rs`).

use std::time::{Duration, Instant};

/// Dependent multiply-adds per sample.
const STEPS: usize = 50_000;
/// What one sample takes on this box in the state it is mostly in. It
/// fixes the unit, nothing else.
pub const NOMINAL_NS: f64 = 91_000.0;
/// A sample is due this long after the last one: 2 % of the run, and
/// five samples in the shortest window.
const PERIOD: Duration = Duration::from_millis(5);

/// What the samples of one stretch of the run say.
#[derive(Debug, Clone, Copy)]
pub struct Stretch {
    /// The core's slowness: the samples' median time over
    /// [`NOMINAL_NS`]. The median, because an interrupt lengthens one
    /// sample, not the stretch, and a statistic that picks the fastest
    /// windows would otherwise pick the ones whose ruler was jogged.
    pub factor: f64,
    /// Wall time the samples took.
    pub sampling: Duration,
}

#[derive(Debug)]
pub struct Reference {
    last: Instant,
    /// What each sample since the last `mark` took.
    sample_ns: Vec<u32>,
}

impl Reference {
    pub fn new() -> Reference {
        Reference {
            last: Instant::now(),
            // Room for the longest stretch, a set-up of a few seconds.
            sample_ns: Vec::with_capacity(4096),
        }
    }

    fn sample(&mut self) {
        let started = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut f = 1.000_000_1f64;
        for _ in 0..STEPS {
            x = x.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(1);
            f = f * 1.000_000_01 + 1e-9;
        }
        std::hint::black_box((x, f));
        self.last = Instant::now();
        self.sample_ns.push((self.last - started).as_nanos() as u32);
    }

    /// Runs the kernel if the last sample is [`PERIOD`] old.
    pub fn sample_if_due(&mut self) {
        if self.last.elapsed() >= PERIOD {
            self.sample();
        }
    }

    /// Ends a stretch and starts the next: takes one sample and returns
    /// what the samples since the previous `mark` say.
    pub fn mark(&mut self) -> Stretch {
        self.sample();
        let spent_ns = self.sample_ns.iter().map(|&ns| ns as u64).sum();
        self.sample_ns.sort_unstable();
        let n = self.sample_ns.len();
        let median = (self.sample_ns[(n - 1) / 2] as f64 + self.sample_ns[n / 2] as f64) / 2.0;
        self.sample_ns.clear();
        Stretch {
            factor: median / NOMINAL_NS,
            sampling: Duration::from_nanos(spent_ns),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stretch_is_the_median_of_its_samples_over_the_nominal() {
        let mut reference = Reference::new();
        reference.mark();
        // Nothing is due yet, so the stretch is its closing sample.
        reference.sample_if_due();
        let one = reference.mark();
        assert!(one.sampling > Duration::ZERO);
        assert_eq!(one.factor, one.sampling.as_nanos() as f64 / NOMINAL_NS);
        std::thread::sleep(PERIOD);
        reference.sample_if_due();
        let two = reference.mark();
        assert_eq!(
            two.factor,
            two.sampling.as_nanos() as f64 / 2.0 / NOMINAL_NS
        );
    }
}
