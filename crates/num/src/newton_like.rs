//! The Newton-like method of Athuraliya & Low ("Optimization Flow Control
//! with Newton-like Algorithm", Telecom Systems 2000).
//!
//! Like NED it scales each link's price step by an estimate of the dual
//! curvature `H_ℓℓ`, but — crucially — it *estimates* that value from
//! observed throughput reactions to past price changes instead of
//! computing it from the utility functions: "it uses network measurements
//! to estimate its value. These measurements increase convergence time and
//! have associated error; we have found the algorithm is unstable in
//! several settings" (§8). The finite-difference slope is smoothed with an
//! exponential moving average, mirroring the original algorithm's averaged
//! throughput measurements.

use crate::problem::NumProblem;
use crate::solver::{decay_idle_price, Optimizer, SolverState};

/// Newton-like dual method with measured curvature.
#[derive(Debug, Clone)]
pub struct NewtonLike {
    gamma: f64,
    /// EWMA smoothing factor for the curvature estimate.
    beta: f64,
    /// Estimated H_ℓℓ (≤ −`H_FLOOR`), per link.
    h_est: Vec<f64>,
    prev_g: Vec<f64>,
    prev_p: Vec<f64>,
    loads: Vec<f64>,
    primed: bool,
}

/// Curvature estimates are clamped to `[-H_CEIL, -H_FLOOR]` so a noisy
/// finite difference cannot produce an explosive or sign-flipped step.
const H_FLOOR: f64 = 1e-6;
const H_CEIL: f64 = 1e12;

impl NewtonLike {
    /// Creates the method with step `γ` and measurement smoothing `β`.
    ///
    /// # Panics
    /// Panics unless `0 < γ` finite and `0 < β ≤ 1`.
    pub fn new(gamma: f64, beta: f64) -> Self {
        assert!(gamma > 0.0 && gamma.is_finite(), "gamma must be positive");
        assert!(beta > 0.0 && beta <= 1.0, "beta must be in (0, 1]");
        Self {
            gamma,
            beta,
            h_est: Vec::new(),
            prev_g: Vec::new(),
            prev_p: Vec::new(),
            loads: Vec::new(),
            primed: false,
        }
    }
}

impl Default for NewtonLike {
    fn default() -> Self {
        Self::new(0.5, 0.3)
    }
}

impl Optimizer for NewtonLike {
    fn name(&self) -> &'static str {
        "Newton-like"
    }

    fn iterate(&mut self, problem: &NumProblem, state: &mut SolverState) {
        state.fit(problem);
        let n = problem.link_count();
        if self.h_est.len() < n {
            self.h_est.resize(n, -1.0);
            self.prev_g.resize(n, 0.0);
            self.prev_p.resize(n, 0.0);
        }
        self.loads.clear();
        self.loads.resize(n, 0.0);

        for (i, links, utility, x_max) in problem.iter_flows() {
            let lambda: f64 = links.iter().map(|l| state.prices[l.index()]).sum();
            let lambda = lambda.max(utility.price_floor(x_max));
            let x = utility.demand(lambda);
            state.rates[i] = x;
            for l in links {
                self.loads[l.index()] += x;
            }
        }

        for (l, &c) in problem.capacities().iter().enumerate() {
            if self.loads[l] == 0.0 {
                state.prices[l] = decay_idle_price(state.prices[l]);
                continue;
            }
            let g = self.loads[l] - c;
            if self.primed {
                let dp = state.prices[l] - self.prev_p[l];
                if dp.abs() > 1e-12 {
                    let slope = (g - self.prev_g[l]) / dp;
                    if slope < 0.0 {
                        self.h_est[l] = (1.0 - self.beta) * self.h_est[l] + self.beta * slope;
                    }
                    // Positive slopes are cross-link interference noise —
                    // the measured reaction went the "wrong" way — and are
                    // discarded, as the original algorithm's averaging
                    // effectively does.
                }
            }
            let h = self.h_est[l].clamp(-H_CEIL, -H_FLOOR);
            self.prev_g[l] = g;
            self.prev_p[l] = state.prices[l];
            state.prices[l] = (state.prices[l] - self.gamma * g / h).max(0.0);
        }
        self.primed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::solve;
    use crate::utility::Utility;
    use flowtune_topo::LinkId;

    fn l(i: u32) -> LinkId {
        LinkId(i)
    }

    #[test]
    fn converges_on_single_link() {
        let mut p = NumProblem::new(vec![10.0]);
        for _ in 0..3 {
            p.add_flow(vec![l(0)], Utility::log(1.0));
        }
        let mut s = SolverState::new(&p);
        let r = solve(&mut NewtonLike::default(), &p, &mut s, 100_000, 1e-5);
        assert!(r.converged, "{r:?}");
        for i in 0..3 {
            assert!((s.rates[i] - 10.0 / 3.0).abs() < 1e-2);
        }
    }

    #[test]
    fn slower_than_ned_due_to_measurement() {
        let build = || {
            let mut p = NumProblem::new(vec![10.0, 10.0]);
            p.add_flow(vec![l(0), l(1)], Utility::log(1.0));
            p.add_flow(vec![l(0)], Utility::log(1.0));
            p.add_flow(vec![l(1)], Utility::log(1.0));
            p
        };
        let p = build();
        let mut s1 = SolverState::new(&p);
        let ned = solve(&mut crate::Ned::default(), &p, &mut s1, 100_000, 1e-6);
        let mut s2 = SolverState::new(&p);
        let nl = solve(&mut NewtonLike::default(), &p, &mut s2, 100_000, 1e-6);
        assert!(ned.converged && nl.converged, "{ned:?} {nl:?}");
        assert!(
            nl.iterations > ned.iterations,
            "newton-like {} vs ned {}",
            nl.iterations,
            ned.iterations
        );
    }

    #[test]
    fn estimates_stay_negative() {
        let mut p = NumProblem::new(vec![10.0]);
        p.add_flow(vec![l(0)], Utility::log(1.0));
        let mut s = SolverState::new(&p);
        let mut opt = NewtonLike::default();
        for _ in 0..100 {
            opt.iterate(&p, &mut s);
            assert!(opt.h_est[0] < 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "beta must be in")]
    fn bad_beta_rejected() {
        let _ = NewtonLike::new(0.5, 0.0);
    }
}
