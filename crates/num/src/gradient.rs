//! Gradient projection (Low & Lapsley), the classic first-order dual
//! method: `p_ℓ ← max(0, p_ℓ + γ·G_ℓ)`.
//!
//! "Gradient's shortcoming is that it doesn't know how sensitive flows are
//! to a price change, so it must update prices very gently (i.e., γ must be
//! small)" (§3) — γ here is an absolute step in price-per-unit-rate, so a
//! safe value depends on the instance scale, unlike NED's dimensionless γ.
//!
//! The baseline of §6.6. `flowtune-alloc`'s gradient grid (the Gradient
//! rows of figs 12–14) takes the same step in its own kernel
//! (`flowblock::gradient_price_update`) and is checked against this one
//! (`serial.rs`'s `matches_flowtune_num_gradient`).

use crate::problem::NumProblem;
use crate::solver::{decay_idle_price, Optimizer, SolverState};

/// Gradient projection with a fixed step size.
#[derive(Debug, Clone)]
pub struct Gradient {
    gamma: f64,
    loads: Vec<f64>,
}

impl Gradient {
    /// Creates gradient projection with step `γ`.
    ///
    /// # Panics
    /// Panics unless `0 < γ` and finite.
    pub fn new(gamma: f64) -> Self {
        assert!(gamma > 0.0 && gamma.is_finite(), "gamma must be positive");
        Self {
            gamma,
            loads: Vec::new(),
        }
    }

    /// A step size that is stable for instances with capacities around
    /// `c_typ` and flow counts per link around `n_typ`: the dual gradient's
    /// curvature near the optimum is `≈ Σ_s w/λ² ≈ c²/(n·w)`, so we take a
    /// conservative fraction of `2/L`.
    pub fn stable_for(c_typ: f64, n_typ: f64, w_typ: f64) -> Self {
        Self::new(0.5 * n_typ * w_typ / (c_typ * c_typ))
    }
}

impl Default for Gradient {
    /// Step suitable for ~10 Gbit/s-scale instances with unit weights.
    fn default() -> Self {
        Self::stable_for(10.0, 2.0, 1.0)
    }
}

impl Optimizer for Gradient {
    fn name(&self) -> &'static str {
        "Gradient"
    }

    fn iterate(&mut self, problem: &NumProblem, state: &mut SolverState) {
        state.fit(problem);
        self.loads.clear();
        self.loads.resize(problem.link_count(), 0.0);
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
            if self.loads[l] > 0.0 {
                let g = self.loads[l] - c;
                state.prices[l] = (state.prices[l] + self.gamma * g).max(0.0);
            } else {
                state.prices[l] = decay_idle_price(state.prices[l]);
            }
        }
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
    fn gradient_reaches_the_same_optimum_as_ned() {
        let mut p = NumProblem::new(vec![10.0, 10.0]);
        let a = p.add_flow(vec![l(0), l(1)], Utility::log(1.0));
        let b = p.add_flow(vec![l(0)], Utility::log(1.0));
        let c = p.add_flow(vec![l(1)], Utility::log(1.0));
        let mut s = SolverState::new(&p);
        let r = solve(&mut Gradient::default(), &p, &mut s, 50_000, 1e-7);
        assert!(r.converged, "{r:?}");
        assert!((s.rates[a] - 10.0 / 3.0).abs() < 1e-3);
        assert!((s.rates[b] - 20.0 / 3.0).abs() < 1e-3);
        assert!((s.rates[c] - 20.0 / 3.0).abs() < 1e-3);
    }

    #[test]
    fn gradient_is_slower_than_ned() {
        // §3's whole argument: first-order updates need far more
        // iterations than NED's diagonally-scaled Newton step.
        let build = || {
            let mut p = NumProblem::new(vec![10.0]);
            for _ in 0..5 {
                p.add_flow(vec![l(0)], Utility::log(1.0));
            }
            p
        };
        let p = build();
        let mut s1 = SolverState::new(&p);
        let ned = solve(&mut crate::Ned::default(), &p, &mut s1, 100_000, 1e-6);
        let mut s2 = SolverState::new(&p);
        let grad = solve(&mut Gradient::default(), &p, &mut s2, 100_000, 1e-6);
        assert!(ned.converged && grad.converged);
        assert!(
            grad.iterations > 3 * ned.iterations,
            "gradient {} vs ned {}",
            grad.iterations,
            ned.iterations
        );
    }

    #[test]
    fn oversized_step_oscillates() {
        // Documents the instability the paper warns about: a too-large γ
        // never settles.
        let mut p = NumProblem::new(vec![10.0]);
        for _ in 0..3 {
            p.add_flow(vec![l(0)], Utility::log(1.0));
        }
        let mut s = SolverState::new(&p);
        let r = solve(&mut Gradient::new(7.0), &p, &mut s, 5_000, 1e-6);
        assert!(!r.converged, "{r:?}");
    }

    #[test]
    #[should_panic(expected = "gamma must be positive")]
    fn bad_gamma_rejected() {
        let _ = Gradient::new(-1.0);
    }
}
