//! FGM — the Fast Weighted Gradient Method of Beck, Nedić, Ozdaglar and
//! Teboulle ("A Gradient Method for Network Resource Allocation Problems",
//! IEEE TCNS 2014), one of Figure 12's baselines.
//!
//! FGM is a Nesterov-accelerated projected gradient on the dual, with the
//! step on each link scaled by a Lipschitz upper bound `L_ℓ` on that
//! link's dual curvature. As the paper notes (§8), FGM "uses a crude upper
//! bound on the convexity of the utility function as a proxy for H_ℓℓ":
//! for `U = w log x` on rates capped at `x_max`, `|∂x/∂λ| = w/λ² ≤
//! x_max²/w`, so `L_ℓ = Σ_{s∈S(ℓ)} x_max_s²/w_s`.
//!
//! The momentum sequence assumes a *static* problem; under flowlet churn
//! the extrapolated prices chase a moving target, which is why §6.6 finds
//! that FGM "does not handle the stream of updates well, and its
//! allocations become unrealistic at even moderate loads". We deliberately
//! do not reset momentum on churn, to reproduce that behaviour; call
//! [`Fgm::reset_momentum`] to study the (better-behaved) restarted variant.

use crate::problem::NumProblem;
use crate::solver::{decay_idle_price, Optimizer, SolverState};

/// The fast weighted gradient method.
#[derive(Debug, Clone, Default)]
pub struct Fgm {
    /// Extrapolated price sequence `y_k` (empty until first iterate).
    y: Vec<f64>,
    /// Previous projected prices `p_{k−1}`.
    p_prev: Vec<f64>,
    /// Momentum scalar `t_k`.
    t: f64,
    loads: Vec<f64>,
    lipschitz: Vec<f64>,
}

impl Fgm {
    /// Creates FGM (no tunables: steps come from the Lipschitz bounds).
    pub fn new() -> Self {
        Self {
            t: 1.0,
            ..Self::default()
        }
    }

    /// Forgets the momentum history (Nesterov restart). The paper's
    /// experiments run *without* restarts; the ablation benches compare.
    pub fn reset_momentum(&mut self) {
        self.t = 1.0;
        self.y.clear();
        self.p_prev.clear();
    }
}

impl Optimizer for Fgm {
    fn name(&self) -> &'static str {
        "FGM"
    }

    fn iterate(&mut self, problem: &NumProblem, state: &mut SolverState) {
        state.fit(problem);
        let n = problem.link_count();
        if self.t == 0.0 {
            self.t = 1.0;
        }
        if self.y.len() != n {
            self.y = state.prices.clone();
            self.p_prev = state.prices.clone();
        }
        self.loads.clear();
        self.loads.resize(n, 0.0);
        self.lipschitz.clear();
        self.lipschitz.resize(n, 0.0);

        // Demands at the extrapolated prices y_k.
        for (i, links, utility, x_max) in problem.iter_flows() {
            let lambda: f64 = links.iter().map(|l| self.y[l.index()]).sum();
            let lambda = lambda.max(utility.price_floor(x_max));
            let x = utility.demand(lambda);
            state.rates[i] = x;
            let crude = x_max * x_max / utility.weight();
            for l in links {
                self.loads[l.index()] += x;
                self.lipschitz[l.index()] += crude;
            }
        }

        // Projected step from y, then Nesterov extrapolation.
        let t_next = 0.5 * (1.0 + (1.0 + 4.0 * self.t * self.t).sqrt());
        let beta = (self.t - 1.0) / t_next;
        for (l, &c) in problem.capacities().iter().enumerate() {
            let p_new = if self.loads[l] > 0.0 {
                let g = self.loads[l] - c;
                (self.y[l] + g / self.lipschitz[l]).max(0.0)
            } else {
                decay_idle_price(state.prices[l])
            };
            self.y[l] = p_new + beta * (p_new - self.p_prev[l]);
            self.p_prev[l] = p_new;
            state.prices[l] = p_new;
        }
        self.t = t_next;
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
    fn fgm_converges_on_a_static_instance() {
        let mut p = NumProblem::new(vec![10.0]);
        for _ in 0..4 {
            p.add_flow(vec![l(0)], Utility::log(1.0));
        }
        let mut s = SolverState::new(&p);
        let r = solve(&mut Fgm::new(), &p, &mut s, 200_000, 1e-5);
        assert!(r.converged, "{r:?}");
        for i in 0..4 {
            assert!((s.rates[i] - 2.5).abs() < 1e-2, "{}", s.rates[i]);
        }
    }

    #[test]
    fn fgm_accelerates_over_plain_gradient_far_from_optimum() {
        // Both first-order; the accelerated method should need fewer
        // iterations at equal (conservative) step scaling.
        let build = || {
            let mut p = NumProblem::new(vec![40.0]);
            for _ in 0..8 {
                p.add_flow(vec![l(0)], Utility::log(1.0));
            }
            p
        };
        let p = build();
        let mut s1 = SolverState::new(&p);
        let fgm = solve(&mut Fgm::new(), &p, &mut s1, 500_000, 1e-5);
        // Plain gradient with the same (Lipschitz) step 1/L = w/(n·xmax²).
        let gamma = 1.0 / (8.0 * 40.0 * 40.0);
        let mut s2 = SolverState::new(&p);
        let grad = solve(&mut crate::Gradient::new(gamma), &p, &mut s2, 500_000, 1e-5);
        assert!(fgm.converged && grad.converged, "{fgm:?} {grad:?}");
        assert!(
            fgm.iterations < grad.iterations,
            "fgm {} vs gradient {}",
            fgm.iterations,
            grad.iterations
        );
    }

    #[test]
    fn fgm_lags_rising_load_and_overallocates() {
        // Reproduces §6.6's observation in miniature ("FGM does not handle
        // the stream of updates well"): start both optimizers at their
        // equilibrium, then stream in new flowlets. NED re-prices each
        // event in a couple of iterations; FGM's crude-Lipschitz steps
        // cannot raise prices fast enough, so over-allocation persists and
        // its cumulative total is far larger.
        let mut p = NumProblem::new(vec![10.0]);
        for _ in 0..2 {
            p.add_flow(vec![l(0)], Utility::log(1.0));
        }
        let mut fgm = Fgm::new();
        let mut ned = crate::Ned::new(0.4);
        let mut sf = SolverState::new(&p);
        let mut sn = SolverState::new(&p);
        assert!(solve(&mut fgm, &p, &mut sf, 500_000, 1e-6).converged);
        assert!(solve(&mut ned, &p, &mut sn, 500_000, 1e-6).converged);

        let mut total_fgm = 0.0f64;
        let mut total_ned = 0.0f64;
        for round in 0..120 {
            if round % 2 == 0 {
                p.add_flow(vec![l(0)], Utility::log(1.0));
            }
            sf.fit(&p);
            sn.fit(&p);
            fgm.iterate(&p, &mut sf);
            crate::solver::update_rates(&p, &sf.prices, &mut sf.rates);
            ned.iterate(&p, &mut sn);
            crate::solver::update_rates(&p, &sn.prices, &mut sn.rates);
            total_fgm += p.total_overallocation(&sf.rates);
            total_ned += p.total_overallocation(&sn.rates);
        }
        assert!(
            total_fgm > 2.0 * total_ned,
            "fgm {total_fgm} should overshoot more than ned {total_ned}"
        );
    }

    #[test]
    fn reset_momentum_restarts_cleanly() {
        let mut p = NumProblem::new(vec![10.0]);
        p.add_flow(vec![l(0)], Utility::log(1.0));
        let mut fgm = Fgm::new();
        let mut s = SolverState::new(&p);
        for _ in 0..10 {
            fgm.iterate(&p, &mut s);
        }
        fgm.reset_momentum();
        let r = solve(&mut fgm, &p, &mut s, 100_000, 1e-5);
        assert!(r.converged);
    }
}
