//! Newton-Exact-Diagonal (NED), Algorithm 1 of the paper.
//!
//! NED's key observation: in a datacenter, the allocator can compute
//! *exactly* how the flows crossing a link will react to a change in that
//! link's price — the diagonal of the dual Hessian,
//! `H_ℓℓ = Σ_{s∈S(ℓ)} ∂x_s/∂p_ℓ` — because it knows every flow's utility
//! function. No network measurement is needed (unlike the Newton-like
//! method) and no full Hessian inversion (unlike Newton's method):
//!
//! * rate update: `x_s = (U'_s)⁻¹(Σ_{ℓ∈L(s)} p_ℓ)`
//! * price update: `p_ℓ ← max(0, p_ℓ − γ·H_ℓℓ⁻¹·G_ℓ)` where
//!   `G_ℓ = Σ_{s∈S(ℓ)} x_s − c_ℓ` is the link's over-allocation.
//!
//! fig13's oracle runs [`Ned`] to convergence. `flowtune-alloc`'s grid
//! takes the same step in its own kernel (`flowblock::price_update`) and
//! is checked against this one (`serial.rs`'s `matches_flowtune_num_ned`),
//! as its gradient rule is against [`crate::Gradient`].

use crate::problem::NumProblem;
use crate::solver::{decay_idle_price, Optimizer, SolverState};

/// The Newton-Exact-Diagonal optimizer.
#[derive(Debug, Clone)]
pub struct Ned {
    gamma: f64,
    loads: Vec<f64>,
    hdiag: Vec<f64>,
}

impl Ned {
    /// Creates NED with step size `γ`. The paper uses γ = 1 as the nominal
    /// value (Algorithm 1) and γ = 0.4 in the network experiments, noting
    /// similar performance for γ ∈ [0.2, 1.5].
    ///
    /// # Panics
    /// Panics unless `0 < γ` and finite.
    pub fn new(gamma: f64) -> Self {
        assert!(gamma > 0.0 && gamma.is_finite(), "gamma must be positive");
        Self {
            gamma,
            loads: Vec::new(),
            hdiag: Vec::new(),
        }
    }

    /// The step size γ.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }
}

impl Default for Ned {
    /// γ = 1, the value Algorithm 1 suggests.
    fn default() -> Self {
        Self::new(1.0)
    }
}

impl Optimizer for Ned {
    fn name(&self) -> &'static str {
        "NED"
    }

    fn iterate(&mut self, problem: &NumProblem, state: &mut SolverState) {
        state.fit(problem);
        let n_links = problem.link_count();
        self.loads.clear();
        self.loads.resize(n_links, 0.0);
        self.hdiag.clear();
        self.hdiag.resize(n_links, 0.0);

        // Rate update (eq. 3) + accumulation of G and the exact diagonal.
        for (i, links, utility, x_max) in problem.iter_flows() {
            let lambda: f64 = links.iter().map(|l| state.prices[l.index()]).sum();
            let lambda = lambda.max(utility.price_floor(x_max));
            let x = utility.demand(lambda);
            let dx = utility.demand_derivative(lambda);
            state.rates[i] = x;
            for l in links {
                self.loads[l.index()] += x;
                self.hdiag[l.index()] += dx;
            }
        }

        // Price update (eq. 4).
        let capacities = problem.capacities();
        // Indexing parallel arrays by `l`; a zip chain would bury the
        // equation.
        #[allow(clippy::needless_range_loop)]
        for l in 0..n_links {
            let h = self.hdiag[l];
            if h < 0.0 {
                let g = self.loads[l] - capacities[l];
                state.prices[l] = (state.prices[l] - self.gamma * g / h).max(0.0);
            } else {
                // No flow crosses this link, so its price carries no
                // information; decay it so a later flowlet doesn't start
                // from a stale, over-priced dual.
                state.prices[l] = decay_idle_price(state.prices[l]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{kkt_residual, solve};
    use crate::utility::Utility;
    use flowtune_topo::LinkId;

    fn l(i: u32) -> LinkId {
        LinkId(i)
    }

    #[test]
    fn single_link_equal_shares() {
        // 4 equal flows on a 10 Gbit/s link → 2.5 each; λ* = 4w/c.
        let mut p = NumProblem::new(vec![10.0]);
        for _ in 0..4 {
            p.add_flow(vec![l(0)], Utility::log(1.0));
        }
        let mut s = SolverState::new(&p);
        let report = solve(&mut Ned::default(), &p, &mut s, 200, 1e-9);
        assert!(report.converged, "{report:?}");
        for i in 0..4 {
            assert!((s.rates[i] - 2.5).abs() < 1e-6, "rate {}", s.rates[i]);
        }
        assert!((s.prices[0] - 0.4).abs() < 1e-6);
    }

    #[test]
    fn single_link_weighted_shares() {
        // Weights 1 and 3 → 2.5 and 7.5 of a 10 G link.
        let mut p = NumProblem::new(vec![10.0]);
        let a = p.add_flow(vec![l(0)], Utility::log(1.0));
        let b = p.add_flow(vec![l(0)], Utility::log(3.0));
        let mut s = SolverState::new(&p);
        assert!(solve(&mut Ned::default(), &p, &mut s, 200, 1e-9).converged);
        assert!((s.rates[a] - 2.5).abs() < 1e-6);
        assert!((s.rates[b] - 7.5).abs() < 1e-6);
    }

    #[test]
    fn parking_lot_proportional_fairness() {
        // Two unit links in series; one long flow over both, one short
        // flow per link. Proportional fairness: long = 1/3, shorts = 2/3.
        let mut p = NumProblem::new(vec![1.0, 1.0]);
        let long = p.add_flow(vec![l(0), l(1)], Utility::log(1.0));
        let s0 = p.add_flow(vec![l(0)], Utility::log(1.0));
        let s1 = p.add_flow(vec![l(1)], Utility::log(1.0));
        let mut s = SolverState::new(&p);
        let r = solve(&mut Ned::default(), &p, &mut s, 500, 1e-9);
        assert!(r.converged, "{r:?}");
        assert!((s.rates[long] - 1.0 / 3.0).abs() < 1e-6);
        assert!((s.rates[s0] - 2.0 / 3.0).abs() < 1e-6);
        assert!((s.rates[s1] - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn heterogeneous_capacities_with_cap() {
        // Flow A uses links (10, 4); flow B uses link 0 only.
        // Optimum: B = 6, A = 4 (A pinned by the 4 G bottleneck).
        let mut p = NumProblem::new(vec![10.0, 4.0]);
        let a = p.add_flow(vec![l(0), l(1)], Utility::log(1.0));
        let b = p.add_flow(vec![l(0)], Utility::log(1.0));
        let mut s = SolverState::new(&p);
        let r = solve(&mut Ned::default(), &p, &mut s, 500, 1e-9);
        assert!(r.converged, "{r:?}");
        assert!((s.rates[a] - 4.0).abs() < 1e-5, "a={}", s.rates[a]);
        assert!((s.rates[b] - 6.0).abs() < 1e-5, "b={}", s.rates[b]);
    }

    #[test]
    fn warm_start_beats_cold_start() {
        let flows = |n: usize| {
            let mut p = NumProblem::new(vec![10.0]);
            for _ in 0..n {
                p.add_flow(vec![l(0)], Utility::log(1.0));
            }
            p
        };
        let mut s = SolverState::new(&flows(8));
        solve(&mut Ned::default(), &flows(8), &mut s, 500, 1e-9);

        // One flow leaves: the instance is rebuilt without it, and the
        // warm state carries its prices over.
        let p = flows(7);
        let mut warm = s.clone();
        let warm_iters = solve(&mut Ned::default(), &p, &mut warm, 500, 1e-9).iterations;
        let mut cold = SolverState::new(&p);
        let cold_iters = solve(&mut Ned::default(), &p, &mut cold, 500, 1e-9).iterations;
        assert!(
            warm_iters < cold_iters,
            "warm {warm_iters} vs cold {cold_iters}"
        );
        assert!(warm_iters <= 10, "churn should re-converge fast");
    }

    #[test]
    fn gamma_range_from_paper_converges_on_single_bottleneck() {
        // §6.2: "for NED parameter γ in the range [0.2, 1.5], the network
        // exhibits similar performance". For single-bottleneck coupling
        // the update map's local contraction factor is |1 − γ|, so the
        // whole published range is stable.
        for &gamma in &[0.2, 0.4, 1.0, 1.5] {
            let mut p = NumProblem::new(vec![10.0]);
            for _ in 0..4 {
                p.add_flow(vec![l(0)], Utility::log(1.0));
            }
            let mut s = SolverState::new(&p);
            let r = solve(&mut Ned::new(gamma), &p, &mut s, 2000, 1e-8);
            assert!(r.converged, "gamma={gamma}: {r:?}");
            for i in 0..4 {
                assert!((s.rates[i] - 2.5).abs() < 1e-4, "gamma={gamma}");
            }
        }
    }

    #[test]
    fn multi_hop_coupling_caps_stable_gamma() {
        // With k-link paths the diagonal underestimates each flow's total
        // price sensitivity by ~k, so the contraction factor becomes
        // |1 − kγ|: on a symmetric 2-hop ring γ = 0.4 converges but
        // γ = 1.5 oscillates. (The simulations' γ = 0.4 sits safely below
        // the 4-hop limit.)
        let ring = || {
            let mut p = NumProblem::new(vec![10.0, 10.0, 10.0]);
            p.add_flow(vec![l(0), l(1)], Utility::log(1.0));
            p.add_flow(vec![l(1), l(2)], Utility::log(1.0));
            p.add_flow(vec![l(2), l(0)], Utility::log(1.0));
            p
        };
        let p = ring();
        let mut s = SolverState::new(&p);
        let r = solve(&mut Ned::new(0.4), &p, &mut s, 2000, 1e-8);
        assert!(r.converged, "{r:?}");
        for i in 0..3 {
            assert!((s.rates[i] - 5.0).abs() < 1e-4);
        }
        let mut s = SolverState::new(&p);
        let r = solve(&mut Ned::new(1.5), &p, &mut s, 2000, 1e-8);
        assert!(!r.converged, "γ=1.5 should oscillate on 2-hop paths");
    }

    #[test]
    fn prices_stay_nonnegative_and_empty_links_decay() {
        let mut p = NumProblem::new(vec![10.0, 10.0]);
        p.add_flow(vec![l(0)], Utility::log(1.0));
        let mut s = SolverState::new(&p);
        let mut ned = Ned::default();
        for _ in 0..50 {
            ned.iterate(&p, &mut s);
            assert!(s.prices.iter().all(|&x| x >= 0.0));
        }
        assert!(s.prices[1] < 1e-9, "unused link price should decay");
    }

    #[test]
    fn converges_within_a_few_iterations() {
        // The headline claim: convergence "within a few packets rather
        // than over several RTTs". On a fresh single-bottleneck instance
        // NED needs only a handful of iterations.
        let mut p = NumProblem::new(vec![10.0]);
        for _ in 0..2 {
            p.add_flow(vec![l(0)], Utility::log(1.0));
        }
        let mut s = SolverState::new(&p);
        let r = solve(&mut Ned::default(), &p, &mut s, 100, 1e-6);
        assert!(r.converged && r.iterations <= 25, "{r:?}");
    }

    #[test]
    fn residual_decreases_to_zero() {
        let mut p = NumProblem::new(vec![10.0, 10.0]);
        p.add_flow(vec![l(0), l(1)], Utility::log(1.0));
        p.add_flow(vec![l(0)], Utility::log(1.0));
        let mut s = SolverState::new(&p);
        let mut ned = Ned::default();
        for _ in 0..200 {
            ned.iterate(&p, &mut s);
        }
        assert!(kkt_residual(&p, &s) < 1e-9);
    }

    #[test]
    #[should_panic(expected = "gamma must be positive")]
    fn bad_gamma_rejected() {
        let _ = Ned::new(0.0);
    }
}
