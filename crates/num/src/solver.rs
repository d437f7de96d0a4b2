//! Optimizer interface and the run-to-convergence driver.

use crate::problem::NumProblem;

/// Mutable dual/primal state shared by every optimizer: per-link prices and
/// per-flow rates.
///
/// Prices are initialized to 1 "only once, when the system first starts"
/// (§3); across flowlet churn the same state is reused on each new
/// instance over the same links, so the optimizer warm-starts from the
/// previous prices.
#[derive(Debug, Clone)]
pub struct SolverState {
    /// Dual variables (link prices), indexed by link.
    pub prices: Vec<f64>,
    /// Primal variables (flow rates), indexed by flow.
    pub rates: Vec<f64>,
}

impl SolverState {
    /// Fresh state for `problem`: all prices 1, all rates 0.
    pub fn new(problem: &NumProblem) -> Self {
        Self {
            prices: vec![1.0; problem.link_count()],
            rates: vec![0.0; problem.flow_count()],
        }
    }

    /// Grows the state to match a problem with more links or flows (new
    /// links start at price 1, new flows at rate 0). Never shrinks.
    pub fn fit(&mut self, problem: &NumProblem) {
        if self.prices.len() < problem.link_count() {
            self.prices.resize(problem.link_count(), 1.0);
        }
        if self.rates.len() < problem.flow_count() {
            self.rates.resize(problem.flow_count(), 0.0);
        }
    }
}

/// A dual-ascent NUM optimizer: one call to [`Optimizer::iterate`] performs
/// one rate update + one price update (one line of Algorithm 1's loop).
pub trait Optimizer {
    /// Human-readable algorithm name (used by benches and reports).
    fn name(&self) -> &'static str;

    /// Performs a single iteration, updating `state.rates` from current
    /// prices and then `state.prices` from the resulting link loads.
    fn iterate(&mut self, problem: &NumProblem, state: &mut SolverState);
}

/// Computes every active flow's rate from current prices: Algorithm 1's
/// rate-update step, `x_s = (U'_s)⁻¹(Σ_{ℓ∈L(s)} p_ℓ)`, with the path price
/// floored at the flow's line-rate kink (see [`crate::Utility::price_floor`]).
///
/// Shared by all optimizers (they differ only in the *price* update).
pub fn update_rates(problem: &NumProblem, prices: &[f64], rates: &mut [f64]) {
    for (i, links, utility, x_max) in problem.iter_flows() {
        let lambda: f64 = links.iter().map(|l| prices[l.index()]).sum();
        let lambda = lambda.max(utility.price_floor(x_max));
        rates[i] = utility.demand(lambda);
    }
}

/// The price of a link none of the instance's flows cross, one iteration
/// on: halved, so a later flowlet does not start from a stale,
/// over-priced dual, and `0.0` once the half leaves the normal range.
/// Left to underflow, the decay from 1.0 spends 52 of its 1074 steps in
/// the subnormals, each multiply a microcode assist (≈ 50 ns a link
/// where a normal one costs 1); no rate can tell a subnormal price from
/// zero — it vanishes beside any normal price on the path, and an
/// all-idle path's price is under the flow's floor either way.
///
/// Shared by all optimizers and by the block engine's price update.
#[inline]
pub fn decay_idle_price(price: f64) -> f64 {
    let half = price * 0.5;
    if half < f64::MIN_POSITIVE {
        0.0
    } else {
        half
    }
}

/// KKT residual of the current allocation: the worst, capacity-relative
/// violation of complementary slackness over all *loaded* links —
/// `|G_ℓ|/c_ℓ` where the link is priced, `max(0, G_ℓ)/c_ℓ` where free.
/// Links carrying none of this instance's flows are skipped: their price
/// cannot affect the primal allocation.
pub fn kkt_residual(problem: &NumProblem, state: &SolverState) -> f64 {
    const PRICED: f64 = 1e-9;
    let loads = problem.link_loads(&state.rates);
    let mut worst = 0.0f64;
    for (l, (&load, &c)) in loads.iter().zip(problem.capacities()).enumerate() {
        if load == 0.0 {
            continue;
        }
        let g = load - c;
        let viol = if state.prices[l] > PRICED {
            g.abs()
        } else {
            g.max(0.0)
        };
        worst = worst.max(viol / c);
    }
    worst
}

/// The Lagrange dual of `problem` at `prices` (indexed by link, all
/// `≥ 0`): `D(p) = Σ_ℓ p_ℓ·c_ℓ + Σ_s [U_s(x_s) − q_s·x_s]` with `q_s` the
/// path price and `x_s` the demand at `max(q_s, floor)` — the rate
/// [`update_rates`] computes. By weak duality it bounds the optimal
/// utility from above for *any* prices, so `D(p) − U(x)` of a feasible
/// allocation `x` is a certificate of how far `x` is from optimal.
pub fn dual_bound(problem: &NumProblem, prices: &[f64]) -> f64 {
    let mut dual = 0.0;
    for (&p, &c) in prices.iter().zip(problem.capacities()) {
        dual += p * c;
    }
    for (_, links, utility, x_max) in problem.iter_flows() {
        let q: f64 = links.iter().map(|l| prices[l.index()]).sum();
        let x = utility.demand(q.max(utility.price_floor(x_max)));
        dual += utility.utility(x) - q * x;
    }
    dual
}

/// Outcome of [`solve`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceReport {
    /// Iterations actually performed.
    pub iterations: usize,
    /// Whether the tolerance was met before the iteration cap.
    pub converged: bool,
    /// Final KKT residual (see [`kkt_residual`]).
    pub residual: f64,
}

/// Runs `opt` until the KKT residual drops below `tol` or `max_iters` is
/// reached. The residual is checked every iteration, so the report's
/// iteration count is exactly how many price updates were needed — the
/// quantity the paper's convergence claims are about.
///
/// Because one iteration updates rates *from the previous prices* and then
/// updates prices (Algorithm 1's ordering), the driver re-derives rates
/// from the just-updated prices before measuring the residual; otherwise a
/// transient price overshoot could masquerade as a fixed point. On return,
/// `state.rates` is therefore always consistent with `state.prices`.
pub fn solve(
    opt: &mut dyn Optimizer,
    problem: &NumProblem,
    state: &mut SolverState,
    max_iters: usize,
    tol: f64,
) -> ConvergenceReport {
    state.fit(problem);
    let mut residual = kkt_residual(problem, state);
    for i in 0..max_iters {
        opt.iterate(problem, state);
        update_rates(problem, &state.prices, &mut state.rates);
        residual = kkt_residual(problem, state);
        if residual < tol {
            return ConvergenceReport {
                iterations: i + 1,
                converged: true,
                residual,
            };
        }
    }
    ConvergenceReport {
        iterations: max_iters,
        converged: false,
        residual,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::Utility;
    use flowtune_topo::LinkId;

    #[test]
    fn idle_price_decay_halves_then_snaps_to_zero() {
        assert_eq!(decay_idle_price(0.8), 0.4);
        assert_eq!(decay_idle_price(2.0 * f64::MIN_POSITIVE), f64::MIN_POSITIVE);
        assert_eq!(decay_idle_price(f64::MIN_POSITIVE).to_bits(), 0);
        assert_eq!(decay_idle_price(0.0).to_bits(), 0);
        // From the initial price: 1022 normal steps, then zero — never
        // one of the 52 subnormal values plain halving passes through.
        let mut p = 1.0;
        for step in 1..=1100 {
            p = decay_idle_price(p);
            assert!(!p.is_subnormal(), "step {step}");
            assert_eq!(p == 0.0, step >= 1023, "step {step}");
        }
    }

    #[test]
    fn state_fit_grows_monotonically() {
        let mut p = NumProblem::new(vec![10.0]);
        let mut s = SolverState::new(&p);
        assert_eq!(s.prices, vec![1.0]);
        assert_eq!(s.rates.len(), 0);
        p.add_flow(vec![LinkId(0)], Utility::log(1.0));
        s.fit(&p);
        assert_eq!(s.rates.len(), 1);
        // fit never shrinks
        let before = s.rates.len();
        s.fit(&NumProblem::new(vec![10.0]));
        assert_eq!(s.rates.len(), before);
    }

    #[test]
    fn update_rates_caps_at_bottleneck() {
        let mut p = NumProblem::new(vec![10.0, 4.0]);
        p.add_flow(vec![LinkId(0), LinkId(1)], Utility::log(1.0));
        let mut rates = vec![0.0];
        // Zero prices: without the floor the demand would be infinite.
        update_rates(&p, &[0.0, 0.0], &mut rates);
        assert_eq!(rates, vec![4.0]);
        // High prices: plain demand.
        update_rates(&p, &[1.0, 1.0], &mut rates);
        assert!((rates[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn dual_bound_is_tight_at_the_optimal_price_and_above_it_elsewhere() {
        // Four unit-weight flows on one 10 Gbit/s link: OPT = 4·log 2.5,
        // reached at p = 4/10, where every flow takes 2.5.
        let mut p = NumProblem::new(vec![10.0]);
        for _ in 0..4 {
            p.add_flow(vec![LinkId(0)], Utility::log(1.0));
        }
        let opt = 4.0 * 2.5f64.ln();
        assert!((dual_bound(&p, &[0.4]) - opt).abs() < 1e-12);
        for price in [0.0, 0.1, 0.39, 0.41, 1.0, 10.0] {
            assert!(dual_bound(&p, &[price]) > opt, "p = {price}");
        }
        // At p = 0 every flow sits at its floor, the line rate.
        assert!((dual_bound(&p, &[0.0]) - 4.0 * 10f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn kkt_residual_flags_overload_and_slackness() {
        let mut p = NumProblem::new(vec![10.0]);
        let f = p.add_flow(vec![LinkId(0)], Utility::log(1.0));
        let mut s = SolverState::new(&p);
        s.fit(&p);
        // Priced link, exactly at capacity: residual 0.
        s.prices[0] = 0.1;
        s.rates[f] = 10.0;
        assert!(kkt_residual(&p, &s) < 1e-12);
        // Priced link, overloaded by 50%.
        s.rates[f] = 15.0;
        assert!((kkt_residual(&p, &s) - 0.5).abs() < 1e-12);
        // Free link, underloaded: no violation.
        s.prices[0] = 0.0;
        s.rates[f] = 3.0;
        assert!(kkt_residual(&p, &s) < 1e-12);
    }
}
