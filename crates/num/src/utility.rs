//! Flow utility functions.
//!
//! NED admits "any utility function U_s that is strictly concave,
//! differentiable, and monotonically increasing" (§3). The quantities each
//! algorithm needs are `U'`, its inverse `(U')⁻¹` (the demand function:
//! given a path price, the selfishly optimal rate), and the derivative of
//! the inverse (the flow's price sensitivity, which NED sums into the exact
//! Hessian diagonal).

/// A strictly concave, differentiable, monotonically increasing utility.
///
/// Only the paper's objective is implemented, the one the FlowBlock
/// kernel computes: `U(x) = w·log x`, weighted proportional fairness
/// (§3: "the logarithmic utility function ... will optimize weighted
/// proportional fairness"). Flows differ by their weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Utility {
    weight: f64,
}

impl Utility {
    /// Weighted-log utility with the given weight.
    ///
    /// # Panics
    /// Panics unless `weight > 0` and finite.
    pub fn log(weight: f64) -> Self {
        assert!(weight > 0.0 && weight.is_finite(), "weight must be > 0");
        Utility { weight }
    }

    /// The weight `w`.
    #[inline]
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// `U(x)`.
    #[inline]
    pub fn utility(&self, x: f64) -> f64 {
        self.weight * x.ln()
    }

    /// Marginal utility `U'(x)`.
    #[inline]
    pub fn marginal(&self, x: f64) -> f64 {
        self.weight / x
    }

    /// Demand function `(U')⁻¹(λ)`: the rate a selfish flow picks when its
    /// path price is `λ` (Algorithm 1's rate update, eq. 3).
    #[inline]
    pub fn demand(&self, lambda: f64) -> f64 {
        self.weight / lambda
    }

    /// Price sensitivity `((U')⁻¹)'(λ) = ∂x/∂λ ≤ 0` — the flow's
    /// contribution to the exact Hessian diagonal (Algorithm 1's
    /// `∂x_s(p)/∂p_ℓ`).
    #[inline]
    pub fn demand_derivative(&self, lambda: f64) -> f64 {
        -self.weight / (lambda * lambda)
    }

    /// The path price at which the demand equals `x_max` — the "kink"
    /// price below which a flow is capped by its bottleneck line rate. The
    /// optimizers floor each flow's path price here, which is equivalent to
    /// adding the (redundant) constraint `x_s ≤ x_max` to the program and
    /// keeps the Hessian diagonal strictly negative on loaded links.
    #[inline]
    pub fn price_floor(&self, x_max: f64) -> f64 {
        self.marginal(x_max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    #[test]
    fn log_demand_inverts_marginal() {
        let u = Utility::log(2.5);
        for &x in &[0.01, 1.0, 7.3, 100.0] {
            let lambda = u.marginal(x);
            assert!((u.demand(lambda) - x).abs() < EPS * x);
        }
    }

    #[test]
    fn demand_derivative_matches_finite_difference() {
        let u = Utility::log(1.0);
        for &lambda in &[0.1, 1.0, 10.0] {
            let h = 1e-6 * lambda;
            let fd = (u.demand(lambda + h) - u.demand(lambda - h)) / (2.0 * h);
            let an = u.demand_derivative(lambda);
            assert!(
                (fd - an).abs() < 1e-4 * an.abs(),
                "λ={lambda}: fd={fd} an={an}"
            );
        }
    }

    #[test]
    fn demand_is_decreasing_and_negative_derivative() {
        let u = Utility::log(1.0);
        assert!(u.demand(1.0) > u.demand(2.0));
        assert!(u.demand_derivative(1.0) < 0.0);
    }

    #[test]
    fn utility_is_concave_increasing() {
        let u = Utility::log(1.0);
        let (a, b, c) = (u.utility(1.0), u.utility(2.0), u.utility(3.0));
        assert!(b > a && c > b, "increasing");
        assert!(b - a > c - b, "concave (diminishing returns)");
    }

    #[test]
    fn price_floor_caps_demand() {
        let u = Utility::log(1.0);
        let x_max = 10.0;
        let floor = u.price_floor(x_max);
        assert!((u.demand(floor) - x_max).abs() < EPS);
        // Below the floor, demand would exceed the cap.
        assert!(u.demand(floor * 0.5) > x_max);
    }

    #[test]
    fn log_weight_scales_demand() {
        let u1 = Utility::log(1.0);
        let u3 = Utility::log(3.0);
        assert!((u3.demand(0.5) - 3.0 * u1.demand(0.5)).abs() < EPS);
        assert_eq!(u3.weight(), 3.0);
    }

    #[test]
    #[should_panic(expected = "weight must be > 0")]
    fn zero_weight_rejected() {
        let _ = Utility::log(0.0);
    }
}
