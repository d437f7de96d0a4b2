//! Rate normalization (§4): turning the optimizer's (possibly momentarily
//! over-allocating) rates into rates the network can actually carry.
//!
//! While prices re-converge after flowlet churn, "there are momentary
//! spikes in throughput on some links". Instead of letting those become
//! queues (the REM approach), Flowtune scales the allocated rates down to
//! link capacities before sending them to endpoints:
//!
//! * **U-NORM** divides *every* flow by the worst link's utilization ratio
//!   — simple, preserves relative fairness, but one hot link throttles the
//!   whole network.
//! * **F-NORM** divides each flow by the worst ratio *on its own path* —
//!   per-flow work, loses exact fairness, but achieves >99.7% of optimal
//!   throughput (§6.6, Figure 13).
//!
//! Both guarantee feasibility: on any link ℓ,
//! `Σ_s x_s/ max_{m∈L(s)} r_m ≤ Σ_s x_s / r_ℓ = c_ℓ` (property-tested in
//! `tests/properties.rs`).

use crate::problem::NumProblem;

/// Per-link utilization ratios `r_ℓ = Σ_{s∈S(ℓ)} x_s / c_ℓ`.
pub fn utilization(problem: &NumProblem, rates: &[f64]) -> Vec<f64> {
    problem
        .link_loads(rates)
        .iter()
        .zip(problem.capacities())
        .map(|(&load, &c)| load / c)
        .collect()
}

/// U-NORM (§4.1): scales all flows by `r* = max_ℓ r_ℓ` so the most
/// congested link runs exactly at capacity. Only links that carry traffic
/// participate in the max (the "straightforward to avoid division by zero"
/// caveat); if nothing is allocated the rates are returned unchanged.
pub fn u_norm(problem: &NumProblem, rates: &[f64]) -> Vec<f64> {
    let r_star = utilization(problem, rates)
        .into_iter()
        .fold(0.0f64, f64::max);
    if r_star == 0.0 {
        return rates.to_vec();
    }
    rates.iter().map(|&x| x / r_star).collect()
}

/// F-NORM (§4.2): scales each flow by the utilization ratio of its most
/// congested link, `x̄_s = x_s / max_{ℓ∈L(s)} r_ℓ`. Flows with zero rate
/// stay at zero.
pub fn f_norm(problem: &NumProblem, rates: &[f64]) -> Vec<f64> {
    let ratios = utilization(problem, rates);
    let mut out = rates.to_vec();
    for (i, links, ..) in problem.iter_flows() {
        if rates[i] == 0.0 {
            continue;
        }
        let worst = links
            .iter()
            .map(|l| ratios[l.index()])
            .fold(0.0f64, f64::max);
        debug_assert!(worst > 0.0, "flow with non-zero rate has zero-load links");
        out[i] = rates[i] / worst;
    }
    out
}

/// Total network throughput `Σ_s x_s` over active flows — the numerator of
/// Figure 13's "fraction of optimal".
pub fn total_throughput(problem: &NumProblem, rates: &[f64]) -> f64 {
    problem.iter_flows().map(|(i, ..)| rates[i]).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::Utility;
    use flowtune_topo::LinkId;

    fn l(i: u32) -> LinkId {
        LinkId(i)
    }

    /// Two links (c=10, c=5); flow a on link0, flow b on both, flow c on
    /// link1. Rates chosen to over-allocate link1 (r=2.0) but not link0
    /// (r=0.7).
    fn fixture() -> (NumProblem, Vec<f64>) {
        let mut p = NumProblem::new(vec![10.0, 5.0]);
        p.add_flow(vec![l(0)], Utility::log(1.0)); // a: 3.0
        p.add_flow(vec![l(0), l(1)], Utility::log(1.0)); // b: 4.0
        p.add_flow(vec![l(1)], Utility::log(1.0)); // c: 6.0
        (p, vec![3.0, 4.0, 6.0])
    }

    #[test]
    fn utilization_ratios() {
        let (p, rates) = fixture();
        let r = utilization(&p, &rates);
        assert!((r[0] - 0.7).abs() < 1e-12);
        assert!((r[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn u_norm_scales_everything_by_worst_link() {
        let (p, rates) = fixture();
        let n = u_norm(&p, &rates);
        assert_eq!(n, vec![1.5, 2.0, 3.0]);
        // Relative sizes preserved (the fairness argument of §4.1).
        assert!((n[1] / n[0] - rates[1] / rates[0]).abs() < 1e-12);
    }

    #[test]
    fn f_norm_scales_per_flow() {
        let (p, rates) = fixture();
        let n = f_norm(&p, &rates);
        // a only crosses the uncongested link0 → scaled UP by 1/0.7;
        // b and c cross link1 (r = 2) → halved.
        assert!((n[0] - 3.0 / 0.7).abs() < 1e-12);
        assert_eq!(n[1], 2.0);
        assert_eq!(n[2], 3.0);
    }

    #[test]
    fn both_norms_are_capacity_safe() {
        let (p, rates) = fixture();
        for (name, n) in [
            ("U-NORM", u_norm(&p, &rates)),
            ("F-NORM", f_norm(&p, &rates)),
        ] {
            for (load, &c) in p.link_loads(&n).iter().zip(p.capacities()) {
                assert!(*load <= c * (1.0 + 1e-12), "{name}: {load} > {c}");
            }
        }
    }

    #[test]
    fn f_norm_throughput_dominates_u_norm() {
        // §6.6's point: "U-NORM scales flow throughput too aggressively".
        let (p, rates) = fixture();
        let tu = total_throughput(&p, &u_norm(&p, &rates));
        let tf = total_throughput(&p, &f_norm(&p, &rates));
        assert!(tf > tu, "f-norm {tf} vs u-norm {tu}");
    }

    #[test]
    fn zero_rates_stay_zero() {
        let mut p = NumProblem::new(vec![10.0]);
        p.add_flow(vec![l(0)], Utility::log(1.0));
        p.add_flow(vec![l(0)], Utility::log(1.0));
        let rates = vec![0.0, 8.0];
        assert_eq!(f_norm(&p, &rates)[0], 0.0);
        assert_eq!(u_norm(&p, &rates)[0], 0.0);
    }

    #[test]
    fn all_zero_allocation_is_identity() {
        let (p, _) = fixture();
        let rates = vec![0.0; 3];
        assert_eq!(u_norm(&p, &rates), rates);
        assert_eq!(f_norm(&p, &rates), rates);
    }
}
