//! Property-based tests over the NUM solvers and normalizers.
//!
//! Random instances are generated as: `n_links` links with capacities in
//! [1, 100] Gbit/s and `n_flows` flows, each crossing a random non-empty
//! subset of links with a random weight. Invariants checked:
//!
//! 1. F-NORM and U-NORM never over-allocate any link (the §4 safety
//!    argument), whatever the input rates.
//! 2. NED converges on random instances, the fixed point satisfies KKT,
//!    and prices/rates stay non-negative and finite.
//! 3. NED and Gradient agree on the optimum (same primal rates) when each
//!    is run to convergence — they solve the same convex program.
//! 4. Warm-started NED after removing a flow re-converges.
//! 5. F-NORM's total throughput dominates U-NORM's.

use flowtune_num::normalize::{f_norm, total_throughput, u_norm};
use flowtune_num::solver::{kkt_residual, solve};
use flowtune_num::{Gradient, Ned, NumProblem, SolverState, Utility};
use flowtune_topo::LinkId;
use proptest::prelude::*;

/// Strategy: a random instance with 1–6 links and 1–12 flows.
fn instance() -> impl Strategy<Value = NumProblem> {
    (1usize..=6).prop_flat_map(|n_links| {
        let caps = proptest::collection::vec(1.0f64..100.0, n_links);
        let flows = proptest::collection::vec(
            (
                proptest::collection::btree_set(0..n_links, 1..=n_links.min(3)),
                0.1f64..10.0,
            ),
            1..=12,
        );
        (caps, flows).prop_map(|(caps, flows)| {
            let mut p = NumProblem::new(caps);
            for (links, w) in flows {
                let links: Vec<LinkId> = links.into_iter().map(|i| LinkId(i as u32)).collect();
                p.add_flow(links, Utility::log(w));
            }
            p
        })
    })
}

/// Strategy: an instance paired with arbitrary (possibly infeasible)
/// non-negative rates, one per flow.
fn instance_with_rates() -> impl Strategy<Value = (NumProblem, Vec<f64>)> {
    instance().prop_flat_map(|p| {
        let flows = p.flow_count();
        (
            Just(p),
            proptest::collection::vec(0.0f64..200.0, flows..=flows),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn normalizers_never_overallocate((problem, rates) in instance_with_rates()) {
        for norm in [f_norm(&problem, &rates), u_norm(&problem, &rates)] {
            for (load, &c) in problem.link_loads(&norm).iter().zip(problem.capacities()) {
                prop_assert!(*load <= c * (1.0 + 1e-9), "load {load} > cap {c}");
            }
        }
    }

    #[test]
    fn f_norm_dominates_u_norm_in_throughput((problem, rates) in instance_with_rates()) {
        let tf = total_throughput(&problem, &f_norm(&problem, &rates));
        let tu = total_throughput(&problem, &u_norm(&problem, &rates));
        prop_assert!(tf >= tu * (1.0 - 1e-9), "f-norm {tf} < u-norm {tu}");
    }

    #[test]
    fn ned_converges_and_satisfies_kkt(problem in instance()) {
        let mut s = SolverState::new(&problem);
        let report = solve(&mut Ned::new(0.4), &problem, &mut s, 20_000, 1e-7);
        prop_assert!(report.converged, "{report:?}");
        prop_assert!(kkt_residual(&problem, &s) < 1e-6);
        prop_assert!(s.prices.iter().all(|&p| p >= 0.0 && p.is_finite()));
        prop_assert!(s.rates.iter().all(|&x| x >= 0.0 && x.is_finite()));
        // No flow exceeds its bottleneck line rate.
        for (i, _, _, x_max) in problem.iter_flows() {
            prop_assert!(s.rates[i] <= x_max * (1.0 + 1e-9));
        }
    }

    #[test]
    fn warm_restart_after_removal_reconverges(problem in instance()) {
        let mut s = SolverState::new(&problem);
        let first = solve(&mut Ned::new(0.4), &problem, &mut s, 20_000, 1e-7);
        prop_assume!(first.converged);
        prop_assume!(problem.flow_count() > 1);
        // The first flow leaves: rebuild the instance without it and keep
        // the converged prices in `s`.
        let mut rest = NumProblem::new(problem.capacities().to_vec());
        for (_, links, utility, _) in problem.iter_flows().skip(1) {
            rest.add_flow(links.to_vec(), utility);
        }
        let again = solve(&mut Ned::new(0.4), &rest, &mut s, 20_000, 1e-7);
        prop_assert!(again.converged, "{again:?}");
    }
}

proptest! {
    // The optimum-agreement property runs Gradient for up to 2M
    // iterations per case; keep the case count small so the whole suite
    // stays fast.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn optimizers_agree_on_the_optimum(problem in instance()) {
        let mut ned_state = SolverState::new(&problem);
        let ned = solve(&mut Ned::new(0.4), &problem, &mut ned_state, 50_000, 1e-8);
        prop_assume!(ned.converged);

        // Gradient with an instance-aware stable step.
        let c_max = problem.capacities().iter().fold(0.0f64, |a, &b| a.max(b));
        let mut grad_state = SolverState::new(&problem);
        let grad = solve(
            &mut Gradient::stable_for(c_max, 1.0, 0.1),
            &problem,
            &mut grad_state,
            2_000_000,
            1e-8,
        );
        prop_assume!(grad.converged);

        for (i, ..) in problem.iter_flows() {
            let (a, b) = (ned_state.rates[i], grad_state.rates[i]);
            prop_assert!(
                (a - b).abs() <= 1e-3 * a.max(b).max(1e-9),
                "flow {i}: NED {a} vs Gradient {b}"
            );
        }
    }
}
