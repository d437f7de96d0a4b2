//! Analytic-optimum tests: NED (and the block-decomposed allocator built
//! on it) must land on allocations that can be derived by hand from the
//! proportional-fairness KKT conditions.

mod common;

use flowtune::{AllocatorService, FlowtuneConfig};
use flowtune_alloc::{AllocConfig, SerialAllocator};
use flowtune_num::solver::solve;
use flowtune_num::{Ned, NumProblem, SolverState, Utility};
use flowtune_topo::{ClosConfig, FlowId, LinkId, TwoTierClos};

fn l(i: u32) -> LinkId {
    LinkId(i)
}

#[test]
fn triangle_with_asymmetric_capacities() {
    // Links a=6, b=12. Flow 1 on {a}, flow 2 on {a,b}, flow 3 on {b}.
    // KKT: x1 = 1/pa, x2 = 1/(pa+pb), x3 = 1/pb with both links tight.
    // Solving: pa ≈ 0.2770, pb ≈ 0.1070 → x1 ≈ 3.610, x2 ≈ 2.604,
    // x3 ≈ 9.346 (verified by substitution: x1+x2 = 6.21? — no: compute
    // exactly below from the converged state instead of trusting algebra,
    // then assert the *invariants*).
    let mut p = NumProblem::new(vec![6.0, 12.0]);
    let f1 = p.add_flow(vec![l(0)], Utility::log(1.0));
    let f2 = p.add_flow(vec![l(0), l(1)], Utility::log(1.0));
    let f3 = p.add_flow(vec![l(1)], Utility::log(1.0));
    let mut s = SolverState::new(&p);
    let r = solve(&mut Ned::new(0.4), &p, &mut s, 20_000, 1e-10);
    assert!(r.converged, "{r:?}");
    let (x1, x2, x3) = (s.rates[f1], s.rates[f2], s.rates[f3]);
    // Both links saturated.
    assert!((x1 + x2 - 6.0).abs() < 1e-6);
    assert!((x2 + x3 - 12.0).abs() < 1e-6);
    // Price consistency: 1/x2 = 1/x1 + 1/x3 (λ additivity for log
    // utility: λ2 = λ1 + λ3).
    assert!((1.0 / x2 - (1.0 / x1 + 1.0 / x3)).abs() < 1e-6);
    // The shared flow gets less than either single-link flow.
    assert!(x2 < x1 && x2 < x3);
}

#[test]
fn n_parking_lot_matches_closed_form() {
    // L unit links in a chain; 1 long flow over all, one 1-hop flow per
    // link. Proportional fairness: long = 1/(L+1)... only for L=1. For
    // general L the KKT gives x_long from Σ p = L·p (symmetric):
    // x_short + x_long = 1, x_short = 1/p, x_long = 1/(L·p)
    // ⇒ 1/p + 1/(Lp) = 1 ⇒ p = (L+1)/L ⇒ x_short = L/(L+1),
    // x_long = 1/(L+1). Holds for every L.
    for links in [1usize, 2, 4, 8] {
        let mut p = NumProblem::new(vec![1.0; links]);
        let long = p.add_flow((0..links as u32).map(l).collect(), Utility::log(1.0));
        let shorts: Vec<_> = (0..links as u32)
            .map(|i| p.add_flow(vec![l(i)], Utility::log(1.0)))
            .collect();
        let mut s = SolverState::new(&p);
        let r = solve(&mut Ned::new(0.2), &p, &mut s, 100_000, 1e-10);
        assert!(r.converged, "L={links}: {r:?}");
        let expect_long = 1.0 / (links as f64 + 1.0);
        assert!(
            (s.rates[long] - expect_long).abs() < 1e-6,
            "L={links}: long {} vs {expect_long}",
            s.rates[long]
        );
        for sf in shorts {
            assert!((s.rates[sf] - (1.0 - expect_long)).abs() < 1e-6);
        }
    }
}

#[test]
fn block_allocator_agrees_with_analytic_shares_on_a_fabric() {
    // 16 senders in rack 0 all send to distinct servers of rack 2 via
    // the fabric. Each flow is alone on its 40 G uplink and its
    // receiver's downlink, so the only possible bottleneck is its
    // ECMP-chosen ToR→spine (and matching spine→ToR) link: with c flows
    // hashed to the same 160 G fabric link, each gets min(40, 160/c).
    let fabric = TwoTierClos::build(ClosConfig::multicore(2, 2, 16));
    let mut alloc = SerialAllocator::new(
        &fabric,
        AllocConfig {
            capacity_fraction: 1.0,
            ..AllocConfig::default()
        },
    );
    let mut spine_of = Vec::new();
    let mut collisions = [0u32; 4];
    for s in 0..16usize {
        let dst = 32 + s; // rack 2
        let id = FlowId(s as u64);
        let path = fabric.path(s, dst, id);
        let spine = fabric.ecmp_spine(s, dst, id);
        spine_of.push(spine);
        collisions[spine] += 1;
        alloc.add_flow(id, s, dst, 1.0, &path);
    }
    alloc.run_iterations(2000);
    for s in 0..16 {
        let r = alloc.flow_rate(FlowId(s as u64)).unwrap();
        let expect = 40.0f64.min(160.0 / collisions[spine_of[s]] as f64);
        assert!(
            (r.rate - expect).abs() < 1e-3,
            "flow {s}: {} vs analytic {expect} ({} flows on spine {})",
            r.rate,
            collisions[spine_of[s]],
            spine_of[s]
        );
    }
}

#[test]
fn the_service_certifies_its_converged_rates_within_the_update_threshold() {
    // This file's fabric instance, and a triangle on the same fabric
    // (server 0's uplink shared by its flows to 1 and to 40, server 40's
    // downlink by the flows into it from 0 and from 41), run through the
    // service at the default configuration: the §6.4 threshold (1 %) as
    // capacity headroom, F-NORM on. Converged, the rates it hands out
    // are certified within the threshold of the optimum in utility —
    // `gap ≤ 0.01 · Σ w`, what a uniform 1 % rate shortfall would cost —
    // with no solver, and feasible.
    let fabric = TwoTierClos::build(ClosConfig::multicore(2, 2, 16));
    let fabric_instance: Vec<(u16, u16)> = (0..16).map(|s| (s, 32 + s)).collect();
    let triangle = vec![(0, 1), (0, 40), (41, 40)];
    for (name, pairs) in [("fabric", fabric_instance), ("triangle", triangle)] {
        let mut svc = AllocatorService::new(&fabric, FlowtuneConfig::default());
        for (token, &(src, dst)) in pairs.iter().enumerate() {
            svc.on_message(common::start(&fabric, token as u32, src, dst))
                .unwrap();
        }
        for _ in 0..2000 {
            svc.tick();
        }
        let cert = svc.certificate();
        let weights = pairs.len() as f64;
        assert!(cert.gap() >= 0.0, "{name}: {cert:?}");
        assert!(cert.gap() <= 0.01 * weights, "{name}: {cert:?}");
        assert!(cert.peak_util <= 1.0 + 1e-12, "{name}: {cert:?}");
        assert!(cert.peak_held <= 1.0, "{name}: {cert:?}");
        println!("{name}: gap {:e} Σw, {cert:?}", cert.gap() / weights);
    }
}
