//! Fairness and FCT assertions on the adversarial scenarios (ISSUE 10
//! satellite) — each scenario family lands with a pinned correctness
//! bound, not just a generator:
//!
//! * **permshift + fairness floor**: under NED at convergence, the Jain
//!   index over per-flow mean throughput on every permutation phase is
//!   ≥ 0.95 (on a host-bottlenecked fabric a permutation is symmetric,
//!   so proportional fairness must hand everyone a near-identical
//!   share);
//! * **incast + p99-FCT bound**: fair sharing is work-conserving, so the
//!   last of N equal incast flows cannot finish much later than the
//!   serial oracle (all bytes back to back down the receiver line);
//!   p99 FCT stays within 1.3× of that oracle;
//! * **burst + feasibility**: mid-burst, after the allocator's reaction
//!   window, no link is over-subscribed by the normalized rates —
//!   F-NORM's guarantee holding through abrupt on/off edges (the *raw*
//!   NED allocation over-allocates by design; that is what F-NORM
//!   normalizes away, and it is reported as telemetry, not bounded).

mod common;

use common::fabric;
use flowtune::{AllocatorService, FlowtuneConfig, FluidPlane, ScenarioOptions, ScenarioReport};
use flowtune_topo::{ClosConfig, TwoTierClos};
use flowtune_workload::{BurstyOnOff, Incast, PermutationShift, Scenario};

fn run_on(
    fabric: &TwoTierClos,
    scenario: &mut dyn Scenario,
    opts: &ScenarioOptions,
) -> ScenarioReport {
    let cfg = FlowtuneConfig::default();
    let mut ticker = FluidPlane::new(AllocatorService::new(fabric, cfg));
    flowtune::run_scenario(&mut ticker, scenario, opts)
}

fn run(scenario: &mut dyn Scenario, opts: &ScenarioOptions) -> ScenarioReport {
    run_on(&fabric(), scenario, opts)
}

#[test]
fn jain_is_at_least_0_95_on_the_permutation_workload_under_ned() {
    // The paper's evaluation shape (§6.2): 10 G hosts under a 40 G
    // fabric. Every permutation flow is bottlenecked by its own host
    // line, so the workload is genuinely symmetric and the converged
    // fair share is the usable line rate for everyone. (On a fabric
    // with 40 G hosts the bottleneck moves to the rack uplinks, where
    // deterministic ECMP collisions make some shifts honestly unequal —
    // that asymmetry is the topology's, not the allocator's.)
    let mut cfg = ClosConfig::multicore(2, 2, 4);
    cfg.host_link_bps = 10_000_000_000;
    let fabric = TwoTierClos::build(cfg);
    // 400-tick rotations: far past convergence (NED settles in a few
    // ticks on 16 symmetric flows), so the per-flow mean throughput is
    // dominated by the converged allocation. 16 MiB per flow outlasts
    // the ~5 MB a 9.9 Gbit/s share drains per 400-tick rotation, so
    // every rotation cuts a still-live permutation.
    let mut scenario = PermutationShift::new(16, 1 << 24, 400, 4, 0);
    let report = run_on(&fabric, &mut scenario, &ScenarioOptions::default());
    assert!(!report.truncated);
    assert_eq!(report.phases.len(), 4);
    for p in &report.phases {
        let jain = p.jain.expect("every permutation phase moves bytes");
        assert!(
            jain >= 0.95,
            "{}: Jain {jain} under the 0.95 fairness floor",
            p.label
        );
    }
    // The floor is not vacuous: each rotation cut a full permutation.
    assert!(report.phases[..3].iter().all(|p| p.cut_flows == 16));
}

#[test]
fn incast_p99_fct_is_bounded_by_the_serial_oracle() {
    // 8:1 incast of 500 kB each onto server 15. The serial oracle is all
    // bytes back to back down the receiver's one access line at the
    // usable line rate (40 G × 0.99 headroom): no schedule can beat it,
    // and a work-conserving fair share finishes the last flow at
    // essentially the same instant. 1.3× absorbs tick quantization and
    // the convergence transient.
    let sources = vec![0u32, 1, 2, 3, 8, 9, 10, 11];
    let bytes = 500_000u64;
    let mut scenario = Incast::new(sources.clone(), 15, bytes);
    let report = run(&mut scenario, &ScenarioOptions::default());
    assert!(!report.truncated);

    let oracle_ps = (sources.len() as u64 * bytes * 8) as f64 / 39.6 * 1e3; // bits / Gbit/s → ps
    let p99 = report.p99_fct_ps().expect("flows completed") as f64;
    assert!(
        p99 <= 1.3 * oracle_ps,
        "p99 FCT {p99:.3e} ps vs serial oracle {oracle_ps:.3e} ps"
    );
    // And the oracle really is a lower bound (sanity on the model): the
    // last flow cannot finish before all bytes have crossed the line.
    let completion = report.max_phase_completion_ps().unwrap() as f64;
    assert!(
        completion >= 0.95 * oracle_ps,
        "completion {completion:.3e} ps beat the serial oracle {oracle_ps:.3e} ps"
    );
    // Fan-in shares are symmetric: fairness across the 8 sources.
    assert!(report.min_jain().unwrap() > 0.95);
}

#[test]
fn no_link_is_over_subscribed_mid_burst() {
    // Three on/off cycles, flows sized to outlast the 60-tick on-window
    // (so the fabric is saturated when the cut hits). After the grace
    // window of each admission edge, the normalized rates must stay
    // feasible on every link: that is F-NORM's guarantee, and the one
    // the paper makes — the *raw* NED allocation legitimately exceeds
    // capacity while prices converge (Fig. 12 measures exactly that
    // over-allocation), which is why the normalization layer exists.
    let mut scenario = BurstyOnOff::new(16, 1 << 26, 60, 40, 3);
    let report = run(&mut scenario, &ScenarioOptions::default());
    assert!(!report.truncated);
    assert_eq!(report.phases.len(), 6, "three bursts, three cuts");
    assert!(
        report.peak_oversubscription <= 1e-6,
        "a link was over-subscribed mid-burst: {:+e}",
        report.peak_oversubscription
    );
    // The raw-allocation telemetry saw the loaded fabric: mid-burst the
    // un-normalized NED rates really did exceed some link's capacity —
    // the over-subscription floor above is non-vacuous precisely
    // because there was raw excess for F-NORM to squash.
    assert!(
        report.peak_overallocation_gbps > 0.0,
        "the sampler never saw raw over-allocation — the burst did not load the fabric"
    );
    // Non-vacuous: every burst was cut while still moving bytes, and the
    // sampler really saw loaded links (the on-window outlives the grace).
    for (i, p) in report.phases.iter().enumerate() {
        if i % 2 == 0 {
            assert_eq!(p.flows, 8, "burst {i} admits the half-fabric fan");
            assert_eq!(p.cut_flows, 8, "burst {i} must outlast its window");
        }
    }
}
