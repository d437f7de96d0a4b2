//! Scenario runner: drives a phase-structured workload against any
//! [`TickDriver`] and reports collective-level metrics.
//!
//! The workload side ([`flowtune_workload::Scenario`]) is pure data — a
//! stream of [`Phase`]s with barrier or timed admission. This module owns
//! what is a scenario's own — phases, barriers, cuts, per-phase reports
//! and grace-windowed feasibility sampling — over a [`FluidPlane`], which
//! mints the tokens, feeds the `FlowletStart`/`FlowletEnd` notifications
//! and drains each flow (the one fluid model, `crate::fluid`). A barrier
//! phase is admitted only when no earlier flow remains active; a cut
//! phase force-ends survivors first, so the allocator sees the same
//! abrupt arrival/departure edges a real collective or burst produces.
//!
//! Per phase the runner reports completion time, p99 flow-completion
//! time, and the Jain fairness index over per-flow mean throughput;
//! per run it reports peak over-allocation (raw engine rates vs link
//! capacity) and peak over-subscription (normalized, endpoint-visible
//! rates vs link capacity — the feasibility F-NORM guarantees).

use flowtune_proto::{Message, Token};
use flowtune_topo::{FlowId, Path};
use flowtune_workload::{Admission, Phase, Scenario};

use crate::driver::TickDriver;
use crate::fluid::{add_path_load, overallocation_gbps, worst_oversubscription, Ended, FluidPlane};
use crate::service::ServiceStats;
use crate::TICK_INTERVAL_PS;

/// Ticks after an admission before feasibility peaks are sampled, giving
/// the allocator its reaction window (a tick to see the arrivals, a tick
/// to converge the prices).
const GRACE_TICKS: u64 = 3;

/// Knobs for a scenario run.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioOptions {
    /// Hard tick budget; the run reports `truncated = true` if the
    /// scenario has not drained by then.
    pub max_ticks: u64,
    /// Proportional-fairness weight stamped on every flow (256 = 1.0).
    pub weight_q8: u16,
}

impl Default for ScenarioOptions {
    fn default() -> Self {
        ScenarioOptions {
            max_ticks: 200_000,
            weight_q8: 256,
        }
    }
}

/// Jain's fairness index `(Σx)² / (n·Σx²)` over a set of throughputs:
/// 1.0 when all shares are equal, `1/n` when one flow starves the rest.
/// Empty and all-zero inputs report 1.0 (nothing is being divided).
pub fn jain_index(xs: &[f64]) -> f64 {
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (xs.len() as f64 * sum_sq)
}

/// Per-phase outcome.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// The phase's label, from the generator.
    pub label: String,
    /// Tick at which the phase's flows were admitted.
    pub admitted_tick: u64,
    /// Admission → last flow done, ps. `None` if the run was truncated
    /// (or the phase's survivors were cut) before natural completion.
    pub completion_ps: Option<u64>,
    /// Flows the phase admitted.
    pub flows: usize,
    /// Flows force-ended by a later cut phase.
    pub cut_flows: usize,
    /// p99 flow-completion time over naturally completed flows, ps.
    pub p99_fct_ps: Option<u64>,
    /// Jain index over per-flow mean throughput (completed and cut).
    pub jain: Option<f64>,
}

/// Whole-run outcome.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario family name.
    pub scenario: String,
    /// Driver engine name.
    pub engine: String,
    /// Per-phase outcomes, in admission order.
    pub phases: Vec<PhaseReport>,
    /// Ticks the run consumed.
    pub ticks: u64,
    /// Wall of the run on the tick clock, ps.
    pub duration_ps: u64,
    /// Peak Σ max(0, load − capacity) over links, Gbit/s, sampled from
    /// the engine's **raw** allocation outside grace windows.
    pub peak_overallocation_gbps: f64,
    /// Peak per-link (load/capacity − 1) of the **normalized**,
    /// endpoint-visible rates, sampled outside grace windows. 0 means no
    /// link was ever over-subscribed.
    pub peak_oversubscription: f64,
    /// The tick budget ran out before the scenario drained.
    pub truncated: bool,
    /// Driver counters at the end of the run.
    pub stats: ServiceStats,
}

impl ScenarioReport {
    /// p99 FCT across every naturally completed flow of every phase, ps.
    pub fn p99_fct_ps(&self) -> Option<u64> {
        self.phases.iter().filter_map(|p| p.p99_fct_ps).max()
    }

    /// The worst per-phase Jain index.
    pub fn min_jain(&self) -> Option<f64> {
        self.phases
            .iter()
            .filter_map(|p| p.jain)
            .min_by(|a, b| a.total_cmp(b))
    }

    /// Completion time of the slowest phase, ps.
    pub fn max_phase_completion_ps(&self) -> Option<u64> {
        self.phases.iter().filter_map(|p| p.completion_ps).max()
    }
}

/// What the runner keeps per draining flow, beside the plane's own row.
#[derive(Debug)]
struct ActiveFlow {
    token: Token,
    phase: usize,
    admitted_tick: u64,
    path: Path,
}

#[derive(Debug)]
struct PhaseState {
    label: String,
    admitted_tick: u64,
    flows: usize,
    outstanding: usize,
    cut: usize,
    completion_ps: Option<u64>,
    fct_ps: Vec<f64>,
    throughput_gbps: Vec<f64>,
}

impl PhaseState {
    /// Books a flow that left after `lifetime_ps` having moved
    /// `delivered_bytes` (completed or cut).
    fn credit(&mut self, delivered_bytes: f64, lifetime_ps: u64) {
        self.outstanding -= 1;
        if lifetime_ps > 0 {
            // bytes · 8 bits / (ps · 1e-12 s) / 1e9 = bytes · 8e3 / ps Gbit/s.
            self.throughput_gbps
                .push(delivered_bytes * 8.0 / (lifetime_ps as f64 * 1e-3));
        }
    }
}

/// Runner state: the draining flows by token, a reusable load
/// accumulator, per-phase books and the feasibility peaks.
#[derive(Debug)]
struct RunnerState {
    weight_q8: u16,
    /// Sorted by token, as the plane's table is.
    active: Vec<ActiveFlow>,
    /// Per-link normalized load accumulator, reused every sampled tick.
    loads: Vec<f64>,
    phases: Vec<PhaseState>,
    last_admit_tick: u64,
    peak_overalloc: f64,
    peak_oversub: f64,
}

impl RunnerState {
    fn new<D: TickDriver>(plane: &FluidPlane<D>, opts: &ScenarioOptions) -> Self {
        RunnerState {
            weight_q8: opts.weight_q8,
            active: Vec::new(),
            loads: vec![0.0; plane.driver().fabric().topology().link_count()],
            phases: Vec::new(),
            last_admit_tick: 0,
            peak_overalloc: 0.0,
            peak_oversub: 0.0,
        }
    }

    /// Takes the runner's row of a flow the plane retired.
    fn retire(&mut self, ended: &Ended) -> ActiveFlow {
        let at = self
            .active
            .binary_search_by_key(&ended.key, |f| f.token)
            .expect("the plane retires only flows the runner admitted");
        self.active.remove(at)
    }

    /// Admits one phase's flows at `tick`; a cut phase (`ends_previous`)
    /// force-ends every active flow first, crediting each with the bytes
    /// it actually moved.
    fn admit<D: TickDriver>(
        &mut self,
        plane: &mut FluidPlane<D>,
        tick: u64,
        phase: Phase,
        trace: &mut dyn FnMut(u64, &Message),
    ) {
        if phase.ends_previous {
            // Both tables are sorted by token and hold the same flows.
            for (ended, flow) in plane.cut_all().iter().zip(self.active.drain(..)) {
                assert_eq!(ended.key, flow.token, "plane and runner disagree");
                trace(tick, &ended.notification());
                let phase = &mut self.phases[flow.phase];
                phase.cut += 1;
                let lifetime_ps = (tick - flow.admitted_tick) * TICK_INTERVAL_PS;
                phase.credit(ended.delivered_bytes, lifetime_ps);
            }
        }
        let phase_idx = self.phases.len();
        self.phases.push(PhaseState {
            label: phase.label,
            admitted_tick: tick,
            flows: phase.flows.len(),
            outstanding: phase.flows.len(),
            cut: 0,
            completion_ps: if phase.flows.is_empty() {
                Some(0)
            } else {
                None
            },
            fct_ps: Vec::new(),
            throughput_gbps: Vec::new(),
        });
        self.last_admit_tick = tick;
        for f in &phase.flows {
            let (src, dst) = (f.src as u16, f.dst as u16);
            let (token, msg) = plane.start(src, dst, f.bytes, self.weight_q8, None);
            trace(tick, &msg);
            let fabric = plane.driver().fabric();
            let path = fabric.path(src as usize, dst as usize, FlowId(token.get() as u64));
            let at = self.active.partition_point(|a| a.token < token);
            self.active.insert(
                at,
                ActiveFlow {
                    token,
                    phase: phase_idx,
                    admitted_tick: tick,
                    path,
                },
            );
        }
    }

    /// Tick `tick`: the allocator ticks, the feasibility peaks are sampled
    /// (outside grace windows) — the raw allocation right after the tick,
    /// the normalized rates as the flows drain at them — and the flows
    /// the plane retired are booked; their `FlowletEnd`s land before tick
    /// `tick + 1` runs, hence the trace stamp.
    // flowtune-lint: hot
    fn step<D: TickDriver>(
        &mut self,
        plane: &mut FluidPlane<D>,
        tick: u64,
        trace: &mut dyn FnMut(u64, &Message),
    ) {
        plane.tick();
        let sample = !self.active.is_empty() && tick >= self.last_admit_tick + GRACE_TICKS;
        if sample {
            self.peak_overalloc = self.peak_overalloc.max(overallocation_gbps(plane.driver()));
            self.loads.fill(0.0);
        }
        // The plane drains in ascending token order — the order of `active`.
        let (mut rows, loads) = (self.active.iter(), &mut self.loads);
        let ended = plane.drain(|token, rate| {
            if sample {
                let flow = rows.next().filter(|f| f.token == token);
                let flow = flow.expect("the plane drains exactly the flows the runner admitted");
                add_path_load(loads, &flow.path, rate);
            }
        });
        for ended in ended {
            trace(tick + 1, &ended.notification());
            let flow = self.retire(ended);
            let fct_ps = (tick + 1 - flow.admitted_tick) * TICK_INTERVAL_PS;
            let phase = &mut self.phases[flow.phase];
            phase.fct_ps.push(fct_ps as f64);
            phase.credit(ended.delivered_bytes, fct_ps);
            if phase.outstanding == 0 && phase.completion_ps.is_none() {
                phase.completion_ps = Some((tick + 1 - phase.admitted_tick) * TICK_INTERVAL_PS);
            }
        }
        if sample {
            let over = worst_oversubscription(plane.driver().fabric(), &self.loads);
            self.peak_oversub = self.peak_oversub.max(over);
        }
    }

    fn into_report(
        self,
        scenario: &str,
        engine: &str,
        ticks: u64,
        truncated: bool,
        stats: ServiceStats,
    ) -> ScenarioReport {
        let phases = self
            .phases
            .into_iter()
            .map(|mut p| PhaseReport {
                label: p.label,
                admitted_tick: p.admitted_tick,
                completion_ps: p.completion_ps,
                flows: p.flows,
                cut_flows: p.cut,
                p99_fct_ps: percentile(&mut p.fct_ps, 0.99).map(|f| f as u64),
                jain: if p.throughput_gbps.is_empty() {
                    None
                } else {
                    Some(jain_index(&p.throughput_gbps))
                },
            })
            .collect();
        ScenarioReport {
            scenario: scenario.to_string(),
            engine: engine.to_string(),
            phases,
            ticks,
            duration_ps: ticks * TICK_INTERVAL_PS,
            peak_overallocation_gbps: self.peak_overalloc,
            peak_oversubscription: self.peak_oversub,
            truncated,
            stats,
        }
    }
}

/// Nearest-rank percentile; sorts `xs` in place.
fn percentile(xs: &mut [f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((p * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    Some(xs[rank - 1])
}

/// Runs `scenario` to completion (or the tick budget) against the driver
/// under `plane`, reporting per-phase and whole-run metrics.
///
/// The plane steps once per simulated interval; timestamps in the report
/// are relative to the runner's first tick.
pub fn run_scenario<D: TickDriver>(
    plane: &mut FluidPlane<D>,
    scenario: &mut dyn Scenario,
    opts: &ScenarioOptions,
) -> ScenarioReport {
    run_scenario_traced(plane, scenario, opts, &mut |_, _| {})
}

/// [`run_scenario`], additionally handing every notification the runner
/// feeds into the driver to `trace` as `(tick, message)` — the message
/// lands before that tick runs. This is the hook the differential
/// conformance harness records replay streams with.
pub fn run_scenario_traced<D: TickDriver>(
    plane: &mut FluidPlane<D>,
    scenario: &mut dyn Scenario,
    opts: &ScenarioOptions,
    trace: &mut dyn FnMut(u64, &Message),
) -> ScenarioReport {
    let mut state = RunnerState::new(plane, opts);
    let mut pending = scenario.next_phase();
    let mut truncated = false;
    let mut ticks = 0u64;
    for tick in 0..u64::MAX {
        // Admit every phase due at this tick. A barrier phase is due when
        // nothing is active; an empty phase completes instantly, so a
        // barrier chain can admit several phases in one tick.
        while let Some(phase) = pending.take() {
            let due = match phase.admission {
                Admission::AfterPrevious => state.active.is_empty(),
                Admission::AtTick(k) => tick >= k,
            };
            if !due {
                pending = Some(phase);
                break;
            }
            state.admit(plane, tick, phase, trace);
            pending = scenario.next_phase();
        }
        if pending.is_none() && state.active.is_empty() {
            ticks = tick;
            break;
        }
        if tick >= opts.max_ticks {
            truncated = true;
            ticks = tick;
            break;
        }
        state.step(plane, tick, trace);
    }
    let name = scenario.name();
    let engine = plane.driver().engine_name();
    let stats = plane.driver().stats();
    state.into_report(name, engine, ticks, truncated, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::AllocatorService;
    use crate::FlowtuneConfig;
    use flowtune_topo::{ClosConfig, TwoTierClos};
    use flowtune_workload::ScenarioKind;

    fn ticker(fabric: &TwoTierClos) -> FluidPlane<AllocatorService> {
        let cfg = FlowtuneConfig::default();
        FluidPlane::new(AllocatorService::new(fabric, cfg))
    }

    #[test]
    fn jain_index_is_one_for_equal_shares_and_one_over_n_for_a_hog() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[3.0, 3.0, 3.0, 3.0]), 1.0);
        let hog = jain_index(&[10.0, 0.0, 0.0, 0.0]);
        assert!((hog - 0.25).abs() < 1e-12, "{hog}");
        let mild = jain_index(&[2.0, 1.0]);
        assert!(mild > 0.25 && mild < 1.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut xs = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&mut xs, 0.5), Some(2.0));
        assert_eq!(percentile(&mut xs, 0.99), Some(4.0));
        let mut empty: [f64; 0] = [];
        assert_eq!(percentile(&mut empty, 0.5), None);
    }

    #[test]
    fn a_ring_allreduce_runs_its_barrier_chain_to_completion() {
        let fabric = TwoTierClos::build(ClosConfig::multicore(2, 2, 4));
        let mut tl = ticker(&fabric);
        let mut scenario = ScenarioKind::AllreduceRing.build(16, 50_000_000);
        let report = run_scenario(&mut tl, scenario.as_mut(), &ScenarioOptions::default());
        assert!(!report.truncated, "budget blown: {} ticks", report.ticks);
        assert_eq!(report.phases.len(), 30, "2(n−1) phases for n = 16");
        for p in &report.phases {
            assert_eq!(p.flows, 16);
            assert_eq!(p.cut_flows, 0);
            assert!(p.completion_ps.is_some(), "{} incomplete", p.label);
            assert!(p.p99_fct_ps.unwrap() > 0);
        }
        // Phases are sequential: each admits only after the previous ends.
        for w in report.phases.windows(2) {
            assert!(w[1].admitted_tick > w[0].admitted_tick);
        }
        // A ring permutation is disjoint: everyone gets the full line rate,
        // so fairness across the ring is near-perfect.
        assert!(report.min_jain().unwrap() > 0.99, "{:?}", report.min_jain());
        // And F-NORM keeps the normalized allocation feasible.
        assert!(
            report.peak_oversubscription <= 1e-6,
            "{}",
            report.peak_oversubscription
        );
        assert_eq!(report.stats.starts, 16 * 30);
    }

    #[test]
    fn a_cut_phase_force_ends_the_previous_permutation() {
        let fabric = TwoTierClos::build(ClosConfig::multicore(2, 2, 4));
        let mut tl = ticker(&fabric);
        // Flows too big to drain inside one 50-tick rotation window, so
        // every phase but the last is cut by its successor.
        let mut scenario = flowtune_workload::PermutationShift::new(16, 1 << 24, 50, 3, 0);
        let report = run_scenario(&mut tl, &mut scenario, &ScenarioOptions::default());
        assert!(!report.truncated);
        assert_eq!(report.phases.len(), 3);
        assert_eq!(report.phases[0].cut_flows, 16);
        assert_eq!(report.phases[1].cut_flows, 16);
        assert_eq!(report.phases[2].cut_flows, 0, "last phase is never cut");
        // Cut phases never complete naturally but still report fairness.
        assert!(report.phases[0].completion_ps.is_none());
        assert!(report.phases[0].jain.unwrap() > 0.9);
        assert!(report.truncated || report.stats.ends == report.stats.starts);
    }

    #[test]
    fn the_tick_budget_truncates_an_undrainable_scenario() {
        let fabric = TwoTierClos::build(ClosConfig::multicore(2, 2, 4));
        let mut tl = ticker(&fabric);
        let mut scenario = flowtune_workload::Incast::new(vec![0, 1, 2, 3], 15, 1 << 40);
        let opts = ScenarioOptions {
            max_ticks: 50,
            ..Default::default()
        };
        let report = run_scenario(&mut tl, &mut scenario, &opts);
        assert!(report.truncated);
        assert_eq!(report.ticks, 50);
        assert!(report.phases[0].completion_ps.is_none());
    }

    #[test]
    fn the_trace_replays_into_a_twin_driver_bit_for_bit() {
        let fabric = TwoTierClos::build(ClosConfig::multicore(2, 2, 4));
        let mut tl = ticker(&fabric);
        let mut scenario = ScenarioKind::AllToAll.build(16, 100_000);
        let mut rounds: Vec<Vec<Message>> = Vec::new();
        let report = run_scenario_traced(
            &mut tl,
            scenario.as_mut(),
            &ScenarioOptions::default(),
            &mut |tick, msg| {
                let t = tick as usize;
                if rounds.len() <= t {
                    rounds.resize_with(t + 1, Vec::new);
                }
                rounds[t].push(*msg);
            },
        );
        assert!(!report.truncated);
        let mut twin = AllocatorService::new(&fabric, FlowtuneConfig::default());
        for round in &rounds {
            for msg in round {
                twin.on_message(*msg).unwrap();
            }
            twin.tick();
        }
        assert_eq!(twin.stats().starts, report.stats.starts);
        assert_eq!(twin.stats().ends, report.stats.ends);
    }
}
