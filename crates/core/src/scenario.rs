//! Scenario runner: drives a phase-structured workload against any
//! [`TickDriver`] and reports collective-level metrics.
//!
//! The workload side ([`flowtune_workload::Scenario`]) is pure data — a
//! stream of [`Phase`]s with barrier or timed admission. This module owns
//! the control side: it mints tokens, hashes flows onto ECMP spines,
//! feeds `FlowletStart`/`FlowletEnd` notifications into a [`TickLoop`],
//! and drains each flow with the same fluid model the bench driver uses
//! (`delivered = rate · Δt`, the endpoint pacing its normalized rate).
//! A barrier phase is admitted only when no earlier flow remains active;
//! a cut phase force-ends survivors first, so the allocator sees the same
//! abrupt arrival/departure edges a real collective or burst produces.
//!
//! Per phase the runner reports completion time, p99 flow-completion
//! time, and the Jain fairness index over per-flow mean throughput;
//! per run it reports peak over-allocation (raw engine rates vs link
//! capacity) and peak over-subscription (normalized, endpoint-visible
//! rates vs link capacity — the feasibility F-NORM guarantees).

use flowtune_proto::{Message, Token};
use flowtune_topo::FlowId;
use flowtune_workload::{Admission, Phase, Scenario};

use crate::driver::{TickDriver, TickLoop};
use crate::service::ServiceStats;

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
    /// the engine's **raw** allocation outside grace windows. Zero for
    /// engines that do not price links (Fastpass).
    pub peak_overallocation_gbps: f64,
    /// Peak per-link (load/capacity − 1) of the **normalized**,
    /// endpoint-visible rates, sampled outside grace windows. ≤ 0 means
    /// no link was ever over-subscribed.
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

/// An admitted, not-yet-finished flow.
#[derive(Debug)]
struct ActiveFlow {
    token: u32,
    phase: usize,
    admitted_tick: u64,
    delivered_bytes: f64,
    remaining_bytes: f64,
    /// `links[links_start..links_end]` in the runner's arena.
    links_start: u32,
    links_end: u32,
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

/// Runner state: active flows, reusable per-tick buffers, and peaks.
#[derive(Debug)]
struct RunnerState {
    interval_ps: u64,
    weight_q8: u16,
    next_token: u32,
    active: Vec<ActiveFlow>,
    /// Flat arena of link indices; each flow owns a slice of it.
    link_arena: Vec<u32>,
    /// Per-link capacity, Gbit/s.
    cap_gbps: Vec<f64>,
    /// Per-link normalized load accumulator, reused every sampled tick.
    loads: Vec<f64>,
    /// Indices into `active` that finished this tick, reused.
    ended: Vec<usize>,
    phases: Vec<PhaseState>,
    last_admit_tick: u64,
    peak_overalloc: f64,
    peak_oversub: f64,
}

impl RunnerState {
    fn new<D: TickDriver>(ticker: &TickLoop<D>, opts: &ScenarioOptions) -> Self {
        let topo = ticker.driver().fabric().topology();
        let cap_gbps: Vec<f64> = topo
            .links()
            .iter()
            .map(|l| l.capacity_bps as f64 / 1e9)
            .collect();
        RunnerState {
            interval_ps: ticker.interval_ps(),
            weight_q8: opts.weight_q8,
            next_token: 1,
            active: Vec::new(),
            link_arena: Vec::new(),
            loads: vec![0.0; cap_gbps.len()],
            cap_gbps,
            ended: Vec::with_capacity(64),
            phases: Vec::new(),
            last_admit_tick: 0,
            peak_overalloc: 0.0,
            peak_oversub: f64::NEG_INFINITY,
        }
    }

    /// Force-ends every active flow (a cut phase's `ends_previous`),
    /// crediting each with the bytes it actually moved.
    fn cut_active<D: TickDriver>(
        &mut self,
        ticker: &mut TickLoop<D>,
        tick: u64,
        trace: &mut dyn FnMut(u64, &Message),
    ) {
        for flow in self.active.drain(..) {
            let msg = Message::FlowletEnd {
                token: Token::new(flow.token),
            };
            trace(tick, &msg);
            ticker
                .driver_mut()
                .on_message(msg)
                .expect("cut flow is active");
            let phase = &mut self.phases[flow.phase];
            phase.outstanding -= 1;
            phase.cut += 1;
            let lifetime_ps = (tick - flow.admitted_tick) * self.interval_ps;
            if lifetime_ps > 0 {
                phase
                    .throughput_gbps
                    .push(flow.delivered_bytes * 8.0 / (lifetime_ps as f64 * 1e-3));
            }
        }
    }

    /// Admits one phase's flows at `tick`.
    fn admit<D: TickDriver>(
        &mut self,
        ticker: &mut TickLoop<D>,
        tick: u64,
        phase: Phase,
        trace: &mut dyn FnMut(u64, &Message),
    ) {
        if phase.ends_previous {
            self.cut_active(ticker, tick, trace);
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
            let token = self.next_token;
            self.next_token += 1;
            let links_start = self.link_arena.len() as u32;
            let spine = {
                let fabric = ticker.driver().fabric();
                let spine = fabric.ecmp_spine(f.src as usize, f.dst as usize, FlowId(token as u64));
                let path = fabric.path_via_spine(f.src as usize, f.dst as usize, spine);
                self.link_arena.extend(path.links().iter().map(|l| l.0));
                spine
            };
            let msg = Message::FlowletStart {
                token: Token::new(token),
                src: f.src as u16,
                dst: f.dst as u16,
                size_hint: f.bytes.min(u32::MAX as u64) as u32,
                weight_q8: self.weight_q8,
                spine: spine as u8,
            };
            trace(tick, &msg);
            ticker
                .driver_mut()
                .on_message(msg)
                .expect("scenario flows are valid by construction");
            self.active.push(ActiveFlow {
                token,
                phase: phase_idx,
                admitted_tick: tick,
                delivered_bytes: 0.0,
                remaining_bytes: f.bytes as f64,
                links_start,
                links_end: self.link_arena.len() as u32,
            });
        }
    }

    /// One post-tick pass: drains every active flow by `rate · Δt`,
    /// collects the ones that finished, and (outside grace windows)
    /// samples the feasibility peaks. This is the scenario hot path —
    /// it must not allocate in steady state.
    fn drain_and_sample<D: TickDriver>(&mut self, ticker: &TickLoop<D>, tick: u64) {
        let sample = !self.active.is_empty() && tick >= self.last_admit_tick + GRACE_TICKS;
        if sample {
            self.loads.fill(0.0);
        }
        // Gbit/s → bytes per tick: 1e9 bits/s · (interval/1e12) s / 8.
        let bytes_per_gbit_tick = self.interval_ps as f64 / 8_000.0;
        self.ended.clear();
        let driver = ticker.driver();
        for (i, flow) in self.active.iter_mut().enumerate() {
            let rate = driver.flow_rate_gbps(Token::new(flow.token)).unwrap_or(0.0);
            let delivered = (rate * bytes_per_gbit_tick).min(flow.remaining_bytes);
            flow.delivered_bytes += delivered;
            flow.remaining_bytes -= delivered;
            if flow.remaining_bytes <= 0.0 {
                self.ended.push(i);
            }
            if sample {
                for &l in &self.link_arena[flow.links_start as usize..flow.links_end as usize] {
                    self.loads[l as usize] += rate;
                }
            }
        }
        if sample {
            let mut oversub = f64::NEG_INFINITY;
            for (l, &load) in self.loads.iter().enumerate() {
                let cap = self.cap_gbps[l];
                if cap > 0.0 && load > 0.0 {
                    oversub = oversub.max(load / cap - 1.0);
                }
            }
            if oversub > self.peak_oversub {
                self.peak_oversub = oversub;
            }
            let mut overalloc = 0.0;
            let raw = driver.link_loads();
            for (l, &load) in raw.iter().enumerate() {
                overalloc += (load - self.cap_gbps[l]).max(0.0);
            }
            if overalloc > self.peak_overalloc {
                self.peak_overalloc = overalloc;
            }
        }
    }

    /// Retires the flows [`RunnerState::drain_and_sample`] found done
    /// after tick `tick`, feeding their `FlowletEnd`s (they land before
    /// tick `tick + 1` runs, hence the trace stamp).
    fn finish_ended<D: TickDriver>(
        &mut self,
        ticker: &mut TickLoop<D>,
        tick: u64,
        trace: &mut dyn FnMut(u64, &Message),
    ) {
        for &i in self.ended.iter().rev() {
            let flow = self.active.swap_remove(i);
            let msg = Message::FlowletEnd {
                token: Token::new(flow.token),
            };
            trace(tick + 1, &msg);
            ticker
                .driver_mut()
                .on_message(msg)
                .expect("finished flow is active");
            let fct_ps = (tick + 1 - flow.admitted_tick) * self.interval_ps;
            let phase = &mut self.phases[flow.phase];
            phase.fct_ps.push(fct_ps as f64);
            // bytes · 8 bits / (ps · 1e-12 s) / 1e9 = bytes · 8e3 / ps Gbit/s.
            phase
                .throughput_gbps
                .push(flow.delivered_bytes * 8.0 / (fct_ps as f64 * 1e-3));
            phase.outstanding -= 1;
            if phase.outstanding == 0 && phase.completion_ps.is_none() {
                phase.completion_ps = Some((tick + 1 - phase.admitted_tick) * self.interval_ps);
            }
        }
        self.ended.clear();
    }

    fn into_report(
        self,
        scenario: &str,
        engine: &str,
        ticks: u64,
        truncated: bool,
        stats: ServiceStats,
    ) -> ScenarioReport {
        let interval_ps = self.interval_ps;
        let peak_oversub = if self.peak_oversub == f64::NEG_INFINITY {
            0.0
        } else {
            self.peak_oversub
        };
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
            duration_ps: ticks * interval_ps,
            peak_overallocation_gbps: self.peak_overalloc,
            peak_oversubscription: peak_oversub,
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
/// wrapped in `ticker`, reporting per-phase and whole-run metrics.
///
/// The ticker is polled at exactly its own cadence, one tick per
/// simulated interval; timestamps in the report are relative to the
/// runner's first tick.
pub fn run_scenario<D: TickDriver>(
    ticker: &mut TickLoop<D>,
    scenario: &mut dyn Scenario,
    opts: &ScenarioOptions,
) -> ScenarioReport {
    run_scenario_traced(ticker, scenario, opts, &mut |_, _| {})
}

/// [`run_scenario`], additionally handing every notification the runner
/// feeds into the driver to `trace` as `(tick, message)` — the message
/// lands before that tick runs. This is the hook the differential
/// conformance harness records replay streams with.
pub fn run_scenario_traced<D: TickDriver>(
    ticker: &mut TickLoop<D>,
    scenario: &mut dyn Scenario,
    opts: &ScenarioOptions,
    trace: &mut dyn FnMut(u64, &Message),
) -> ScenarioReport {
    let mut state = RunnerState::new(ticker, opts);
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
            state.admit(ticker, tick, phase, trace);
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
        let owed = ticker.next_tick_ps();
        let _updates = ticker
            .poll(owed)
            .expect("a tick is always owed at its own deadline");
        state.drain_and_sample(ticker, tick);
        state.finish_ended(ticker, tick, trace);
    }
    let name = scenario.name();
    let engine = ticker.driver().engine_name();
    let stats = ticker.driver().stats();
    state.into_report(name, engine, ticks, truncated, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::AllocatorService;
    use crate::FlowtuneConfig;
    use flowtune_topo::{ClosConfig, TwoTierClos};
    use flowtune_workload::ScenarioKind;

    fn ticker(fabric: &TwoTierClos) -> TickLoop<AllocatorService> {
        let cfg = FlowtuneConfig::default();
        TickLoop::new(AllocatorService::new(fabric, cfg), cfg.tick_interval_ps)
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
        let mut twin = ticker(&fabric);
        for round in &rounds {
            for msg in round {
                twin.driver_mut().on_message(*msg).unwrap();
            }
            let owed = twin.next_tick_ps();
            twin.poll(owed).unwrap();
        }
        assert_eq!(twin.driver().stats().starts, report.stats.starts);
        assert_eq!(twin.driver().stats().ends, report.stats.ends);
    }
}
