//! Flowlet churn driver in the NUM domain, for the §6.6 normalization
//! experiments (Figures 12 and 13): a stream of flowlets arrives and
//! drains (the fluid model of [`flowtune::fluid`], keyed by flow index:
//! finished flows leave the problem in ascending index order, so a seed
//! reproduces its run) while a chosen optimizer iterates online, exactly
//! like the allocator does — warm-starting from the previous prices at
//! every change.

use flowtune::FluidFlows;
use flowtune_num::{solver::update_rates, FlowIdx, NumProblem, Optimizer, SolverState, Utility};
use flowtune_topo::{ClosConfig, FlowId, TwoTierClos};
use flowtune_workload::{FlowletEvent, TraceConfig, TraceGenerator, Workload};

/// One tick's measurements.
#[derive(Debug, Clone, Copy)]
pub struct ChurnTick {
    /// Total over-capacity allocation across links, Gbit/s (Figure 12).
    pub overallocation_gbps: f64,
    /// Active flow count.
    pub active: usize,
}

/// The churn driver.
#[derive(Debug)]
pub struct NumChurn {
    fabric: TwoTierClos,
    /// The live instance the optimizer works on.
    pub problem: NumProblem,
    trace: TraceGenerator,
    pending: FlowletEvent,
    /// The draining flows, by index into `problem`.
    flows: FluidFlows<FlowIdx>,
    tick_ps: u64,
    now_ps: u64,
}

impl NumChurn {
    /// Builds the driver on the paper's evaluation fabric at `load`.
    pub fn new(workload: Workload, load: f64, seed: u64) -> Self {
        let fabric = TwoTierClos::build(ClosConfig::paper_eval());
        let caps_gbps: Vec<f64> = fabric
            .topology()
            .links()
            .iter()
            .map(|l| l.capacity_bps as f64 / 1e9)
            .collect();
        let problem = NumProblem::new(caps_gbps);
        let mut trace = TraceGenerator::new(TraceConfig {
            workload,
            load,
            servers: fabric.config().server_count(),
            server_link_bps: 10_000_000_000,
            seed,
            affinity: None,
        });
        let pending = trace.next_event();
        Self {
            fabric,
            problem,
            trace,
            pending,
            flows: FluidFlows::default(),
            tick_ps: 10_000_000, // 10 µs, like the allocator
            now_ps: 0,
        }
    }

    /// Advances one 10 µs tick: admits arrivals, runs one optimizer
    /// iteration, drains flows at their (raw) allocated rates, removes
    /// finished flows.
    pub fn advance(&mut self, opt: &mut dyn Optimizer, state: &mut SolverState) -> ChurnTick {
        // Arrivals.
        while self.pending.at_ps <= self.now_ps {
            let e = self.pending;
            let path = self
                .fabric
                .path(e.src as usize, e.dst as usize, FlowId(e.id));
            let idx = self
                .problem
                .add_flow(path.links().to_vec(), Utility::log(1.0));
            self.flows.admit(idx, e.bytes as f64);
            self.pending = self.trace.next_event();
        }
        state.fit(&self.problem);

        // One online iteration, then refresh rates from the new prices so
        // the over-allocation measurement reflects what endpoints would be
        // told this tick.
        opt.iterate(&self.problem, state);
        update_rates(&self.problem, &state.prices, &mut state.rates);
        let over = self.problem.total_overallocation(&state.rates);

        // Fluid drain at the raw rates.
        let rates = &state.rates;
        for done in self.flows.drain(self.tick_ps, |idx| rates[idx]) {
            self.problem.remove_flow(done.key);
        }
        self.now_ps += self.tick_ps;
        ChurnTick {
            overallocation_gbps: over,
            active: self.flows.len(),
        }
    }

    /// Current simulated time, ps.
    pub fn now_ps(&self) -> u64 {
        self.now_ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtune_num::Ned;

    #[test]
    fn churn_driver_sustains_flows() {
        let mut churn = NumChurn::new(Workload::Web, 0.5, 3);
        let mut ned = Ned::new(0.4);
        let mut state = SolverState::new(&churn.problem);
        let mut saw_active = false;
        for _ in 0..500 {
            let t = churn.advance(&mut ned, &mut state);
            assert!(t.overallocation_gbps >= 0.0);
            if t.active > 0 {
                saw_active = true;
            }
        }
        assert!(saw_active, "flows should arrive within 5 ms at load 0.5");
    }

    #[test]
    fn a_seed_reproduces_its_run_to_the_bit() {
        // Finished flows free their `NumProblem` slots in the order they
        // leave, the next arrivals reuse them in that order, and slot
        // order is float summation order: two runs of one seed in one
        // process must agree on every tick.
        let run = || {
            let mut churn = NumChurn::new(Workload::Web, 0.75, 42);
            let mut ned = Ned::new(0.4);
            let mut state = SolverState::new(&churn.problem);
            let ticks: Vec<(u64, usize)> = (0..3000)
                .map(|_| {
                    let t = churn.advance(&mut ned, &mut state);
                    (t.overallocation_gbps.to_bits(), t.active)
                })
                .collect();
            let prices: Vec<u64> = state.prices.iter().map(|p| p.to_bits()).collect();
            (ticks, prices)
        };
        let (a, b) = (run(), run());
        assert!(
            a.0.iter().any(|&(_, active)| active > 100),
            "churn too thin"
        );
        assert_eq!(a, b);
    }

    #[test]
    fn ned_overallocation_settles_low_between_events() {
        let mut churn = NumChurn::new(Workload::Cache, 0.3, 9);
        let mut ned = Ned::new(0.4);
        let mut state = SolverState::new(&churn.problem);
        let mut total = 0.0;
        let mut n = 0;
        for i in 0..1000 {
            let t = churn.advance(&mut ned, &mut state);
            if i > 200 {
                total += t.overallocation_gbps;
                n += 1;
            }
        }
        let mean = total / n as f64;
        // 144 servers × 10 G = 1.44 Tbit/s of access capacity; mean
        // over-allocation must be a tiny fraction of it.
        assert!(mean < 100.0, "mean over-allocation {mean} Gbit/s");
    }
}
