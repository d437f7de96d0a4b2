//! Gradient-projection engine behind [`RateAllocator`].
//!
//! Wraps `flowtune_num`'s first-order [`Gradient`] optimizer (Low &
//! Lapsley) as a control-plane engine, so Figure 12's optimizer comparison
//! can be run *end-to-end* through the allocator service
//! (`--engine gradient` in the experiment binaries) rather than only on
//! static NUM instances.
//!
//! Unlike the NED engines this one keeps a monolithic [`NumProblem`] —
//! gradient projection has no per-block Hessian structure to exploit, and
//! the point of the baseline is its convergence behavior (§3: γ "must be
//! small", so it needs many more iterations), not its parallelism.

use std::collections::HashMap;

use flowtune_num::{normalize, Gradient, NumProblem, Optimizer, SolverState, Utility};
use flowtune_topo::{FlowId, Path, TwoTierClos};

use crate::flowblock::FlowRate;
use crate::{lend_passers, AllocConfig, RateAllocator, UNREPORTED};

/// The gradient-projection allocation engine (§6.6 baseline).
#[derive(Debug)]
pub struct GradientAllocator {
    problem: NumProblem,
    state: SolverState,
    opt: Gradient,
    f_norm: bool,
    /// flow id → problem slot.
    index: HashMap<FlowId, usize>,
    /// problem slot → flow id (for deterministic `rates_into` output).
    slot_ids: Vec<Option<FlowId>>,
    /// Per-slot F-NORMed rates, refreshed each iteration.
    normalized: Vec<f64>,
    /// Per-slot normalized rate last lent by the drain (§6.4 memory).
    reported: Vec<f64>,
    /// Per-link utilization scratch for the in-place F-NORM.
    ratios: Vec<f64>,
}

impl GradientAllocator {
    /// Builds the engine over `fabric`. Link capacities are expressed in
    /// Gbit/s and scaled by the §6.4 capacity fraction, exactly as the NED
    /// engines do, so the engines are comparable at the service level.
    /// The gradient step size is chosen via [`Gradient::stable_for`] from
    /// the fabric's largest link capacity.
    pub fn new(fabric: &TwoTierClos, cfg: AllocConfig) -> Self {
        let caps: Vec<f64> = fabric
            .topology()
            .links()
            .iter()
            .map(|l| l.capacity_bps as f64 / 1e9 * cfg.capacity_fraction)
            .collect();
        let c_max = caps.iter().fold(1.0f64, |a, &c| a.max(c));
        let problem = NumProblem::new(caps);
        let state = SolverState::new(&problem);
        Self {
            problem,
            state,
            opt: Gradient::stable_for(c_max, 2.0, 1.0),
            f_norm: cfg.f_norm,
            index: HashMap::new(),
            slot_ids: Vec::new(),
            normalized: Vec::new(),
            reported: Vec::new(),
            ratios: Vec::new(),
        }
    }
}

impl RateAllocator for GradientAllocator {
    fn add_flow(
        &mut self,
        id: FlowId,
        _src_server: usize,
        _dst_server: usize,
        weight: f64,
        path: &Path,
    ) {
        assert!(weight > 0.0 && weight.is_finite(), "weight must be > 0");
        assert!(
            !self.index.contains_key(&id),
            "flow {id} already registered"
        );
        let slot = self
            .problem
            .add_flow(path.links().to_vec(), Utility::log(weight));
        self.state.fit(&self.problem);
        if self.slot_ids.len() < self.problem.flow_slots() {
            self.slot_ids.resize(self.problem.flow_slots(), None);
            self.normalized.resize(self.problem.flow_slots(), 0.0);
            self.reported.resize(self.problem.flow_slots(), UNREPORTED);
        }
        // A reused slot may hold the previous occupant's rate; a new flow
        // starts at zero, never reported, until the next iteration.
        self.state.rates[slot] = 0.0;
        self.normalized[slot] = 0.0;
        self.reported[slot] = UNREPORTED;
        self.slot_ids[slot] = Some(id);
        self.index.insert(id, slot);
    }

    fn remove_flow(&mut self, id: FlowId) -> bool {
        let Some(slot) = self.index.remove(&id) else {
            return false;
        };
        self.problem.remove_flow(slot);
        self.slot_ids[slot] = None;
        true
    }

    fn iterate(&mut self) {
        self.opt.iterate(&self.problem, &mut self.state);
        if self.f_norm {
            // In-place variant: one iteration per 10 µs tick must not
            // allocate once the buffers are warm.
            normalize::f_norm_into(
                &self.problem,
                &self.state.rates,
                &mut self.ratios,
                &mut self.normalized,
            );
        } else {
            self.normalized.clone_from(&self.state.rates);
        }
    }

    fn flow_count(&self) -> usize {
        self.index.len()
    }

    // flowtune-lint: hot
    fn rates_into(&self, out: &mut Vec<FlowRate>) {
        out.clear();
        out.extend(self.problem.iter_flows().map(|(slot, ..)| FlowRate {
            id: self.slot_ids[slot].expect("active slot has an id"),
            rate: self.state.rates[slot],
            normalized: self.normalized[slot],
        }));
    }

    // flowtune-lint: hot
    fn drain_changed_rates(&mut self, threshold: f64, sink: &mut dyn FnMut(&[FlowId], &[f64])) {
        // Slots are sparse, so there is no column to run the kernel over.
        let slots = self.slot_ids.iter().zip(&self.normalized);
        let flows = slots
            .zip(&mut self.reported)
            .filter_map(|((id, &rate), reported)| Some(((*id)?, rate, reported)));
        lend_passers(threshold, flows, sink);
    }

    fn flow_rate(&self, id: FlowId) -> Option<FlowRate> {
        let &slot = self.index.get(&id)?;
        Some(FlowRate {
            id,
            rate: self.state.rates[slot],
            normalized: self.normalized[slot],
        })
    }

    /// Loads re-summed from the current rates; no Hessians (first order).
    fn link_state_into(&self, loads: &mut Vec<f64>, hessians: &mut Vec<f64>) {
        self.problem.link_loads_into(&self.state.rates, loads);
        hessians.clear();
    }

    fn set_background_loads(&mut self, loads: &[f64]) {
        self.problem.set_background_loads(loads);
    }

    fn link_prices_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(&self.state.prices);
    }

    fn set_link_prices(&mut self, prices: &[f64]) {
        if prices.is_empty() {
            return;
        }
        assert_eq!(
            prices.len(),
            self.problem.link_count(),
            "price vector must cover every fabric link"
        );
        for (own, &p) in self.state.prices.iter_mut().zip(prices) {
            if !p.is_nan() {
                *own = p;
            }
        }
    }

    fn name(&self) -> &'static str {
        "gradient"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtune_topo::{ClosConfig, TwoTierClos};

    fn fabric() -> TwoTierClos {
        TwoTierClos::build(ClosConfig::multicore(2, 2, 4))
    }

    #[test]
    fn single_flow_converges_to_line_rate() {
        let f = fabric();
        let mut alloc = GradientAllocator::new(&f, AllocConfig::default());
        let p = f.path(3, 13, FlowId(7));
        alloc.add_flow(FlowId(7), 3, 13, 1.0, &p);
        // First-order steps need far more iterations than NED — which is
        // the very point of the §6.6 comparison.
        alloc.run_iterations(20_000);
        let r = alloc.flow_rate(FlowId(7)).unwrap();
        assert!((r.rate - 40.0).abs() < 0.5, "{r:?}");
        assert!(r.normalized <= 40.0 * (1.0 + 1e-9), "{r:?}");
    }

    #[test]
    fn f_norm_keeps_shared_link_feasible_during_transients() {
        let f = fabric();
        let mut alloc = GradientAllocator::new(&f, AllocConfig::default());
        let p1 = f.path(0, 8, FlowId(1));
        let p2 = f.path(0, 12, FlowId(2));
        alloc.add_flow(FlowId(1), 0, 8, 1.0, &p1);
        alloc.add_flow(FlowId(2), 0, 12, 1.0, &p2);
        for _ in 0..500 {
            alloc.iterate();
            let r1 = alloc.flow_rate(FlowId(1)).unwrap().normalized;
            let r2 = alloc.flow_rate(FlowId(2)).unwrap().normalized;
            // The two flows share server 0's 40 G uplink; F-NORM must keep
            // the pair feasible on every iteration, converged or not.
            assert!(r1 + r2 <= 40.0 * (1.0 + 1e-9), "{r1} + {r2}");
        }
    }

    #[test]
    fn churn_reuses_slots_without_stale_rates() {
        let f = fabric();
        let mut alloc = GradientAllocator::new(&f, AllocConfig::default());
        let p1 = f.path(0, 8, FlowId(1));
        alloc.add_flow(FlowId(1), 0, 8, 1.0, &p1);
        alloc.run_iterations(2_000);
        assert!(alloc.flow_rate(FlowId(1)).unwrap().rate > 1.0);
        assert!(alloc.remove_flow(FlowId(1)));
        assert!(!alloc.remove_flow(FlowId(1)));
        let p2 = f.path(1, 9, FlowId(2));
        alloc.add_flow(FlowId(2), 1, 9, 1.0, &p2);
        // The reused slot must not leak flow 1's rate.
        assert_eq!(alloc.flow_rate(FlowId(2)).unwrap().rate, 0.0);
        assert_eq!(alloc.flow_count(), 1);
        alloc.run_iterations(100);
        let r = alloc.rates();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].id, FlowId(2));
        assert!(r[0].rate.is_finite() && r[0].rate > 0.0);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_flow_id_rejected() {
        let f = fabric();
        let mut alloc = GradientAllocator::new(&f, AllocConfig::default());
        let p = f.path(0, 8, FlowId(1));
        alloc.add_flow(FlowId(1), 0, 8, 1.0, &p);
        alloc.add_flow(FlowId(1), 0, 8, 1.0, &p);
    }
}
