//! Dynamic NUM problem instances.
//!
//! The optimizer "works in an online setting: when the set of flows
//! changes, the optimizer does not start afresh, but rather updates the
//! previous prices with the new flow configuration" (§4). [`NumProblem`]
//! therefore supports O(path length) flow insertion and O(1) removal with
//! stable indices, so solver state (prices, per-flow rates) survives churn.

use flowtune_topo::LinkId;

use crate::utility::Utility;

/// Stable index of a flow within a [`NumProblem`]. Indices are reused
/// after removal (slot semantics), mirroring how an allocator reuses flow
/// table entries.
pub type FlowIdx = usize;

#[derive(Debug, Clone)]
pub(crate) struct FlowEntry {
    pub links: Vec<LinkId>,
    pub utility: Utility,
    /// Bottleneck capacity: `min_{ℓ∈L(s)} c_ℓ`. Demands are capped here via
    /// the price floor (see [`Utility::price_floor`]).
    pub x_max: f64,
}

/// A NUM instance: link capacities plus a dynamic set of flows, each with
/// a path (set of links) and a utility function.
#[derive(Debug, Clone)]
pub struct NumProblem {
    capacities: Vec<f64>,
    flows: Vec<Option<FlowEntry>>,
    free: Vec<FlowIdx>,
    active: usize,
}

impl NumProblem {
    /// Creates an instance over `capacities` (indexed by [`LinkId`]) with
    /// no flows.
    ///
    /// # Panics
    /// Panics if any capacity is not strictly positive and finite (§3
    /// requires "the capacity of each link is strictly positive and
    /// finite").
    pub fn new(capacities: Vec<f64>) -> Self {
        assert!(
            capacities.iter().all(|&c| c > 0.0 && c.is_finite()),
            "capacities must be strictly positive and finite"
        );
        Self {
            capacities,
            flows: Vec::new(),
            free: Vec::new(),
            active: 0,
        }
    }

    /// Adds a flow over `links` with the given utility; returns its stable
    /// index.
    ///
    /// # Panics
    /// Panics if `links` is empty or references an unknown link.
    pub fn add_flow(&mut self, links: Vec<LinkId>, utility: Utility) -> FlowIdx {
        assert!(!links.is_empty(), "a flow must traverse at least one link");
        let x_max = links
            .iter()
            .map(|l| {
                assert!(l.index() < self.capacities.len(), "unknown link {l}");
                self.capacities[l.index()]
            })
            .fold(f64::INFINITY, f64::min);
        let entry = FlowEntry {
            links,
            utility,
            x_max,
        };
        self.active += 1;
        match self.free.pop() {
            Some(idx) => {
                debug_assert!(self.flows[idx].is_none());
                self.flows[idx] = Some(entry);
                idx
            }
            None => {
                self.flows.push(Some(entry));
                self.flows.len() - 1
            }
        }
    }

    /// Removes a flow. Its index may be reused by later insertions.
    ///
    /// # Panics
    /// Panics if the flow does not exist (double removal is a caller bug).
    pub fn remove_flow(&mut self, idx: FlowIdx) {
        assert!(
            self.flows.get(idx).is_some_and(Option::is_some),
            "flow {idx} not active"
        );
        self.flows[idx] = None;
        self.free.push(idx);
        self.active -= 1;
    }

    /// Number of currently active flows.
    pub fn flow_count(&self) -> usize {
        self.active
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.capacities.len()
    }

    /// Upper bound (exclusive) of flow indices ever allocated; iteration
    /// and state vectors are sized to this.
    pub fn flow_slots(&self) -> usize {
        self.flows.len()
    }

    /// Link capacities, indexed by [`LinkId`].
    pub fn capacities(&self) -> &[f64] {
        &self.capacities
    }

    /// Iterates over `(index, links, utility, x_max)` of active flows, in
    /// slot order (deterministic).
    pub fn iter_flows(&self) -> impl Iterator<Item = (FlowIdx, &[LinkId], Utility, f64)> + '_ {
        self.flows.iter().enumerate().filter_map(|(i, f)| {
            f.as_ref()
                .map(|f| (i, f.links.as_slice(), f.utility, f.x_max))
        })
    }

    /// Per-link load (sum of active-flow rates), given per-slot `rates`.
    ///
    /// # Panics
    /// Panics if `rates` is shorter than [`NumProblem::flow_slots`].
    pub fn link_loads(&self, rates: &[f64]) -> Vec<f64> {
        let mut loads = vec![0.0; self.capacities.len()];
        for (i, links, ..) in self.iter_flows() {
            for l in links {
                loads[l.index()] += rates[i];
            }
        }
        loads
    }

    /// Total positive over-allocation `Σ_ℓ max(0, load_ℓ − c_ℓ)` — the
    /// quantity of Figure 12.
    pub fn total_overallocation(&self, rates: &[f64]) -> f64 {
        self.link_loads(rates)
            .iter()
            .zip(&self.capacities)
            .map(|(&load, &c)| (load - c).max(0.0))
            .sum()
    }

    /// The aggregate objective `Σ_s U_s(x_s)` over active flows. Rates of
    /// exactly zero contribute `-inf` for log utilities, as they should.
    pub fn objective(&self, rates: &[f64]) -> f64 {
        self.iter_flows()
            .map(|(i, _, u, _)| u.utility(rates[i]))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u32) -> LinkId {
        LinkId(i)
    }

    #[test]
    fn add_and_remove_reuses_slots() {
        let mut p = NumProblem::new(vec![10.0, 10.0]);
        let a = p.add_flow(vec![l(0)], Utility::log(1.0));
        let b = p.add_flow(vec![l(0), l(1)], Utility::log(1.0));
        assert_eq!((a, b), (0, 1));
        assert_eq!(p.flow_count(), 2);
        p.remove_flow(a);
        assert_eq!(p.flow_count(), 1);
        let c = p.add_flow(vec![l(1)], Utility::log(2.0));
        assert_eq!(c, a, "slot reused");
        assert_eq!(p.flow_slots(), 2);
        let (i, links, utility, _) = p.iter_flows().next().unwrap();
        assert_eq!((i, links, utility), (c, &[l(1)][..], Utility::log(2.0)));
    }

    #[test]
    fn x_max_is_bottleneck() {
        let mut p = NumProblem::new(vec![10.0, 4.0, 7.0]);
        let f = p.add_flow(vec![l(0), l(1), l(2)], Utility::log(1.0));
        let (i, .., x_max) = p.iter_flows().next().unwrap();
        assert_eq!((i, x_max), (f, 4.0));
    }

    #[test]
    fn loads_and_overallocation() {
        let mut p = NumProblem::new(vec![10.0, 5.0]);
        p.add_flow(vec![l(0)], Utility::log(1.0));
        p.add_flow(vec![l(0), l(1)], Utility::log(1.0));
        let rates = vec![8.0, 4.0];
        assert_eq!(p.link_loads(&rates), vec![12.0, 4.0]);
        assert!((p.total_overallocation(&rates) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn removed_flows_do_not_load_links() {
        let mut p = NumProblem::new(vec![10.0]);
        let a = p.add_flow(vec![l(0)], Utility::log(1.0));
        let b = p.add_flow(vec![l(0)], Utility::log(1.0));
        p.remove_flow(a);
        let rates = vec![100.0, 3.0];
        assert_eq!(p.link_loads(&rates), vec![3.0]);
        let live: Vec<_> = p.iter_flows().map(|(i, links, ..)| (i, links)).collect();
        assert_eq!(live, [(b, &[l(0)][..])], "flow {a} left no links");
    }

    #[test]
    fn objective_sums_utilities() {
        let mut p = NumProblem::new(vec![10.0]);
        p.add_flow(vec![l(0)], Utility::log(1.0));
        p.add_flow(vec![l(0)], Utility::log(2.0));
        let rates = vec![std::f64::consts::E, 1.0];
        assert!((p.objective(&rates) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "not active")]
    fn double_remove_panics() {
        let mut p = NumProblem::new(vec![1.0]);
        let a = p.add_flow(vec![l(0)], Utility::log(1.0));
        p.remove_flow(a);
        p.remove_flow(a);
    }

    #[test]
    #[should_panic(expected = "unknown link")]
    fn unknown_link_rejected() {
        let mut p = NumProblem::new(vec![1.0]);
        p.add_flow(vec![l(5)], Utility::log(1.0));
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn non_finite_capacity_rejected() {
        let _ = NumProblem::new(vec![f64::INFINITY]);
    }
}
