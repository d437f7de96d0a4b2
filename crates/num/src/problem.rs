//! NUM problem instances.
//!
//! The optimizer "works in an online setting: when the set of flows
//! changes, the optimizer does not start afresh, but rather updates the
//! previous prices with the new flow configuration" (§4). Prices are per
//! link, so a [`SolverState`](crate::SolverState) carries them from one
//! instance to the next one built over the same links: a changed flow set
//! is a new [`NumProblem`], warm-started from the old prices.

use flowtune_topo::LinkId;

use crate::utility::Utility;

/// Index of a flow within a [`NumProblem`]: the order it was added in.
pub type FlowIdx = usize;

#[derive(Debug, Clone)]
pub(crate) struct FlowEntry {
    pub links: Vec<LinkId>,
    pub utility: Utility,
    /// Bottleneck capacity: `min_{ℓ∈L(s)} c_ℓ`. Demands are capped here via
    /// the price floor (see [`Utility::price_floor`]).
    pub x_max: f64,
}

/// A NUM instance: link capacities plus a set of flows, each with a path
/// (set of links) and a utility function.
#[derive(Debug, Clone)]
pub struct NumProblem {
    capacities: Vec<f64>,
    flows: Vec<FlowEntry>,
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
        }
    }

    /// Adds a flow over `links` with the given utility; returns its index.
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
        self.flows.push(FlowEntry {
            links,
            utility,
            x_max,
        });
        self.flows.len() - 1
    }

    /// Number of flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.capacities.len()
    }

    /// Link capacities, indexed by [`LinkId`].
    pub fn capacities(&self) -> &[f64] {
        &self.capacities
    }

    /// Iterates over `(index, links, utility, x_max)` of the flows, in
    /// index order.
    pub fn iter_flows(&self) -> impl Iterator<Item = (FlowIdx, &[LinkId], Utility, f64)> + '_ {
        self.flows
            .iter()
            .enumerate()
            .map(|(i, f)| (i, f.links.as_slice(), f.utility, f.x_max))
    }

    /// Per-link load (sum of flow rates), given per-flow `rates`.
    ///
    /// # Panics
    /// Panics if `rates` is shorter than [`NumProblem::flow_count`].
    pub fn link_loads(&self, rates: &[f64]) -> Vec<f64> {
        let mut loads = vec![0.0; self.capacities.len()];
        for (i, links, ..) in self.iter_flows() {
            for l in links {
                loads[l.index()] += rates[i];
            }
        }
        loads
    }

    /// The aggregate objective `Σ_s U_s(x_s)` over the flows. Rates of
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
    fn flows_are_indexed_in_the_order_they_were_added() {
        let mut p = NumProblem::new(vec![10.0, 10.0]);
        let a = p.add_flow(vec![l(0)], Utility::log(1.0));
        let b = p.add_flow(vec![l(0), l(1)], Utility::log(2.0));
        assert_eq!((a, b, p.flow_count()), (0, 1, 2));
        let flows: Vec<_> = p
            .iter_flows()
            .map(|(i, links, u, _)| (i, links, u))
            .collect();
        assert_eq!(
            flows,
            [
                (a, &[l(0)][..], Utility::log(1.0)),
                (b, &[l(0), l(1)][..], Utility::log(2.0))
            ]
        );
    }

    #[test]
    fn x_max_is_bottleneck() {
        let mut p = NumProblem::new(vec![10.0, 4.0, 7.0]);
        let f = p.add_flow(vec![l(0), l(1), l(2)], Utility::log(1.0));
        let (i, .., x_max) = p.iter_flows().next().unwrap();
        assert_eq!((i, x_max), (f, 4.0));
    }

    #[test]
    fn link_loads_sum_the_flows_on_each_link() {
        let mut p = NumProblem::new(vec![10.0, 5.0]);
        p.add_flow(vec![l(0)], Utility::log(1.0));
        p.add_flow(vec![l(0), l(1)], Utility::log(1.0));
        assert_eq!(p.link_loads(&[8.0, 4.0]), vec![12.0, 4.0]);
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
