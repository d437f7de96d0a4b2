//! The optimality certificate: how far the rates a grid hands out are
//! from the optimum of the problem it solves, read off its own state with
//! no solver.
//!
//! The grid solves, for weighted log utility, maximize `Σ_f w_f log x_f`
//! subject to `Σ x ≤ c_ℓ` on every link (capacity × `capacity_fraction`)
//! and `0 < x_f ≤ x_max`. For *any* prices `p ≥ 0` weak duality bounds
//! the optimum:
//!
//! ```text
//! OPT ≤ D(p) = Σ_ℓ p_ℓ·c_ℓ + Σ_f [ w_f·log x_f(p) − q_f·x_f(p) ]
//! q_f = Σ_{ℓ ∈ path(f)} p_ℓ,   x_f(p) = w_f / max(q_f, w_f / x_max)
//! ```
//!
//! `x_f(p)` is what the rate pass computes at the grid's current prices.
//! F-NORM's rates `x̂` are feasible on an unsharded plane, so `U(x̂) ≤
//! OPT` and `D(p) − U(x̂) ≥ 0` bounds how far they are from optimal. The
//! primal side is a bound only where `x̂` is feasible, so the certificate
//! carries the peak normalized utilization beside it, and the peak *held*
//! utilization: the rates last reported (`FlowBlock::reported`), within
//! one `Rate16` step of what the endpoints hold.
//!
//! **Over shards.** Shard `s` prices its own flows with its own duals
//! `p^s`. With `P_ℓ = max_s p^s_ℓ`, any globally feasible `x` has
//! `Σ_s p^s_ℓ·load^s_ℓ ≤ P_ℓ·c_ℓ`, so
//! `OPT ≤ Σ_ℓ P_ℓ·c_ℓ + Σ_s Σ_{f ∈ s} [w_f·log x_f(p^s) − q^s_f·x_f(p^s)]`
//! — `D(p)` itself when the shards agree on every dual. A plane's
//! certificate therefore sums the shards' flow terms and per-link loads
//! and takes each link's largest dual ([`Certificate::over`]); one grid
//! is the plane of one shard.

use crate::flowblock::FlowBlock;
use crate::reduce::{position, DIRS};
use crate::serial::{views_of, SerialAllocator};

/// A plane's duality gap and feasibility, as of its last iteration (see
/// the module docs). Read it after a tick: a flow added since has no
/// rate yet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Certificate {
    /// `D(p)`, an upper bound on the optimal utility.
    pub dual: f64,
    /// `U(x̂)`, the utility of the normalized rates: a lower bound on the
    /// optimum while `peak_util ≤ 1`.
    pub primal: f64,
    /// The largest link load of normalized rates over the capacity the
    /// grid allocates (× `capacity_fraction`): at most 1 where F-NORM's
    /// rates are feasible.
    pub peak_util: f64,
    /// The largest link load of the rates last reported — within one
    /// `Rate16` step of what the endpoints hold; a flow never reported
    /// holds nothing — over the link's *whole* capacity: the §6.4
    /// headroom keeps it at most 1 while `peak_util` is.
    pub peak_held: f64,
}

impl Certificate {
    /// `dual − primal`: how much utility the normalized rates leave on
    /// the table at most.
    pub fn gap(&self) -> f64 {
        self.dual - self.primal
    }

    /// The certificate of the plane whose shards are `grids`, all over
    /// one fabric (see the module docs). One pass over each grid's flows
    /// and links; its per-link scratch is allocated here, so a grid holds
    /// nothing for it.
    ///
    /// # Panics
    /// Panics if `grids` is empty or the grids' link slots differ.
    pub fn over<'a>(grids: impl IntoIterator<Item = &'a SerialAllocator>) -> Certificate {
        let mut grids = grids.into_iter();
        let first = grids.next().expect("a certificate needs a grid");
        let mut sums = Sums {
            flows: 0.0,
            primal: 0.0,
            slots: vec![[0.0; 3]; first.link_slots().len()],
        };
        first.add_to(&mut sums);
        for grid in grids {
            assert_eq!(
                grid.link_slots(),
                first.link_slots(),
                "a certificate sums grids over one fabric"
            );
            grid.add_to(&mut sums);
        }
        first.close(&sums)
    }
}

/// What [`Certificate::over`] gathers from each grid: the flow terms of
/// `D`, the primal, and per slot `[normalized load, held load, largest
/// dual]`.
struct Sums {
    flows: f64,
    primal: f64,
    slots: Vec<[f64; 3]>,
}

impl SerialAllocator {
    /// This grid's [`Certificate`]: [`Certificate::over`] the one grid.
    pub fn certificate(&self) -> Certificate {
        Certificate::over([self])
    }

    /// Adds this grid's flow terms and per-slot loads to `sums` and
    /// raises each slot's dual to this grid's where it is larger. The
    /// flow terms and the primal are summed into this grid's own partials
    /// first and then added, so a plane's primal is exactly the sum of
    /// its shards' own certificates' primals.
    // flowtune-lint: float-kernel
    fn add_to(&self, sums: &mut Sums) {
        let b = self.layout.blocks();
        let lpl = self.layout.links_per_lb();
        let (mut terms, mut primal) = (0.0, 0.0);
        for (w, worker) in self.workers.iter().enumerate() {
            let prices = views_of(&self.views, w, b).map(|v| &v.prices[..]);
            let first = DIRS.map(|d| self.layout.first_slot(d, position(d, w, b).0));
            let flows = &worker.flows;
            for slot in 0..flows.len() {
                let (up, down) = flows.path(slot);
                let path = [up, down];
                let mut q = 0.0;
                for d in DIRS {
                    for &o in path[d] {
                        q += prices[d][usize::from(o)];
                    }
                }
                let weight = flows.weight[slot];
                let x = weight / q.max(flows.floor[slot]);
                terms += weight * x.ln() - q * x;
                primal += weight * flows.normalized[slot].ln();
                let held = held(flows, slot);
                for d in DIRS {
                    for &o in path[d] {
                        let cell = &mut sums.slots[first[d] + usize::from(o)];
                        cell[0] += flows.normalized[slot];
                        cell[1] += held;
                    }
                }
            }
        }
        sums.flows += terms;
        sums.primal += primal;
        for d in DIRS {
            for (blk, view) in self.views[d].iter().enumerate() {
                let first = self.layout.first_slot(d, blk);
                for (cell, &p) in sums.slots[first..first + lpl].iter_mut().zip(&view.prices) {
                    cell[2] = cell[2].max(p);
                }
            }
        }
    }

    /// The certificate `sums` make on this grid's fabric: the link term
    /// of `D` and the peaks, against its capacities.
    // flowtune-lint: float-kernel
    fn close(&self, sums: &Sums) -> Certificate {
        let (lpl, fraction) = (self.layout.links_per_lb(), self.cfg.capacity_fraction);
        let mut cert = Certificate {
            dual: sums.flows,
            primal: sums.primal,
            peak_util: 0.0,
            peak_held: 0.0,
        };
        for d in DIRS {
            for blk in 0..self.layout.blocks() {
                let first = self.layout.first_slot(d, blk);
                let cells = &sums.slots[first..first + lpl];
                for (&[util, held, p], &c) in cells.iter().zip(self.layout.capacity(d, blk)) {
                    cert.dual += p * c;
                    cert.peak_util = cert.peak_util.max(util / c);
                    cert.peak_held = cert.peak_held.max(held / c * fraction);
                }
            }
        }
        cert
    }
}

/// What the endpoint holds for the flow in `slot`: the rate last
/// reported, nothing before the first report.
fn held(flows: &FlowBlock, slot: usize) -> f64 {
    let reported = flows.reported[slot];
    if reported.is_nan() {
        0.0
    } else {
        reported
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::global;
    use crate::reduce::{DOWN, UP};
    use crate::AllocConfig;
    use flowtune_num::{dual_bound, NumProblem, Utility};
    use flowtune_topo::{ClosConfig, FlowId, TwoTierClos};

    /// The grid's flows as a `NumProblem` over its fabric's global links
    /// (a control link gets capacity 1 and, in the export, price 0), with
    /// each flow's normalized rate and last reported rate, in the same
    /// order.
    fn problem(grid: &SerialAllocator) -> (NumProblem, Vec<f64>, Vec<f64>) {
        let (b, layout) = (grid.layout.blocks(), &grid.layout);
        let mut capacities = vec![1.0; layout.total_links()];
        for d in DIRS {
            for blk in 0..b {
                for (link, &c) in layout.links(d, blk).iter().zip(layout.capacity(d, blk)) {
                    capacities[link.index()] = c;
                }
            }
        }
        let mut problem = NumProblem::new(capacities);
        let (mut normalized, mut reported) = (Vec::new(), Vec::new());
        for (w, worker) in grid.workers.iter().enumerate() {
            let blocks = [UP, DOWN].map(|d| position(d, w, b).0);
            for slot in 0..worker.flows.len() {
                let (up, down) = worker.flows.path(slot);
                let links = up
                    .iter()
                    .map(|&o| layout.links(UP, blocks[UP])[usize::from(o)])
                    .chain(
                        down.iter()
                            .map(|&o| layout.links(DOWN, blocks[DOWN])[usize::from(o)]),
                    )
                    .collect();
                problem.add_flow(links, Utility::log(worker.flows.weight[slot]));
                normalized.push(worker.flows.normalized[slot]);
                reported.push(held(&worker.flows, slot));
            }
        }
        (problem, normalized, reported)
    }

    fn peak(problem: &NumProblem, rates: &[f64], scale: f64) -> f64 {
        let loads = problem.link_loads(rates);
        loads
            .iter()
            .zip(problem.capacities())
            .map(|(&load, &c)| load / c * scale)
            .fold(0.0, f64::max)
    }

    fn close(a: f64, b: f64, what: &str) {
        assert!(
            (a - b).abs() <= 1e-9 * a.abs().max(b.abs()),
            "{what}: {a} vs {b}"
        );
    }

    #[test]
    fn the_certificate_is_the_reference_dual_on_both_schedules_and_rules() {
        let fabric = TwoTierClos::build(ClosConfig::multicore(2, 2, 4));
        let cfg = AllocConfig {
            capacity_fraction: 0.99,
            ..AllocConfig::default()
        };
        let grids = [
            SerialAllocator::new(&fabric, cfg),
            SerialAllocator::multicore(&fabric, cfg, 2),
            SerialAllocator::gradient(&fabric, cfg),
            SerialAllocator::gradient(&fabric, cfg).on_pool(2),
        ];
        for (mut grid, schedule) in grids.into_iter().zip(["caller", "pool", "caller", "pool"]) {
            let at = format!("{} on the {schedule} schedule", grid.name());
            let mut rng = 0x2545_F491_4F6C_DD1Du64;
            for i in 0..40u64 {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let src = (rng % 16) as usize;
                let dst = (src + 1 + (rng >> 8) as usize % 15) % 16;
                let weight = 1.0 + (rng >> 20) as f64 % 3.0;
                grid.add_flow(
                    FlowId(i),
                    src,
                    dst,
                    weight,
                    &fabric.path(src, dst, FlowId(i)),
                );
            }
            for (ticks, drain) in [(3, false), (30, true), (300, true)] {
                grid.run_iterations(ticks);
                if drain {
                    grid.drain_changed_rates(0.01, &mut |_, _| {});
                }
                let cert = grid.certificate();
                let (problem, normalized, reported) = problem(&grid);
                let [.., prices] = global::state(&grid, grid.layout.total_links());
                let at = format!("{at}, after {ticks} more iterations");
                close(
                    cert.dual,
                    dual_bound(&problem, &prices),
                    &format!("{at}: dual"),
                );
                close(
                    cert.primal,
                    problem.objective(&normalized),
                    &format!("{at}: primal"),
                );
                close(cert.peak_util, peak(&problem, &normalized, 1.0), &at);
                close(cert.peak_held, peak(&problem, &reported, 0.99), &at);
                assert!(cert.gap() >= 0.0, "{at}: {cert:?}");
                assert!(cert.peak_util <= 1.0 + 1e-12, "{at}: {cert:?}");
                assert_eq!(cert.peak_held > 0.0, drain, "{at}: {cert:?}");
            }
        }
    }

    #[test]
    fn a_plane_of_shards_prices_each_link_at_its_largest_dual() {
        // Two grids over one fabric holding the two halves of one flow
        // set, `a` with every dual twice `b`'s: the plane's link term is
        // `a`'s, its flow terms and primal are each grid's own, and its
        // loads are the halves' sum — the whole set's.
        let fabric = TwoTierClos::build(ClosConfig::multicore(2, 2, 4));
        let cfg = AllocConfig::default();
        let (mut a, mut b, mut whole) = (
            SerialAllocator::new(&fabric, cfg),
            SerialAllocator::new(&fabric, cfg),
            SerialAllocator::new(&fabric, cfg),
        );
        let pairs = [(0, 8), (0, 12), (5, 3), (9, 0), (14, 2), (1, 0)];
        for (i, (src, dst)) in pairs.into_iter().enumerate() {
            let id = FlowId(i as u64);
            let half = if i % 2 == 0 { &mut a } else { &mut b };
            half.add_flow(id, src, dst, 1.0, &fabric.path(src, dst, id));
            whole.add_flow(id, src, dst, 1.0, &fabric.path(src, dst, id));
        }
        for grid in [&mut a, &mut b] {
            grid.run_iterations(50);
        }
        for d in DIRS {
            for (pa, pb) in a.views[d].iter_mut().zip(&b.views[d]) {
                for (p, &q) in pa.prices.iter_mut().zip(&pb.prices) {
                    *p = 2.0 * q;
                }
            }
        }
        let plane = Certificate::over([&a, &b]);
        let (ca, cb) = (a.certificate(), b.certificate());
        let a_link = link_of(&a);
        let flow_terms = ca.dual - a_link + cb.dual - link_of(&b);
        close(plane.dual, flow_terms + a_link, "dual");
        close(plane.primal, ca.primal + cb.primal, "primal");
        // The halves' normalized rates, in the whole set's order.
        let rate = |id: u32| {
            [&a, &b]
                .into_iter()
                .find_map(|g| g.flow_rate(FlowId(u64::from(id))))
                .unwrap()
                .normalized
        };
        let rates: Vec<f64> = whole
            .workers
            .iter()
            .flat_map(|w| w.flows.ids.iter().map(|&id| rate(id)))
            .collect();
        close(
            plane.peak_util,
            peak(&problem(&whole).0, &rates, 1.0),
            "peak_util",
        );
        assert!(plane.peak_util > ca.peak_util.max(cb.peak_util));
    }

    /// `Σ_ℓ p_ℓ·c_ℓ` over `grid`'s own duals: its dual without flow terms.
    fn link_of(grid: &SerialAllocator) -> f64 {
        let (problem, ..) = problem(grid);
        let prices = &global::state(grid, grid.layout.total_links())[2];
        let mut sum = 0.0;
        for (p, c) in prices.iter().zip(problem.capacities()) {
            sum += p * c;
        }
        sum
    }
}
