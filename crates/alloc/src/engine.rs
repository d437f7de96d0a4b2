//! The grid's link state at its boundary: [`LinkRun`], one run of the
//! export, and [`LinkInstall`], the buffers an install writes.
//!
//! [`SerialAllocator`](crate::SerialAllocator) — the §5 grid, under NED
//! or gradient projection's price step, iterated on the caller's thread
//! or on a worker pool — is the one engine, and the control-plane service
//! (`flowtune::AllocatorService`) holds it directly. Its link state
//! crosses into the exchange in the grid's own **slot order**
//! ([`SerialAllocator::link_slots`](crate::SerialAllocator::link_slots),
//! the one map from a slot to its global [`LinkId`]): the export
//! ([`SerialAllocator::link_state`](crate::SerialAllocator::link_state))
//! lends the grid's own sums and prices where they lie, and the install
//! ([`SerialAllocator::install_link_state`](crate::SerialAllocator::install_link_state))
//! lends its own background buffers to write. Neither takes or returns a
//! vector indexed by global `LinkId`: whoever needs one (telemetry)
//! scatters through `link_slots` once; the exchange, in process and on
//! the wire, runs in slot order.

use flowtune_topo::LinkId;

/// A run of consecutive slots of the grid's link-state export (see
/// [`SerialAllocator::link_state`](crate::SerialAllocator::link_state)).
#[derive(Debug, Clone, Copy)]
pub struct LinkRun<'a> {
    /// Per slot, `[load, hessian]`: the sums the last price update
    /// consumed over the grid's own flows.
    pub totals: &'a [[f64; 2]],
    /// Per slot, the current dual; as long as `totals`.
    pub prices: &'a [f64],
    /// Whether the Hessians in `totals` are part of the export — false
    /// on a gradient grid, whose price update has no second-order term.
    pub hessians: bool,
}

/// The grid's own slot-order buffers an exchange install writes, each
/// one entry per slot (see
/// [`SerialAllocator::install_link_state`](crate::SerialAllocator::install_link_state)).
#[derive(Debug)]
pub struct LinkInstall<'a> {
    /// The global link of each slot:
    /// [`SerialAllocator::link_slots`](crate::SerialAllocator::link_slots).
    pub slots: &'a [LinkId],
    /// Background loads, read by the price update as they are left.
    pub loads: &'a mut [f64],
    /// Background Hessian diagonal; `None` on a gradient grid.
    pub hessians: Option<&'a mut [f64]>,
    /// Consensus duals, installed when the fill returns; `NaN` keeps the
    /// slot's own price. Holds the previous install's values on entry.
    pub prices: &'a mut [f64],
}

/// Global-[`LinkId`] views of a grid's slot-order link state for the
/// tests — the one scatter or gather through `link_slots` that a service
/// does.
#[cfg(test)]
pub(crate) mod global {
    use super::LinkInstall;
    use crate::SerialAllocator;

    /// `(loads, hessians, prices)` scattered to `links` global links
    /// (control links read 0); the Hessians empty for a gradient grid.
    pub(crate) fn state(engine: &SerialAllocator, links: usize) -> [Vec<f64>; 3] {
        let mut out = [(); 3].map(|_| vec![0.0; links]);
        let mut first_order = false;
        let mut at = engine.link_slots().iter();
        engine.link_state(|run| {
            first_order |= !run.hessians;
            for (&[load, h], &price) in run.totals.iter().zip(run.prices) {
                let link = at.next().expect("a run past the slots").index();
                out[0][link] = load;
                out[1][link] = h;
                out[2][link] = price;
            }
        });
        assert!(at.next().is_none(), "the runs cover every slot");
        if first_order {
            out[1].clear();
        }
        out
    }

    /// Installs global-link-indexed values: `None` leaves that buffer as
    /// the last install left it (for the duals: keeps every price).
    pub(crate) fn install(
        engine: &mut SerialAllocator,
        loads: Option<&[f64]>,
        hessians: Option<&[f64]>,
        prices: Option<&[f64]>,
    ) {
        engine.install_link_state(|dst: LinkInstall<'_>| {
            let slots = dst.slots;
            let gather = |values: Option<&[f64]>, out: &mut [f64]| {
                let Some(values) = values else { return };
                for (v, link) in out.iter_mut().zip(slots) {
                    *v = values[link.index()];
                }
            };
            gather(loads, dst.loads);
            if let Some(out) = dst.hessians {
                gather(hessians, out);
            }
            gather(prices, dst.prices);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AllocConfig, SerialAllocator};
    use flowtune_topo::{ClosConfig, FlowId, TwoTierClos};

    /// The grid on both schedules and under the gradient rule, all
    /// full-sweep.
    fn grids(fabric: &TwoTierClos) -> [SerialAllocator; 3] {
        let cfg = AllocConfig::default();
        [
            SerialAllocator::new(fabric, cfg),
            SerialAllocator::multicore(fabric, cfg, 2),
            SerialAllocator::gradient(fabric, cfg),
        ]
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn inherent_methods_drive_every_grid() {
        let fabric = TwoTierClos::build(ClosConfig::multicore(2, 2, 4));
        let links = fabric.topology().link_count();
        let mut serial_state = None;
        for mut engine in grids(&fabric) {
            let name = engine.name();
            let p = fabric.path(3, 13, FlowId(7));
            engine.add_flow(FlowId(7), 3, 13, 1.0, &p);
            engine.run_iterations(300);
            let r = engine.flow_rate(FlowId(7)).unwrap();
            if name != "gradient" {
                assert!((r.rate - 40.0).abs() < 1e-4, "{name}: {r:?}");
            }
            // Contended flows, so the exports below are not trivial.
            let pairs = [(0, 8), (0, 12), (5, 3), (14, 2), (9, 0), (0, 1)];
            for (i, (src, dst)) in pairs.into_iter().enumerate() {
                let id = FlowId(100 + i as u64);
                let weight = 1.0 + (i % 3) as f64;
                engine.add_flow(id, src, dst, weight, &fabric.path(src, dst, id));
            }
            engine.run_iterations(25);
            assert_eq!(engine.flow_count(), 7, "{name}");
            assert_eq!(engine.dirty_counters(), None, "{name}: full sweeps");

            // The allocating query is the buffer form.
            let mut listed = vec![r; 3];
            engine.rates_into(&mut listed);
            assert_eq!(engine.rates(), listed, "{name}");
            assert_eq!(listed.len(), 7, "{name}");

            // The first drain lends every flow, each exactly once, at the
            // normalized rate the listing reports; an immediate second
            // one has nothing left to report.
            let mut want: Vec<_> = listed
                .iter()
                .map(|r| (r.id, r.normalized.to_bits()))
                .collect();
            want.sort_unstable();
            for pass in 0..2 {
                let mut lent = Vec::new();
                engine.drain_changed_rates(0.01, &mut |ids, normalized| {
                    assert_eq!(ids.len(), normalized.len());
                    lent.extend(ids.iter().zip(normalized).map(|(&id, r)| (id, r.to_bits())));
                });
                lent.sort_unstable();
                if pass == 0 {
                    assert_eq!(lent, want, "{name}, drain {pass}");
                } else {
                    assert_eq!(lent, vec![], "{name}: nothing moved since the last drain");
                }
            }

            // The export reads the grid where it lies: twice the same.
            let state = global::state(&engine, links);
            let again = global::state(&engine, links);
            assert_eq!(
                state.each_ref().map(|v| bits(v)),
                again.each_ref().map(|v| bits(v))
            );
            // The pool leaves its totals in the root workers'
            // accumulators and copies them out after the pipeline: the
            // same bits the caller-thread sweep reduces, or an exchange
            // would ship its peers different loads.
            match name {
                "serial" => serial_state = Some(state.each_ref().map(|v| bits(v))),
                "multicore" => assert_eq!(
                    Some(state.each_ref().map(|v| bits(v))),
                    serial_state,
                    "the pool's export is the serial grid's"
                ),
                _ => {}
            }
            let [loads, hessians, prices] = state;
            assert_eq!(engine.link_slots().len(), links, "{name}: no control links");
            assert_eq!(loads.len(), links, "{name}");
            assert_eq!(prices.len(), links, "{name}");
            assert!(loads.iter().any(|&x| x > 0.0), "{name}");
            // Second-order grids only.
            assert_eq!(hessians.len(), if name == "gradient" { 0 } else { links });

            for id in listed.iter().map(|r| r.id) {
                assert!(engine.remove_flow(id), "{name}");
            }
            assert!(!engine.remove_flow(FlowId(7)), "{name}: double remove");
            assert_eq!(engine.rates().len(), 0);
        }
    }

    #[test]
    fn engine_names_are_distinct() {
        let fabric = TwoTierClos::build(ClosConfig::multicore(1, 2, 4));
        let names = grids(&fabric).map(|e| e.name());
        assert_eq!(names, ["serial", "multicore", "gradient"]);
    }
}
