//! The pluggable allocation-engine interface.
//!
//! [`RateAllocator`] is the contract between the control-plane service
//! (`flowtune::AllocatorService`) and whatever computes per-flow rates
//! behind it. One engine implements it:
//! [`SerialAllocator`](crate::SerialAllocator), the §5 FlowBlock/LinkBlock
//! grid, iterating NED on the caller's thread (`serial`) or with full
//! sweeps spread over a worker pool (`multicore`, bit-for-bit equal), or
//! taking gradient projection's price step instead (`gradient`, the
//! first-order §6.6 baseline). The trait stays as the seam test doubles
//! plug into (`flowtune::AllocatorService::with_engine`).
//!
//! **Who implements what.** An engine must provide seven methods:
//! `add_flow`, `remove_flow`, `iterate`, `flow_count`, `flow_rate`,
//! `rates_into` and `name`. Everything else has a default that is right
//! for a test double without the feature: no report memory (every drain
//! lends every flow), no dirty counters, no link state to share (no
//! slots, so the export visits nothing and the install fills nothing).
//! The grid overrides every one but `rates` — every engine a service can
//! be built over has the memory and the link state: the drain
//! ([`RateAllocator::drain_changed_rates`]) is where the §6.4 update
//! threshold runs, against what the engine itself last lent.
//!
//! **Link state is in the engine's own slot order.** Three methods carry
//! it: [`RateAllocator::link_slots`], the one map from a slot to its
//! global [`LinkId`]; [`RateAllocator::link_state`], the export, lent
//! straight out of the engine's own sums and prices; and
//! [`RateAllocator::install_link_state`], which lends the exchange the
//! engine's own background buffers to write. No method takes or returns
//! a vector indexed by global `LinkId`: whoever needs one (telemetry)
//! scatters through `link_slots` once; the exchange, in process and on
//! the wire, runs in slot order.
//!
//! **The buffer form is the primitive.** Every query that returns a
//! vector's worth of data writes into a caller-provided buffer (cleared
//! first), so per-tick callers never allocate once their buffers are
//! warm. The only allocating query is the provided
//! [`RateAllocator::rates`], written once over `rates_into` for tests
//! and one-shot readers; engines do not override it.
//!
//! The trait is object safe, and every service holds its engine as a
//! [`BoxEngine`] and calls it through the trait object: there is no
//! forwarding `impl RateAllocator for BoxEngine` for a newly provided
//! method to be missing from.

use flowtune_topo::{FlowId, LinkId, Path};

use crate::flowblock::FlowRate;

/// A rate-allocation engine: maintains a set of weighted flows over a
/// fixed fabric and, on every iteration, refreshes each flow's allocated
/// (and normalized) rate.
pub trait RateAllocator: std::fmt::Debug + Send {
    /// Registers a flow. `path` must come from the fabric the engine was
    /// built over. The id is the caller's choice and only has to be
    /// unique among the flows currently registered: an id may be handed
    /// out again after [`RateAllocator::remove_flow`] (the allocator
    /// service recycles its flow-table slots as ids), so an engine must
    /// not derive rates from id values or their order. Ids are the
    /// *embedder's* dense numbering, never a value read off the wire: the
    /// grid indexes a table by the id itself, grown to the largest
    /// id registered, so a sparse or adversarial id costs memory in
    /// proportion to its value — map wire identities (tokens) to dense
    /// ids of your own first, as the service does with its slab slots.
    ///
    /// # Panics
    /// Panics on duplicate ids, non-positive weights, or paths that do
    /// not belong to the engine's fabric; the grid also on ids of 2³² or
    /// more.
    fn add_flow(
        &mut self,
        id: FlowId,
        src_server: usize,
        dst_server: usize,
        weight: f64,
        path: &Path,
    );

    /// Deregisters a flow; returns whether it existed.
    fn remove_flow(&mut self, id: FlowId) -> bool;

    /// Runs one allocation iteration (for the grid: rate pass →
    /// aggregate → price update → normalize).
    fn iterate(&mut self);

    /// Runs `n` iterations. Engines with per-call setup cost (waking a
    /// parked worker pool) override this with an amortized
    /// implementation.
    // flowtune-lint: hot
    fn run_iterations(&mut self, n: usize) {
        for _ in 0..n {
            self.iterate();
        }
    }

    /// Number of registered flows.
    fn flow_count(&self) -> usize;

    /// One flow's current allocation, if registered.
    fn flow_rate(&self, id: FlowId) -> Option<FlowRate>;

    /// All flows' current allocations (Gbit/s), in an engine-defined but
    /// deterministic order, into a caller-provided buffer (cleared
    /// first). Must not allocate once the buffer is warm.
    fn rates_into(&self, out: &mut Vec<FlowRate>);

    /// [`RateAllocator::rates_into`] into a fresh vector: the one
    /// allocating query, for tests and one-shot readers. Not overridden
    /// by any engine.
    fn rates(&self) -> Vec<FlowRate> {
        let mut out = Vec::with_capacity(self.flow_count());
        self.rates_into(&mut out);
        out
    }

    /// The per-tick export: lends `sink` the ids and normalized rates
    /// (Gbit/s; two slices of one length, element `i` of each the same
    /// flow) of exactly the flows that **must be reported** — whose
    /// rate moved by more than `threshold` (§6.4, relative) from what
    /// this engine last lent for them, or for which it never lent any —
    /// and remembers what it lent. The rule is
    /// `flowtune_proto::ThresholdFilter::passes` bit for bit, the memory
    /// is the engine's: it lives with the flow's rate, starts empty at
    /// [`RateAllocator::add_flow`] and goes with
    /// [`RateAllocator::remove_flow`], so a recycled id inherits
    /// nothing. A flow that is not lent needs no update. The grid runs
    /// one packed pass ([`crate::flowblock::report_pass`]) over each
    /// FlowBlock whose output may have moved since the last drain.
    ///
    /// The default is for test doubles — no engine a service builder can
    /// build uses it: it keeps **no memory**, so every drain lends every
    /// flow of the allocating [`RateAllocator::rates`], in one call.
    fn drain_changed_rates(&mut self, _threshold: f64, sink: &mut dyn FnMut(&[FlowId], &[f64])) {
        let (ids, normalized): (Vec<FlowId>, Vec<f64>) =
            self.rates().iter().map(|r| (r.id, r.normalized)).unzip();
        sink(&ids, &normalized);
    }

    /// Cumulative `(dirty_flows, dirty_links)` counters for engines
    /// running with incremental dirty-set tracking: flows whose rate pass
    /// re-ran, and per-iteration link price moves beyond the configured
    /// eps. `None` for engines running full sweeps (the default).
    fn dirty_counters(&self) -> Option<(u64, u64)> {
        None
    }

    /// The global link each slot of the engine's link state stands for,
    /// in slot order: the one map between the engine's own layout and
    /// [`LinkId`]s. For the §5 grid a slot is a (direction, LinkBlock,
    /// offset) triple — 2·B·lpl slots, every data link exactly once, no
    /// control link. Empty (the default) for a test double that prices
    /// no fabric links, which then has no link state to share.
    fn link_slots(&self) -> &[LinkId] {
        &[]
    }

    /// The engine's own link state — what an exchange round exports —
    /// lent to `visit` in slot order, one [`LinkRun`] of consecutive
    /// slots at a time (the grid: one per LinkBlock, read where its last
    /// price update left it, nothing copied):
    ///
    /// * `totals`: per slot, the sum of the raw (pre-normalization)
    ///   rates of *this engine's* flows crossing the link — exactly the
    ///   load term its own price update uses — and `Σ ∂x/∂p` over the
    ///   same flows (≤ 0), the `H` that update divided by. Background
    ///   state installed with [`RateAllocator::install_link_state`] is
    ///   **not** echoed back, so a sharded control plane can sum shards'
    ///   exports without double counting. A partitioned allocator ships
    ///   `H` alongside the loads so every shard's Newton step divides the
    ///   global gradient by the global sensitivity — with only its own
    ///   diagonal, a shard's effective step grows with the shard count and
    ///   leaves NED's stable γ range. `hessians` is false for engines
    ///   whose price update has no second-order term (a gradient grid):
    ///   their Hessians are not part of the export.
    /// * `prices`: the slots' current duals — the exchange's export half
    ///   of dual consensus.
    ///
    /// The sharded exchange calls this every round: it must not allocate.
    ///
    /// **Own link state is as of the last iteration.** The grid, under
    /// either price rule, lends the sums its last price update consumed
    /// (`G` and `H`), kept per LinkBlock, in `O(links)`: zeros before the
    /// first iteration; a flow removed since the last iteration still
    /// counts until the next one, and a flow added since does not count
    /// yet (its rate is still 0). Read right after
    /// [`RateAllocator::iterate`], as every caller in this workspace
    /// does, that is the current rates' link state, and a link no flow
    /// crosses reads exactly `0.0`.
    ///
    /// Engines without [`RateAllocator::link_slots`] visit nothing (the
    /// default).
    // flowtune-lint: hot
    fn link_state(&self, visit: &mut dyn FnMut(LinkRun<'_>)) {
        let _ = visit;
    }

    /// The install half of an exchange round, in slot order: lends
    /// `fill` the engine's own buffers ([`LinkInstall`], one entry per
    /// slot of [`RateAllocator::link_slots`]) for it to write
    ///
    /// * the exogenous per-slot load priced *in addition to* the engine's
    ///   own flows — the other shards' contribution on shared links
    ///   (same Gbit/s units as the engine's capacities; zeros price
    ///   nothing);
    /// * the exogenous Hessian diagonal accompanying it, which a
    ///   second-order engine folds into its price update's `H` (`None`
    ///   for an engine without a second-order price term);
    /// * consensus duals, `NaN` for a slot whose price the engine keeps
    ///   (a partitioned allocator passes `NaN` for links no shard
    ///   currently loads — each engine keeps decaying its own stale price
    ///   there).
    ///
    /// The background buffers are the ones the price update reads, so
    /// what `fill` leaves in them is installed; the duals are installed
    /// when `fill` returns, and the next rate pass must already price
    /// flows with them. The §5 grid holds one copy of a link's price —
    /// its LinkBlock's, which every FlowBlock worker of the LinkBlock's
    /// row or column reads — so its install is `O(links)`: one pass over
    /// each copy, nothing to re-distribute, and on the incremental path
    /// the same pass marks every worker whose flows cross a link whose
    /// dual moved beyond `dirty_eps`.
    ///
    /// Dual consensus is what makes a partitioned allocator's fixed
    /// point unique: background loads alone pin only the *total* on a
    /// shared link, while any combination of per-shard prices whose
    /// demands sum to capacity would be stationary — shards must agree
    /// on the price itself, like §5's single authoritative LinkBlock
    /// owner.
    ///
    /// Engines without [`RateAllocator::link_slots`] never call `fill`
    /// (the default).
    // flowtune-lint: hot
    fn install_link_state(&mut self, fill: &mut dyn FnMut(LinkInstall<'_>)) {
        let _ = fill;
    }

    /// Short engine name for logs and experiment output.
    fn name(&self) -> &'static str;
}

/// An engine behind the trait object — how every service holds one.
pub type BoxEngine = Box<dyn RateAllocator>;

/// A run of consecutive slots of an engine's link-state export (see
/// [`RateAllocator::link_state`]).
#[derive(Debug, Clone, Copy)]
pub struct LinkRun<'a> {
    /// Per slot, `[load, hessian]`: the sums the last price update
    /// consumed over this engine's own flows.
    pub totals: &'a [[f64; 2]],
    /// Per slot, the current dual; as long as `totals`.
    pub prices: &'a [f64],
    /// Whether the Hessians in `totals` are part of the export — false
    /// for engines whose price update has no second-order term.
    pub hessians: bool,
}

/// The engine's own slot-order buffers an exchange install writes (see
/// [`RateAllocator::install_link_state`]), each one entry per slot.
#[derive(Debug)]
pub struct LinkInstall<'a> {
    /// The global link of each slot: [`RateAllocator::link_slots`].
    pub slots: &'a [LinkId],
    /// Background loads, read by the price update as they are left.
    pub loads: &'a mut [f64],
    /// Background Hessian diagonal; `None` for an engine without a
    /// second-order price term.
    pub hessians: Option<&'a mut [f64]>,
    /// Consensus duals, installed when the fill returns; `NaN` keeps the
    /// slot's own price. Holds the previous install's values on entry.
    pub prices: &'a mut [f64],
}

/// Global-[`LinkId`] views of an engine's slot-order link state for the
/// tests — the one scatter or gather through
/// [`RateAllocator::link_slots`] that a service does.
#[cfg(test)]
pub(crate) mod global {
    use super::{LinkInstall, RateAllocator};

    /// `(loads, hessians, prices)` scattered to `links` global links
    /// (control links read 0); the Hessians empty for a first-order
    /// engine, all three empty for an engine without slots.
    pub(crate) fn state(engine: &dyn RateAllocator, links: usize) -> [Vec<f64>; 3] {
        let slots = engine.link_slots();
        let mut out = [(); 3].map(|_| vec![0.0; if slots.is_empty() { 0 } else { links }]);
        let mut first_order = false;
        let mut at = slots.iter();
        engine.link_state(&mut |run| {
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
        engine: &mut dyn RateAllocator,
        loads: Option<&[f64]>,
        hessians: Option<&[f64]>,
        prices: Option<&[f64]>,
    ) {
        engine.install_link_state(&mut |dst: LinkInstall<'_>| {
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
    use flowtune_topo::{ClosConfig, TwoTierClos};
    use std::collections::BTreeMap;

    /// The least an engine can be: the seven required methods over a map
    /// of flows, each held at its weight in Gbit/s.
    #[derive(Debug, Default)]
    struct Minimal(BTreeMap<FlowId, f64>);

    impl RateAllocator for Minimal {
        fn add_flow(&mut self, id: FlowId, _src: usize, _dst: usize, weight: f64, _path: &Path) {
            assert!(self.0.insert(id, weight).is_none(), "duplicate {id}");
        }

        fn remove_flow(&mut self, id: FlowId) -> bool {
            self.0.remove(&id).is_some()
        }

        fn iterate(&mut self) {}

        fn flow_count(&self) -> usize {
            self.0.len()
        }

        fn flow_rate(&self, id: FlowId) -> Option<FlowRate> {
            let &rate = self.0.get(&id)?;
            Some(FlowRate {
                id,
                rate,
                normalized: rate,
            })
        }

        fn rates_into(&self, out: &mut Vec<FlowRate>) {
            out.clear();
            out.extend(self.0.keys().map(|&id| self.flow_rate(id).expect("listed")));
        }

        fn name(&self) -> &'static str {
            "minimal"
        }
    }

    /// Every engine in the crate — the grid on both schedules and under
    /// the gradient rule — plus the double, all full-sweep.
    fn engines(fabric: &TwoTierClos) -> Vec<BoxEngine> {
        let cfg = AllocConfig::default();
        vec![
            Box::new(SerialAllocator::new(fabric, cfg)),
            Box::new(SerialAllocator::multicore(fabric, cfg, 2)),
            Box::new(SerialAllocator::gradient(fabric, cfg)),
            Box::new(Minimal::default()),
        ]
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn trait_objects_drive_every_engine() {
        let fabric = TwoTierClos::build(ClosConfig::multicore(2, 2, 4));
        let links = fabric.topology().link_count();
        for mut boxed in engines(&fabric) {
            let engine: &mut dyn RateAllocator = &mut *boxed;
            let name = engine.name();
            let p = fabric.path(3, 13, FlowId(7));
            engine.add_flow(FlowId(7), 3, 13, 1.0, &p);
            engine.run_iterations(300);
            let r = engine.flow_rate(FlowId(7)).unwrap();
            if matches!(name, "serial" | "multicore") {
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

            // The provided allocating query is the buffer form.
            let mut listed = vec![r; 3];
            engine.rates_into(&mut listed);
            assert_eq!(engine.rates(), listed, "{name}");
            assert_eq!(listed.len(), 7, "{name}");

            // The first drain lends every flow, each exactly once, at the
            // normalized rate the listing reports; an immediate second
            // one has nothing left to report — unless the engine is the
            // double, whose default drain remembers nothing.
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
                if pass == 0 || name == "minimal" {
                    assert_eq!(lent, want, "{name}, drain {pass}");
                } else {
                    assert_eq!(lent, vec![], "{name}: nothing moved since the last drain");
                }
            }

            // The export reads the engine where it lies: twice the same.
            let state = global::state(engine, links);
            let again = global::state(engine, links);
            assert_eq!(
                state.each_ref().map(|v| bits(v)),
                again.each_ref().map(|v| bits(v))
            );
            let [loads, hessians, prices] = state;
            if name == "minimal" {
                // Nothing overridden: no slots, nothing to share, and an
                // install that fills nothing has no effect.
                assert!(engine.link_slots().is_empty());
                assert!(loads.is_empty() && hessians.is_empty() && prices.is_empty());
                assert_eq!(engine.dirty_counters(), None);
                engine.install_link_state(&mut |_| panic!("no slots to fill"));
                engine.run_iterations(2);
                assert_eq!(engine.rates(), listed);
            } else {
                assert_eq!(engine.link_slots().len(), links, "{name}: no control links");
                assert_eq!(loads.len(), links, "{name}");
                assert_eq!(prices.len(), links, "{name}");
                assert!(loads.iter().any(|&x| x > 0.0), "{name}");
                // Second-order engines only.
                assert_eq!(hessians.len(), if name == "gradient" { 0 } else { links });
            }

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
        let names: Vec<&str> = engines(&fabric).iter().map(|e| e.name()).collect();
        assert_eq!(names, vec!["serial", "multicore", "gradient", "minimal"]);
    }
}
