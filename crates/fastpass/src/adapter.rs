//! [`FastpassAdapter`]: the per-packet arbiter behind the
//! [`RateAllocator`] interface.
//!
//! Fastpass and Flowtune answer the same question — "who may send, and
//! how fast?" — at different granularities: Fastpass allocates individual
//! MTU timeslots, Flowtune allocates explicit rates per flowlet. To
//! compare them under one control-plane API (and through the same
//! `AllocatorService`), this adapter runs the greedy maximal-matching
//! [`Arbiter`] and *derives rates* from its matchings:
//!
//! * every active flow keeps exactly one outstanding packet of demand per
//!   (src, dst) pair — each timeslot is a maximal matching over the
//!   active pairs, which is Fastpass's steady-state backlogged behaviour;
//! * a pair's throughput share is the exponentially-weighted fraction of
//!   recent timeslots in which it was matched; its rate is that share ×
//!   the access line rate (× the configured capacity headroom);
//! * flows sharing a pair split the pair's rate by weight.
//!
//! One [`RateAllocator::iterate`] call runs the number of timeslots that
//! fit in one 10 µs allocator tick at line rate (an MTU at 10 Gbit/s is
//! ~1.2 µs), so "iterations" advance wall-clock-comparable work for both
//! systems. The derived rates respect endpoint (access-link) capacity by
//! construction; like real Fastpass, the adapter does not price fabric
//! core links — on the paper's full-bisection Clos the endpoints are the
//! binding constraint.

use std::collections::BTreeMap;

use flowtune_alloc::{lend_passers, AllocConfig, FlowRate, RateAllocator, UNREPORTED};
use flowtune_topo::{FlowId, Path, TwoTierClos};

use crate::Arbiter;

/// EWMA weight for the per-pair matched-slot share.
const SHARE_ALPHA: f64 = 1.0 / 8.0;

#[derive(Debug, Clone, Copy)]
struct FpFlow {
    src: u16,
    dst: u16,
    weight: f64,
    /// The rate last lent by the drain (§6.4 memory).
    reported: f64,
}

#[derive(Debug, Clone, Copy, Default)]
struct PairState {
    /// Flows registered on this (src, dst) pair.
    members: usize,
    /// Sum of their weights (for the intra-pair split).
    weight_sum: f64,
    /// Packets currently queued in the arbiter for this pair (0 or 1).
    outstanding: u64,
    /// EWMA of "matched this slot" ∈ {0, 1}.
    share: f64,
}

/// A Fastpass-style timeslot arbiter exposed as a [`RateAllocator`].
#[derive(Debug)]
pub struct FastpassAdapter {
    arbiter: Arbiter,
    /// Access line rate available for allocation, Gbit/s.
    line_rate_gbps: f64,
    /// Timeslots advanced per `iterate()` call.
    slots_per_iteration: usize,
    /// Flow table; `BTreeMap` keeps `rates_into` order deterministic
    /// (sorted by flow id). Only that listing order depends on the ids:
    /// arbitration tops up and matches per `(src, dst)` pair (`pairs`),
    /// so callers that reuse ids after `remove_flow` get the same rates.
    flows: BTreeMap<FlowId, FpFlow>,
    pairs: BTreeMap<(u16, u16), PairState>,
}

impl FastpassAdapter {
    /// Builds an adapter for `fabric`'s endpoints. `cfg.capacity_fraction`
    /// scales the allocatable line rate exactly as it scales the NED
    /// engines' link capacities; the NED-specific knob (F-NORM) is
    /// ignored.
    pub fn new(fabric: &TwoTierClos, cfg: AllocConfig) -> Self {
        let clos = fabric.config();
        let line_rate_gbps = clos.host_link_bps as f64 / 1e9 * cfg.capacity_fraction;
        // Slots per 10 µs tick at one MTU (1500 B) per slot.
        let slot_ps = 1500.0 * 8.0 / (clos.host_link_bps as f64) * 1e12;
        let slots_per_iteration = (10_000_000.0 / slot_ps).round().max(1.0) as usize;
        Self {
            arbiter: Arbiter::new(clos.server_count().max(2)),
            line_rate_gbps,
            slots_per_iteration,
            flows: BTreeMap::new(),
            pairs: BTreeMap::new(),
        }
    }

    /// Sizes one `iterate()` to `iteration_ps` of fabric time (MTU slots
    /// at the access line rate). Services that run several engine
    /// iterations per tick use this so the arbiter still advances one
    /// tick's worth of timeslots per tick, not several.
    pub fn with_iteration_time_ps(mut self, iteration_ps: u64, host_link_bps: u64) -> Self {
        let slot_ps = 1500.0 * 8.0 / (host_link_bps as f64) * 1e12;
        self.slots_per_iteration = (iteration_ps as f64 / slot_ps).round().max(1.0) as usize;
        self
    }

    /// The wrapped arbiter (slot/packet counters for the §6.1 table).
    pub fn arbiter(&self) -> &Arbiter {
        &self.arbiter
    }

    /// Timeslots one `iterate()` advances.
    pub fn slots_per_iteration(&self) -> usize {
        self.slots_per_iteration
    }

    /// A flow's weighted split of its pair's share of the line rate.
    fn flow_rate_of(&self, f: &FpFlow) -> f64 {
        pair_split(self.line_rate_gbps, &self.pairs, f)
    }
}

/// [`FastpassAdapter::flow_rate_of`] over the fields it reads, for the
/// drain, which holds the flow table mutably meanwhile.
fn pair_split(line_rate_gbps: f64, pairs: &BTreeMap<(u16, u16), PairState>, f: &FpFlow) -> f64 {
    let pair = &pairs[&(f.src, f.dst)];
    line_rate_gbps * pair.share * f.weight / pair.weight_sum
}

impl RateAllocator for FastpassAdapter {
    fn add_flow(
        &mut self,
        id: FlowId,
        src_server: usize,
        dst_server: usize,
        weight: f64,
        _path: &Path,
    ) {
        assert!(weight > 0.0 && weight.is_finite(), "weight must be > 0");
        assert!(src_server != dst_server, "src and dst must differ");
        let flow = FpFlow {
            src: src_server as u16,
            dst: dst_server as u16,
            weight,
            reported: UNREPORTED,
        };
        assert!(
            self.flows.insert(id, flow).is_none(),
            "flow {id} already registered"
        );
        let pair = self.pairs.entry((flow.src, flow.dst)).or_default();
        pair.members += 1;
        pair.weight_sum += weight;
    }

    fn remove_flow(&mut self, id: FlowId) -> bool {
        let Some(flow) = self.flows.remove(&id) else {
            return false;
        };
        let key = (flow.src, flow.dst);
        let pair = self.pairs.get_mut(&key).expect("pair exists for flow");
        pair.members -= 1;
        pair.weight_sum -= flow.weight;
        if pair.members == 0 && pair.outstanding == 0 {
            self.pairs.remove(&key);
        }
        // A member-less pair with a packet still queued in the arbiter
        // stays as a zombie: it is never topped up again, `iterate`
        // drops it once the in-flight packet drains, and a flow re-added
        // on the same pair inherits the accurate outstanding count —
        // otherwise every end/restart cycle would leak one ghost packet
        // of demand.
        true
    }

    fn iterate(&mut self) {
        for _ in 0..self.slots_per_iteration {
            // Keep every active pair backlogged by exactly one packet
            // (zombie pairs only drain, they are not topped up).
            for (&(src, dst), pair) in self.pairs.iter_mut() {
                if pair.members > 0 && pair.outstanding == 0 {
                    self.arbiter.add_demand(src, dst, 1);
                    pair.outstanding = 1;
                }
            }
            let matched = self.arbiter.allocate_slot();
            // share ← (1−α)·share + α·hit, split so the slot costs
            // O(pairs + matched) instead of scanning `matched` per pair:
            // decay everyone, then credit the matched pairs α.
            for pair in self.pairs.values_mut() {
                pair.share *= 1.0 - SHARE_ALPHA;
            }
            for &(src, dst) in &matched {
                if let Some(pair) = self.pairs.get_mut(&(src, dst)) {
                    pair.outstanding = pair.outstanding.saturating_sub(1);
                    pair.share += SHARE_ALPHA;
                }
            }
            // Zombie pairs whose in-flight packet just drained are done.
            self.pairs.retain(|_, p| p.members > 0 || p.outstanding > 0);
        }
    }

    fn flow_count(&self) -> usize {
        self.flows.len()
    }

    // flowtune-lint: hot
    fn rates_into(&self, out: &mut Vec<FlowRate>) {
        out.clear();
        out.extend(self.flows.iter().map(|(&id, f)| {
            let gbps = self.flow_rate_of(f);
            FlowRate {
                id,
                rate: gbps,
                normalized: gbps,
            }
        }));
    }

    // flowtune-lint: hot
    fn drain_changed_rates(&mut self, threshold: f64, sink: &mut dyn FnMut(&[FlowId], &[f64])) {
        let (line_rate, pairs) = (self.line_rate_gbps, &self.pairs);
        let flows = self.flows.iter_mut().map(|(&id, f)| {
            let rate = pair_split(line_rate, pairs, f);
            (id, rate, &mut f.reported)
        });
        lend_passers(threshold, flows, sink);
    }

    fn flow_rate(&self, id: FlowId) -> Option<FlowRate> {
        let f = self.flows.get(&id)?;
        let gbps = self.flow_rate_of(f);
        Some(FlowRate {
            id,
            rate: gbps,
            normalized: gbps,
        })
    }

    fn name(&self) -> &'static str {
        "fastpass"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtune_topo::ClosConfig;

    fn fabric() -> TwoTierClos {
        TwoTierClos::build(ClosConfig::paper_eval())
    }

    fn add(a: &mut FastpassAdapter, f: &TwoTierClos, id: u64, src: usize, dst: usize, w: f64) {
        let path = f.path(src, dst, FlowId(id));
        a.add_flow(FlowId(id), src, dst, w, &path);
    }

    #[test]
    fn lone_flow_converges_to_line_rate() {
        let f = fabric();
        let mut a = FastpassAdapter::new(&f, AllocConfig::default());
        add(&mut a, &f, 1, 0, 140, 1.0);
        for _ in 0..50 {
            a.iterate();
        }
        let r = a.flow_rate(FlowId(1)).unwrap();
        // Uncontended pair: matched every slot → full access line rate.
        assert!((r.rate - 10.0).abs() < 0.2, "{r:?}");
        assert_eq!(r.rate.to_bits(), r.normalized.to_bits());
    }

    #[test]
    fn receiver_contention_halves_rates() {
        let f = fabric();
        let mut a = FastpassAdapter::new(&f, AllocConfig::default());
        add(&mut a, &f, 1, 0, 140, 1.0);
        add(&mut a, &f, 2, 1, 140, 1.0);
        for _ in 0..80 {
            a.iterate();
        }
        let r1 = a.flow_rate(FlowId(1)).unwrap().rate;
        let r2 = a.flow_rate(FlowId(2)).unwrap().rate;
        // One receiver, two senders: each pair is matched every other
        // slot.
        assert!((r1 - 5.0).abs() < 0.7, "r1 {r1}");
        assert!((r2 - 5.0).abs() < 0.7, "r2 {r2}");
        assert!(r1 + r2 < 10.0 + 0.5, "no over-allocation of the receiver");
    }

    #[test]
    fn weights_split_a_shared_pair() {
        let f = fabric();
        let mut a = FastpassAdapter::new(&f, AllocConfig::default());
        add(&mut a, &f, 1, 0, 140, 3.0);
        add(&mut a, &f, 2, 0, 140, 1.0);
        for _ in 0..50 {
            a.iterate();
        }
        let r1 = a.flow_rate(FlowId(1)).unwrap().rate;
        let r2 = a.flow_rate(FlowId(2)).unwrap().rate;
        assert!((r1 / r2 - 3.0).abs() < 1e-9, "{r1} / {r2}");
    }

    #[test]
    fn capacity_fraction_scales_the_line_rate() {
        let f = fabric();
        let cfg = AllocConfig {
            capacity_fraction: 0.99,
            ..AllocConfig::default()
        };
        let mut a = FastpassAdapter::new(&f, cfg);
        add(&mut a, &f, 1, 0, 140, 1.0);
        for _ in 0..80 {
            a.iterate();
        }
        let r = a.flow_rate(FlowId(1)).unwrap().rate;
        assert!(r <= 9.9 + 1e-9, "headroom respected: {r}");
        assert!(r > 9.5, "converged: {r}");
    }

    #[test]
    fn removal_frees_the_receiver() {
        let f = fabric();
        let mut a = FastpassAdapter::new(&f, AllocConfig::default());
        add(&mut a, &f, 1, 0, 140, 1.0);
        add(&mut a, &f, 2, 1, 140, 1.0);
        for _ in 0..50 {
            a.iterate();
        }
        assert!(a.remove_flow(FlowId(2)));
        assert!(!a.remove_flow(FlowId(2)), "double remove");
        for _ in 0..50 {
            a.iterate();
        }
        let r1 = a.flow_rate(FlowId(1)).unwrap().rate;
        assert!((r1 - 10.0).abs() < 0.2, "back to line rate: {r1}");
        assert_eq!(a.flow_count(), 1);
    }

    #[test]
    fn flowlet_churn_leaves_no_ghost_demand() {
        // Regression: a flowlet ending while its packet is still queued,
        // then restarting on the same pair, must not stack extra demand
        // in the arbiter (one ghost packet per end/restart cycle).
        let f = fabric();
        let mut a = FastpassAdapter::new(&f, AllocConfig::default());
        add(&mut a, &f, 100, 1, 140, 1.0); // persistent contender on dst 140
        for cycle in 0..20u64 {
            add(&mut a, &f, cycle, 0, 140, 1.0);
            a.iterate();
            assert!(a.remove_flow(FlowId(cycle)));
        }
        assert!(a.remove_flow(FlowId(100)));
        assert!(
            a.arbiter().backlog() <= 2,
            "ghost packets queued: {}",
            a.arbiter().backlog()
        );
        // Whatever is in flight drains, then the arbiter goes idle.
        a.iterate();
        assert_eq!(a.arbiter().backlog(), 0);
        assert_eq!(a.flow_count(), 0);
    }

    #[test]
    fn iteration_time_budget_sets_slot_count() {
        let f = fabric();
        let whole_tick = FastpassAdapter::new(&f, AllocConfig::default());
        // 10 µs of 1500 B slots at 10 G ≈ 8 slots per iteration.
        assert_eq!(whole_tick.slots_per_iteration(), 8);
        // A service running 2 iterations per tick gives each iteration
        // half the tick: half the slots, same fabric time per tick.
        let half_tick = FastpassAdapter::new(&f, AllocConfig::default())
            .with_iteration_time_ps(5_000_000, 10_000_000_000);
        assert_eq!(half_tick.slots_per_iteration(), 4);
        // Degenerate budgets still advance.
        let tiny = FastpassAdapter::new(&f, AllocConfig::default())
            .with_iteration_time_ps(1, 10_000_000_000);
        assert_eq!(tiny.slots_per_iteration(), 1);
    }

    #[test]
    fn rates_listed_in_flow_id_order() {
        let f = fabric();
        let mut a = FastpassAdapter::new(&f, AllocConfig::default());
        add(&mut a, &f, 9, 0, 140, 1.0);
        add(&mut a, &f, 3, 1, 141, 1.0);
        let ids: Vec<u64> = a.rates().iter().map(|r| r.id.0).collect();
        assert_eq!(ids, vec![3, 9], "deterministic: sorted by flow id");
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_flow_id_rejected() {
        let f = fabric();
        let mut a = FastpassAdapter::new(&f, AllocConfig::default());
        add(&mut a, &f, 1, 0, 140, 1.0);
        add(&mut a, &f, 1, 0, 140, 1.0);
    }
}
