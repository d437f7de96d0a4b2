//! A Fastpass-style centralized *per-packet* arbiter — the baseline the
//! paper's §6.1 throughput comparison is made against.
//!
//! Fastpass (Perry et al., SIGCOMM 2014) schedules every packet: for each
//! timeslot (the time one MTU occupies a link) the arbiter computes a
//! maximal matching between sources and destinations, so each endpoint
//! sends/receives at most one packet per slot. Its throughput is therefore
//! proportional to *packets* allocated per second of arbiter CPU, whereas
//! Flowtune does work only per flowlet event and per 10 µs iteration —
//! that asymmetry is the root of the paper's "10.4× more throughput per
//! core" claim, and this crate exists to measure it on the same hardware
//! as the Flowtune allocator benchmarks.
//!
//! The arbiter implements the greedy maximal-matching slot allocator with
//! a rotating scan origin for fairness (Fastpass's pipelined timeslot
//! allocation, single-threaded per slot).

#![forbid(unsafe_code)]

use std::collections::HashMap;

/// A demand: `packets` MTUs waiting to go from `src` to `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Demand {
    /// Source endpoint.
    pub src: u16,
    /// Destination endpoint.
    pub dst: u16,
    /// Outstanding packets.
    pub packets: u64,
}

/// Per-timeslot maximal-matching arbiter.
#[derive(Debug)]
pub struct Arbiter {
    endpoints: usize,
    /// Active demands (packets > 0 at the start of every slot), scanned
    /// round-robin.
    demands: Vec<Demand>,
    /// (src, dst) → index into `demands`.
    index: HashMap<(u16, u16), usize>,
    /// Rotating scan origin: equal long-run service for equal demands.
    scan_start: usize,
    /// Scratch: src/dst busy flags for the current slot, all `false`
    /// between slots (a slot clears the ones it set).
    src_busy: Vec<bool>,
    dst_busy: Vec<bool>,
    /// Active demands per endpoint, as source and as destination.
    src_demands: Vec<u32>,
    dst_demands: Vec<u32>,
    /// Endpoints with an active demand as source / as destination: once
    /// a slot has matched that many, no later demand can be.
    sources: usize,
    destinations: usize,
    /// Outstanding packets across all demands.
    backlog: u64,
    /// Total packets allocated over all slots.
    allocated: u64,
    /// Total timeslots processed.
    slots: u64,
}

impl Arbiter {
    /// Creates an arbiter for `endpoints` endpoints.
    pub fn new(endpoints: usize) -> Self {
        assert!(endpoints >= 2, "need at least two endpoints");
        Self {
            endpoints,
            demands: Vec::new(),
            index: HashMap::new(),
            scan_start: 0,
            src_busy: vec![false; endpoints],
            dst_busy: vec![false; endpoints],
            src_demands: vec![0; endpoints],
            dst_demands: vec![0; endpoints],
            sources: 0,
            destinations: 0,
            backlog: 0,
            allocated: 0,
            slots: 0,
        }
    }

    /// Adds `packets` of demand from `src` to `dst`.
    ///
    /// # Panics
    /// Panics if endpoints are out of range or equal.
    pub fn add_demand(&mut self, src: u16, dst: u16, packets: u64) {
        assert!(src != dst, "src and dst must differ");
        assert!((src as usize) < self.endpoints && (dst as usize) < self.endpoints);
        if packets == 0 {
            return;
        }
        self.backlog += packets;
        match self.index.get(&(src, dst)) {
            Some(&i) => self.demands[i].packets += packets,
            None => {
                self.index.insert((src, dst), self.demands.len());
                self.demands.push(Demand { src, dst, packets });
                self.sources += usize::from(bump(&mut self.src_demands[src as usize]) == 1);
                self.destinations += usize::from(bump(&mut self.dst_demands[dst as usize]) == 1);
            }
        }
    }

    /// Outstanding packets across all demands.
    pub fn backlog(&self) -> u64 {
        self.backlog
    }

    /// [`Arbiter::allocate_slot_into`] into a fresh `Vec`.
    pub fn allocate_slot(&mut self) -> Vec<(u16, u16)> {
        let mut matched = Vec::new();
        self.allocate_slot_into(&mut matched);
        matched
    }

    /// Allocates one timeslot: a greedy maximal matching over the active
    /// demands. Writes the `(src, dst)` pairs that send in this slot into
    /// `matched` (cleared first), in scan order.
    ///
    /// The scan starts at a rotating origin and takes every demand whose
    /// two ends are both free. It is maximal because every demand is
    /// inspected — or every source or every destination with a demand is
    /// already busy, so none left could be taken: the scan stops there.
    pub fn allocate_slot_into(&mut self, matched: &mut Vec<(u16, u16)>) {
        matched.clear();
        self.slots += 1;
        let n = self.demands.len();
        if n == 0 {
            return;
        }
        let (mut sources, mut destinations) = (self.sources, self.destinations);
        let mut emptied = false;
        for i in (self.scan_start..n).chain(0..self.scan_start) {
            let d = &mut self.demands[i];
            let (src, dst) = (d.src as usize, d.dst as usize);
            if d.packets > 0 && !self.src_busy[src] && !self.dst_busy[dst] {
                self.src_busy[src] = true;
                self.dst_busy[dst] = true;
                d.packets -= 1;
                emptied |= d.packets == 0;
                matched.push((d.src, d.dst));
                sources -= 1;
                destinations -= 1;
                if sources == 0 || destinations == 0 {
                    break;
                }
            }
        }
        for &(src, dst) in matched.iter() {
            self.src_busy[src as usize] = false;
            self.dst_busy[dst as usize] = false;
        }
        self.scan_start = (self.scan_start + 1) % n;
        self.allocated += matched.len() as u64;
        self.backlog -= matched.len() as u64;
        if emptied {
            self.compact();
        }
    }

    /// Drops exhausted demands, keeping `index` and the per-endpoint
    /// counts consistent.
    fn compact(&mut self) {
        let mut i = 0;
        while i < self.demands.len() {
            if self.demands[i].packets == 0 {
                let dead = self.demands.swap_remove(i);
                self.index.remove(&(dead.src, dead.dst));
                self.sources -=
                    usize::from(drop_one(&mut self.src_demands[dead.src as usize]) == 0);
                self.destinations -=
                    usize::from(drop_one(&mut self.dst_demands[dead.dst as usize]) == 0);
                if i < self.demands.len() {
                    let moved = self.demands[i];
                    self.index.insert((moved.src, moved.dst), i);
                }
                if self.scan_start > self.demands.len() {
                    self.scan_start = 0;
                }
            } else {
                i += 1;
            }
        }
    }

    /// Packets allocated so far.
    pub fn allocated(&self) -> u64 {
        self.allocated
    }

    /// Timeslots processed so far.
    pub fn slots(&self) -> u64 {
        self.slots
    }

    /// Bits allocated so far, given the MTU used per slot.
    pub fn allocated_bits(&self, mtu_bytes: u64) -> u64 {
        self.allocated * mtu_bytes * 8
    }
}

/// Adds one to a per-endpoint demand count and returns the new count.
fn bump(count: &mut u32) -> u32 {
    *count += 1;
    *count
}

/// Takes one from a per-endpoint demand count and returns the new count.
fn drop_one(count: &mut u32) -> u32 {
    *count -= 1;
    *count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matching_is_valid_no_endpoint_reused() {
        let mut a = Arbiter::new(8);
        for s in 0..4u16 {
            for d in 4..8u16 {
                a.add_demand(s, d, 10);
            }
        }
        for _ in 0..20 {
            let m = a.allocate_slot();
            let mut srcs = std::collections::HashSet::new();
            let mut dsts = std::collections::HashSet::new();
            for (s, d) in m {
                assert!(srcs.insert(s), "src {s} matched twice");
                assert!(dsts.insert(d), "dst {d} matched twice");
            }
        }
    }

    #[test]
    fn matching_is_maximal() {
        // 0→2 and 1→3 are disjoint: both must be matched every slot.
        let mut a = Arbiter::new(4);
        a.add_demand(0, 2, 5);
        a.add_demand(1, 3, 5);
        for _ in 0..5 {
            assert_eq!(a.allocate_slot().len(), 2);
        }
        assert_eq!(a.backlog(), 0);
    }

    #[test]
    fn conflicting_demands_alternate_fairly() {
        // Two demands share destination 2: each slot serves exactly one,
        // and the rotating origin alternates them.
        let mut a = Arbiter::new(3);
        a.add_demand(0, 2, 100);
        a.add_demand(1, 2, 100);
        let mut served = HashMap::new();
        for _ in 0..100 {
            let m = a.allocate_slot();
            assert_eq!(m.len(), 1);
            *served.entry(m[0].0).or_insert(0u32) += 1;
        }
        let a_share = served[&0] as f64 / 100.0;
        assert!((0.4..=0.6).contains(&a_share), "unfair split: {served:?}");
    }

    #[test]
    fn demand_is_conserved() {
        let mut a = Arbiter::new(4);
        a.add_demand(0, 1, 7);
        a.add_demand(2, 3, 3);
        let mut total = 0;
        for _ in 0..20 {
            total += a.allocate_slot().len() as u64;
        }
        assert_eq!(total, 10);
        assert_eq!(a.allocated(), 10);
        assert_eq!(a.backlog(), 0);
        assert!(a.allocate_slot().is_empty(), "nothing left");
    }

    #[test]
    fn merging_demands_accumulates() {
        let mut a = Arbiter::new(4);
        a.add_demand(0, 1, 2);
        a.add_demand(0, 1, 3);
        assert_eq!(a.backlog(), 5);
        a.add_demand(0, 1, 0); // no-op
        assert_eq!(a.backlog(), 5);
    }

    #[test]
    fn allocated_bits_accounting() {
        let mut a = Arbiter::new(4);
        a.add_demand(0, 1, 4);
        while a.backlog() > 0 {
            a.allocate_slot();
        }
        assert_eq!(a.allocated_bits(1500), 4 * 1500 * 8);
    }

    /// The greedy scan as it was first written — every demand inspected
    /// each slot, exhausted demands compacted after every slot, the
    /// backlog summed over the demands — the reference the arbiter's
    /// early exit and deferred compaction are held to.
    struct Reference {
        demands: Vec<Demand>,
        index: HashMap<(u16, u16), usize>,
        scan_start: usize,
        endpoints: usize,
    }

    impl Reference {
        fn add_demand(&mut self, src: u16, dst: u16, packets: u64) {
            match self.index.get(&(src, dst)) {
                Some(&i) => self.demands[i].packets += packets,
                None => {
                    self.index.insert((src, dst), self.demands.len());
                    self.demands.push(Demand { src, dst, packets });
                }
            }
        }

        fn backlog(&self) -> u64 {
            self.demands.iter().map(|d| d.packets).sum()
        }

        fn allocate_slot(&mut self) -> Vec<(u16, u16)> {
            let n = self.demands.len();
            let (mut src_busy, mut dst_busy) =
                (vec![false; self.endpoints], vec![false; self.endpoints]);
            let mut matched = Vec::new();
            for k in 0..n {
                let i = (self.scan_start + k) % n;
                let d = self.demands[i];
                if d.packets > 0 && !src_busy[d.src as usize] && !dst_busy[d.dst as usize] {
                    src_busy[d.src as usize] = true;
                    dst_busy[d.dst as usize] = true;
                    self.demands[i].packets -= 1;
                    matched.push((d.src, d.dst));
                }
            }
            self.scan_start = (self.scan_start + 1) % n.max(1);
            let mut i = 0;
            while i < self.demands.len() {
                if self.demands[i].packets == 0 {
                    let dead = self.demands.swap_remove(i);
                    self.index.remove(&(dead.src, dead.dst));
                    if i < self.demands.len() {
                        let moved = self.demands[i];
                        self.index.insert((moved.src, moved.dst), i);
                    }
                    if self.scan_start > self.demands.len() {
                        self.scan_start = 0;
                    }
                } else {
                    i += 1;
                }
            }
            matched
        }
    }

    #[test]
    fn the_early_exit_scan_matches_the_full_greedy_scan_slot_by_slot() {
        let mut matched = vec![(9, 9)];
        let mut contended = 0;
        for seed in 1..=200u64 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut draw = |below: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % below
            };
            let endpoints = 2 + draw(24) as usize;
            let mut arb = Arbiter::new(endpoints);
            let mut reference = Reference {
                demands: Vec::new(),
                index: HashMap::new(),
                scan_start: 0,
                endpoints,
            };
            for slot in 0..300 {
                // Bursts of demand, dense or sparse, some merging into
                // live pairs; quiet stretches drain them.
                if draw(5) == 0 {
                    for _ in 0..draw(3 * endpoints as u64) {
                        let src = draw(endpoints as u64) as u16;
                        let dst = (src + 1 + draw(endpoints as u64 - 1) as u16) % endpoints as u16;
                        let packets = 1 + draw(6);
                        arb.add_demand(src, dst, packets);
                        reference.add_demand(src, dst, packets);
                    }
                }
                let live = arb.demands.len();
                arb.allocate_slot_into(&mut matched);
                contended += usize::from(matched.len() < live);
                assert_eq!(
                    matched,
                    reference.allocate_slot(),
                    "seed {seed} slot {slot}"
                );
                assert_eq!(
                    arb.backlog(),
                    reference.backlog(),
                    "seed {seed} slot {slot}"
                );
                assert_eq!(arb.demands, reference.demands, "seed {seed} slot {slot}");
            }
        }
        assert!(contended > 1000, "the comparison saw contended slots");
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn self_demand_rejected() {
        let mut a = Arbiter::new(4);
        a.add_demand(1, 1, 1);
    }
}
