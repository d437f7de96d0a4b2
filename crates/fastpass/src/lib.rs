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
    /// Active demands (packets > 0), scanned round-robin.
    demands: Vec<Demand>,
    /// (src, dst) → index into `demands`.
    index: HashMap<(u16, u16), usize>,
    /// Rotating scan origin: equal long-run service for equal demands.
    scan_start: usize,
    /// Scratch: src/dst busy flags for the current slot.
    src_busy: Vec<bool>,
    dst_busy: Vec<bool>,
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
        match self.index.get(&(src, dst)) {
            Some(&i) => self.demands[i].packets += packets,
            None => {
                self.index.insert((src, dst), self.demands.len());
                self.demands.push(Demand { src, dst, packets });
            }
        }
    }

    /// Outstanding packets across all demands.
    pub fn backlog(&self) -> u64 {
        self.demands.iter().map(|d| d.packets).sum()
    }

    /// Allocates one timeslot: a greedy maximal matching over the active
    /// demands. Returns the `(src, dst)` pairs that send in this slot.
    pub fn allocate_slot(&mut self) -> Vec<(u16, u16)> {
        self.slots += 1;
        let n = self.demands.len();
        if n == 0 {
            return Vec::new();
        }
        self.src_busy.iter_mut().for_each(|b| *b = false);
        self.dst_busy.iter_mut().for_each(|b| *b = false);
        let mut matched = Vec::new();
        // Greedy scan from a rotating origin: maximal because every
        // demand is inspected once and taken whenever both ends are free.
        for k in 0..n {
            let i = (self.scan_start + k) % n;
            let d = self.demands[i];
            if d.packets > 0 && !self.src_busy[d.src as usize] && !self.dst_busy[d.dst as usize] {
                self.src_busy[d.src as usize] = true;
                self.dst_busy[d.dst as usize] = true;
                self.demands[i].packets -= 1;
                matched.push((d.src, d.dst));
            }
        }
        self.scan_start = (self.scan_start + 1) % n.max(1);
        self.allocated += matched.len() as u64;
        self.compact();
        matched
    }

    /// Drops exhausted demands, keeping `index` consistent.
    fn compact(&mut self) {
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

    #[test]
    #[should_panic(expected = "must differ")]
    fn self_demand_rejected() {
        let mut a = Arbiter::new(4);
        a.add_demand(1, 1, 1);
    }
}
