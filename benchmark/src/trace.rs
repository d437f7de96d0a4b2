//! The seeded trace: what arrives at the endpoints in each 10 µs tick.
//!
//! A trace is a pure function of its [`TraceSpec`] and seed. It never
//! sees a rate the allocator returned: a flowlet's lifetime is its size
//! divided by a nominal 1 Gbit/s drain, so two commits (and two planes)
//! are offered the identical event stream, and the wall clock only
//! measures what each tick *costs*.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use flowtune_topo::clos::splitmix64;
use flowtune_workload::{FlowletEvent, TraceConfig, TraceGenerator, Workload};

/// One allocator tick of virtual time, ps (§6.2: 10 µs).
pub const TICK_PS: u64 = 10_000_000;
/// Ticks an empty queue waits before its flowlet ends: the endpoint
/// default `flowlet_idle_ps` (30 µs) in ticks.
pub const IDLE_TICKS: u64 = 3;
/// Link rate the Poisson load calibration assumes, bits/s.
const LOAD_LINK_BPS: u64 = 10_000_000_000;
/// Bits a flowlet drains per tick at the nominal 1 Gbit/s that turns
/// its bytes into a lifetime.
const DRAIN_BITS_PER_TICK: u64 = 1_000_000_000 / (1_000_000_000_000 / TICK_PS);
const MAX_LIFE_TICKS: u64 = 4096;

/// What one endpoint is told to do in a tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// `bytes` were queued on `flow` toward `dst`: a flowlet starts.
    Start {
        src: u16,
        dst: u16,
        flow: u64,
        bytes: u64,
    },
    /// The send queue of `flow` ran empty.
    Drain { src: u16, flow: u64 },
    /// The idle threshold of a drained queue at `src` has passed: the
    /// agent's clock poll emits the flowlet end.
    Poll { src: u16 },
}

/// The input mix of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSpec {
    /// Uniform long-lived flowlets admitted before tick 0.
    pub standing: usize,
    /// Poisson arrivals of Facebook-Web-sized flowlets at this load.
    pub web_load: Option<f64>,
    /// Every this many ticks the oldest standing flowlet ends and a new
    /// one starts.
    pub swap_every: Option<u64>,
}

#[derive(Debug)]
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        splitmix64(self.0)
    }

    fn pair(&mut self, servers: u16) -> (u16, u16) {
        let src = (self.next() % servers as u64) as u16;
        let dst = (self.next() % (servers as u64 - 1)) as u16;
        (src, if dst >= src { dst + 1 } else { dst })
    }
}

/// Seeded source of per-tick endpoint events.
#[derive(Debug)]
pub struct Trace {
    servers: u16,
    rng: Rng,
    swap_every: Option<u64>,
    web: Option<TraceGenerator>,
    /// The arrival the generator produced beyond the current tick.
    web_next: Option<FlowletEvent>,
    /// `(drain tick, src, slot)` of every churn flowlet in flight.
    drains: BinaryHeap<Reverse<(u64, u16, u32)>>,
    /// `(tick, src, slot)`: polls owed, in tick order; the slot is free
    /// for reuse once its poll has run.
    polls: VecDeque<(u64, u16, u32)>,
    /// Standing flowlets, oldest first.
    standing: VecDeque<(u16, u32)>,
    /// Per-source flow-id slots: recycled so an agent's flow table stays
    /// as small as its peak concurrency.
    free: Vec<Vec<u32>>,
    next_slot: Vec<u32>,
    next_tick: u64,
}

fn flow_id(src: u16, slot: u32) -> u64 {
    (src as u64) << 32 | slot as u64
}

/// Flowlet lifetime in ticks: bytes over the nominal drain rate.
pub fn life_ticks(bytes: u64) -> u64 {
    bytes
        .saturating_mul(8)
        .div_ceil(DRAIN_BITS_PER_TICK)
        .clamp(1, MAX_LIFE_TICKS)
}

impl Trace {
    /// Builds the trace and returns it with the standing set's starts
    /// (to be admitted before tick 0).
    pub fn new(spec: &TraceSpec, servers: u16, seed: u64) -> (Self, Vec<Event>) {
        let web = spec.web_load.map(|load| {
            TraceGenerator::new(TraceConfig {
                workload: Workload::Web,
                load,
                servers: servers as usize,
                server_link_bps: LOAD_LINK_BPS,
                seed,
                affinity: None,
            })
        });
        let mut trace = Trace {
            servers,
            rng: Rng(splitmix64(seed)),
            swap_every: spec.swap_every,
            web,
            web_next: None,
            drains: BinaryHeap::new(),
            polls: VecDeque::new(),
            standing: VecDeque::new(),
            free: vec![Vec::new(); servers as usize],
            next_slot: vec![0; servers as usize],
            next_tick: 0,
        };
        let starts = (0..spec.standing).map(|_| trace.start_standing()).collect();
        (trace, starts)
    }

    fn slot(&mut self, src: u16) -> u32 {
        self.free[src as usize].pop().unwrap_or_else(|| {
            let slot = self.next_slot[src as usize];
            self.next_slot[src as usize] += 1;
            slot
        })
    }

    fn start_standing(&mut self) -> Event {
        let (src, dst) = self.rng.pair(self.servers);
        let slot = self.slot(src);
        self.standing.push_back((src, slot));
        Event::Start {
            src,
            dst,
            flow: flow_id(src, slot),
            bytes: 1_000_000,
        }
    }

    /// Appends the events of the next tick to `out` (which it clears)
    /// and returns that tick's number. Order within a tick is fixed:
    /// polls, drains, the swap, then arrivals by arrival time.
    pub fn next_tick(&mut self, out: &mut Vec<Event>) -> u64 {
        out.clear();
        let tick = self.next_tick;
        self.next_tick += 1;
        while self.polls.front().is_some_and(|p| p.0 <= tick) {
            let (_, src, slot) = self.polls.pop_front().expect("front was checked");
            self.free[src as usize].push(slot);
            out.push(Event::Poll { src });
        }
        while self.drains.peek().is_some_and(|d| d.0 .0 <= tick) {
            let Reverse((_, src, slot)) = self.drains.pop().expect("peek was checked");
            self.drain(tick, src, slot, out);
        }
        if self
            .swap_every
            .is_some_and(|k| tick > 0 && tick.is_multiple_of(k))
        {
            if let Some((src, slot)) = self.standing.pop_front() {
                self.drain(tick, src, slot, out);
            }
            out.push(self.start_standing());
        }
        while let Some(e) = self.arrival_before((tick + 1) * TICK_PS) {
            let src = e.src as u16;
            let slot = self.slot(src);
            self.drains
                .push(Reverse((tick + life_ticks(e.bytes), src, slot)));
            out.push(Event::Start {
                src,
                dst: e.dst as u16,
                flow: flow_id(src, slot),
                bytes: e.bytes,
            });
        }
        tick
    }

    fn arrival_before(&mut self, horizon_ps: u64) -> Option<FlowletEvent> {
        let gen = self.web.as_mut()?;
        let e = self.web_next.take().unwrap_or_else(|| gen.next_event());
        if e.at_ps >= horizon_ps {
            self.web_next = Some(e);
            return None;
        }
        Some(e)
    }

    fn drain(&mut self, tick: u64, src: u16, slot: u32, out: &mut Vec<Event>) {
        out.push(Event::Drain {
            src,
            flow: flow_id(src, slot),
        });
        self.polls.push_back((tick + IDLE_TICKS, src, slot));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHURN: TraceSpec = TraceSpec {
        standing: 64,
        web_load: Some(0.8),
        swap_every: Some(16),
    };

    fn events(spec: &TraceSpec, seed: u64, ticks: u64) -> Vec<(u64, Event)> {
        let (mut trace, standing) = Trace::new(spec, 128, seed);
        let mut all: Vec<(u64, Event)> = standing.into_iter().map(|e| (0, e)).collect();
        let mut buf = Vec::new();
        for _ in 0..ticks {
            let tick = trace.next_tick(&mut buf);
            all.extend(buf.iter().map(|&e| (tick, e)));
        }
        all
    }

    #[test]
    fn same_seed_same_events_other_seed_other_events() {
        let a = events(&CHURN, 7, 2000);
        assert_eq!(a, events(&CHURN, 7, 2000));
        assert_ne!(a, events(&CHURN, 8, 2000));
    }

    #[test]
    fn every_start_drains_once_and_is_polled_after_the_idle_gap() {
        let all = events(&CHURN, 3, 6000);
        let mut open = std::collections::HashMap::new();
        let mut owed = Vec::new();
        for (tick, e) in all {
            match e {
                Event::Start { src, dst, flow, .. } => {
                    assert_ne!(src, dst);
                    assert!(open.insert(flow, tick).is_none(), "slot reused while live");
                }
                Event::Drain { src, flow } => {
                    assert!(open.contains_key(&flow));
                    owed.push((tick + IDLE_TICKS, src, flow));
                }
                Event::Poll { src } => {
                    let at = owed
                        .iter()
                        .position(|&(due, s, _)| due == tick && s == src)
                        .expect("a poll answers a drain three ticks earlier");
                    open.remove(&owed.swap_remove(at).2);
                }
            }
        }
    }

    #[test]
    fn lifetimes_follow_bytes_not_rates() {
        assert_eq!(life_ticks(1), 1);
        assert_eq!(life_ticks(1250), 1);
        assert_eq!(life_ticks(125_000), 100);
        assert_eq!(life_ticks(u64::MAX / 16), MAX_LIFE_TICKS);
    }
}
