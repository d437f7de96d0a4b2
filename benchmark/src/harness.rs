//! The round: endpoint agents → wire bytes → allocator → wire bytes →
//! endpoint agents, driven through the crates' public APIs only.
//!
//! Virtual time advances one 10 µs tick per round; rounds run back to
//! back (a closed loop of one client, saturating). The trace fixes what
//! arrives in each tick; the wall clock measures what the tick costs.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use flowtune::{AllocatorService, EndpointAgent, PhaseTimings, ServiceStats};
use flowtune_net::WireStats;
use flowtune_proto::{encode, Message, MessageIter, Token};
use flowtune_topo::TwoTierClos;

use crate::heap;
use crate::reference::Reference;
use crate::spans::{self, Recorder, Span};
use crate::stats;
use crate::trace::{Event, Trace, TICK_PS};
use crate::workload::{self, Plane, Workload};

/// Consecutive update-free ticks that count as "the filter suppresses".
const QUIET_TICKS: usize = 8;
/// Upper bound on converge ticks, so a plane that never goes quiet
/// still finishes set-up (and shows up in `setup_s`).
const MAX_CONVERGE_TICKS: usize = 2000;
/// Rounds of churn a set-up runs so the live set is stationary before
/// anything is measured: the longest lifetime plus the idle gap.
const WARMUP_ROUNDS: usize = 4200;
/// Normalized rates may exceed a link's capacity by this share.
const CAPACITY_SLACK: f64 = 1e-6;

/// A flowlet the harness knows to be live at the allocator.
#[derive(Debug, Clone, Copy)]
pub struct Live {
    pub src: u16,
    pub dst: u16,
    pub spine: u8,
}

impl Live {
    /// The notification that admits this flowlet to another allocator.
    pub fn start(&self, token: Token) -> Message {
        Message::FlowletStart {
            token,
            src: self.src,
            dst: self.dst,
            size_hint: 0,
            weight_q8: 256,
            spine: self.spine,
        }
    }

    /// The links this flowlet crosses.
    pub fn path(&self, fabric: &TwoTierClos) -> flowtune_topo::Path {
        fabric.path_via_spine(self.src as usize, self.dst as usize, self.spine as usize)
    }
}

/// Attempted and failed operations (see the README's *Correctness*).
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub examples: Vec<String>,
}

impl Ops {
    fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.examples.len() < 8 {
            self.examples.push(what());
        }
    }
}

/// Where one set-up spent its time, and the heap it left live.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupCost {
    pub topo_build_s: f64,
    pub workload_gen_s: f64,
    pub load_s: f64,
    pub converge_s: f64,
    /// Wall time of the set-up, the reference samples taken out.
    pub total_s: f64,
    /// The same in reference seconds (see `reference.rs`).
    pub total_ref_s: f64,
    pub state_bytes: i64,
}

/// Timing samples of one block's measured rounds.
#[derive(Debug, Clone, Copy)]
pub struct Block {
    pub p50_ns: Option<f64>,
    pub p99_ns: Option<f64>,
    pub mean_ns: f64,
    /// Mean round of each quarter of the block, in reference ns: wall
    /// time over the core's slowness through that quarter.
    pub window_ref_ns: [f64; WINDOWS],
    /// The core's slowness over the block (see `reference.rs`).
    pub factor: f64,
}

/// Windows per block. A window is the stretch `rounds_per_s` is formed
/// over: long enough to hold one whole swap cycle of `quiet100k` (256
/// rounds), short enough that a run has a few hundred of them.
pub const WINDOWS: usize = 4;

/// Program counters at one instant, for deltas over a window.
#[derive(Debug, Clone)]
pub struct Counters {
    pub stats: ServiceStats,
    pub phases: PhaseTimings,
    pub wire: WireStats,
}

/// Growth of the program's counters over a window of rounds.
#[derive(Debug, Default)]
pub struct Delta {
    pub rejected: u64,
    pub updates_sent: u64,
    pub updates_suppressed: u64,
    pub dirty_flows: u64,
    pub dirty_links: u64,
    pub exchange_bytes: u64,
    pub exchange_rounds: u64,
    pub decode_errors: u64,
    pub allocate: Duration,
    pub export: Duration,
    pub exchange: Duration,
    pub tx_bytes: u64,
    pub tx_frames: u64,
    pub late_rounds: u64,
}

impl Delta {
    /// Adds what grew between the snapshots `a` and `b`.
    pub fn add(&mut self, a: &Counters, b: &Counters) {
        let (s0, s1) = (&a.stats, &b.stats);
        self.rejected += s1.rejected - s0.rejected;
        self.updates_sent += s1.updates_sent - s0.updates_sent;
        self.updates_suppressed += s1.updates_suppressed - s0.updates_suppressed;
        self.dirty_flows += s1.dirty_flows - s0.dirty_flows;
        self.dirty_links += s1.dirty_links - s0.dirty_links;
        self.exchange_bytes += s1.exchange_bytes - s0.exchange_bytes;
        self.exchange_rounds += s1.exchange_rounds - s0.exchange_rounds;
        self.decode_errors += s1.exchange_decode_errors - s0.exchange_decode_errors;
        self.allocate += b.phases.allocate - a.phases.allocate;
        self.export += b.phases.export - a.phases.export;
        self.exchange += b.phases.exchange - a.phases.exchange;
        self.tx_bytes += b.wire.tx_bytes - a.wire.tx_bytes;
        self.tx_frames += b.wire.tx_frames - a.wire.tx_frames;
        self.late_rounds += b.wire.late_rounds - a.wire.late_rounds;
    }
}

/// What the traced blocks add up to.
#[derive(Debug, Default)]
pub struct Layers {
    pub rounds: u64,
    /// Program counters over the same traced rounds.
    pub counters: Delta,
    /// Span self time by name, ns, summed over traced rounds.
    pub self_ns: BTreeMap<&'static str, u64>,
    pub msgs_in: u64,
    pub msgs_out: u64,
    /// Payload bytes of the updates emitted.
    pub update_bytes: u64,
    pub intake_allocs: u64,
    pub tick_allocs: u64,
    /// The first traced block's spans, written out when the run ends.
    pub first_block: Vec<Span>,
}

pub struct Harness {
    pub workload: &'static Workload,
    pub fabric: TwoTierClos,
    pub plane: Plane,
    /// Directory inside the checkout for the wire plane's sockets.
    pub scratch: PathBuf,
    agents: Vec<EndpointAgent>,
    trace: Trace,
    events: Vec<Event>,
    /// Notification bytes of the current round, endpoint → allocator.
    notes: BytesMut,
    inbox: Vec<Message>,
    /// Update bytes of the current round, allocator → endpoints, with
    /// each update's destination server beside it (the addressing a
    /// per-endpoint connection would carry).
    updates: BytesMut,
    dests: Vec<u16>,
    /// Flowlets started and not yet given a rate: when `on_backlog`
    /// was called.
    pending: HashMap<Token, Instant>,
    pub live: HashMap<Token, Live>,
    pub ops: Ops,
    /// FNV-1a over `(server, token, rate bits)` of every emitted update.
    pub update_digest: u64,
    /// FNV-1a over every trace event handed to an agent.
    pub event_digest: u64,
    digest_frozen: bool,
    round: u32,
    rec: Recorder,
    pub layers: Layers,
    // Samples of the measured rounds.
    round_ns: Vec<u32>,
    pub react_ns: Vec<u32>,
    pub measured_rounds: u64,
    /// Fullest link seen at any block end, as a share of its capacity.
    pub peak_link_load: f64,
    /// The last non-empty update batch a measured round's tick returned.
    pub sample_updates: Vec<(u16, Message)>,
}

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash = (*hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn hash_event(hash: &mut u64, event: &Event) {
    let (tag, src, a, b) = match *event {
        Event::Start {
            src,
            dst,
            flow,
            bytes,
        } => (0u8, src, flow ^ (dst as u64) << 48, bytes),
        Event::Drain { src, flow } => (1, src, flow, 0),
        Event::Poll { src } => (2, src, 0, 0),
    };
    fnv(hash, &[tag]);
    fnv(hash, &src.to_be_bytes());
    fnv(hash, &a.to_be_bytes());
    fnv(hash, &b.to_be_bytes());
}

impl Harness {
    /// Builds fabric, plane and agents, admits the standing flows and
    /// runs until the plane is in the state a measurement starts from.
    pub fn set_up(
        workload: &'static Workload,
        seed: u64,
        scratch: &Path,
        reference: &mut Reference,
    ) -> (Harness, SetupCost) {
        let heap0 = heap::live_bytes();
        reference.mark();
        let t0 = Instant::now();
        let fabric = workload::fabric();
        let topo_build_s = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let servers = fabric.config().server_count();
        let (trace, standing) = Trace::new(&workload.trace, servers as u16, seed);
        let workload_gen_s = t1.elapsed().as_secs_f64();

        let t2 = Instant::now();
        let plane = Plane::build(workload.plane, &fabric, scratch);
        let cfg = workload::config(workload.plane);
        let agents = (0..servers)
            .map(|s| EndpointAgent::with_config(s as u16, servers, fabric.config().spines, cfg))
            .collect();
        let rounds = workload.rounds_per_block;
        let mut h = Harness {
            workload,
            fabric,
            plane,
            scratch: scratch.to_path_buf(),
            agents,
            trace,
            events: Vec::new(),
            notes: BytesMut::new(),
            inbox: Vec::new(),
            updates: BytesMut::new(),
            dests: Vec::new(),
            pending: HashMap::new(),
            live: HashMap::new(),
            ops: Ops::default(),
            update_digest: FNV_OFFSET,
            event_digest: FNV_OFFSET,
            digest_frozen: false,
            round: 0,
            rec: Recorder::with_capacity(rounds * 8),
            layers: Layers::default(),
            round_ns: Vec::with_capacity(rounds),
            react_ns: Vec::new(),
            measured_rounds: 0,
            peak_link_load: 0.0,
            sample_updates: Vec::new(),
        };
        // The standing set arrives as one burst before tick 0.
        h.events = standing;
        h.run_round::<false>(0, false, reference);
        let load_s = t2.elapsed().as_secs_f64();

        let t3 = Instant::now();
        if workload.trace.web_load.is_some() {
            for _ in 0..WARMUP_ROUNDS {
                h.next_round::<false>(false, reference);
            }
        } else {
            let mut quiet = 0;
            for _ in 0..MAX_CONVERGE_TICKS {
                h.events.clear();
                h.run_round::<false>(0, false, reference);
                quiet = if h.dests.is_empty() { quiet + 1 } else { 0 };
                if quiet == QUIET_TICKS {
                    break;
                }
            }
        }
        let converge_s = t3.elapsed().as_secs_f64();
        let total = t0.elapsed();
        let stretch = reference.mark();
        let total_s = (total - stretch.sampling).as_secs_f64();
        let cost = SetupCost {
            topo_build_s,
            workload_gen_s,
            load_s,
            converge_s,
            total_s,
            total_ref_s: total_s / stretch.factor,
            state_bytes: heap::live_bytes() - heap0,
        };
        (h, cost)
    }

    /// Runs the lead-in and then one block of measured rounds, checks
    /// link capacities on the state the block ends in.
    pub fn run_block<const TRACED: bool>(&mut self, reference: &mut Reference) -> Block {
        let rounds = self.workload.rounds_per_block;
        for _ in 0..rounds / 20 {
            self.next_round::<false>(false, reference);
        }
        self.round_ns.clear();
        let before = TRACED.then(|| {
            self.rec.clear();
            self.counters()
        });
        assert_eq!(rounds % WINDOWS, 0, "a block is whole windows");
        let mut window_ref_ns = [0.0; WINDOWS];
        let mut factors = 0.0;
        reference.mark();
        for window in &mut window_ref_ns {
            let first = self.round_ns.len();
            for _ in 0..rounds / WINDOWS {
                self.next_round::<TRACED>(true, reference);
            }
            let factor = reference.mark().factor;
            *window = stats::mean(&self.round_ns[first..]) / factor;
            factors += factor;
        }
        if let Some(before) = before {
            let after = self.counters();
            self.layers.counters.add(&before, &after);
            self.fold_spans();
        }
        // The digest covers set-up and the first block: a fixed number
        // of rounds, so it repeats exactly however long the run lasts.
        self.digest_frozen = true;
        // F-NORM keeps an unsharded plane within capacity on every tick.
        // A sharded plane normalizes against its peers' loads of one
        // tick ago, so under churn it may overshoot; there the peak is
        // reported, and feasibility is asserted once the plane has
        // settled (`check_against_oracle`).
        let fullest = self.check_capacities(!workload::is_sharded(self.workload.plane));
        self.peak_link_load = self.peak_link_load.max(fullest);
        let mut sorted = self.round_ns.clone();
        sorted.sort_unstable();
        Block {
            p50_ns: stats::percentile(&sorted, 0.5),
            p99_ns: stats::percentile(&sorted, 0.99),
            mean_ns: stats::mean(&sorted),
            window_ref_ns,
            factor: factors / WINDOWS as f64,
        }
    }

    fn next_round<const TRACED: bool>(&mut self, measured: bool, reference: &mut Reference) {
        let mut events = std::mem::take(&mut self.events);
        let tick = self.trace.next_tick(&mut events);
        self.events = events;
        self.run_round::<TRACED>(tick * TICK_PS, measured, reference);
    }

    fn open<const TRACED: bool>(&mut self, name: &'static str) -> Option<u32> {
        TRACED.then(|| self.rec.open(name, self.round))
    }

    fn close(&mut self, span: Option<u32>) {
        if let Some(id) = span {
            self.rec.close(id);
        }
    }

    /// One round over `self.events` at virtual time `now_ps`; after it,
    /// outside everything that is timed, a reference sample if one is due.
    fn run_round<const TRACED: bool>(
        &mut self,
        now_ps: u64,
        measured: bool,
        reference: &mut Reference,
    ) {
        self.round += 1;

        // 1. Endpoints: queue events in, notification bytes out.
        let span = self.open::<TRACED>("endpoint.notify");
        self.notes.clear();
        for i in 0..self.events.len() {
            let event = self.events[i];
            if !self.digest_frozen {
                hash_event(&mut self.event_digest, &event);
            }
            match event {
                Event::Start {
                    src,
                    dst,
                    flow,
                    bytes,
                } => {
                    let called = Instant::now();
                    let start = self.agents[src as usize].on_backlog(flow, dst, bytes, now_ps);
                    let Some(Message::FlowletStart { token, spine, .. }) = start else {
                        self.ops
                            .fail(|| format!("flow {flow:#x} did not start a flowlet"));
                        continue;
                    };
                    encode(&start.expect("matched above"), &mut self.notes);
                    self.pending.insert(token, called);
                    self.live.insert(token, Live { src, dst, spine });
                }
                Event::Drain { src, flow } => self.agents[src as usize].on_drained(flow, now_ps),
                Event::Poll { src } => {
                    let mut ends = self.agents[src as usize].poll(now_ps);
                    // The agent walks a HashMap; the wire order must not
                    // depend on its hasher's per-process seed.
                    ends.sort_unstable_by_key(|m| match m {
                        Message::FlowletEnd { token } => *token,
                        _ => unreachable!("poll emits ends only"),
                    });
                    for end in &ends {
                        if let Message::FlowletEnd { token } = end {
                            self.live.remove(token);
                            self.pending.remove(token);
                        }
                        encode(end, &mut self.notes);
                    }
                }
            }
        }
        self.close(span);

        // 2. The allocator side, timed as the round: notification bytes
        // in → update bytes out.
        let started = Instant::now();
        let round_span = self.open::<TRACED>("round");

        let span = self.open::<TRACED>("proto.decode");
        self.inbox.clear();
        for msg in MessageIter::new(&self.notes) {
            match msg {
                Ok(msg) => self.inbox.push(msg),
                Err(e) => self
                    .ops
                    .fail(|| format!("notification did not decode: {e:?}")),
            }
        }
        self.close(span);

        let span = self.open::<TRACED>("service.intake");
        let allocs = heap::calls();
        for i in 0..self.inbox.len() {
            let msg = self.inbox[i];
            if let Err(e) = self.plane.on_message(msg) {
                self.ops.fail(|| format!("{msg:?} rejected: {e}"));
            }
        }
        let intake_allocs = heap::calls() - allocs;
        self.close(span);

        let span = self.open::<TRACED>("driver.tick");
        let allocs = heap::calls();
        let ticked = self.plane.tick();
        let tick_allocs = heap::calls() - allocs;
        self.close(span);

        let span = self.open::<TRACED>("proto.encode");
        self.updates.clear();
        self.dests.clear();
        match &ticked {
            Ok(updates) => {
                for (server, update) in updates {
                    encode(update, &mut self.updates);
                    self.dests.push(*server);
                }
            }
            Err(e) => self.ops.fail(|| format!("tick failed: {e}")),
        }
        self.close(span);

        let round_ns = match round_span {
            Some(id) => {
                self.rec.close(id);
                self.rec.spans()[id as usize].ns()
            }
            None => started.elapsed().as_nanos() as u64,
        };
        if let Ok(batch) = ticked {
            if measured && !batch.is_empty() {
                self.sample_updates = batch;
            }
        }

        // 3. Endpoints: update bytes in, pacing rates applied.
        let span = self.open::<TRACED>("endpoint.apply");
        let mut delivered = 0;
        for update in MessageIter::new(&self.updates) {
            let Ok(update @ Message::RateUpdate { token, rate }) = update else {
                self.ops
                    .fail(|| format!("update did not decode: {update:?}"));
                break;
            };
            let server = self.dests[delivered];
            delivered += 1;
            if self.agents[server as usize]
                .on_rate_update(&update)
                .is_none()
            {
                self.ops
                    .fail(|| format!("update for {token:?} names no live flowlet at {server}"));
            }
            if let Some(called) = self.pending.remove(&token) {
                if measured {
                    let ns = called.elapsed().as_nanos();
                    self.react_ns.push(ns.min(u32::MAX as u128) as u32);
                }
            }
            if !self.digest_frozen {
                fnv(&mut self.update_digest, &server.to_be_bytes());
                fnv(&mut self.update_digest, &token.get().to_be_bytes());
                fnv(&mut self.update_digest, &rate.bits().to_be_bytes());
            }
        }
        if delivered != self.dests.len() {
            self.ops.fail(|| "update bytes ended early".to_string());
        }
        self.close(span);

        self.ops.attempted += self.inbox.len() as u64 + 1 + delivered as u64;
        if measured {
            self.round_ns.push(round_ns.min(u32::MAX as u64) as u32);
            self.measured_rounds += 1;
            if TRACED {
                self.layers.update_bytes += self.updates.len() as u64;
                self.layers.msgs_in += self.inbox.len() as u64;
                self.layers.msgs_out += delivered as u64;
                self.layers.intake_allocs += intake_allocs;
                self.layers.tick_allocs += tick_allocs;
            }
        }
        reference.sample_if_due();
    }

    /// Adds the block's spans to the layer totals. `self_times` asserts
    /// on the way that every child lies inside its parent and that no
    /// span's children outlast it, so a round is the sum of its parts.
    fn fold_spans(&mut self) {
        let spans = self.rec.spans();
        for (s, own) in spans.iter().zip(spans::self_times(spans)) {
            let name = if s.name == "round" {
                "round.unattributed"
            } else {
                s.name
            };
            *self.layers.self_ns.entry(name).or_default() += own;
        }
        self.layers.rounds += self.workload.rounds_per_block as u64;
        if self.layers.first_block.is_empty() {
            self.layers.first_block = spans.to_vec();
        }
    }

    pub fn counters(&self) -> Counters {
        Counters {
            stats: self.plane.driver().stats(),
            phases: self.plane.driver().phase_timings(),
            wire: self.plane.wire_stats(),
        }
    }

    /// Live flowlets in token order.
    pub fn live_sorted(&self) -> Vec<(Token, Live)> {
        let mut live: Vec<_> = self.live.iter().map(|(&t, &l)| (t, l)).collect();
        live.sort_unstable_by_key(|&(t, _)| t);
        live
    }

    /// One sampled round: sums every live flowlet's normalized rate over
    /// its path and returns the fullest link's load as a share of its
    /// capacity. A live flowlet the plane does not know is a failed
    /// operation, and so — when `strict` — is a link over capacity.
    fn check_capacities(&mut self, strict: bool) -> f64 {
        self.ops.attempted += 1;
        let links = self.fabric.topology().links();
        let mut load = vec![0.0f64; links.len()];
        let mut unknown = 0usize;
        for (token, flow) in self.live_sorted() {
            let Some(gbps) = self.plane.driver().flow_rate_gbps(token) else {
                unknown += 1;
                continue;
            };
            let path = flow.path(&self.fabric);
            for link in path.iter() {
                load[link.index()] += gbps;
            }
        }
        let fullest = links
            .iter()
            .map(|l| load[l.id.index()] / (l.capacity_bps as f64 / 1e9))
            .fold(0.0, f64::max);
        if unknown > 0 {
            self.ops
                .fail(|| format!("{unknown} live flowlets are unknown to the plane"));
        } else if strict && fullest > 1.0 + CAPACITY_SLACK {
            let round = self.round;
            self.ops
                .fail(|| format!("round {round}: a link is loaded to {fullest:.6} of capacity"));
        }
        fullest
    }

    /// The sharded planes must agree with an unsharded serial allocator
    /// on where the live set converges: both are run quiet until settled,
    /// then every live flowlet's rate is compared and the settled plane
    /// must be within every link's capacity.
    pub fn check_against_oracle(&mut self, reference: &mut Reference) {
        let cfg = workload::config(workload::PlaneKind::Serial);
        let mut oracle = AllocatorService::new(&self.fabric, cfg);
        let live = self.live_sorted();
        for &(token, flow) in &live {
            oracle
                .on_message(flow.start(token))
                .expect("live tokens are distinct and in range");
        }
        for _ in 0..ORACLE_TICKS {
            oracle.tick();
            self.events.clear();
            self.run_round::<false>(0, false, reference);
        }
        let fullest = self.check_capacities(true);
        let mut worst = 0.0f64;
        for (token, _) in live {
            self.ops.attempted += 1;
            let want = oracle.flow_rate_gbps(token).expect("admitted above");
            let got = self.plane.driver().flow_rate_gbps(token).unwrap_or(0.0);
            let off = (got - want).abs() / want;
            worst = worst.max(off);
            if off > cfg.update_threshold {
                self.ops.fail(|| {
                    format!("{token:?}: {got:.4} Gbit/s, unsharded oracle {want:.4} Gbit/s")
                });
            }
        }
        eprintln!(
            "  settled: rates within {:.4} % of the unsharded oracle, fullest link at {fullest:.6}",
            worst * 100.0
        );
    }
}

/// Quiet ticks the oracle comparison lets both planes settle for.
const ORACLE_TICKS: usize = 2000;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceSpec;
    use crate::workload::PlaneKind;

    const TRACE: TraceSpec = TraceSpec {
        standing: 48,
        web_load: Some(0.05),
        swap_every: Some(64),
    };
    static SERIAL: Workload = Workload {
        name: "test-serial",
        plane: PlaneKind::Serial,
        trace: TRACE,
        rounds_per_block: 300,
    };
    static SHARDED: Workload = Workload {
        name: "test-sharded",
        plane: PlaneKind::Sharded4,
        trace: TRACE,
        rounds_per_block: 300,
    };

    /// Sets up, runs one block, returns `(event digest, update digest)`.
    fn digests(workload: &'static Workload, seed: u64) -> (u64, u64) {
        let (mut h, _) =
            Harness::set_up(workload, seed, Path::new("unused"), &mut Reference::new());
        h.run_block::<false>(&mut Reference::new());
        assert_eq!(h.ops.failed, 0, "{:?}", h.ops.examples);
        assert!(h.ops.attempted > 300);
        (h.event_digest, h.update_digest)
    }

    #[test]
    fn a_seed_fixes_events_and_updates_and_another_seed_changes_them() {
        let first = digests(&SERIAL, 5);
        assert_eq!(first, digests(&SERIAL, 5));
        let other = digests(&SERIAL, 6);
        assert_ne!(first.0, other.0);
        assert_ne!(first.1, other.1);
    }

    #[test]
    fn no_event_depends_on_a_rate_the_allocator_returned() {
        // Two planes that hand out different rates are fed the same events.
        let (serial_events, serial_updates) = digests(&SERIAL, 5);
        let (sharded_events, sharded_updates) = digests(&SHARDED, 5);
        assert_eq!(serial_events, sharded_events);
        assert_ne!(serial_updates, sharded_updates);
    }

    #[test]
    fn a_traced_block_accounts_for_every_round() {
        let (mut h, cost) = Harness::set_up(&SERIAL, 5, Path::new("unused"), &mut Reference::new());
        assert!(cost.state_bytes > 0 && cost.total_s > 0.0 && cost.total_ref_s > 0.0);
        let block = h.run_block::<true>(&mut Reference::new());
        assert_eq!(h.layers.rounds, 300);
        assert!(block.factor > 0.0 && block.window_ref_ns.iter().all(|&ns| ns > 0.0));
        // Seven spans a round, nested as `self_times` demands.
        assert_eq!(h.layers.first_block.len(), 7 * 300);
        let round_ns: u64 = [
            "proto.decode",
            "service.intake",
            "driver.tick",
            "proto.encode",
        ]
        .iter()
        .chain(&["round.unattributed"])
        .map(|name| h.layers.self_ns[name])
        .sum();
        let mean = round_ns as f64 / 300.0;
        assert!(
            (mean - block.mean_ns).abs() < 1.0,
            "{mean} vs {}",
            block.mean_ns
        );
        assert!(h.layers.msgs_in > 0 && h.layers.msgs_out > 0);
        assert_eq!(h.layers.counters.updates_sent, h.layers.msgs_out);
        assert_eq!(h.layers.update_bytes, 6 * h.layers.msgs_out);
    }

    #[test]
    fn the_sharded_plane_settles_on_the_oracle() {
        let (mut h, _) = Harness::set_up(&SHARDED, 5, Path::new("unused"), &mut Reference::new());
        h.run_block::<false>(&mut Reference::new());
        let compared = h.ops.attempted;
        h.check_against_oracle(&mut Reference::new());
        assert!(h.ops.attempted > compared + 48);
        assert_eq!(h.ops.failed, 0, "{:?}", h.ops.examples);
    }

    #[test]
    fn a_start_the_agent_refuses_is_a_failed_operation() {
        let (mut h, _) = Harness::set_up(&SERIAL, 5, Path::new("unused"), &mut Reference::new());
        let (_, live) = h.live_sorted()[0];
        // The standing flowlets use flow ids `src << 32 | slot`; slot 0 of
        // a source that has one is backlogged already.
        h.events = vec![Event::Start {
            src: live.src,
            dst: live.dst,
            flow: (live.src as u64) << 32,
            bytes: 1,
        }];
        h.run_round::<false>(0, false, &mut Reference::new());
        assert_eq!(h.ops.failed, 1);
        assert!(h.ops.examples[0].contains("did not start a flowlet"));
    }
}
