//! Differential conformance harness (ISSUE 10 satellite).
//!
//! Every control-plane equivalence test in this suite has the same
//! skeleton: build two [`TickDriver`]s, feed both the identical
//! notification stream round by round, tick both after every round, and
//! demand bit-for-bit equal update streams, final rates, counters, and
//! active-flow totals. This module owns that skeleton once:
//!
//! * [`Replay`] is a driver-independent notification schedule — either a
//!   seeded churn stream ([`Replay::churn`], the schedule the sharded /
//!   incremental equivalence tests always used) or a recording of a
//!   [`Scenario`] run ([`Replay::record`], via
//!   [`flowtune::run_scenario_traced`]'s trace hook);
//! * [`assert_bit_for_bit`] replays one schedule through a reference and
//!   a candidate driver and asserts they are indistinguishable.
//!
//! Scenario streams must be *recorded* rather than generated per driver:
//! barrier admission depends on flow completion, so the stream is an
//! output of the run. Replaying an oracle's recording into every driver
//! is exactly right for drivers that are bit-for-bit equal — which is the
//! property under test.

#![allow(dead_code)] // each integration-test binary uses a subset

use flowtune::{
    run_scenario_traced, FluidPlane, ScenarioOptions, ScenarioReport, ServiceStats, TickDriver,
};
use flowtune_proto::{Message, Token};
use flowtune_topo::{ClosConfig, TwoTierClos};
use flowtune_workload::Scenario;

/// Two blocks of 2 racks × 4 servers: 16 servers, block 0 = 0..8,
/// block 1 = 8..16, 40 G hosts — the equivalence-test fabric.
pub fn fabric() -> TwoTierClos {
    TwoTierClos::build(ClosConfig::multicore(2, 2, 4))
}

/// A `FlowletStart` with the fabric's own ECMP spine choice.
pub fn start(fabric: &TwoTierClos, token: u32, src: u16, dst: u16) -> Message {
    let spine = fabric.ecmp_spine(
        src as usize,
        dst as usize,
        flowtune_topo::FlowId(token as u64),
    );
    Message::FlowletStart {
        token: Token::new(token),
        src,
        dst,
        size_hint: 1_000_000,
        weight_q8: 256,
        spine: spine as u8,
    }
}

/// xorshift64 — a tiny deterministic stream for churn schedules.
pub fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Aggregate counters with the incremental-only telemetry masked out —
/// the full sweep keeps no dirty set, so those two fields are the one
/// place compared configs are *allowed* to differ.
pub fn masked(mut stats: ServiceStats) -> ServiceStats {
    stats.dirty_flows = 0;
    stats.dirty_links = 0;
    stats
}

/// How [`assert_bit_for_bit`] compares final counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsCheck {
    /// `ServiceStats` equal field for field.
    Exact,
    /// Equal with `dirty_flows`/`dirty_links` masked (incremental vs
    /// full-sweep comparisons).
    MaskedDirty,
}

/// A driver-independent notification schedule: `rounds[r]` is fed to a
/// driver immediately before its `r`-th tick.
#[derive(Debug, Clone)]
pub struct Replay {
    pub rounds: Vec<Vec<Message>>,
}

impl Replay {
    /// The equivalence suite's churn schedule: every third round one
    /// seeded event — mostly starts across the whole 16-server (and
    /// therefore shard) space, some ends — for `rounds` rounds. Starts
    /// always carry fresh tokens and valid endpoints, so the schedule is
    /// the same for every driver and can be precomputed.
    pub fn churn(fabric: &TwoTierClos, seed: u64, rounds: usize) -> Replay {
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut token = 0u32;
        let mut live: Vec<u32> = Vec::new();
        let mut schedule = Vec::with_capacity(rounds);
        for round in 0..rounds {
            let mut msgs = Vec::new();
            if round % 3 == 0 {
                let r = xorshift(&mut rng);
                if r.is_multiple_of(4) && !live.is_empty() {
                    let t = live.swap_remove((r >> 8) as usize % live.len());
                    msgs.push(Message::FlowletEnd {
                        token: Token::new(t),
                    });
                } else {
                    token += 1;
                    let src = (r % 16) as u16;
                    let mut dst = ((r >> 16) % 16) as u16;
                    if dst == src {
                        dst = (dst + 1) % 16;
                    }
                    msgs.push(start(fabric, token, src, dst));
                    live.push(token);
                }
            }
            schedule.push(msgs);
        }
        Replay { rounds: schedule }
    }

    /// flowbench's `quiet100k` schedule at `standing` flowlets: every one
    /// starts before round 0 between a seeded pair of distinct servers,
    /// and every `swap_every` rounds the oldest ends and a fresh one
    /// starts, for `rounds` rounds.
    pub fn swaps(
        fabric: &TwoTierClos,
        standing: u32,
        swap_every: usize,
        rounds: usize,
        seed: u64,
    ) -> Replay {
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let servers = fabric.config().server_count() as u64;
        let mut fresh = |token: u32| {
            let src = xorshift(&mut rng) % servers;
            let dst = (src + 1 + xorshift(&mut rng) % (servers - 1)) % servers;
            start(fabric, token, src as u16, dst as u16)
        };
        let mut schedule = vec![Vec::new(); rounds];
        schedule[0] = (0..standing).map(&mut fresh).collect();
        let (mut oldest, mut token) = (0, standing);
        for round in (swap_every..rounds).step_by(swap_every) {
            schedule[round] = vec![
                Message::FlowletEnd {
                    token: Token::new(oldest),
                },
                fresh(token),
            ];
            oldest += 1;
            token += 1;
        }
        Replay { rounds: schedule }
    }

    /// flowbench's `churn-web` shape: 0–18 starts a round (9 on
    /// average) between seeded pairs of distinct servers, each living
    /// 1–200 rounds, so ≈ 950 flowlets are live once the first lives
    /// have run out — for `rounds` rounds.
    pub fn web(fabric: &TwoTierClos, seed: u64, rounds: usize) -> Replay {
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let servers = fabric.config().server_count() as u64;
        let mut schedule = vec![Vec::new(); rounds];
        let mut token = 0u32;
        for round in 0..rounds {
            for _ in 0..xorshift(&mut rng) % 19 {
                let src = xorshift(&mut rng) % servers;
                let dst = (src + 1 + xorshift(&mut rng) % (servers - 1)) % servers;
                schedule[round].push(start(fabric, token, src as u16, dst as u16));
                let end = round + 1 + (xorshift(&mut rng) % 200) as usize;
                if end < rounds {
                    schedule[end].push(Message::FlowletEnd {
                        token: Token::new(token),
                    });
                }
                token += 1;
            }
        }
        Replay { rounds: schedule }
    }

    /// Records the notification stream of a scenario run driven against
    /// the oracle under `plane`, returning the schedule and the
    /// oracle's report.
    pub fn record<D: TickDriver>(
        plane: &mut FluidPlane<D>,
        scenario: &mut dyn Scenario,
        opts: &ScenarioOptions,
    ) -> (Replay, ScenarioReport) {
        let mut rounds: Vec<Vec<Message>> = Vec::new();
        let report = run_scenario_traced(plane, scenario, opts, &mut |tick, msg| {
            let t = tick as usize;
            if rounds.len() <= t {
                rounds.resize_with(t + 1, Vec::new);
            }
            rounds[t].push(*msg);
        });
        // Trailing quiet ticks (and the final tick's `FlowletEnd`s, which
        // land one round past the last tick) stay part of the schedule.
        if rounds.len() < report.ticks as usize + 1 {
            rounds.resize_with(report.ticks as usize + 1, Vec::new);
        }
        (Replay { rounds }, report)
    }

    /// Tokens started but never ended by the schedule — the ones still
    /// live after a full replay.
    pub fn live_tokens(&self) -> Vec<Token> {
        let mut live: Vec<u32> = Vec::new();
        for msg in self.rounds.iter().flatten() {
            match msg {
                Message::FlowletStart { token, .. } => live.push(token.get()),
                Message::FlowletEnd { token } => live.retain(|&t| t != token.get()),
                Message::RateUpdate { .. } => {}
            }
        }
        live.into_iter().map(Token::new).collect()
    }

    /// Total notifications in the schedule.
    pub fn message_count(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum()
    }
}

/// Replays one schedule through both drivers and asserts they are
/// indistinguishable: same intake verdict on every notification, same
/// update stream on every tick, same final rates to the bit on every
/// live token, same counters (per `stats`), same active-flow totals.
pub fn assert_bit_for_bit<A: TickDriver, B: TickDriver>(
    label: &str,
    replay: &Replay,
    reference: &mut A,
    candidate: &mut B,
    stats: StatsCheck,
) {
    for (round, msgs) in replay.rounds.iter().enumerate() {
        for msg in msgs {
            let a = reference.on_message(*msg);
            let b = candidate.on_message(*msg);
            assert_eq!(
                a, b,
                "{label}: verdicts diverged on {msg:?} (round {round})"
            );
        }
        let a = reference.tick();
        let b = candidate.tick();
        assert_eq!(a, b, "{label}: update streams diverged at round {round}");
    }
    for t in replay.live_tokens() {
        let a = reference.flow_rate_gbps(t);
        let b = candidate.flow_rate_gbps(t);
        assert_eq!(
            a.map(f64::to_bits),
            b.map(f64::to_bits),
            "{label}: rate of token {t:?} diverged: {a:?} vs {b:?}"
        );
    }
    match stats {
        StatsCheck::Exact => assert_eq!(
            reference.stats(),
            candidate.stats(),
            "{label}: aggregate counters diverged"
        ),
        StatsCheck::MaskedDirty => assert_eq!(
            masked(reference.stats()),
            masked(candidate.stats()),
            "{label}: aggregate counters diverged (dirty telemetry masked)"
        ),
    }
    assert_eq!(
        reference.active_flows(),
        candidate.active_flows(),
        "{label}: active-flow totals diverged"
    );
}
