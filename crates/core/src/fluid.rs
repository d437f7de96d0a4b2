//! The fluid data plane: the one statement of how a flowlet drains.
//!
//! The control-plane experiments (Figures 5–7, 12–14) put a real
//! allocator under a data plane with no packets in it: a flowlet drains
//! at the rate the allocator last gave it and *ends* when its bytes run
//! out — §1's "sender's queue is empty", in fluid form. Three rules make
//! up the model, and they live here only:
//!
//! 1. **Drain.** Over one tick a flow at `r` Gbit/s moves
//!    `r · interval_ps / 8000` bytes, capped at what it has left.
//! 2. **Retirement order.** Flows that run out on the same tick leave in
//!    ascending key order. End order decides which slab slots the next
//!    starts reuse, hence engine flow ids and float summation order — any
//!    order that depends on a hash seed or on admission history makes a
//!    seed stop reproducing its run to the bit.
//! 3. **The mint.** Tokens ascend from 1 and, past [`Token::MAX`], take
//!    the lowest value not live ([`crate::EndpointAgent`]'s rule).
//!
//! [`FluidFlows`] is rules 1 and 2 over flowlet tokens; [`FluidPlane`]
//! adds a [`TickDriver`], its cadence and rule 3. Beside them sit the two
//! feasibility meters every experiment reads off a plane:
//! [`overallocation_gbps`] for the engine's raw allocation and
//! [`worst_oversubscription`] for the normalized, endpoint-visible rates.

use flowtune_proto::{Message, Token};
use flowtune_topo::{FlowId, Path, TwoTierClos};

use crate::driver::{BoxTickDriver, TickDriver};
use crate::TICK_INTERVAL_PS;

/// A flow that left a [`FluidFlows`] table, with the bytes it moved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ended {
    /// The token it was admitted under.
    pub key: Token,
    /// Bytes delivered over its lifetime: its whole size when it drained,
    /// less when it was cut.
    pub delivered_bytes: f64,
}

impl Ended {
    /// The `FlowletEnd` the plane fed its driver for this flow.
    pub fn notification(&self) -> Message {
        Message::FlowletEnd { token: self.key }
    }
}

/// A draining flow: what it was admitted with and what is left, so a
/// leaver is credited `size − remaining` — a flow that ran out, exactly
/// its size, whatever the per-tick moves summed to.
#[derive(Debug)]
struct Row {
    key: Token,
    size: f64,
    remaining: f64,
}

impl Row {
    fn ended(&self) -> Ended {
        Ended {
            key: self.key,
            delivered_bytes: self.size - self.remaining,
        }
    }
}

/// The table of draining flows: rows sorted by token, so a drain visits —
/// and retires — flows in ascending token order whatever order they were
/// admitted in.
#[derive(Debug, Default)]
pub struct FluidFlows {
    rows: Vec<Row>,
    /// The latest drain's or cut's leavers, reused across calls.
    ended: Vec<Ended>,
}

impl FluidFlows {
    /// Live flows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no flow is live.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Whether `key` is live.
    pub fn contains(&self, key: Token) -> bool {
        self.rows.binary_search_by_key(&key, |r| r.key).is_ok()
    }

    /// The live keys, ascending.
    pub fn keys(&self) -> impl Iterator<Item = Token> + '_ {
        self.rows.iter().map(|r| r.key)
    }

    /// Admits a flow of `bytes` under `key`.
    ///
    /// # Panics
    /// Panics if `key` is already live.
    pub fn admit(&mut self, key: Token, bytes: f64) {
        let Err(at) = self.rows.binary_search_by_key(&key, |r| r.key) else {
            panic!("fluid flow admitted twice under one key");
        };
        self.rows.insert(
            at,
            Row {
                key,
                size: bytes,
                remaining: bytes,
            },
        );
    }

    /// Drains every flow for one tick of `interval_ps` at
    /// `rate_of(key)` Gbit/s and retires the ones that ran out, lending
    /// them out in ascending key order (valid until the next drain or
    /// cut). Allocates nothing once the buffers are warm.
    // flowtune-lint: hot
    pub fn drain(&mut self, interval_ps: u64, mut rate_of: impl FnMut(Token) -> f64) -> &[Ended] {
        // Gbit/s → bytes per tick: 1e9 bits/s · (interval/1e12) s / 8.
        let bytes_per_gbit_tick = interval_ps as f64 / 8_000.0;
        let ended = &mut self.ended;
        ended.clear();
        self.rows.retain_mut(|row| {
            let moved = (rate_of(row.key) * bytes_per_gbit_tick).min(row.remaining);
            row.remaining -= moved;
            let done = row.remaining <= 0.0;
            if done {
                ended.push(row.ended());
            }
            !done
        });
        ended
    }

    /// Retires every live flow where it stands, crediting each with the
    /// bytes it moved so far; ascending key order, as [`FluidFlows::drain`].
    pub fn cut_all(&mut self) -> &[Ended] {
        self.ended.clear();
        self.ended
            .extend(self.rows.drain(..).map(|row| row.ended()));
        &self.ended
    }
}

/// A [`TickDriver`] under the fluid data plane: the driver, the update
/// buffer it ticks into, the flows it is draining and the mint for their
/// tokens. Every notification the driver sees comes from
/// [`FluidPlane::start`], [`FluidPlane::drain`] or
/// [`FluidPlane::cut_all`], so the plane's table and the driver's
/// registry hold the same flowlets at every step.
#[derive(Debug)]
pub struct FluidPlane<D: TickDriver = BoxTickDriver> {
    driver: D,
    /// The latest tick's update stream, reused across ticks.
    updates: Vec<(u16, Message)>,
    flows: FluidFlows,
    next_token: u32,
}

impl<D: TickDriver> FluidPlane<D> {
    /// Puts `driver` under a fluid data plane that ticks every
    /// [`TICK_INTERVAL_PS`] (§6.2: 10 µs).
    pub fn new(driver: D) -> Self {
        FluidPlane {
            driver,
            updates: Vec::new(),
            flows: FluidFlows::default(),
            next_token: 1,
        }
    }

    /// The control plane under the data plane (read-only: notifications
    /// go in through the plane).
    pub fn driver(&self) -> &D {
        &self.driver
    }

    /// The flowlets draining, by token.
    pub fn flows(&self) -> &FluidFlows {
        &self.flows
    }

    fn mint(&mut self) -> Token {
        assert!(
            self.flows.len() < Token::MAX as usize,
            "every token is live"
        );
        loop {
            let token = Token::new(self.next_token);
            self.next_token = if self.next_token == Token::MAX {
                1
            } else {
                self.next_token + 1
            };
            if !self.flows.contains(token) {
                return token;
            }
        }
    }

    /// Starts a flowlet of `bytes` from `src` to `dst`: mints its token,
    /// hashes it onto an ECMP spine by `ecmp_id` (`None`: by the token
    /// itself), feeds the driver the `FlowletStart` and returns both.
    ///
    /// # Panics
    /// Panics if the driver rejects the start — the endpoints are the
    /// caller's to get right — or if every token is live.
    pub fn start(
        &mut self,
        src: u16,
        dst: u16,
        bytes: u64,
        weight_q8: u16,
        ecmp_id: Option<u64>,
    ) -> (Token, Message) {
        let token = self.mint();
        let flow = FlowId(ecmp_id.unwrap_or(token.get() as u64));
        let spine = self
            .driver
            .fabric()
            .ecmp_spine(src as usize, dst as usize, flow);
        let msg = Message::FlowletStart {
            token,
            src,
            dst,
            size_hint: bytes.min(u32::MAX as u64) as u32,
            weight_q8,
            spine: spine as u8,
        };
        self.driver
            .on_message(msg)
            .expect("a fluid start names valid endpoints and a fresh token");
        self.flows.admit(token, bytes as f64);
        (token, msg)
    }

    /// The first half of a step: one allocator tick, lending out its
    /// update stream (valid until the next call). Between this and
    /// [`FluidPlane::drain`] the driver holds exactly the flowlets the
    /// tick allocated for — the moment to read its link state.
    // flowtune-lint: hot
    pub fn tick(&mut self) -> &[(u16, Message)] {
        self.driver.tick_into(&mut self.updates);
        &self.updates
    }

    /// The second half: every flowlet drains for one interval at the
    /// normalized rate it now holds (`observe` sees each `(token, rate)`
    /// as it does, in ascending token order), and the ones that ran out
    /// are retired — their `FlowletEnd`s fed in ascending token order,
    /// landing before the next tick. Lends out the retired flowlets,
    /// valid until the next drain or cut.
    // flowtune-lint: hot
    pub fn drain(&mut self, mut observe: impl FnMut(Token, f64)) -> &[Ended] {
        let driver = &self.driver;
        let ended = self.flows.drain(TICK_INTERVAL_PS, |token| {
            let rate = driver.flow_rate_gbps(token).unwrap_or(0.0);
            observe(token, rate);
            rate
        });
        for flow in ended {
            self.driver
                .on_message(flow.notification())
                .expect("a draining flowlet is active in the driver");
        }
        ended
    }

    /// Force-ends every flowlet (a cut phase), feeding their
    /// `FlowletEnd`s in ascending token order and crediting each with
    /// the bytes it moved.
    pub fn cut_all(&mut self) -> &[Ended] {
        let cut = self.flows.cut_all();
        for flow in cut {
            self.driver
                .on_message(flow.notification())
                .expect("a draining flowlet is active in the driver");
        }
        cut
    }
}

/// Total over-capacity allocation of a control plane's current *raw*
/// rates, `Σ_ℓ max(0, load_ℓ − c_ℓ)` in Gbit/s — Figure 12's quantity,
/// measured through the service path via [`TickDriver::link_loads`].
pub fn overallocation_gbps(drv: &dyn TickDriver) -> f64 {
    let loads = drv.link_loads();
    drv.fabric()
        .topology()
        .links()
        .iter()
        .zip(&loads)
        .map(|(link, &load)| (load - link.capacity_bps as f64 / 1e9).max(0.0))
        .sum()
}

/// Adds a flow's *normalized* (endpoint-visible) rate to the load of
/// every link on its path — the sum [`worst_oversubscription`] judges.
pub fn add_path_load(loads: &mut [f64], path: &Path, rate_gbps: f64) {
    for link in path.iter() {
        loads[link.index()] += rate_gbps;
    }
}

/// Worst over-subscription across links, `max_ℓ (load_ℓ / c_ℓ − 1)` as a
/// fraction of capacity; 0 when every link is within capacity — the
/// feasibility F-NORM guarantees (§4.2). `loads` is per link, Gbit/s,
/// as filled by [`add_path_load`].
pub fn worst_oversubscription(fabric: &TwoTierClos, loads: &[f64]) -> f64 {
    fabric
        .topology()
        .links()
        .iter()
        .zip(loads)
        .map(|(link, &load)| load / (link.capacity_bps as f64 / 1e9) - 1.0)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AllocatorService, FlowtuneConfig};
    use flowtune_topo::ClosConfig;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    fn plane() -> FluidPlane<AllocatorService> {
        let fabric = TwoTierClos::build(ClosConfig::paper_eval());
        let cfg = FlowtuneConfig::default();
        FluidPlane::new(AllocatorService::new(&fabric, cfg))
    }

    #[test]
    fn a_flow_held_at_a_rate_ends_after_exactly_its_bytes_over_the_drain() {
        for (bytes, rate) in [
            (1u64, 9.9),
            (12_500, 10.0),
            (12_501, 10.0),
            (1_000_000, 3.7),
        ] {
            let mut flows = FluidFlows::default();
            flows.admit(Token::new(7), bytes as f64);
            let steps = (8_000.0 * bytes as f64 / (rate * TICK_INTERVAL_PS as f64)).ceil() as u64;
            for step in 1..=steps {
                let ended = flows.drain(TICK_INTERVAL_PS, |_| rate).to_vec();
                assert_eq!(
                    ended.is_empty(),
                    step < steps,
                    "{bytes} B at {rate}: step {step}"
                );
                if let [flow] = ended[..] {
                    assert_eq!(flow.key, Token::new(7));
                    assert!((flow.delivered_bytes - bytes as f64).abs() < 1e-6);
                }
            }
            assert!(flows.is_empty());
        }
    }

    proptest! {
        // Whatever order flows are admitted in and whatever mix of them
        // finishes on a tick, each tick's leavers come out ascending and
        // every flow leaves exactly once.
        #[test]
        fn same_tick_leavers_come_out_in_ascending_key_order(
            keys in proptest::collection::btree_set(0u32..10_000, 1..60usize),
            seed in any::<u64>(),
        ) {
            let mut rng = TestRng::deterministic(&format!("fluid-{seed}"));
            let mut order: Vec<u32> = keys.iter().copied().collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i + 1));
            }
            let mut flows = FluidFlows::default();
            for &key in &order {
                // One to three ticks' worth at 10 Gbit/s (12 500 B a tick).
                flows.admit(Token::new(key), (1 + rng.below(3)) as f64 * 12_500.0);
            }
            let mut left = Vec::new();
            for _ in 0..3 {
                let ended = flows.drain(TICK_INTERVAL_PS, |_| 10.0);
                prop_assert!(ended.windows(2).all(|w| w[0].key < w[1].key), "{ended:?}");
                left.extend(ended.iter().map(|e| e.key.get()));
            }
            prop_assert!(flows.is_empty());
            left.sort_unstable();
            prop_assert_eq!(left, keys.into_iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn cut_all_credits_the_bytes_moved_so_far() {
        let mut flows = FluidFlows::default();
        flows.admit(Token::new(9), 1e9);
        flows.admit(Token::new(2), 1e9);
        let rate_of = |key: Token| key.get() as f64;
        assert!(flows.drain(TICK_INTERVAL_PS, rate_of).is_empty());
        assert!(flows.drain(TICK_INTERVAL_PS, rate_of).is_empty());
        let cut = flows.cut_all().to_vec();
        // Two ticks at `key` Gbit/s, 1250 B per Gbit/s per tick.
        assert_eq!(
            cut,
            [2, 9].map(|key| Ended {
                key: Token::new(key),
                delivered_bytes: 2.0 * key as f64 * 1250.0,
            })
        );
        assert!(flows.is_empty());
    }

    #[test]
    fn the_plane_ticks_once_per_step_and_feeds_both_ends_of_a_flowlet() {
        let mut plane = plane();
        let (token, msg) = plane.start(0, 140, 30_000, 256, None);
        assert_eq!(token, Token::new(1));
        assert!(matches!(
            msg,
            Message::FlowletStart {
                src: 0,
                dst: 140,
                ..
            }
        ));
        let mut steps = 0;
        let mut observed = Vec::new();
        loop {
            steps += 1;
            let updates = plane.tick().len();
            assert_eq!(
                updates,
                usize::from(steps == 1),
                "one update, on the first tick"
            );
            if let [flow] = plane.drain(|token, rate| observed.push((token, rate))) {
                assert_eq!(flow.notification(), Message::FlowletEnd { token });
                assert_eq!(flow.delivered_bytes, 30_000.0);
                break;
            }
        }
        // 30 kB at the 9.9 Gbit/s a lone flow gets: three ticks.
        assert_eq!(steps, 3);
        assert_eq!(observed.len(), 3);
        assert!(observed.iter().all(|&(t, rate)| t == token && rate > 9.8));
        let stats = plane.driver().stats();
        assert_eq!((stats.iterations, stats.starts, stats.ends), (3, 1, 1));
        assert!(plane.flows().is_empty());
        assert_eq!(plane.driver().active_flows(), 0);
    }

    #[test]
    fn the_mint_skips_a_live_token_across_a_wrap() {
        let mut plane = plane();
        let (first, _) = plane.start(0, 140, u64::MAX, 256, None);
        let (second, _) = plane.start(1, 141, 1, 256, None);
        assert_eq!((first.get(), second.get()), (1, 2));
        plane.tick();
        let ended = plane.drain(|_, _| {}).len();
        assert_eq!(ended, 1, "the one-byte flowlet is gone, token 1 lives on");
        plane.next_token = Token::MAX;
        let minted: Vec<u32> = (0..3)
            .map(|_| plane.start(2, 142, u64::MAX, 256, None).0.get())
            .collect();
        assert_eq!(minted, [Token::MAX, 2, 3], "1 is live and is stepped over");
        assert_eq!(plane.driver().stats().rejected, 0);
    }

    #[test]
    fn the_meters_read_a_growing_incast_as_over_allocated_raw_and_feasible_normalized() {
        let mut plane = plane();
        let fabric = plane.driver().fabric().clone();
        let mut tokens: Vec<Token> = (0..4)
            .map(|src| plane.start(src, 143, u64::MAX, 256, None).0)
            .collect();
        for _ in 0..100 {
            plane.tick();
            plane.drain(|_, _| {});
        }
        assert!(overallocation_gbps(plane.driver()) < 1e-3, "converged");
        // Four more senders join at the prices four had converged to: the
        // raw allocation overshoots the shared downlink for a tick…
        tokens.extend((4..8).map(|src| plane.start(src, 143, u64::MAX, 256, None).0));
        plane.tick();
        let over = overallocation_gbps(plane.driver());
        assert!(over > 1.0, "{over}");
        // …and the normalized rates the endpoints see still fit it.
        let mut loads = vec![0.0; fabric.topology().link_count()];
        for (src, &token) in tokens.iter().enumerate() {
            let rate = plane.driver().flow_rate_gbps(token).unwrap();
            let path = fabric.path(src, 143, FlowId(token.get() as u64));
            add_path_load(&mut loads, &path, rate);
        }
        assert_eq!(worst_oversubscription(&fabric, &loads), 0.0);
        // Twice those rates would over-subscribe it by up to 100 %.
        loads.iter_mut().for_each(|l| *l *= 2.0);
        let over = worst_oversubscription(&fabric, &loads);
        assert!(over > 0.5 && over <= 1.0, "{over}");
    }
}
