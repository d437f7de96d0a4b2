//! The in-process exchange against the frame-connected one.
//!
//! `ShardedService` runs an exchange round over one shared link-state
//! table: every shard's filter writes its own row, the consensus is
//! computed once, nothing is serialized. A distributed cluster runs the
//! same round as N [`ExchangeCore`]s that each hold private copies of
//! every row and learn the others' through encoded frames. Both are
//! assembled from one filter and one statement of the install math, and
//! this test holds them to it: fed the same scripted per-shard exports —
//! a shard whose engine exports nothing, one without Hessians, loads too
//! small to pass a positive `eps`, catch-up resyncs on the framed side —
//! every round must install the same background loads, Hessians and
//! duals into every shard bit for bit, and the shared table must count
//! exactly the bytes of the frames the framed side encodes.

use std::sync::{Arc, Mutex};

use flowtune::{AllocatorService, ExchangeCore, FlowtuneConfig, ShardedService, TickDriver};
use flowtune_alloc::{FlowRate, LinkInstall, LinkRun, RateAllocator};
use flowtune_proto::exchange::{record_bytes, Record, RecordIter};
use flowtune_topo::{ClosConfig, FlowId, LinkId, Path, TwoTierClos};
use proptest::prelude::*;

/// Link-vector length of the scripted exports. The scripted engine never
/// looks at the fabric, so this need not be the fabric's link count.
const LINKS: usize = 6;
const MAX_SHARDS: usize = 4;

/// One shard's export for one round: loads, Hessians, prices.
type Export = (Vec<f64>, Vec<f64>, Vec<f64>);

/// What the exchange installed into an engine, as bit patterns (the
/// consensus vector is mostly `NaN`), with how often each setter ran.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Installed {
    loads: Vec<u64>,
    hessians: Vec<u64>,
    prices: Vec<u64>,
    calls: [u32; 3],
}

/// An engine with no flows whose link-state exports follow a script
/// (one entry per tick) and whose installs are recorded. Its slots are
/// the script's indices — the first `LINKS` link ids, or none for an
/// engine that exports nothing — and it lends its export in two runs.
#[derive(Debug)]
struct Scripted {
    script: Arc<Vec<Export>>,
    slots: Vec<LinkId>,
    ticks: usize,
    installed: Arc<Mutex<Installed>>,
}

impl Scripted {
    fn current(&self) -> &Export {
        &self.script[self.ticks - 1]
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

impl RateAllocator for Scripted {
    fn add_flow(&mut self, _: FlowId, _: usize, _: usize, _: f64, _: &Path) {
        unreachable!("the script has no flows");
    }
    fn remove_flow(&mut self, _: FlowId) -> bool {
        false
    }
    fn iterate(&mut self) {
        self.ticks += 1;
    }
    fn flow_count(&self) -> usize {
        0
    }
    fn rates_into(&self, out: &mut Vec<FlowRate>) {
        out.clear();
    }
    fn flow_rate(&self, _: FlowId) -> Option<FlowRate> {
        None
    }
    fn link_slots(&self) -> &[LinkId] {
        &self.slots
    }
    fn link_state(&self, visit: &mut dyn FnMut(LinkRun<'_>)) {
        let (loads, hessians, prices) = self.current();
        let hessian = |l: usize| hessians.get(l).copied().unwrap_or(0.0);
        let totals: Vec<[f64; 2]> = (0..loads.len()).map(|l| [loads[l], hessian(l)]).collect();
        for run in [
            0..loads.len().min(LINKS / 2),
            loads.len().min(LINKS / 2)..loads.len(),
        ] {
            if !run.is_empty() {
                visit(LinkRun {
                    totals: &totals[run.clone()],
                    prices: &prices[run],
                    hessians: !hessians.is_empty(),
                });
            }
        }
    }
    fn install_link_state(&mut self, fill: &mut dyn FnMut(LinkInstall<'_>)) {
        if self.slots.is_empty() {
            return;
        }
        let n = self.slots.len();
        let second_order = !self.script[0].1.is_empty();
        let (mut loads, mut hessians, mut prices) = (vec![0.0; n], vec![0.0; n], vec![f64::NAN; n]);
        fill(LinkInstall {
            slots: &self.slots,
            loads: &mut loads,
            hessians: second_order.then_some(&mut hessians[..]),
            prices: &mut prices,
        });
        let mut installed = self.installed.lock().unwrap();
        installed.loads = bits(&loads);
        installed.calls[0] += 1;
        if second_order {
            installed.hessians = bits(&hessians);
            installed.calls[1] += 1;
        }
        installed.prices = bits(&prices);
        installed.calls[2] += 1;
    }
    fn name(&self) -> &'static str {
        "scripted"
    }
}

/// What kind of engine a shard stands for.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// Second-order NED: loads, Hessians, prices.
    Newton,
    /// Gradient projection: no Hessians.
    Gradient,
    /// A test double without link slots: exports nothing.
    Silent,
}

/// Three draws in `0..27` → one link's `(load, hessian, price)`. Few
/// distinct levels, so entries often repeat and the filter has something
/// to skip; the small offsets sit on both sides of `eps = 1e-3`, and
/// `4e-4` alone is a load that subscribes its shard without shipping.
fn entry(draws: &[u8]) -> (f64, f64, f64) {
    let level = |d: u8, levels: [f64; 3]| levels[(d % 3) as usize];
    let offset = |d: u8| [0.0, 4e-4, 2e-3][(d / 3 % 3) as usize];
    (
        level(draws[0], [0.0, 0.5, 2.0]) + offset(draws[0]),
        -level(draws[1], [0.0, 0.25, 1.0]) - offset(draws[1]),
        level(draws[2], [0.0, 0.125, 0.75]) + offset(draws[2]),
    )
}

fn export(kind: Kind, draws: &[u8]) -> Export {
    if kind == Kind::Silent {
        return (Vec::new(), Vec::new(), Vec::new());
    }
    let (mut loads, mut hessians, mut prices) = (Vec::new(), Vec::new(), Vec::new());
    for link in draws.chunks(3) {
        let (load, hessian, price) = entry(link);
        loads.push(load);
        hessians.push(hessian);
        prices.push(price);
    }
    if kind == Kind::Gradient {
        hessians.clear();
    }
    (loads, hessians, prices)
}

/// Bytes of the catch-up records in `frame`: entries the framed side's
/// resyncs re-ship and the shared table has no copy of to heal.
fn catch_up_bytes(frame: &[u8]) -> usize {
    let (header, records) = RecordIter::new(frame).expect("a frame just encoded");
    let catch_ups = records.filter(|r| matches!(r, Ok(Record::CatchUp { .. })));
    catch_ups.count() * record_bytes(header.has_hessians)
}

fn service(
    fabric: &TwoTierClos,
    cfg: FlowtuneConfig,
    script: &Arc<Vec<Export>>,
) -> (AllocatorService, Arc<Mutex<Installed>>) {
    let installed = Arc::new(Mutex::new(Installed::default()));
    let exports_links = !script[0].0.is_empty();
    let engine = Scripted {
        script: Arc::clone(script),
        slots: (0..LINKS as u32)
            .map(LinkId)
            .filter(|_| exports_links)
            .collect(),
        ticks: 0,
        installed: Arc::clone(&installed),
    };
    (
        AllocatorService::with_engine(fabric, cfg, engine),
        installed,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn shared_table_rounds_equal_frame_connected_rounds(
        kinds in proptest::collection::vec(
            prop_oneof![3 => Just(Kind::Newton), 1 => Just(Kind::Gradient), 1 => Just(Kind::Silent)],
            2..=MAX_SHARDS,
        ),
        positive_eps in any::<bool>(),
        rounds in proptest::collection::vec(
            (proptest::collection::vec(0u8..27, MAX_SHARDS * LINKS * 3), 0u8..6),
            6..20,
        ),
    ) {
        let n = kinds.len();
        let fabric = TwoTierClos::build(ClosConfig::multicore(2, 2, 4));
        let cfg = FlowtuneConfig {
            exchange_every: 1,
            exchange_delta_eps: if positive_eps { 1e-3 } else { 0.0 },
            parallel_shards: false,
            ..FlowtuneConfig::default()
        };
        let scripts: Vec<Arc<Vec<Export>>> = (0..n)
            .map(|i| {
                let per_round = rounds.iter().map(|(draws, _)| {
                    export(kinds[i], &draws[i * LINKS * 3..(i + 1) * LINKS * 3])
                });
                Arc::new(per_round.collect())
            })
            .collect();

        // The shared-table plane: the real service over scripted engines.
        let (shards, shared): (Vec<_>, Vec<_>) =
            scripts.iter().map(|s| service(&fabric, cfg, s)).unzip();
        let mut sharded = ShardedService::from_shards(shards);

        // The frame-connected plane: one core and one service per shard.
        let mut cores: Vec<ExchangeCore> = (0..n)
            .map(|i| ExchangeCore::new(i as u16, n, cfg.exchange_delta_eps))
            .collect();
        let (mut svcs, framed): (Vec<_>, Vec<_>) =
            scripts.iter().map(|s| service(&fabric, cfg, s)).unzip();

        let mut updates = Vec::new();
        let mut wire = Vec::new();
        let mut frame_ends = Vec::new();
        let (mut framed_rounds, mut framed_bytes) = (0u64, 0u64);
        for (round, (_, resync)) in rounds.iter().enumerate() {
            if *resync == 0 {
                // The cluster re-ships unmoved entries as catch-up
                // records; the shared table has no copies to heal. The
                // catch-up may move no installed state and no count but
                // its own bytes.
                for core in &mut cores {
                    core.request_resync();
                }
            }
            sharded.tick_into(&mut updates);

            wire.clear();
            frame_ends.clear();
            let (mut round_bytes, mut catch_up) = (0, 0);
            for (core, script) in cores.iter_mut().zip(&scripts) {
                let (loads, hessians, prices) = &script[round];
                let start = wire.len();
                round_bytes += core.begin_round(round as u64 + 1, loads, hessians, prices, &mut wire);
                frame_ends.push(wire.len());
                catch_up += catch_up_bytes(&wire[start..]);
            }
            for (j, core) in cores.iter_mut().enumerate() {
                let mut start = 0;
                for (i, &end) in frame_ends.iter().enumerate() {
                    if i != j {
                        core.apply_frame(&wire[start..end]).expect("a frame just encoded");
                    }
                    start = end;
                }
            }
            let mut counted = false;
            let mut start = 0;
            for ((core, svc), &end) in cores.iter_mut().zip(&mut svcs).zip(&frame_ends) {
                if let Some(bytes) = core.install(svc) {
                    prop_assert_eq!(bytes, (end - start) as u64, "install charges its frame");
                    counted = true;
                }
                start = end;
            }
            if counted {
                framed_rounds += 1;
                framed_bytes += (round_bytes - catch_up) as u64;
            }

            for (i, (shared, framed)) in shared.iter().zip(&framed).enumerate() {
                prop_assert_eq!(
                    &*shared.lock().unwrap(),
                    &*framed.lock().unwrap(),
                    "round {}, shard {} ({:?})", round + 1, i, kinds[i]
                );
            }
            let stats = sharded.stats();
            prop_assert_eq!(stats.exchange_rounds, framed_rounds, "round {}", round + 1);
            prop_assert_eq!(stats.exchange_bytes, framed_bytes, "round {}", round + 1);
            prop_assert_eq!(stats.exchange_decode_errors, 0);
        }
    }
}
