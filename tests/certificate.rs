//! The optimality certificate on live planes.
//!
//! * On an exact unsharded plane (full sweep, or incremental at
//!   `dirty_eps = 0`) the duality gap is never negative: F-NORM's rates
//!   are feasible, so their utility is below the optimum and the dual
//!   above it, at every tick of a churn trace.
//! * The certificate referees the incremental tick at wire precision
//!   (`dirty_eps > 0`, a relative dirty test at a quarter `Rate16` step,
//!   `crates/alloc/src/dirty.rs`), whose update stream differs from the
//!   exact plane's. On the same notification stream, at every tick:
//!   the two gaps agree within one `Rate16` step of the utility scale
//!   (`2⁻¹¹ · Σ w`); normalized load stays within capacity; the rates
//!   last sent never load a link past its whole capacity; and on the
//!   churn trace the two send as many updates within 2 %.

mod common;

use common::{fabric, Replay};
use flowtune::{
    AllocatorService, Engine, FlowtuneConfig, FluidPlane, ScenarioOptions, ShardedService,
    TickDriver,
};
use flowtune_proto::Message;
use flowtune_topo::{ClosConfig, TwoTierClos};
use flowtune_workload::ScenarioKind;
use proptest::prelude::*;

/// flowbench's incremental plane: its sweep cadence, and its `dirty_eps`
/// (the relative test's absolute floor) or `0` for the exact plane.
fn incremental(engine: Engine, fabric: &TwoTierClos, dirty_eps: f64) -> AllocatorService {
    let cfg = FlowtuneConfig {
        incremental: true,
        dirty_eps,
        full_sweep_every: 64,
        ..FlowtuneConfig::default()
    };
    AllocatorService::builder()
        .fabric(fabric)
        .config(cfg)
        .engine(engine)
        .build()
        .expect("an unsharded engine over a set fabric")
}

/// The weight a notification adds to (a start) or takes from (an end)
/// the live set, given the weight of every token started so far.
fn weight_change(msg: &Message, weights: &mut Vec<f64>) -> f64 {
    match *msg {
        Message::FlowletStart {
            token, weight_q8, ..
        } => {
            let i = token.get() as usize;
            if weights.len() <= i {
                weights.resize(i + 1, 0.0);
            }
            weights[i] = f64::from(weight_q8) / 256.0;
            weights[i]
        }
        Message::FlowletEnd { token } => -weights[token.get() as usize],
        Message::RateUpdate { .. } => 0.0,
    }
}

/// What [`judge`] saw over a whole replay.
#[derive(Debug, Default)]
struct Verdict {
    /// The largest `|gap_wire − gap_exact| / Σ w` of any tick.
    gap_diff: f64,
    /// The largest gap of either plane, over `Σ w`.
    gap: f64,
    /// The largest `peak_util` and `peak_held` of either plane.
    peak_util: f64,
    peak_held: f64,
    /// Updates each plane sent: wire, exact.
    updates: [usize; 2],
    /// Rate passes each plane ran (`ServiceStats::dirty_flows`).
    rerun: [u64; 2],
}

/// Replays `replay` into a wire-precision and an exact incremental plane
/// of `engine`, sampling both certificates after every tick, and checks
/// the per-tick bounds of the module docs.
fn judge(label: &str, engine: Engine, fabric: &TwoTierClos, replay: &Replay) -> Verdict {
    let mut planes = [1e-9, 0.0].map(|eps| incremental(engine.clone(), fabric, eps));
    let mut weights = Vec::new();
    let (mut live_weight, mut verdict) = (0.0, Verdict::default());
    for (round, msgs) in replay.rounds.iter().enumerate() {
        for msg in msgs {
            live_weight += weight_change(msg, &mut weights);
            for plane in &mut planes {
                plane.on_message(*msg).expect("a valid schedule");
            }
        }
        let certs = planes
            .each_mut()
            .map(|plane| (plane.tick().len(), plane.certificate()));
        for (updates, (sent, _)) in verdict.updates.iter_mut().zip(&certs) {
            *updates += sent;
        }
        let certs = certs.map(|(_, cert)| cert);
        if live_weight == 0.0 {
            continue;
        }
        let at = format!(
            "{label}, round {round}: wire {:?}, exact {:?}",
            certs[0], certs[1]
        );
        let diff = (certs[0].gap() - certs[1].gap()).abs() / live_weight;
        assert!(diff <= 1.0 / 2048.0, "{at}: the gaps differ by {diff:e} Σw");
        for cert in &certs {
            assert!(cert.peak_util <= 1.0 + 1e-12, "{at}");
            assert!(cert.peak_held <= 1.0, "{at}");
            verdict.gap = verdict.gap.max(cert.gap() / live_weight);
            verdict.peak_util = verdict.peak_util.max(cert.peak_util);
            verdict.peak_held = verdict.peak_held.max(cert.peak_held);
        }
        verdict.gap_diff = verdict.gap_diff.max(diff);
    }
    verdict.rerun = planes.map(|p| p.stats().dirty_flows);
    println!("{label}: {verdict:?}");
    verdict
}

#[test]
fn the_gap_referees_wire_precision_on_a_web_shaped_trace() {
    let fabric = TwoTierClos::build(ClosConfig::multicore(4, 2, 16));
    for engine in [Engine::Serial, Engine::Gradient] {
        let label = format!("web, {}", engine.name());
        let v = judge(&label, engine, &fabric, &Replay::web(&fabric, 3, 400));
        let [wire, exact] = v.updates.map(|u| u as f64);
        assert!(
            (wire - exact).abs() <= 0.02 * exact,
            "{label}: {wire} updates at wire precision, {exact} exact"
        );
    }
}

#[test]
fn the_gap_referees_wire_precision_on_the_swap_trace() {
    let fabric = TwoTierClos::build(ClosConfig::multicore(4, 2, 16));
    judge(
        "swaps",
        Engine::Serial,
        &fabric,
        &Replay::swaps(&fabric, 4096, 256, 3 * 256, 1),
    );
}

#[test]
fn the_gap_referees_wire_precision_on_burst_and_incast() {
    let fabric = fabric();
    for kind in [ScenarioKind::Burst, ScenarioKind::Incast] {
        let mut oracle = FluidPlane::new(incremental(Engine::Serial, &fabric, 0.0));
        let mut scenario = kind.build(16, 2_000_000);
        let (replay, report) =
            Replay::record(&mut oracle, scenario.as_mut(), &ScenarioOptions::default());
        assert!(
            !report.truncated,
            "{}: oracle run blew its budget",
            kind.name()
        );
        judge(kind.name(), Engine::Serial, &fabric, &replay);
    }
}

#[test]
fn a_sharded_plane_is_certified_over_its_shards() {
    // The churn schedule, then a quiet stretch, into an unsharded plane
    // and a two-shard one that exchanges every tick. The router's
    // certificate is its shards' sums — the primal theirs exactly — and
    // once the exchange's dual consensus has converged it certifies the
    // unsharded optimum: the same dual, a gap as small (both read 57.684
    // and agree to 10⁻¹⁴), feasible loads. Both planes run the exact full
    // sweep; the wire-precision router is judged against it below.
    let fabric = fabric();
    let cfg = FlowtuneConfig {
        exchange_every: 1,
        incremental: false,
        ..FlowtuneConfig::default()
    };
    let mut whole = AllocatorService::new(&fabric, cfg);
    let mut sharded = ShardedService::new(&fabric, cfg, 2);
    let replay = Replay::churn(&fabric, 7, 120);
    for msgs in &replay.rounds {
        for msg in msgs {
            whole.on_message(*msg).unwrap();
            sharded.on_message(*msg).unwrap();
        }
        whole.tick();
        sharded.tick();
    }
    for _ in 0..400 {
        whole.tick();
        sharded.tick();
    }
    let (one, two) = (whole.certificate(), sharded.certificate());
    let shards: Vec<_> = sharded
        .shards()
        .map(AllocatorService::certificate)
        .collect();
    assert_eq!(two.primal, shards[0].primal + shards[1].primal);
    let weight = replay.live_tokens().len() as f64;
    assert!(
        (two.dual - one.dual).abs() <= 1e-9 * one.dual.abs(),
        "{one:?} vs {two:?}"
    );
    assert!(two.gap().abs() <= 1e-9 * weight, "{two:?}");
    // Each shard alone bounds only its own flows with every link to
    // themselves: far looser than the plane.
    assert!(shards.iter().all(|s| s.gap() > 0.1), "{shards:?}");
    assert!(
        two.peak_util <= 1.0 + 1e-6 && two.peak_held <= 1.0,
        "{two:?}"
    );
}

#[test]
fn the_gap_referees_a_wire_precision_router() {
    // The sharded test's schedule into two two-shard routers exchanging
    // every tick: one at the default config (incremental, wire
    // precision), one exact. At every tick the gaps agree within one
    // `Rate16` step of the utility scale and the wire plane's primal is
    // its shards' sum exactly; once quiet, its loads are within the
    // sharded test's bound (under churn neither plane's are: each
    // shard's F-NORM sees only its own flows).
    let fabric = fabric();
    let wire_cfg = FlowtuneConfig {
        exchange_every: 1,
        ..FlowtuneConfig::default()
    };
    let exact_cfg = FlowtuneConfig {
        dirty_eps: 0.0,
        ..wire_cfg
    };
    let mut planes = [wire_cfg, exact_cfg].map(|cfg| ShardedService::new(&fabric, cfg, 2));
    let replay = Replay::churn(&fabric, 7, 120);
    let quiet = vec![Vec::new(); 400];
    let (mut weights, mut live_weight, mut worst) = (Vec::new(), 0.0, 0.0f64);
    for (round, msgs) in replay.rounds.iter().chain(&quiet).enumerate() {
        for msg in msgs {
            live_weight += weight_change(msg, &mut weights);
            for plane in &mut planes {
                plane.on_message(*msg).expect("a valid schedule");
            }
        }
        for plane in &mut planes {
            plane.tick();
        }
        if live_weight == 0.0 {
            continue;
        }
        let [wire, exact] = planes.each_ref().map(ShardedService::certificate);
        let at = format!("round {round}: wire {wire:?}, exact {exact:?}");
        let diff = (wire.gap() - exact.gap()).abs() / live_weight;
        assert!(diff <= 1.0 / 2048.0, "{at}: the gaps differ by {diff:e} Σw");
        let shards: Vec<_> = planes[0]
            .shards()
            .map(AllocatorService::certificate)
            .collect();
        assert_eq!(wire.primal, shards[0].primal + shards[1].primal, "{at}");
        worst = worst.max(diff);
    }
    let wire = planes[0].certificate();
    assert!(
        wire.peak_util <= 1.0 + 1e-6 && wire.peak_held <= 1.0,
        "{wire:?}"
    );
    println!("two shards: worst gap difference {worst:e} Σw, then {wire:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // F-NORM's rates are feasible on an exact unsharded plane, so the
    // gap is never negative, whatever the churn — up to the rounding of
    // its two sums, which reads as ≈ −4·10⁻¹⁵·Σw on a converged
    // 4096-flow plane, where the true gap is zero.
    #[test]
    fn the_gap_is_never_negative_on_an_exact_plane(
        seed in any::<u64>(),
        gradient in any::<bool>(),
        incremental_ticks in any::<bool>(),
    ) {
        let fabric = fabric();
        let engine = if gradient { Engine::Gradient } else { Engine::Serial };
        let cfg = FlowtuneConfig {
            incremental: incremental_ticks,
            dirty_eps: 0.0,
            ..FlowtuneConfig::default()
        };
        let mut plane = AllocatorService::builder()
            .fabric(&fabric)
            .config(cfg)
            .engine(engine)
            .build()
            .expect("an unsharded engine over a set fabric");
        for (round, msgs) in Replay::churn(&fabric, seed, 150).rounds.iter().enumerate() {
            for msg in msgs {
                plane.on_message(*msg).unwrap();
            }
            plane.tick();
            if plane.active_flows() > 0 {
                let cert = plane.certificate();
                prop_assert!(cert.gap() >= -1e-12 * cert.dual.abs(), "round {round}: {cert:?}");
                prop_assert!(cert.peak_util <= 1.0 + 1e-12, "round {round}: {cert:?}");
                prop_assert!(cert.peak_held <= 1.0, "round {round}: {cert:?}");
            }
        }
    }
}
