//! Minimal flag parsing shared by the experiment binaries.
//!
//! Every binary builds its control plane in process, through
//! `ServiceBuilder::build_driver`, from [`Opts::engine`] and
//! [`Opts::config`]. The same plane on a wire (`flowtune_net`'s
//! `PeerCluster`) is pinned bit for bit to it by the repository's
//! sharded equivalence suites and priced by flowbench's `wire2uds`.

use flowtune::{Engine, FlowtuneConfig, PlacementSpec};
use flowtune_workload::ScenarioKind;

/// The experiment binaries' shared usage text (`--help`). Every
/// [`FlowtuneConfig`] knob the CLI can set appears here with its flag —
/// audited by the `every_config_knob_has_a_documented_flag` test, so a
/// knob the parser learns to set without a usage line fails the build's
/// tests rather than shipping undocumented.
pub const USAGE: &str = "\
shared experiment flags:
  --quick                 reduced scale (default)
  --full                  paper scale
  --seed N                trace seed (default 42)
  --engine E              allocation engine: serial|gradient
  --shards N              shard the control plane N ways over --engine
  --exchange-every K      inter-shard link-state exchange cadence in ticks
                          (config exchange_every; 0 = off, the default)
  --exchange-delta-eps X  exchange delta filter: re-ship a link only when its
                          load, dual or Hessian moved by more than X
                          (config exchange_delta_eps; default 0 = any change)
  --parallel-shards[=on|off]
                          concurrent vs sequential sharded tick, bit-for-bit
                          identical output (config parallel_shards; default on)
  --incremental[=on|off]  incremental ticks of the serial and gradient
                          engines: only flows whose links moved are
                          recomputed; quiet ticks cost O(changed), not
                          O(flows) (config incremental; default on; at
                          --dirty-eps 0 bit-for-bit equal to the full sweep;
                          =off runs the full sweep)
  --full-sweep-every K    incremental only: force a pass of the link phases
                          every K iterations, applying the price residual
                          quiet ticks hold back under a positive dirty eps;
                          re-prices no flow by itself (config
                          full_sweep_every; default 64; 0 = never)
  --dirty-eps X           incremental only: 0 re-dirties a link's flows on any
                          price/ratio change (exact equivalence); X > 0 only
                          on a move beyond a quarter Rate16 step (2^-13)
                          relative, X the absolute floor for idle duals
                          (config dirty_eps; default 1e-9, wire precision)
  --placement P           endpoint-to-shard placement: contiguous|traffic
                          (config placement; default contiguous; traffic
                          groups communicating racks from the workload's
                          sampled traffic matrix)
  --pair-affinity F       rack-affine workload skew in [0,1]: probability a
                          flowlet's destination stays in its source's
                          interleaved rack class (default 0 = uniform)
  --scenario S            restrict the scenario table (fig14_scenarios) to one
                          scenario family: allreduce:ring|allreduce:tree|
                          alltoall|burst|permshift|incast (default: every
                          family; other binaries ignore the flag)
  --help                  print this help and exit";

/// Common experiment options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Reduced scale (default) vs paper scale.
    pub quick: bool,
    /// Trace seed.
    pub seed: u64,
    /// Allocation engine behind the `AllocatorService`
    /// (`--engine serial|gradient`, optionally wrapped
    /// in `Engine::Sharded` by `--shards N`).
    pub engine: Engine,
    /// What [`Opts::config`] returns; the knob flags parse straight into
    /// it.
    config: FlowtuneConfig,
    /// Rack-affine workload skew (`--pair-affinity F` in `[0, 1]`; 0 —
    /// the default — keeps destinations uniform): the probability a
    /// flowlet's destination is drawn from its source's interleaved rack
    /// class, the communicating-racks structure traffic placement
    /// exploits.
    pub pair_affinity: f64,
    /// Scenario-family filter for the scenario table
    /// (`--scenario allreduce:ring|allreduce:tree|alltoall|burst|
    /// permshift|incast`; `None` — the default — runs every family).
    /// Only `fig14_scenarios` reads it; other binaries ignore the flag.
    pub scenario: Option<ScenarioKind>,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            quick: true,
            seed: 42,
            engine: Engine::Serial,
            config: FlowtuneConfig::default(),
            pair_affinity: 0.0,
            scenario: None,
        }
    }
}

impl Opts {
    /// Parses the shared experiment flags (see [`USAGE`] for the full
    /// list: scale/seed, engine composition, sharding, the exchange
    /// knobs, placement and workload affinity) from `std::env::args`.
    /// `--help` prints [`USAGE`] and exits.
    ///
    /// # Panics
    /// Panics with the usage text on unknown flags, and with messages
    /// listing the valid names on unknown engine or placement values.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (testable).
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Self {
        let mut opts = Self::default();
        let mut shards: Option<usize> = None;
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => opts.quick = true,
                "--full" => opts.quick = false,
                "--seed" => {
                    let v = it.next().expect("--seed needs a value");
                    opts.seed = v.parse().expect("--seed needs an integer");
                }
                "--engine" => {
                    let v = it.next().expect("--engine needs a value");
                    // The full usage rides along so the error names every
                    // composition flag (--shards, the exchange knobs,
                    // --placement), not just the engine names.
                    opts.engine = Engine::parse(&v).unwrap_or_else(|e| panic!("{e}\n{USAGE}"));
                }
                "--shards" => {
                    let v = it.next().expect("--shards needs a value");
                    shards = Some(v.parse().expect("--shards needs an integer"));
                }
                "--exchange-every" => {
                    let v = it.next().expect("--exchange-every needs a value");
                    opts.config.exchange_every =
                        v.parse().expect("--exchange-every needs an integer");
                }
                "--exchange-delta-eps" => {
                    let v = it.next().expect("--exchange-delta-eps needs a value");
                    let eps: f64 = v.parse().expect("--exchange-delta-eps needs a number");
                    assert!(
                        eps >= 0.0 && eps.is_finite(),
                        "--exchange-delta-eps needs a finite non-negative number"
                    );
                    opts.config.exchange_delta_eps = eps;
                }
                "--parallel-shards" | "--parallel-shards=on" | "--parallel-shards=true" => {
                    opts.config.parallel_shards = true;
                }
                "--parallel-shards=off" | "--parallel-shards=false" => {
                    opts.config.parallel_shards = false;
                }
                "--incremental" | "--incremental=on" | "--incremental=true" => {
                    opts.config.incremental = true;
                }
                "--incremental=off" | "--incremental=false" => {
                    opts.config.incremental = false;
                }
                "--full-sweep-every" => {
                    let v = it.next().expect("--full-sweep-every needs a value");
                    opts.config.full_sweep_every =
                        v.parse().expect("--full-sweep-every needs an integer");
                }
                "--dirty-eps" => {
                    let v = it.next().expect("--dirty-eps needs a value");
                    let eps: f64 = v.parse().expect("--dirty-eps needs a number");
                    assert!(
                        eps >= 0.0 && eps.is_finite(),
                        "--dirty-eps needs a finite non-negative number"
                    );
                    opts.config.dirty_eps = eps;
                }
                "--placement" => {
                    let v = it.next().expect("--placement needs a value");
                    opts.config.placement =
                        PlacementSpec::parse(&v).unwrap_or_else(|e| panic!("{e}\n{USAGE}"));
                }
                "--scenario" => {
                    let v = it.next().expect("--scenario needs a value");
                    opts.scenario =
                        Some(ScenarioKind::parse(&v).unwrap_or_else(|e| panic!("{e}\n{USAGE}")));
                }
                "--pair-affinity" => {
                    let v = it.next().expect("--pair-affinity needs a value");
                    let p: f64 = v.parse().expect("--pair-affinity needs a number");
                    assert!(
                        (0.0..=1.0).contains(&p),
                        "--pair-affinity needs a probability in [0, 1]"
                    );
                    opts.pair_affinity = p;
                }
                "--help" | "-h" => {
                    println!("{USAGE}");
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other}\n{USAGE}"),
            }
        }
        if let Some(n) = shards {
            Engine::check_shards(n, &opts.engine).unwrap_or_else(|e| panic!("--shards {n}: {e}"));
            opts.engine = opts.engine.sharded(n);
        }
        opts
    }

    /// Scale a paper-sized quantity down in quick mode.
    pub fn scaled(&self, full: u64, quick: u64) -> u64 {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// The control-plane configuration these options describe: paper
    /// defaults with every knob flag applied (`--exchange-every`,
    /// `--exchange-delta-eps`, `--parallel-shards`, `--placement`,
    /// `--incremental`, `--full-sweep-every`, `--dirty-eps`; [`USAGE`]
    /// documents each).
    pub fn config(&self) -> FlowtuneConfig {
        self.config
    }

    /// The shape shared by the figures' sharded comparison rows: the
    /// base (inner) engine — `--engine`, unwrapped if the caller already
    /// passed `--shards` — the shard count (`--shards`, default 2), and
    /// the exchange cadence of the exchanging row (`--exchange-every`,
    /// floored at 1 so that row always exchanges). Keeping fig12 and
    /// fig13 on this one helper keeps their row labels and defaults
    /// comparable.
    pub fn sharded_comparison(&self) -> (Engine, usize, u64) {
        let (base, shards) = match self.engine.clone() {
            Engine::Sharded { shards, inner } => (*inner, shards),
            engine => (engine, 2),
        };
        (base, shards, self.config.exchange_every.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Opts {
        Opts::from_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_are_quick_serial() {
        let o = parse(&[]);
        assert!(o.quick);
        assert_eq!(o.seed, 42);
        assert_eq!(o.engine, Engine::Serial);
    }

    #[test]
    fn full_and_seed() {
        let o = parse(&["--full", "--seed", "7"]);
        assert!(!o.quick);
        assert_eq!(o.seed, 7);
        assert_eq!(o.scaled(100, 10), 100);
        assert_eq!(parse(&["--quick"]).scaled(100, 10), 10);
    }

    #[test]
    fn engine_flags_parse() {
        assert_eq!(parse(&["--engine", "serial"]).engine, Engine::Serial);
        assert_eq!(parse(&["--engine", "gradient"]).engine, Engine::Gradient);
    }

    #[test]
    fn shards_compose_over_any_engine() {
        assert_eq!(
            parse(&["--engine", "gradient", "--shards", "4"]).engine,
            Engine::Gradient.sharded(4)
        );
        // Flag order doesn't matter.
        assert_eq!(
            parse(&["--shards", "2", "--engine", "gradient"]).engine,
            Engine::Gradient.sharded(2)
        );
        assert_eq!(parse(&["--shards", "1"]).engine, Engine::Serial.sharded(1));
    }

    #[test]
    fn exchange_every_reaches_the_config() {
        let o = parse(&["--shards", "2", "--exchange-every", "4"]);
        assert_eq!(o.config().exchange_every, 4);
        // Default is off, and everything else keeps the paper values.
        assert_eq!(parse(&[]).config(), FlowtuneConfig::default());
    }

    #[test]
    fn parallel_shards_and_delta_eps_reach_the_config() {
        // Default: flag absent leaves the config default (on).
        let d = parse(&[]);
        assert!(d.config().parallel_shards);
        assert_eq!(d.config().exchange_delta_eps, 0.0);
        // Bare flag and =on force the concurrent path.
        assert!(parse(&["--parallel-shards"]).config().parallel_shards);
        assert!(parse(&["--parallel-shards=on"]).config().parallel_shards);
        // =off forces the sequential fallback.
        assert!(!parse(&["--parallel-shards=off"]).config().parallel_shards);
        // The delta filter composes with the rest of the exchange flags.
        let o = parse(&[
            "--shards",
            "4",
            "--exchange-every",
            "1",
            "--exchange-delta-eps",
            "0.5",
        ]);
        assert_eq!(o.config().exchange_delta_eps, 0.5);
        assert_eq!(o.config().exchange_every, 1);
    }

    #[test]
    fn placement_and_affinity_reach_the_config() {
        let d = parse(&[]);
        assert_eq!(d.config().placement, PlacementSpec::Contiguous);
        assert_eq!(d.pair_affinity, 0.0);
        let o = parse(&["--placement", "traffic", "--pair-affinity", "0.8"]);
        assert_eq!(o.config().placement, PlacementSpec::Traffic);
        assert_eq!(o.pair_affinity, 0.8);
        assert_eq!(
            parse(&["--placement", "contiguous"]).config().placement,
            PlacementSpec::Contiguous
        );
    }

    /// The satellite audit: every [`FlowtuneConfig`] knob the CLI can set
    /// must (a) appear in the `--help` usage text under its flag name and
    /// (b) actually reach [`Opts::config`] when the flag is passed. A
    /// knob wired into `config()` without documentation — or documented
    /// without effect — fails here.
    #[test]
    fn every_config_knob_has_a_documented_flag() {
        // (config knob, flag, example invocation)
        let knobs: &[(&str, &str, &[&str])] = &[
            (
                "exchange_every",
                "--exchange-every",
                &["--exchange-every", "4"],
            ),
            (
                "exchange_delta_eps",
                "--exchange-delta-eps",
                &["--exchange-delta-eps", "0.5"],
            ),
            (
                "parallel_shards",
                "--parallel-shards",
                &["--parallel-shards=off"],
            ),
            ("placement", "--placement", &["--placement", "traffic"]),
            ("incremental", "--incremental", &["--incremental=off"]),
            (
                "full_sweep_every",
                "--full-sweep-every",
                &["--full-sweep-every", "16"],
            ),
            ("dirty_eps", "--dirty-eps", &["--dirty-eps", "0.5"]),
        ];
        let defaults = FlowtuneConfig::default();
        for (knob, flag, invocation) in knobs {
            assert!(
                USAGE.contains(flag),
                "knob `{knob}`: flag {flag} missing from USAGE"
            );
            assert!(
                USAGE.contains(knob),
                "knob `{knob}` not named in USAGE next to its flag"
            );
            let cfg = parse(invocation).config();
            assert_ne!(
                cfg, defaults,
                "knob `{knob}`: {invocation:?} did not change the config"
            );
        }
        // And the workload/composition flags that shape runs without
        // living in FlowtuneConfig are documented too.
        for flag in [
            "--engine",
            "--shards",
            "--seed",
            "--quick",
            "--full",
            "--pair-affinity",
            "--scenario",
            "--help",
        ] {
            assert!(USAGE.contains(flag), "{flag} missing from USAGE");
        }
    }

    #[test]
    fn scenario_parses_every_family_and_defaults_to_all() {
        use flowtune_workload::ScenarioKind;
        assert_eq!(parse(&[]).scenario, None);
        for kind in ScenarioKind::ALL {
            assert_eq!(
                parse(&["--scenario", kind.name()]).scenario,
                Some(kind),
                "{} must round-trip through --scenario",
                kind.name()
            );
        }
    }

    #[test]
    #[should_panic(expected = "unknown scenario `shuffle`")]
    fn bad_scenario_message_lists_valid_names() {
        let _ = parse(&["--scenario", "shuffle"]);
    }

    #[test]
    fn incremental_flags_reach_the_config() {
        // Flag absent: the config defaults stand (incremental on, at
        // wire precision).
        let d = parse(&[]);
        assert!(d.config().incremental);
        assert_eq!(d.config().full_sweep_every, 64);
        assert_eq!(d.config().dirty_eps, 1e-9);
        // Bare flag / =on / =off all parse.
        assert!(parse(&["--incremental"]).config().incremental);
        assert!(parse(&["--incremental=on"]).config().incremental);
        assert!(!parse(&["--incremental=off"]).config().incremental);
        // The cadence and eps compose with it.
        let o = parse(&[
            "--incremental",
            "--full-sweep-every",
            "16",
            "--dirty-eps",
            "1e-3",
        ]);
        let cfg = o.config();
        assert!(cfg.incremental);
        assert_eq!(cfg.full_sweep_every, 16);
        assert_eq!(cfg.dirty_eps, 1e-3);
    }

    #[test]
    #[should_panic(expected = "--dirty-eps needs a finite non-negative number")]
    fn negative_dirty_eps_panics() {
        let _ = parse(&["--dirty-eps", "-0.5"]);
    }

    #[test]
    #[should_panic(expected = "finite non-negative")]
    fn negative_delta_eps_panics() {
        let _ = parse(&["--exchange-delta-eps", "-1.0"]);
    }

    #[test]
    #[should_panic(expected = "probability in [0, 1]")]
    fn out_of_range_affinity_panics() {
        let _ = parse(&["--pair-affinity", "1.5"]);
    }

    #[test]
    #[should_panic(expected = "valid placements: contiguous, traffic")]
    fn bad_placement_message_lists_valid_names() {
        let _ = parse(&["--placement", "quantum"]);
    }

    /// The satellite fix, pinned: a bad engine name's error now carries
    /// the full usage, so it names the composition flags (PR 4's
    /// `--parallel-shards` / `--exchange-delta-eps` and this PR's
    /// `--placement`), not just the engine list.
    #[test]
    #[should_panic(expected = "--parallel-shards")]
    fn bad_engine_message_names_the_composition_flags() {
        let _ = parse(&["--engine", "quantum"]);
    }

    #[test]
    #[should_panic(expected = "shard count must be at least 1")]
    fn zero_shards_panics() {
        let _ = parse(&["--shards", "0"]);
    }

    /// `multicore` is refused like any other unknown name, usage text
    /// and all: the §5 worker pool serves the §6.1 tables, not a plane.
    #[test]
    #[should_panic(expected = "unknown engine")]
    fn bad_engine_panics() {
        let refused = std::panic::catch_unwind(|| parse(&["--engine", "multicore"])).unwrap_err();
        let msg = refused.downcast_ref::<String>().expect("a formatted panic");
        assert!(msg.contains("unknown engine `multicore`"), "{msg}");
        assert!(msg.contains(USAGE), "{msg}");
        let _ = parse(&["--engine", "quantum"]);
    }

    #[test]
    #[should_panic(expected = "valid engines: serial, gradient")]
    fn bad_engine_message_lists_valid_names() {
        let _ = parse(&["--engine", "quantum"]);
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_flag_panics() {
        let _ = parse(&["--wat"]);
    }
}
