//! `flowbench` — the repository's benchmark: what a control round and a
//! flowlet's first rate cost, end to end and layer by layer, measured
//! from outside the crates. See `benchmark/README.md`.
//!
//! `flowbench --workload NAME --seed N --seconds S --trace 0|1` runs one
//! workload and prints one JSON object as the last line of stdout:
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics of a
//! traced run plus the layer probes (`--trace 1`).

mod harness;
mod heap;
mod probes;
mod reference;
mod spans;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use harness::{Block, Delta, Harness, SetupCost};
use reference::Reference;
use workload::{Workload, WORKLOADS};

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// Set-ups per untraced run: at least `MIN_SETUPS`, and while they are
/// cheap as many as fit in `SETUP_BUDGET`, up to `MAX_SETUPS`. `setup_s`
/// is their lowest decile, `state_mb` their median. All but the first
/// build a plane that is dropped at once, at even intervals through the
/// run, so they see the machine states the rounds see.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET: Duration = Duration::from_millis(1500);
/// Blocks every run measures, however short `--seconds` is.
const MIN_BLOCKS: usize = 3;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "usage: flowbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: &WORKLOADS[0],
        seed: 1,
        seconds: 24.0,
        trace: false,
    };
    let mut named = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let Some(value) = argv.next() else { usage() };
        match flag.as_str() {
            "--workload" => match WORKLOADS.iter().find(|w| w.name == value) {
                Some(w) => (args.workload, named) = (w, true),
                None => usage(),
            },
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => match value.parse() {
                Ok(s) if s > 0.0 => args.seconds = s,
                _ => usage(),
            },
            "--trace" => match value.as_str() {
                "0" => args.trace = false,
                "1" => args.trace = true,
                _ => usage(),
            },
            _ => usage(),
        }
    }
    if !named {
        usage();
    }
    args
}

/// Where sockets and span files go: inside the build directory, which
/// is inside the checkout.
fn out_dir() -> PathBuf {
    PathBuf::from(std::env::var("FLOWBENCH_OUT").unwrap_or_else(|_| "target/benchmark".into()))
        .join("flowbench")
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let values: Vec<f64> = values.into_iter().collect();
    stats::over_blocks(&values).map_or(0.0, |s| s.median)
}

/// Prints a block statistic with the benchmark's own noise estimate.
fn report_blocks(name: &str, unit: &str, scale: f64, values: &[Option<f64>]) -> f64 {
    let present: Vec<f64> = values.iter().flatten().map(|v| v * scale).collect();
    match stats::over_blocks(&present) {
        Some(s) => {
            eprintln!(
                "  {name:<24} {:>14.4} {unit:<6} (min {:.4}, iqr {:.4} over {} blocks)",
                s.median, s.min, s.iqr, s.blocks
            );
            s.median
        }
        None => {
            eprintln!("  {name:<24} not reported: no block has ten samples beyond it");
            0.0
        }
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_escape(s: &str) -> String {
    let printable: String = s.chars().filter(|c| !c.is_control()).collect();
    printable.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let args = parse_args();
    let w = args.workload;
    let out = out_dir();
    let scratch = out.join(format!("uds-{}", std::process::id()));
    let budget = Duration::from_secs_f64(args.seconds);
    eprintln!(
        "flowbench {} seed {} {}s {}",
        w.name,
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" }
    );

    let mut reference = Reference::new();
    let (mut h, first_setup) = Harness::set_up(w, args.seed, &scratch, &mut reference);
    let setups = if args.trace {
        1
    } else {
        ((SETUP_BUDGET.as_secs_f64() / first_setup.total_s) as usize).clamp(MIN_SETUPS, MAX_SETUPS)
    };
    let mut costs = vec![first_setup];
    let before = h.counters();
    let started = Instant::now();
    let mut in_setups = Duration::ZERO;
    let mut plain: Vec<Block> = Vec::new();
    let mut traced: Vec<Block> = Vec::new();
    // A traced run alternates plain and traced blocks, so the two see
    // the same machine; its last fifth of the budget is the probes'.
    let measure = budget.mul_f64(if args.trace { 0.8 } else { 1.0 });
    loop {
        let spent = started.elapsed() - in_setups;
        if costs.len() < setups && spent >= measure.mul_f64(costs.len() as f64 / setups as f64) {
            let repeat = Instant::now();
            costs.push(Harness::set_up(w, args.seed, &scratch, &mut reference).1);
            in_setups += repeat.elapsed();
        } else if plain.len() + traced.len() >= MIN_BLOCKS && spent >= measure {
            break;
        } else if args.trace && plain.len() > traced.len() {
            traced.push(h.run_block::<true>(&mut reference));
        } else {
            plain.push(h.run_block::<false>(&mut reference));
        }
    }
    let measured_s = (started.elapsed() - in_setups).as_secs_f64();
    // A late round or a frame that did not decode is a failed operation.
    let mut run = Delta::default();
    run.add(&before, &h.counters());
    h.ops.failed += run.late_rounds + run.decode_errors;
    if workload::is_sharded(w.plane) {
        h.check_against_oracle(&mut reference);
    }

    eprintln!(
        "  {} measured rounds in {} blocks of {} over {measured_s:.2} s; {} live flowlets; \
         update_digest {:016x} event_digest {:016x}",
        h.measured_rounds,
        plain.len() + traced.len(),
        w.rounds_per_block,
        h.live.len(),
        h.update_digest,
        h.event_digest,
    );
    if w.plane == workload::PlaneKind::Wire2Uds {
        eprintln!("  exchange frames cross host-local Unix sockets, not a link");
    }
    for example in &h.ops.examples {
        eprintln!("  FAILED: {example}");
    }

    let metrics = if args.trace {
        let metrics = per_layer(&h, &costs[0], &plain, &traced, budget.mul_f64(0.2));
        let path = out.join(format!("trace-{}.jsonl", w.name));
        match write_spans(&h.layers.first_block, &path) {
            Ok(()) => eprintln!("  spans of the first traced block: {}", path.display()),
            Err(e) => eprintln!("  could not write {}: {e}", path.display()),
        }
        metrics
    } else {
        end_to_end(&plain, &costs)
    };
    let (attempted, failed) = (h.ops.attempted, h.ops.failed);
    // Stops the wire plane's receiver threads and waits for them.
    drop(h);

    println!(
        "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\", \
         \"blocks\": {}, \"rounds_per_block\": {}}}}}",
        w.name,
        args.seed,
        args.seconds,
        args.trace,
        std::thread::available_parallelism().map_or(0, usize::from),
        json_escape(&cpu_model()),
        json_escape(&std::env::var("FLOWBENCH_RUSTC").unwrap_or_else(|_| "unknown".into())),
        json_escape(&std::env::var("FLOWBENCH_COMMIT").unwrap_or_else(|_| "unknown".into())),
        plain.len() + traced.len(),
        w.rounds_per_block,
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    if failed != 0 {
        std::process::exit(1);
    }
}

fn write_spans(spans: &[spans::Span], path: &std::path::Path) -> std::io::Result<()> {
    std::fs::create_dir_all(path.parent().expect("the path has a directory"))?;
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    spans::write_jsonl(spans, &mut file)?;
    // Dropping the writer would swallow a failed write.
    std::io::Write::flush(&mut file)
}

/// The metrics a user of the allocator would see (untraced run).
fn end_to_end(blocks: &[Block], setups: &[SetupCost]) -> Vec<Metric> {
    let col = |f: fn(&Block) -> Option<f64>| blocks.iter().map(f).collect::<Vec<_>>();
    // The percentiles are printed here and reported by the traced run:
    // on a shared box they do not repeat well enough to carry a bound.
    report_blocks("round.p50_us", "us", 1e-3, &col(|b| b.p50_ns));
    report_blocks("round.p99_us", "us", 1e-3, &col(|b| b.p99_ns));
    report_blocks(
        "wall rounds per s",
        "1/s",
        1.0,
        &col(|b| Some(1e9 / b.mean_ns)),
    );
    // Neighbours on the host only ever add time to a window, so the
    // lowest decile over windows is what the program costs when they
    // leave it alone. Even a busy host leaves it alone for a tenth of a
    // run, while the median window is whatever the neighbours make it.
    let windows: Vec<f64> = blocks.iter().flat_map(|b| b.window_ref_ns).collect();
    let w = stats::over_blocks(&windows).expect("a run measures at least three blocks");
    let per_s = 1e9 / w.p10;
    eprintln!(
        "  {:<24} {per_s:>14.4} 1/s    (reference seconds; lowest-decile window of {}: \
         {:.4} us, median {:.4}, min {:.4})",
        "rounds_per_s",
        w.blocks,
        w.p10 * 1e-3,
        w.median * 1e-3,
        w.min * 1e-3,
    );
    // The same statistic as the rounds', for the same reason; with
    // fewer than ten set-ups it is the fastest of them.
    let setup_ref_s: Vec<f64> = setups.iter().map(|c| c.total_ref_s).collect();
    let s = stats::over_blocks(&setup_ref_s).expect("a run sets up at least once");
    let setup_s = s.p10;
    let state_mb = median(setups.iter().map(|c| c.state_bytes as f64 / 1e6));
    eprintln!(
        "  {:<24} {setup_s:>14.4} s      (reference seconds; lowest decile of {} set-ups, \
         median {:.4}; wall median {:.4})",
        "setup_s",
        s.blocks,
        s.median,
        median(setups.iter().map(|c| c.total_s)),
    );
    eprintln!("  {:<24} {state_mb:>14.4} MB", "state_mb");
    vec![
        metric("setup_s", "s", setup_s),
        metric("rounds_per_s", "1/s", per_s),
        metric("state_mb", "MB", state_mb),
    ]
}

/// The metrics of single layers: spans and counters of the traced
/// blocks, then the layer probes.
fn per_layer(
    h: &Harness,
    cost: &SetupCost,
    plain: &[Block],
    traced: &[Block],
    probe_budget: Duration,
) -> Vec<Metric> {
    // Spans and counters cover the same rounds: the traced blocks'.
    let layers = &h.layers;
    let rounds = layers.rounds.max(1) as f64;
    let span_us =
        |name: &str| layers.self_ns.get(name).copied().unwrap_or(0) as f64 / rounds * 1e-3;
    let per_round = |count: u64| count as f64 / rounds;
    let dur_us = |d: Duration| d.as_secs_f64() * 1e6 / rounds;
    let c = &layers.counters;
    let (allocate, export, exchange) = (dur_us(c.allocate), dur_us(c.export), dur_us(c.exchange));
    let tick_us = span_us("driver.tick");
    let (sent, suppressed) = (per_round(c.updates_sent), per_round(c.updates_suppressed));
    let mean_us = |blocks: &[Block]| median(blocks.iter().map(|b| b.mean_ns * 1e-3));
    let (plain_us, traced_us) = (mean_us(plain), mean_us(traced));
    let over_plain =
        |f: fn(&Block) -> Option<f64>| median(plain.iter().filter_map(f).map(|ns| ns * 1e-3));
    let mut react = h.react_ns.clone();
    react.sort_unstable();
    let react_us = |p: f64| stats::percentile(&react, p).map_or(0.0, |ns| ns * 1e-3);
    if react_us(0.5) == 0.0 {
        eprintln!("  endpoint.react_*: not reported, too few flowlets start on this workload");
    }

    let mut m = vec![
        metric("proto.decode_us", "us", span_us("proto.decode")),
        metric("proto.encode_us", "us", span_us("proto.encode")),
        metric("proto.msgs_in", "count", per_round(layers.msgs_in)),
        metric("proto.msgs_out", "count", per_round(layers.msgs_out)),
        metric("endpoint.notify_us", "us", span_us("endpoint.notify")),
        metric("endpoint.apply_us", "us", span_us("endpoint.apply")),
        metric("service.intake_us", "us", span_us("service.intake")),
        metric("service.rejected", "count", per_round(c.rejected)),
        metric("driver.tick_us", "us", tick_us),
        metric("service.allocate_us", "us", allocate),
        metric("service.export_us", "us", export),
        metric("sharded.exchange_us", "us", exchange),
        metric(
            "tick.unattributed_us",
            "us",
            tick_us - allocate - export - exchange,
        ),
        metric("round.unattributed_us", "us", span_us("round.unattributed")),
        metric("round.p50_us", "us", over_plain(|b| b.p50_ns)),
        metric("round.p99_us", "us", over_plain(|b| b.p99_ns)),
        metric("round.traced_us", "us", traced_us),
        metric(
            "reference.factor",
            "ratio",
            median(plain.iter().chain(traced).map(|b| b.factor)),
        ),
        metric(
            "trace.overhead_frac",
            "ratio",
            (traced_us - plain_us) / plain_us,
        ),
        metric("service.update_bytes", "B", per_round(layers.update_bytes)),
        metric("service.updates_sent", "count", sent),
        metric("service.updates_suppressed", "count", suppressed),
        metric(
            "service.suppress_ratio",
            "ratio",
            suppressed / (sent + suppressed).max(f64::MIN_POSITIVE),
        ),
        metric(
            "service.intake_allocs",
            "count",
            per_round(layers.intake_allocs),
        ),
        metric("tick.allocs", "count", per_round(layers.tick_allocs)),
        metric("alloc.dirty_flows", "count", per_round(c.dirty_flows)),
        metric("alloc.dirty_links", "count", per_round(c.dirty_links)),
        metric("sharded.exchange_bytes", "B", per_round(c.exchange_bytes)),
        metric(
            "sharded.exchange_rounds",
            "count",
            per_round(c.exchange_rounds),
        ),
        metric("alloc.peak_link_load", "ratio", h.peak_link_load),
        metric("net.tx_bytes", "B", per_round(c.tx_bytes)),
        metric("net.tx_frames", "count", per_round(c.tx_frames)),
        metric("net.late_rounds", "count", c.late_rounds as f64),
        metric(
            "net.peak_rounds_behind",
            "count",
            h.plane.wire_stats().max_peak_rounds_behind() as f64,
        ),
        metric("net.decode_errors", "count", c.decode_errors as f64),
        metric("endpoint.react_p50_us", "us", react_us(0.5)),
        metric("endpoint.react_p99_us", "us", react_us(0.99)),
        metric("endpoint.react_samples", "count", react.len() as f64),
        metric("topo.build_s", "s", cost.topo_build_s),
        metric("workload.gen_s", "s", cost.workload_gen_s),
        metric("service.load_s", "s", cost.load_s),
        metric("service.converge_s", "s", cost.converge_s),
    ];
    m.extend(probes::run(h, probe_budget));
    for x in &m {
        eprintln!("  {:<28} {:>16.4} {}", x.name, x.value, x.unit);
    }
    m
}
