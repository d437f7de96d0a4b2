//! `flowtune-arbiterd` — one shard of the distributed Flowtune control
//! plane as an OS process, plus a `--demo` launcher that spawns a whole
//! N-process cluster and checks it against the unsharded optimum.
//!
//! Peer mode (`--shard I --shards N`) joins the mesh over the chosen
//! transport, feeds its contiguous-placement share of the demo's
//! cross-shard incast workload (the same one the repository's
//! `cross_shard_incast` test pins), drives `--ticks` allocator ticks
//! with the wire exchange every `--exchange-every` ticks, and prints
//! machine-readable `key=value` lines: each owned flow's converged rate
//! (with its exact bit pattern), the shard's exchange / wire counters,
//! and one `lag` line per remote peer with the staleness view
//! (`behind`/`peak`/`fresh_round`) the async barrier kept.
//!
//! Demo mode (`--demo N`) spawns N peer processes of itself, computes
//! the unsharded reference allocation in-process, and asserts what the
//! paper's §5 aggregation promises one level up: every flow's rate
//! matches the unsharded service within the update-threshold tolerance,
//! no link is over-subscribed, real bytes moved on the wire, and no
//! frame was dropped as undecodable.

use std::io::{self, Write};
use std::process::{Command, Stdio};
use std::time::Duration;

use flowtune::{
    add_path_load, worst_oversubscription, AllocatorService, ExchangeConfig, FlowtuneConfig,
    Placement,
};
use flowtune_net::{free_tcp_port_run, tcp_connect, uds_connect, ShardPeer, Transport};
use flowtune_proto::{Message, Token};
use flowtune_topo::{ClosConfig, FlowId, TwoTierClos};

/// The demo workload, shared verbatim with `tests/cross_shard_incast.rs`:
/// 4 sources per block of a 2-block fabric, all sending to server 15.
const SOURCES: [u16; 8] = [0, 1, 2, 3, 8, 9, 10, 11];
const RECEIVER: u16 = 15;

const USAGE: &str = "flowtune-arbiterd: distributed Flowtune shard peer / demo launcher

Peer mode (one process per shard):
  flowtune-arbiterd --shard I --shards N [options]

Demo mode (spawns an N-process cluster of itself, checks convergence):
  flowtune-arbiterd --demo N [options]

Options:
  --shard I            this peer's shard id (peer mode)
  --shards N           total shards in the cluster (peer mode)
  --demo N             launch N peer processes and verify the result
  --transport T        uds | tcp (default uds; demo and peer mode)
  --dir PATH           socket directory for uds (peer mode; demo makes its own)
  --base-port P        first TCP port, peer i binds P+i (tcp; demo probes one)
  --ticks N            allocator ticks to run (default 400)
  --exchange-every K   exchange cadence in ticks (default 1)
  --timeout-ms M       round timeout waited on fresh peers (default 1000)
  --max-behind B       stale rounds before a peer is waited on again;
                       0 disables the bound (default 8)
  --help               this text
";

#[derive(Debug, Clone)]
struct Opts {
    shard: Option<u16>,
    shards: u16,
    demo: Option<u16>,
    transport: String,
    dir: String,
    base_port: u16,
    ticks: u64,
    exchange_every: u64,
    timeout_ms: u64,
    max_behind: u64,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            shard: None,
            shards: 0,
            demo: None,
            transport: "uds".to_string(),
            dir: String::new(),
            base_port: 0,
            ticks: 400,
            exchange_every: 1,
            timeout_ms: 1000,
            max_behind: ExchangeConfig::default().max_rounds_behind,
        }
    }
}

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            "--shard" => {
                opts.shard = Some(
                    value("--shard")?
                        .parse()
                        .map_err(|e| format!("--shard: {e}"))?,
                )
            }
            "--shards" => {
                opts.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?
            }
            "--demo" => {
                opts.demo = Some(
                    value("--demo")?
                        .parse()
                        .map_err(|e| format!("--demo: {e}"))?,
                )
            }
            "--transport" => opts.transport = value("--transport")?,
            "--dir" => opts.dir = value("--dir")?,
            "--base-port" => {
                opts.base_port = value("--base-port")?
                    .parse()
                    .map_err(|e| format!("--base-port: {e}"))?
            }
            "--ticks" => {
                opts.ticks = value("--ticks")?
                    .parse()
                    .map_err(|e| format!("--ticks: {e}"))?
            }
            "--exchange-every" => {
                opts.exchange_every = value("--exchange-every")?
                    .parse()
                    .map_err(|e| format!("--exchange-every: {e}"))?
            }
            "--timeout-ms" => {
                opts.timeout_ms = value("--timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--timeout-ms: {e}"))?
            }
            "--max-behind" => {
                opts.max_behind = value("--max-behind")?
                    .parse()
                    .map_err(|e| format!("--max-behind: {e}"))?
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !matches!(opts.transport.as_str(), "uds" | "tcp") {
        return Err(format!(
            "--transport {} (expected uds or tcp)",
            opts.transport
        ));
    }
    Ok(opts)
}

fn fabric() -> TwoTierClos {
    TwoTierClos::build(ClosConfig::multicore(2, 2, 4))
}

fn config(exchange_every: u64) -> FlowtuneConfig {
    FlowtuneConfig {
        exchange_every,
        ..FlowtuneConfig::default()
    }
}

fn start(fabric: &TwoTierClos, token: u32, src: u16, dst: u16) -> Message {
    let spine = fabric.ecmp_spine(src as usize, dst as usize, FlowId(u64::from(token)));
    Message::FlowletStart {
        token: Token::new(token),
        src,
        dst,
        size_hint: 1_000_000,
        weight_q8: 256,
        spine: spine as u8,
    }
}

/// The demo's flow set: `(token, src)` pairs, token = 1-based index.
fn incast_flows() -> Vec<(u32, u16)> {
    SOURCES
        .iter()
        .enumerate()
        .map(|(i, &src)| (i as u32 + 1, src))
        .collect()
}

// ---------------------------------------------------------------- peer

fn run_peer_on<T: Transport>(transport: T, opts: &Opts) -> io::Result<()> {
    let fabric = fabric();
    let svc = AllocatorService::new(&fabric, config(opts.exchange_every));
    let exchange = ExchangeConfig::default()
        .round_timeout(Duration::from_millis(opts.timeout_ms))
        .max_rounds_behind(opts.max_behind);
    let mut peer = ShardPeer::new(svc, transport, exchange)?;
    let placement = Placement::contiguous(fabric.config().server_count(), opts.shards as usize);
    let mine: Vec<(u32, u16)> = incast_flows()
        .into_iter()
        .filter(|&(_, src)| placement.shard_of(src) == usize::from(peer.shard()))
        .collect();
    for &(token, src) in &mine {
        peer.on_message(start(&fabric, token, src, RECEIVER))
            .expect("demo workload is well-formed");
    }
    for _ in 0..opts.ticks {
        peer.tick()?;
    }
    let stdout = io::stdout();
    let mut out = stdout.lock();
    for &(token, _) in &mine {
        let rate = peer
            .service()
            .flow_rate_gbps(Token::new(token))
            .expect("fed flow is active");
        writeln!(
            out,
            "rate token={token} gbps={rate} bits={:016x}",
            rate.to_bits()
        )?;
    }
    let st = peer.exchange_stats();
    let wire = peer.wire_stats();
    writeln!(
        out,
        "stats shard={} rounds={} frame_bytes={} decode_errors={} tx_bytes={} rx_bytes={} tx_frames={} rx_frames={} late_rounds={}",
        peer.shard(),
        st.exchange_rounds,
        st.exchange_bytes,
        st.exchange_decode_errors,
        wire.tx_bytes,
        wire.rx_bytes,
        wire.tx_frames,
        wire.rx_frames,
        wire.late_rounds,
    )?;
    for l in &wire.peers {
        writeln!(
            out,
            "lag peer={} behind={} peak={} fresh_round={} rx_bytes={} rx_frames={}",
            l.peer,
            l.rounds_behind,
            l.peak_rounds_behind,
            l.last_fresh_round,
            l.rx_bytes,
            l.rx_frames,
        )?;
    }
    Ok(())
}

fn run_peer(opts: &Opts) -> io::Result<()> {
    let shard = opts.shard.expect("peer mode needs --shard");
    assert!(
        shard < opts.shards,
        "--shard {shard} out of range for --shards {}",
        opts.shards
    );
    match opts.transport.as_str() {
        "uds" => {
            assert!(!opts.dir.is_empty(), "uds transport needs --dir");
            let t = uds_connect(std::path::Path::new(&opts.dir), shard, opts.shards)?;
            run_peer_on(t, opts)
        }
        "tcp" => {
            assert!(opts.base_port != 0, "tcp transport needs --base-port");
            let t = tcp_connect(opts.base_port, shard, opts.shards)?;
            run_peer_on(t, opts)
        }
        other => unreachable!("transport {other} was validated at parse time"),
    }
}

// ---------------------------------------------------------------- demo

#[derive(Debug, Default)]
struct PeerReport {
    rates: Vec<(u32, f64)>,
    tx_bytes: u64,
    rx_bytes: u64,
    decode_errors: u64,
    late_rounds: u64,
    rounds: u64,
    frame_bytes: u64,
    /// `(peer, rounds_behind, peak_rounds_behind)` per remote peer.
    lags: Vec<(u16, u64, u64)>,
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
}

fn parse_report(stdout: &str, report: &mut PeerReport) -> Result<(), String> {
    for line in stdout.lines() {
        if line.starts_with("rate ") {
            let token: u32 = field(line, "token")
                .ok_or("rate line without token")?
                .parse()
                .map_err(|e| format!("token: {e}"))?;
            let bits =
                u64::from_str_radix(field(line, "bits").ok_or("rate line without bits")?, 16)
                    .map_err(|e| format!("bits: {e}"))?;
            report.rates.push((token, f64::from_bits(bits)));
        } else if line.starts_with("stats ") {
            let get = |key: &str| -> Result<u64, String> {
                field(line, key)
                    .ok_or_else(|| format!("stats line without {key}"))?
                    .parse()
                    .map_err(|e| format!("{key}: {e}"))
            };
            report.rounds = get("rounds")?;
            report.frame_bytes = get("frame_bytes")?;
            report.decode_errors = get("decode_errors")?;
            report.tx_bytes = get("tx_bytes")?;
            report.rx_bytes = get("rx_bytes")?;
            report.late_rounds = get("late_rounds")?;
        } else if line.starts_with("lag ") {
            let get = |key: &str| -> Result<u64, String> {
                field(line, key)
                    .ok_or_else(|| format!("lag line without {key}"))?
                    .parse()
                    .map_err(|e| format!("{key}: {e}"))
            };
            let peer = u16::try_from(get("peer")?).map_err(|e| format!("peer: {e}"))?;
            report.lags.push((peer, get("behind")?, get("peak")?));
        }
    }
    Ok(())
}

/// The unsharded reference: same workload, one service, same tick count.
fn unsharded_rates(ticks: u64) -> Vec<(u32, f64)> {
    let fabric = fabric();
    let mut svc = AllocatorService::new(&fabric, config(1));
    for &(token, src) in &incast_flows() {
        svc.on_message(start(&fabric, token, src, RECEIVER))
            .expect("demo workload is well-formed");
    }
    for _ in 0..ticks {
        svc.tick();
    }
    incast_flows()
        .iter()
        .map(|&(token, _)| {
            (
                token,
                svc.flow_rate_gbps(Token::new(token)).expect("flow active"),
            )
        })
        .collect()
}

fn run_demo(opts: &Opts) -> Result<(), String> {
    let n = opts.demo.expect("demo mode needs --demo");
    assert!(n >= 1, "--demo needs at least one shard");
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = std::env::temp_dir().join(format!("flowtune-arbiterd-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let base_port = if opts.transport == "tcp" {
        if opts.base_port != 0 {
            opts.base_port
        } else {
            free_tcp_port_run(n).map_err(|e| format!("port probe: {e}"))?
        }
    } else {
        0
    };

    println!(
        "demo: {n} {} peers x {} ticks, exchange every {}",
        opts.transport, opts.ticks, opts.exchange_every
    );
    let mut children = Vec::new();
    for shard in 0..n {
        let mut cmd = Command::new(&exe);
        cmd.arg("--shard")
            .arg(shard.to_string())
            .arg("--shards")
            .arg(n.to_string())
            .arg("--transport")
            .arg(&opts.transport)
            .arg("--ticks")
            .arg(opts.ticks.to_string())
            .arg("--exchange-every")
            .arg(opts.exchange_every.to_string())
            .arg("--timeout-ms")
            .arg(opts.timeout_ms.to_string())
            .arg("--max-behind")
            .arg(opts.max_behind.to_string())
            .stdout(Stdio::piped());
        if opts.transport == "uds" {
            cmd.arg("--dir").arg(&dir);
        } else {
            cmd.arg("--base-port").arg(base_port.to_string());
        }
        children.push(
            cmd.spawn()
                .map_err(|e| format!("spawn shard {shard}: {e}"))?,
        );
    }

    let mut reports = Vec::new();
    let mut failed = false;
    for (shard, child) in children.into_iter().enumerate() {
        let output = child
            .wait_with_output()
            .map_err(|e| format!("wait shard {shard}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
        if !output.status.success() {
            eprintln!("shard {shard} exited with {}:\n{stdout}", output.status);
            failed = true;
            continue;
        }
        let mut report = PeerReport::default();
        parse_report(&stdout, &mut report).map_err(|e| format!("shard {shard}: {e}"))?;
        reports.push(report);
    }
    let _ = std::fs::remove_dir_all(&dir);
    if failed {
        return Err("a shard process failed".to_string());
    }

    // Gather the distributed rates and check them against the unsharded
    // reference the tentpole promises (tolerance: the repository's
    // cross_shard_incast criterion).
    let reference = unsharded_rates(opts.ticks);
    let mut distributed: Vec<(u32, f64)> = reports.iter().flat_map(|r| r.rates.clone()).collect();
    distributed.sort_unstable_by_key(|&(t, _)| t);
    if distributed.len() != reference.len() {
        return Err(format!(
            "expected {} flows across peers, got {}",
            reference.len(),
            distributed.len()
        ));
    }
    let fabric = fabric();
    let cfg = config(opts.exchange_every);
    let tol = cfg.update_threshold;
    let mut ok = true;
    for (&(token, a), &(dt, b)) in reference.iter().zip(&distributed) {
        assert_eq!(token, dt, "token sets must match");
        let pass = (a - b).abs() <= tol * a.max(1.0);
        println!(
            "check token={token} unsharded={a:.4} distributed={b:.4} {}",
            if pass { "ok" } else { "FAIL" }
        );
        ok &= pass;
    }

    // Feasibility: sum each flow's endpoint-visible rate over its path;
    // no link may exceed its capacity.
    let mut loads = vec![0.0f64; fabric.topology().link_count()];
    for &(token, rate) in &distributed {
        let src = SOURCES[(token - 1) as usize] as usize;
        let path = fabric.path(src, RECEIVER as usize, FlowId(u64::from(token)));
        add_path_load(&mut loads, &path, rate);
    }
    let over = worst_oversubscription(&fabric, &loads);
    println!(
        "check worst_oversubscription={over:.2e} {}",
        if over <= 1e-6 { "ok" } else { "FAIL" }
    );
    ok &= over <= 1e-6;

    // Wire health: real bytes moved (for any actual multi-peer run) and
    // nothing arrived undecodable.
    let tx: u64 = reports.iter().map(|r| r.tx_bytes).sum();
    let rx: u64 = reports.iter().map(|r| r.rx_bytes).sum();
    let decode_errors: u64 = reports.iter().map(|r| r.decode_errors).sum();
    let late: u64 = reports.iter().map(|r| r.late_rounds).sum();
    let frames: u64 = reports.iter().map(|r| r.frame_bytes).sum();
    println!("wire tx_bytes={tx} rx_bytes={rx} frame_bytes={frames} decode_errors={decode_errors} late_rounds={late}");
    if n > 1 {
        let wire_ok = tx > 0 && rx > 0;
        println!(
            "check wire_bytes_nonzero {}",
            if wire_ok { "ok" } else { "FAIL" }
        );
        ok &= wire_ok;
    }
    let decode_ok = decode_errors == 0;
    println!(
        "check decode_errors_zero {}",
        if decode_ok { "ok" } else { "FAIL" }
    );
    ok &= decode_ok;

    // The cluster-wide staleness view: for each shard, the worst any
    // other peer ever observed of it.
    let mut peak = vec![0u64; n as usize];
    for report in &reports {
        for &(peer, _, p) in &report.lags {
            if let Some(slot) = peak.get_mut(usize::from(peer)) {
                *slot = (*slot).max(p);
            }
        }
    }
    for (shard, p) in peak.iter().enumerate() {
        println!("lag shard={shard} peak_behind={p}");
    }

    if ok {
        println!("demo: PASS");
        Ok(())
    } else {
        Err("demo assertions failed".to_string())
    }
}

fn main() {
    let opts = match parse_opts() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("flowtune-arbiterd: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    if opts.demo.is_some() {
        if let Err(e) = run_demo(&opts) {
            eprintln!("flowtune-arbiterd: {e}");
            std::process::exit(1);
        }
    } else if opts.shard.is_some() {
        if let Err(e) = run_peer(&opts) {
            eprintln!("flowtune-arbiterd: {e}");
            std::process::exit(1);
        }
    } else {
        eprintln!("flowtune-arbiterd: pass --shard I --shards N or --demo N\n\n{USAGE}");
        std::process::exit(2);
    }
}
