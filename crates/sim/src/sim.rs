//! The simulation engine: topology + ports + transports + (for Flowtune)
//! the in-network control plane.

use std::collections::HashMap;

use bytes_shim::ByteBuf;
use flowtune::{
    AllocatorService, BoxTickDriver, EndpointAgent, Engine, FlowtuneConfig, TICK_INTERVAL_PS,
};
use flowtune_proto::codec;
use flowtune_topo::{ClosConfig, FlowId, LinkId, TwoTierClos};

use crate::event::{Event, EventQueue, TimerKind};
use crate::metrics::{FctRecord, Metrics};
use crate::packet::{Packet, PktKind, MSS, MTU};
use crate::queue::{DropTail, EcnQueue, PfabricQueue, Queue, SfqCodel, XcpPort};
use crate::time::{tx_time_ps, MS, US};
use crate::transport::{Action, CcKind, Conn, TransportConfig};

/// Minimal growable byte buffer for control streams (kept private so the
/// public API stays `bytes`-free).
mod bytes_shim {
    /// Append-only byte buffer with a consumed-prefix cursor.
    #[derive(Debug, Default)]
    pub struct ByteBuf {
        pub data: Vec<u8>,
        pub consumed: usize,
    }
}

/// Which end-to-end scheme a simulation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Centralized flowlet control (this paper).
    Flowtune,
    /// DCTCP (ECN marking + proportional reduction).
    Dctcp,
    /// pFabric (SRPT priority queues, minimal transport).
    Pfabric,
    /// Cubic over stochastic-fair CoDel.
    SfqCodel,
    /// XCP explicit rate feedback.
    Xcp,
}

impl Scheme {
    /// All five schemes, in the paper's presentation order.
    pub const ALL: [Scheme; 5] = [
        Scheme::Flowtune,
        Scheme::Dctcp,
        Scheme::Pfabric,
        Scheme::SfqCodel,
        Scheme::Xcp,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Flowtune => "Flowtune",
            Scheme::Dctcp => "DCTCP",
            Scheme::Pfabric => "pFabric",
            Scheme::SfqCodel => "sfqCoDel",
            Scheme::Xcp => "XCP",
        }
    }

    fn cc_kind(self) -> CcKind {
        match self {
            Scheme::Flowtune => CcKind::FlowtunePaced,
            Scheme::Dctcp => CcKind::Dctcp,
            Scheme::Pfabric => CcKind::Pfabric,
            Scheme::SfqCodel => CcKind::Cubic,
            Scheme::Xcp => CcKind::Xcp,
        }
    }
}

/// Simulation parameters (defaults reproduce §6.2's setup).
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The scheme under test.
    pub scheme: Scheme,
    /// Fabric shape.
    pub clos: ClosConfig,
    /// Flowtune control-plane settings (ignored by other schemes).
    pub flowtune: FlowtuneConfig,
    /// Which allocation engine the Flowtune control plane runs (ignored
    /// by other schemes).
    pub engine: Engine,
    /// Data-port buffer size, bytes (≈ 200 full packets).
    pub buffer_bytes: u64,
    /// DCTCP marking threshold K, bytes (≈ 65 packets at 10 G).
    pub ecn_k_bytes: u64,
    /// pFabric buffer, bytes (≈ 2×BDP).
    pub pfabric_buffer_bytes: u64,
    /// sfqCoDel: buckets / total limit / CoDel target / interval.
    pub codel: (usize, u64, u64, u64),
    /// XCP control interval, ps.
    pub xcp_interval_ps: u64,
    /// Queue sampling period (§6.5: 1 ms).
    pub sample_interval_ps: u64,
    /// Figure-4 throughput series bin (0 = disabled).
    pub throughput_bin_ps: u64,
}

impl SimConfig {
    /// The paper's evaluation setup for `scheme`.
    pub fn paper(scheme: Scheme) -> Self {
        Self {
            scheme,
            clos: ClosConfig::paper_eval(),
            flowtune: FlowtuneConfig::default(),
            engine: Engine::Serial,
            buffer_bytes: 200 * MTU as u64,
            ecn_k_bytes: 65 * MTU as u64,
            pfabric_buffer_bytes: 24 * MTU as u64,
            codel: (1024, 700 * MTU as u64, 500 * US, 10 * MS),
            xcp_interval_ps: 22 * US,
            sample_interval_ps: MS,
            throughput_bin_ps: 0,
        }
    }
}

#[derive(Debug)]
struct Port {
    queue: Queue,
    busy: bool,
    xcp: Option<XcpPort>,
    capacity_bps: u64,
    delay_ps: u64,
    /// Originating node's processing delay, charged on the first hop so
    /// simulated path latency matches `TwoTierClos::path_latency_ps`.
    src_delay_ps: u64,
    dst_delay_ps: u64,
    bytes_tx: u64,
}

#[derive(Debug)]
struct FlowEntry {
    conn: Conn,
    src: u16,
    start_ps: u64,
    size: Option<u64>,
    done: bool,
    is_ctrl: bool,
    /// One-way empty-network latency of the forward path, ps.
    base_latency_ps: u64,
    /// Bottleneck capacity of the forward path, bits/s.
    bottleneck_bps: u64,
}

#[derive(Debug, Clone, Copy)]
struct ArrivalSpec {
    flow: u64,
    src: u16,
    dst: u16,
    bytes: u64,
    stop_ps: Option<u64>,
}

/// Base id for control-stream "flows" (data flows use small ids).
const CTRL_BASE: u64 = 1 << 40;

/// A packet-level simulation of one scheme on one fabric.
#[derive(Debug)]
pub struct Simulation {
    cfg: SimConfig,
    fabric: TwoTierClos,
    ports: Vec<Port>,
    queue: EventQueue,
    now: u64,
    flows: HashMap<u64, FlowEntry>,
    arrivals: Vec<ArrivalSpec>,
    next_flow_id: u64,
    metrics: Metrics,
    // Flowtune control plane (None for other schemes); the engine behind
    // the service is whatever `SimConfig::engine` selected.
    alloc: Option<BoxTickDriver>,
    agents: Vec<EndpointAgent>,
    ctrl_up_buf: Vec<ByteBuf>,
    ctrl_down_buf: Vec<ByteBuf>,
    // Reused across drain_ctrl_stream calls so the per-segment parse
    // allocates nothing once warmed up.
    ctrl_chunk: Vec<u8>,
    ctrl_msgs: Vec<codec::Message>,
    sample_rotor: usize,
}

impl Simulation {
    /// Builds a simulation (no flows yet; see [`Simulation::add_flow`]).
    pub fn new(cfg: SimConfig) -> Self {
        let mut fabric = TwoTierClos::build(cfg.clos.clone());
        let is_flowtune = cfg.scheme == Scheme::Flowtune;
        if is_flowtune {
            fabric.attach_allocator();
        }
        let topo = fabric.topology().clone();
        let mut ports = Vec::with_capacity(topo.link_count());
        for link in topo.links() {
            let queue = match cfg.scheme {
                Scheme::Flowtune => Queue::DropTail(DropTail::new(cfg.buffer_bytes)),
                Scheme::Dctcp => Queue::Ecn(EcnQueue::new(cfg.buffer_bytes, cfg.ecn_k_bytes)),
                Scheme::Pfabric => Queue::Pfabric(PfabricQueue::new(cfg.pfabric_buffer_bytes)),
                Scheme::SfqCodel => {
                    let (b, lim, target, interval) = cfg.codel;
                    Queue::SfqCodel(SfqCodel::new(b, lim, target, interval))
                }
                Scheme::Xcp => Queue::DropTail(DropTail::new(cfg.buffer_bytes)),
            };
            let xcp = (cfg.scheme == Scheme::Xcp).then(|| XcpPort::new(cfg.xcp_interval_ps));
            ports.push(Port {
                queue,
                busy: false,
                xcp,
                capacity_bps: link.capacity_bps,
                delay_ps: link.delay_ps,
                src_delay_ps: topo.node(link.src).delay_ps,
                dst_delay_ps: topo.node(link.dst).delay_ps,
                bytes_tx: 0,
            });
        }

        let servers = fabric.config().server_count();
        let (alloc, agents, ctrl_up_buf, ctrl_down_buf) = if is_flowtune {
            let alloc = AllocatorService::builder()
                .fabric(&fabric)
                .config(cfg.flowtune)
                .engine(cfg.engine.clone())
                .build_driver()
                .expect("fabric is set and the engine spec is sane");
            let agents = (0..servers)
                .map(|s| {
                    EndpointAgent::with_config(
                        s as u16,
                        servers,
                        fabric.config().spines,
                        cfg.flowtune,
                    )
                })
                .collect();
            let bufs = |_: ()| (0..servers).map(|_| ByteBuf::default()).collect::<Vec<_>>();
            (Some(alloc), agents, bufs(()), bufs(()))
        } else {
            (None, Vec::new(), Vec::new(), Vec::new())
        };

        let mut sim = Self {
            cfg: cfg.clone(),
            fabric,
            ports,
            queue: EventQueue::new(),
            now: 0,
            flows: HashMap::new(),
            arrivals: Vec::new(),
            next_flow_id: 0,
            metrics: Metrics::new(cfg.throughput_bin_ps),
            alloc,
            agents,
            ctrl_up_buf,
            ctrl_down_buf,
            ctrl_chunk: Vec::new(),
            ctrl_msgs: Vec::new(),
            sample_rotor: 0,
        };

        if is_flowtune {
            sim.create_ctrl_streams();
            sim.queue.push(TICK_INTERVAL_PS, Event::AllocTick);
            sim.queue.push(10 * US, Event::AgentPoll);
        }
        if cfg.scheme == Scheme::Xcp {
            sim.queue.push(cfg.xcp_interval_ps, Event::XcpInterval);
        }
        sim.queue.push(cfg.sample_interval_ps, Event::MetricsSample);
        sim
    }

    fn create_ctrl_streams(&mut self) {
        let servers = self.fabric.config().server_count();
        for s in 0..servers {
            let up_id = CTRL_BASE + s as u64;
            let down_id = CTRL_BASE * 2 + s as u64;
            let to_alloc = self.fabric.path_to_allocator(s, FlowId(up_id));
            let from_alloc = self.fabric.path_from_allocator(s, FlowId(up_id));
            let mk = |id: u64, fwd: &flowtune_topo::Path, rev: &flowtune_topo::Path| FlowEntry {
                conn: Conn::new(
                    id,
                    TransportConfig::control_default(),
                    fwd.links().to_vec(),
                    rev.links().to_vec(),
                    None,
                ),
                src: s as u16,
                start_ps: 0,
                size: None,
                done: false,
                is_ctrl: true,
                base_latency_ps: 0,
                bottleneck_bps: 0,
            };
            self.flows.insert(up_id, mk(up_id, &to_alloc, &from_alloc));
            self.flows
                .insert(down_id, mk(down_id, &from_alloc, &to_alloc));
        }
    }

    /// Schedules a sized flow; returns its id.
    pub fn add_flow(&mut self, at_ps: u64, src: u16, dst: u16, bytes: u64) -> u64 {
        self.schedule_arrival(at_ps, src, dst, bytes, None)
    }

    /// Schedules an open-ended flow that stops at `stop_ps` (Figure 4's
    /// long-running senders).
    pub fn add_open_flow(&mut self, at_ps: u64, stop_ps: u64, src: u16, dst: u16) -> u64 {
        self.schedule_arrival(at_ps, src, dst, u64::MAX, Some(stop_ps))
    }

    fn schedule_arrival(
        &mut self,
        at_ps: u64,
        src: u16,
        dst: u16,
        bytes: u64,
        stop_ps: Option<u64>,
    ) -> u64 {
        assert!(src != dst, "flows need distinct endpoints");
        let flow = self.next_flow_id;
        self.next_flow_id += 1;
        let index = self.arrivals.len();
        self.arrivals.push(ArrivalSpec {
            flow,
            src,
            dst,
            bytes,
            stop_ps,
        });
        self.queue.push(at_ps, Event::FlowArrival { index });
        if let Some(stop) = stop_ps {
            self.queue.push(stop, Event::FlowStop { flow });
        }
        flow
    }

    /// Current simulation time, ps.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Measurements so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Whether `flow` has delivered all its bytes.
    pub fn flow_finished(&self, flow: u64) -> bool {
        self.flows.get(&flow).is_some_and(|f| f.done)
    }

    /// The allocator's operating counters (Flowtune runs only).
    pub fn allocator_stats(&self) -> Option<flowtune::ServiceStats> {
        self.alloc.as_ref().map(|a| a.stats())
    }

    /// Runs until the event queue drains or `until_ps` is reached.
    pub fn run_until(&mut self, until_ps: u64) {
        while let Some(t) = self.queue.peek_time() {
            if t > until_ps {
                break;
            }
            let (t, ev) = self.queue.pop().unwrap();
            self.now = t;
            self.handle(ev);
        }
        self.now = until_ps;
    }

    // ------------------------------------------------------------- events

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::Arrive { link: _, pkt } => {
                if pkt.at_destination() {
                    self.deliver(pkt);
                } else {
                    self.forward(pkt);
                }
            }
            Event::PortFree { link } => {
                let out = {
                    let port = &mut self.ports[link.index()];
                    port.busy = false;
                    port.queue.dequeue(self.now)
                };
                for d in out.dropped {
                    self.on_drop(d);
                }
                if let Some(pkt) = out.pkt {
                    self.transmit(link, pkt);
                }
            }
            Event::FlowTimer {
                flow,
                kind,
                generation,
            } => self.on_flow_timer(flow, kind, generation),
            Event::AllocTick => self.on_alloc_tick(),
            Event::AgentPoll => self.on_agent_poll(),
            Event::MetricsSample => self.on_metrics_sample(),
            Event::XcpInterval => self.on_xcp_interval(),
            Event::FlowArrival { index } => self.on_flow_arrival(index),
            Event::FlowStop { flow } => self.on_flow_stop(flow),
        }
    }

    /// Sends `pkt` onto its next link (host NIC or switch output port).
    fn send_on_next(&mut self, mut pkt: Packet) {
        let link = pkt.next_link().expect("packet already at destination");
        // XCP routers account and write feedback at the output port.
        if pkt.kind == PktKind::Data {
            let port = &mut self.ports[link.index()];
            let qlen = port.queue.len_bytes();
            if let Some(xcp) = &mut port.xcp {
                xcp.on_data(pkt.wire_bytes, qlen);
                pkt.xcp_feedback = pkt.xcp_feedback.min(xcp.per_packet_feedback);
            }
        }
        self.enqueue_or_transmit(link, pkt);
    }

    fn enqueue_or_transmit(&mut self, link: LinkId, pkt: Packet) {
        let idle = {
            let port = &self.ports[link.index()];
            !port.busy && port.queue.is_empty()
        };
        if idle {
            self.transmit(link, pkt);
        } else {
            let out = self.ports[link.index()].queue.enqueue(pkt, self.now);
            for d in out.dropped {
                self.on_drop(d);
            }
        }
    }

    fn transmit(&mut self, link: LinkId, mut pkt: Packet) {
        let (ser, arrive) = {
            let port = &mut self.ports[link.index()];
            debug_assert!(!port.busy);
            port.busy = true;
            port.bytes_tx += pkt.wire_bytes as u64;
            let ser = tx_time_ps(pkt.wire_bytes, port.capacity_bps);
            // Originated packets (first hop) also pay the source host's
            // processing delay; forwarded packets paid their switch's
            // delay on arrival.
            let origination = if pkt.hop == 0 { port.src_delay_ps } else { 0 };
            (
                ser,
                self.now + ser + origination + port.delay_ps + port.dst_delay_ps,
            )
        };
        self.queue.push(self.now + ser, Event::PortFree { link });
        pkt.advance();
        self.queue.push(arrive, Event::Arrive { link, pkt });
    }

    fn forward(&mut self, pkt: Packet) {
        self.send_on_next(pkt);
    }

    fn on_drop(&mut self, pkt: Packet) {
        self.metrics.dropped_bytes += pkt.wire_bytes as u64;
        if pkt.kind == PktKind::Data && !is_ctrl_flow(pkt.flow) {
            self.metrics.dropped_data_bytes += pkt.wire_bytes as u64;
        }
    }

    // ----------------------------------------------------------- delivery

    fn deliver(&mut self, pkt: Packet) {
        match pkt.kind {
            PktKind::Data => self.deliver_data(pkt),
            PktKind::Ack => self.deliver_ack(pkt),
        }
    }

    fn deliver_data(&mut self, pkt: Packet) {
        let now = self.now;
        let Some(entry) = self.flows.get_mut(&pkt.flow) else {
            return;
        };
        let before = entry.conn.delivered;
        let ack = entry.conn.on_data(&pkt, now);
        let progressed = entry.conn.delivered - before;
        let is_ctrl = entry.is_ctrl;
        let size = entry.size;
        let delivered = entry.conn.delivered;
        let mut completed = None;
        if !is_ctrl && progressed > 0 {
            self.metrics.on_delivered(pkt.flow, progressed, now);
            if let Some(sz) = size {
                if delivered >= sz && !self.flows[&pkt.flow].done {
                    completed = Some(sz);
                }
            }
        }
        if let Some(sz) = completed {
            self.complete_flow(pkt.flow, sz);
        }
        // Send the ACK back.
        self.send_on_next(ack);
        // Control stream progress → parse messages.
        if is_ctrl && progressed > 0 {
            self.drain_ctrl_stream(pkt.flow);
        }
    }

    fn complete_flow(&mut self, flow: u64, size: u64) {
        let entry = self.flows.get_mut(&flow).unwrap();
        entry.done = true;
        let fct = self.now - entry.start_ps;
        let ideal = entry.base_latency_ps + tx_time_ps_u64(size, entry.bottleneck_bps);
        let packets = size.div_ceil(MSS as u64);
        self.metrics.fcts.push(FctRecord {
            flow,
            bytes: size,
            start_ps: entry.start_ps,
            end_ps: self.now,
            slowdown: fct as f64 / ideal.max(1) as f64,
            packets,
        });
    }

    fn deliver_ack(&mut self, pkt: Packet) {
        let now = self.now;
        let mut actions = Vec::new();
        let Some(entry) = self.flows.get_mut(&pkt.flow) else {
            return;
        };
        let was_done = entry.conn.sender_done;
        entry.conn.on_ack(&pkt, now, &mut actions);
        let newly_done = entry.conn.sender_done && !was_done;
        let src = entry.src;
        self.run_actions(pkt.flow, actions);
        if newly_done && self.cfg.scheme == Scheme::Flowtune && !is_ctrl_flow(pkt.flow) {
            // Sender queue drained: the flowlet-end clock starts.
            self.agents[src as usize].on_drained(pkt.flow, now);
        }
    }

    fn run_actions(&mut self, flow: u64, actions: Vec<Action>) {
        for a in actions {
            match a {
                Action::Send(mut pkt) => {
                    pkt.sent_ps = self.now;
                    self.send_on_next(pkt);
                }
                Action::ArmRto(at) => {
                    let generation = self.flows[&flow].conn.rto_generation;
                    self.queue.push(
                        at,
                        Event::FlowTimer {
                            flow,
                            kind: TimerKind::Rto,
                            generation,
                        },
                    );
                }
                Action::ArmPace(at) => {
                    let generation = self.flows[&flow].conn.pace_generation;
                    self.queue.push(
                        at,
                        Event::FlowTimer {
                            flow,
                            kind: TimerKind::Pace,
                            generation,
                        },
                    );
                }
                Action::SenderDone => {}
            }
        }
    }

    fn on_flow_timer(&mut self, flow: u64, kind: TimerKind, generation: u64) {
        let now = self.now;
        let Some(entry) = self.flows.get_mut(&flow) else {
            return;
        };
        let mut actions = Vec::new();
        match kind {
            TimerKind::Rto => {
                if entry.conn.rto_generation != generation || entry.conn.sender_done {
                    return;
                }
                entry.conn.on_rto(now, &mut actions);
            }
            TimerKind::Pace => {
                if entry.conn.pace_generation != generation {
                    return;
                }
                entry.conn.on_pace_timer(now, &mut actions);
            }
        }
        self.run_actions(flow, actions);
    }

    // ------------------------------------------------------ control plane

    /// Appends an encoded message to a control stream and pumps its
    /// transport.
    fn ctrl_send(&mut self, stream_id: u64, msg: &codec::Message) {
        let buf = if stream_id < CTRL_BASE * 2 {
            &mut self.ctrl_up_buf[(stream_id - CTRL_BASE) as usize]
        } else {
            &mut self.ctrl_down_buf[(stream_id - CTRL_BASE * 2) as usize]
        };
        let before = buf.data.len();
        codec::encode(msg, &mut buf.data);
        let len = (buf.data.len() - before) as u64;
        if stream_id < CTRL_BASE * 2 {
            self.metrics.ctrl_bytes_to_alloc += len;
        } else {
            self.metrics.ctrl_bytes_from_alloc += len;
        }
        let mut actions = Vec::new();
        let now = self.now;
        if let Some(entry) = self.flows.get_mut(&stream_id) {
            entry.conn.on_app_data(len, now, &mut actions);
        }
        self.run_actions(stream_id, actions);
    }

    /// Parses newly delivered in-order bytes of a control stream.
    fn drain_ctrl_stream(&mut self, stream_id: u64) {
        let is_up = stream_id < CTRL_BASE * 2;
        // Scratch buffers are taken out of self so the parse can borrow
        // them while the message handlers below take &mut self.
        let mut chunk = std::mem::take(&mut self.ctrl_chunk);
        let mut msgs = std::mem::take(&mut self.ctrl_msgs);
        chunk.clear();
        msgs.clear();
        let delivered = {
            let buf = if is_up {
                &self.ctrl_up_buf[(stream_id - CTRL_BASE) as usize]
            } else {
                &self.ctrl_down_buf[(stream_id - CTRL_BASE * 2) as usize]
            };
            let delivered = self.flows[&stream_id].conn.delivered as usize;
            chunk.extend_from_slice(&buf.data[buf.consumed..delivered]);
            delivered
        };
        let mut iter = codec::MessageIter::new(&chunk);
        for msg in iter.by_ref() {
            msgs.push(msg.expect("control stream corrupt"));
        }
        let parsed = iter.consumed();
        {
            let buf = if is_up {
                &mut self.ctrl_up_buf[(stream_id - CTRL_BASE) as usize]
            } else {
                &mut self.ctrl_down_buf[(stream_id - CTRL_BASE * 2) as usize]
            };
            buf.consumed += parsed;
            debug_assert!(buf.consumed <= delivered);
        }
        for &msg in &msgs {
            if is_up {
                // Arrived at the allocator. In production a rejection is
                // a counted, survivable condition — but the sim's control
                // streams are reliable TCP, so any rejection here means
                // the sim's own wiring broke; surface that in debug runs.
                if let Some(alloc) = &mut self.alloc {
                    let verdict = alloc.on_message(msg);
                    debug_assert!(
                        verdict.is_ok(),
                        "sim control stream delivered a message the allocator rejected: {verdict:?}"
                    );
                }
            } else {
                // Arrived at a server: a rate update.
                let server = (stream_id - CTRL_BASE * 2) as usize;
                if let Some((flow, gbps)) = self.agents[server].on_rate_update(&msg) {
                    let now = self.now;
                    let mut actions = Vec::new();
                    if let Some(entry) = self.flows.get_mut(&flow) {
                        entry.conn.set_pace(gbps, now, &mut actions);
                    }
                    self.run_actions(flow, actions);
                }
            }
        }
        self.ctrl_chunk = chunk;
        self.ctrl_msgs = msgs;
    }

    fn on_alloc_tick(&mut self) {
        let interval = TICK_INTERVAL_PS;
        self.queue.push(self.now + interval, Event::AllocTick);
        let Some(alloc) = &mut self.alloc else {
            return;
        };
        let updates = alloc.tick();
        for (server, msg) in updates {
            self.ctrl_send(CTRL_BASE * 2 + server as u64, &msg);
        }
    }

    fn on_agent_poll(&mut self) {
        self.queue.push(self.now + 10 * US, Event::AgentPoll);
        let now = self.now;
        let n = self.agents.len();
        for s in 0..n {
            let ends = self.agents[s].poll(now);
            for msg in ends {
                self.ctrl_send(CTRL_BASE + s as u64, &msg);
            }
        }
    }

    fn on_xcp_interval(&mut self) {
        self.queue
            .push(self.now + self.cfg.xcp_interval_ps, Event::XcpInterval);
        for port in &mut self.ports {
            let cap = port.capacity_bps;
            if let Some(xcp) = &mut port.xcp {
                xcp.roll_interval(cap);
            }
        }
    }

    fn on_metrics_sample(&mut self) {
        self.queue
            .push(self.now + self.cfg.sample_interval_ps, Event::MetricsSample);
        let servers = self.fabric.config().server_count();
        let spr = self.fabric.config().servers_per_rack;
        // Sample a rotating subset of real paths: for each rack, one
        // intra-rack (2-hop) and one cross-rack (4-hop) path delay.
        let rotor = self.sample_rotor;
        self.sample_rotor += 1;
        let delay = |ports: &Vec<Port>, l: LinkId| -> u64 {
            let p = &ports[l.index()];
            tx_time_ps_u64(p.queue.len_bytes(), p.capacity_bps)
        };
        for rack in 0..self.fabric.config().racks {
            let s0 = rack * spr + rotor % spr;
            let s1 = rack * spr + (rotor + 1) % spr;
            if s0 == s1 {
                continue;
            }
            // 2-hop path: s0 → ToR → s1.
            let d2 = delay(&self.ports, self.fabric.host_up_link(s0))
                + delay(&self.ports, self.fabric.host_down_link(s1));
            self.metrics.queue_delay_samples.push((2, d2));
            // 4-hop path to the "mirror" server.
            let dsrv = (s0 + servers / 2) % servers;
            if self.fabric.rack_of_server(dsrv) != self.fabric.rack_of_server(s0) {
                let path = self
                    .fabric
                    .path(s0, dsrv, FlowId((rotor * 131 + rack) as u64));
                let d4: u64 = path.iter().map(|l| delay(&self.ports, l)).sum();
                self.metrics.queue_delay_samples.push((4, d4));
            }
        }
    }

    // ------------------------------------------------------ flow lifecycle

    fn on_flow_arrival(&mut self, index: usize) {
        let spec = self.arrivals[index];
        let path = self
            .fabric
            .path(spec.src as usize, spec.dst as usize, FlowId(spec.flow));
        let rev = self
            .fabric
            .path(spec.dst as usize, spec.src as usize, FlowId(spec.flow));
        let topo = self.fabric.topology();
        let base_latency_ps = self.fabric.path_latency_ps(&path);
        let bottleneck_bps = path
            .iter()
            .map(|l| topo.link(l).capacity_bps)
            .min()
            .unwrap();
        let sized = spec.stop_ps.is_none();
        let mut conn = Conn::new(
            spec.flow,
            TransportConfig::data_default(self.cfg.scheme.cc_kind()),
            path.links().to_vec(),
            rev.links().to_vec(),
            sized.then_some(spec.bytes),
        );
        let mut actions = Vec::new();
        let now = self.now;
        conn.on_app_data(spec.bytes, now, &mut actions);
        self.flows.insert(
            spec.flow,
            FlowEntry {
                conn,
                src: spec.src,
                start_ps: now,
                size: sized.then_some(spec.bytes),
                done: false,
                is_ctrl: false,
                base_latency_ps,
                bottleneck_bps,
            },
        );
        self.run_actions(spec.flow, actions);
        if self.cfg.scheme == Scheme::Flowtune {
            let start =
                self.agents[spec.src as usize].on_backlog(spec.flow, spec.dst, spec.bytes, now);
            if let Some(msg) = start {
                self.ctrl_send(CTRL_BASE + spec.src as u64, &msg);
            }
        }
    }

    fn on_flow_stop(&mut self, flow: u64) {
        let now = self.now;
        let Some(entry) = self.flows.get_mut(&flow) else {
            return;
        };
        // Truncate the open-ended stream at what has been sent so far;
        // the flow finishes once that prefix is delivered.
        let cut = entry.conn.snd_nxt();
        if cut == 0 {
            entry.done = true;
            return;
        }
        entry.conn.app_limit = cut;
        entry.conn.size = Some(cut);
        entry.size = Some(cut);
        let already_done = entry.conn.delivered >= cut && !entry.done;
        let src = entry.src;
        if already_done {
            self.complete_flow(flow, cut);
        }
        if self.cfg.scheme == Scheme::Flowtune {
            self.agents[src as usize].on_drained(flow, now);
        }
    }
}

/// Helper: `tx_time_ps` for u64 byte counts.
fn tx_time_ps_u64(bytes: u64, bps: u64) -> u64 {
    (u128::from(bytes) * 8 * 1_000_000_000_000u128 / u128::from(bps.max(1))) as u64
}

fn is_ctrl_flow(flow: u64) -> bool {
    flow >= CTRL_BASE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(scheme: Scheme) -> SimConfig {
        let mut cfg = SimConfig::paper(scheme);
        // 2 racks × 4 servers keeps unit tests fast.
        cfg.clos = ClosConfig {
            racks: 2,
            servers_per_rack: 4,
            spines: 2,
            host_link_bps: 10_000_000_000,
            fabric_link_bps: 20_000_000_000,
            link_delay_ps: 1_500_000,
            server_delay_ps: 2_000_000,
            spine_delay_ps: 1_000_000,
            racks_per_block: 2,
        };
        cfg
    }

    #[test]
    fn single_flow_completes_near_ideal_every_scheme() {
        for scheme in Scheme::ALL {
            let mut sim = Simulation::new(small_cfg(scheme));
            let flow = sim.add_flow(0, 0, 5, 150_000); // ~104 packets, cross-rack
            sim.run_until(50 * MS);
            assert!(sim.flow_finished(flow), "{} did not finish", scheme.name());
            let rec = sim.metrics().fcts[0];
            assert!(
                rec.slowdown < 4.0,
                "{}: slowdown {} too far from ideal",
                scheme.name(),
                rec.slowdown
            );
        }
    }

    #[test]
    fn tiny_flow_every_scheme() {
        for scheme in Scheme::ALL {
            let mut sim = Simulation::new(small_cfg(scheme));
            let flow = sim.add_flow(0, 1, 6, 800); // 1 packet
            sim.run_until(20 * MS);
            assert!(sim.flow_finished(flow), "{}", scheme.name());
        }
    }

    #[test]
    fn two_flows_share_a_bottleneck_fairly_dctcp() {
        let mut sim = Simulation::new(small_cfg(Scheme::Dctcp));
        // Both flows into server 2: share its 10 G downlink.
        let a = sim.add_flow(0, 0, 2, 2_000_000);
        let b = sim.add_flow(0, 1, 2, 2_000_000);
        sim.run_until(100 * MS);
        assert!(sim.flow_finished(a) && sim.flow_finished(b));
        let fcts = &sim.metrics().fcts;
        let (fa, fb) = (fcts[0].fct_ps() as f64, fcts[1].fct_ps() as f64);
        let ratio = fa.max(fb) / fa.min(fb);
        assert!(ratio < 1.6, "unfair sharing: {fa} vs {fb}");
        // Sharing a 10 G link means each sees ≥ ~2× the ideal time.
        assert!(fcts[0].slowdown > 1.4);
    }

    #[test]
    fn flowtune_allocator_paces_two_senders_to_half_rate() {
        let mut sim = Simulation::new(small_cfg(Scheme::Flowtune));
        let a = sim.add_flow(0, 0, 2, 4_000_000);
        let b = sim.add_flow(0, 1, 2, 4_000_000);
        sim.run_until(100 * MS);
        assert!(sim.flow_finished(a) && sim.flow_finished(b));
        let stats = sim.allocator_stats().unwrap();
        assert_eq!(stats.starts, 2, "both flowlets notified");
        assert!(stats.updates_sent >= 2, "rates were assigned");
        assert_eq!(stats.ends, 2, "both flowlets ended");
        // Both complete in ~2× the solo time: shared 10 G downlink.
        for rec in &sim.metrics().fcts {
            assert!(
                rec.slowdown > 1.5 && rec.slowdown < 4.0,
                "slowdown {}",
                rec.slowdown
            );
        }
    }

    #[test]
    fn flowtune_completes_under_every_engine() {
        for engine in [Engine::Serial, Engine::Gradient, Engine::Serial.sharded(2)] {
            let mut cfg = small_cfg(Scheme::Flowtune);
            cfg.engine = engine.clone();
            let mut sim = Simulation::new(cfg);
            let a = sim.add_flow(0, 0, 2, 1_000_000);
            let b = sim.add_flow(0, 1, 2, 1_000_000);
            sim.run_until(100 * MS);
            assert!(
                sim.flow_finished(a) && sim.flow_finished(b),
                "{} engine left flows unfinished",
                engine.name()
            );
            let stats = sim.allocator_stats().unwrap();
            assert_eq!(stats.starts, 2, "{}", engine.name());
            assert!(stats.updates_sent >= 2, "{}", engine.name());
        }
    }

    #[test]
    fn flowtune_single_flow_gets_fast_rate_allocation() {
        let mut sim = Simulation::new(small_cfg(Scheme::Flowtune));
        let flow = sim.add_flow(0, 0, 5, 1_500_000);
        sim.run_until(50 * MS);
        assert!(sim.flow_finished(flow));
        let rec = sim.metrics().fcts[0];
        // Paced at 9.9 G after one control RTT: close to ideal.
        assert!(rec.slowdown < 2.0, "slowdown {}", rec.slowdown);
        let stats = sim.allocator_stats().unwrap();
        assert!(stats.iterations > 0);
    }

    #[test]
    fn pfabric_prioritizes_short_flows() {
        let mut sim = Simulation::new(small_cfg(Scheme::Pfabric));
        // A long flow hogs the downlink; a short flow arrives mid-way.
        let long = sim.add_flow(0, 0, 2, 10_000_000);
        let short = sim.add_flow(2 * MS, 1, 2, 15_000);
        sim.run_until(200 * MS);
        assert!(sim.flow_finished(long) && sim.flow_finished(short));
        let short_rec = sim.metrics().fcts.iter().find(|r| r.flow == short).unwrap();
        assert!(
            short_rec.slowdown < 3.0,
            "short flow should cut ahead: {}",
            short_rec.slowdown
        );
    }

    #[test]
    fn overload_drops_with_droptail_not_with_flowtune() {
        // Three senders blast one receiver: DCTCP sheds load via
        // ECN+queue, pFabric drops aggressively; Flowtune's paced rates
        // keep drops at zero.
        let mut flowtune = Simulation::new(small_cfg(Scheme::Flowtune));
        for (i, src) in [0u16, 1, 3].iter().enumerate() {
            flowtune.add_flow(i as u64 * 100_000, *src, 2, 3_000_000);
        }
        flowtune.run_until(100 * MS);
        assert_eq!(
            flowtune.metrics().dropped_data_bytes,
            0,
            "Flowtune should not drop"
        );

        let mut pfabric = Simulation::new(small_cfg(Scheme::Pfabric));
        for (i, src) in [0u16, 1, 3].iter().enumerate() {
            pfabric.add_flow(i as u64 * 100_000, *src, 2, 3_000_000);
        }
        pfabric.run_until(100 * MS);
        assert!(
            pfabric.metrics().dropped_data_bytes > 0,
            "pFabric line-rate start must overflow its tiny buffers"
        );
    }

    #[test]
    fn open_flow_stops_and_completes() {
        let mut sim = Simulation::new(small_cfg(Scheme::Dctcp));
        let flow = sim.add_open_flow(0, 5 * MS, 0, 5);
        sim.run_until(100 * MS);
        assert!(sim.flow_finished(flow));
        let rec = &sim.metrics().fcts[0];
        assert!(rec.bytes > 0, "stopped flow recorded with sent size");
    }

    #[test]
    fn queue_samples_are_collected() {
        let mut sim = Simulation::new(small_cfg(Scheme::Dctcp));
        sim.add_flow(0, 0, 2, 5_000_000);
        sim.add_flow(0, 1, 2, 5_000_000);
        sim.run_until(20 * MS);
        let m = sim.metrics();
        assert!(m.queue_delay_samples.iter().any(|(h, _)| *h == 2));
        assert!(m.queue_delay_samples.iter().any(|(h, _)| *h == 4));
    }

    #[test]
    fn determinism_same_seedless_run_twice() {
        let run = || {
            let mut sim = Simulation::new(small_cfg(Scheme::Dctcp));
            sim.add_flow(0, 0, 2, 1_000_000);
            sim.add_flow(100_000, 1, 2, 700_000);
            sim.run_until(50 * MS);
            sim.metrics()
                .fcts
                .iter()
                .map(|r| (r.flow, r.end_ps))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn conservation_delivered_never_exceeds_offered() {
        let mut sim = Simulation::new(small_cfg(Scheme::SfqCodel));
        sim.add_flow(0, 0, 2, 1_000_000);
        sim.add_flow(0, 1, 2, 1_000_000);
        sim.run_until(100 * MS);
        assert!(sim.metrics().delivered_bytes <= 2_000_000);
    }
}
