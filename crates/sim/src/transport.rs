//! Endpoint transports.
//!
//! One connection state machine ([`Conn`]) parameterized by
//! [`CcKind`] covers every compared scheme:
//!
//! * **Reno** — NewReno-style slow start / congestion avoidance / fast
//!   retransmit; the control-plane transport (§6.2 runs allocator↔server
//!   messages over TCP with 20 µs minRTO / 30 µs maxRTO).
//! * **Dctcp** — Reno plus the DCTCP α estimator and proportional ECN
//!   window reduction (Alizadeh et al., SIGCOMM 2010).
//! * **Cubic** — the window growth used with sfqCoDel (the paper runs
//!   "Cubic-over-sfqCoDel").
//! * **Pfabric** — the minimal pFabric transport: fixed BDP window, no
//!   congestion control, priority = remaining bytes, small fixed RTO with
//!   go-back-N (probe mode is simplified away; see DESIGN.md).
//! * **Xcp** — window set by router feedback carried in headers.
//! * **FlowtunePaced** — starts as Reno ("servers start a regular TCP
//!   connection, and in parallel send a notification to the allocator"),
//!   and switches to open-window rate pacing on the first allocator
//!   update.
//!
//! The machine is sans-IO: every entry point appends [`Action`]s (send a
//! packet, arm a timer) that the simulator executes.

use std::collections::BTreeMap;

use flowtune_topo::LinkId;

use crate::packet::{Packet, PktKind, MSS};
use crate::time::PS_PER_SEC;

/// Congestion-control personality of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcKind {
    /// NewReno.
    Reno,
    /// DCTCP (requires ECN-marking queues).
    Dctcp,
    /// Cubic.
    Cubic,
    /// pFabric minimal transport.
    Pfabric,
    /// XCP explicit control.
    Xcp,
    /// Flowtune endpoint: Reno until the first rate update, then paced.
    FlowtunePaced,
}

/// Transport tunables.
#[derive(Debug, Clone, Copy)]
pub struct TransportConfig {
    /// Congestion-control personality.
    pub kind: CcKind,
    /// Initial window, bytes.
    pub init_cwnd: f64,
    /// Minimum retransmission timeout, ps.
    pub min_rto_ps: u64,
    /// Maximum retransmission timeout, ps (`u64::MAX` = uncapped).
    pub max_rto_ps: u64,
    /// Initial RTT estimate used before the first sample, ps.
    pub init_rtt_ps: u64,
}

impl TransportConfig {
    /// Data-plane defaults for a 10 G fabric with ~22 µs 4-hop RTT.
    pub fn data_default(kind: CcKind) -> Self {
        let bdp: f64 = 10e9 / 8.0 * 22e-6; // ≈ 27.5 kB
        let init_cwnd = match kind {
            // pFabric sends at line rate from the first packet.
            CcKind::Pfabric => bdp.ceil(),
            // XCP starts conservatively (its routers hand out increases).
            CcKind::Xcp => 2.0 * MSS as f64,
            _ => 10.0 * MSS as f64,
        };
        Self {
            kind,
            init_cwnd,
            min_rto_ps: match kind {
                // pFabric: RTO ≈ 3×RTT.
                CcKind::Pfabric => 66_000_000,
                _ => 200_000_000, // 200 µs
            },
            max_rto_ps: u64::MAX,
            init_rtt_ps: 22_000_000,
        }
    }

    /// Control-plane defaults (§6.2: TCP with 20 µs minRTO, 30 µs
    /// maxRTO).
    pub fn control_default() -> Self {
        Self {
            kind: CcKind::Reno,
            init_cwnd: 10.0 * MSS as f64,
            min_rto_ps: 20_000_000,
            max_rto_ps: 30_000_000,
            init_rtt_ps: 14_000_000,
        }
    }
}

/// An instruction from the transport to the simulator.
#[derive(Debug, Clone)]
pub enum Action {
    /// Transmit this packet from the connection's source host.
    Send(Packet),
    /// (Re-)arm the RTO timer at this absolute time.
    ArmRto(u64),
    /// Arm the pacing timer at this absolute time.
    ArmPace(u64),
    /// All bytes are acknowledged — the sender is done.
    SenderDone,
}

const DCTCP_G: f64 = 1.0 / 16.0;

#[derive(Debug, Clone, Copy, Default)]
struct CubicState {
    w_max: f64,
    epoch_start_ps: u64,
    k: f64,
}

/// One reliable byte-stream connection (sender and receiver halves).
#[derive(Debug)]
pub struct Conn {
    /// Flow id (shared with packets).
    pub id: u64,
    cfg: TransportConfig,
    /// Forward (data) path and reverse (ACK) path.
    fwd: Vec<LinkId>,
    rev: Vec<LinkId>,
    /// Bytes the application has made available to send.
    pub app_limit: u64,
    /// Total flow size if known in advance (pFabric priorities, FCT).
    pub size: Option<u64>,

    // ---- sender ----
    snd_una: u64,
    snd_nxt: u64,
    cwnd: f64,
    ssthresh: f64,
    dup_acks: u32,
    recover: u64,
    in_recovery: bool,
    srtt: f64,
    rttvar: f64,
    rto_ps: u64,
    /// Generation stamp: a popped timer event is valid only if its
    /// generation matches.
    pub rto_generation: u64,
    rtt_probe: Option<(u64, u64)>,
    /// Retransmitted-segment counter (stats).
    pub retransmits: u64,

    // ---- DCTCP ----
    dctcp_alpha: f64,
    win_acked: u64,
    win_marked: u64,
    win_end: u64,
    win_reduced: bool,

    // ---- Cubic ----
    cubic: CubicState,

    // ---- XCP ----
    xcp_rtt_ps: u64,

    // ---- Flowtune pacing ----
    paced_rate_bps: Option<f64>,
    pace_next_ps: u64,
    /// Pacing timer generation (same staleness scheme as RTO).
    pub pace_generation: u64,

    // ---- receiver ----
    rcv_nxt: u64,
    ooo: BTreeMap<u64, u64>,
    /// Bytes delivered in order to the receiving application.
    pub delivered: u64,

    /// Set once every byte of a sized flow is acknowledged.
    pub sender_done: bool,
}

impl Conn {
    /// Creates a connection over the given forward/reverse paths. `size`
    /// is the flow length if known (data flows); control streams pass
    /// `None` and feed [`Conn::on_app_data`] incrementally.
    pub fn new(
        id: u64,
        cfg: TransportConfig,
        fwd: Vec<LinkId>,
        rev: Vec<LinkId>,
        size: Option<u64>,
    ) -> Self {
        Self {
            id,
            fwd,
            rev,
            app_limit: 0,
            size,
            snd_una: 0,
            snd_nxt: 0,
            cwnd: cfg.init_cwnd,
            ssthresh: f64::MAX,
            dup_acks: 0,
            recover: 0,
            in_recovery: false,
            srtt: 0.0,
            rttvar: 0.0,
            rto_ps: cfg.min_rto_ps.max(cfg.init_rtt_ps * 2),
            rto_generation: 0,
            rtt_probe: None,
            retransmits: 0,
            dctcp_alpha: 0.0,
            win_acked: 0,
            win_marked: 0,
            win_end: 0,
            win_reduced: false,
            cubic: CubicState::default(),
            xcp_rtt_ps: cfg.init_rtt_ps,
            paced_rate_bps: None,
            pace_next_ps: 0,
            pace_generation: 0,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            delivered: 0,
            sender_done: false,
            cfg,
        }
    }

    /// Current congestion window (bytes).
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Next byte the sender will transmit.
    pub fn snd_nxt(&self) -> u64 {
        self.snd_nxt
    }

    /// Bytes the sender still has to *transmit* (not counting in-flight).
    pub fn to_send(&self) -> u64 {
        self.app_limit.saturating_sub(self.snd_nxt)
    }

    /// Bytes not yet cumulatively acknowledged.
    pub fn outstanding(&self) -> u64 {
        self.snd_nxt.saturating_sub(self.snd_una)
    }

    /// The application appended `bytes` to the stream.
    pub fn on_app_data(&mut self, bytes: u64, now: u64, out: &mut Vec<Action>) {
        self.app_limit += bytes;
        self.pump(now, out);
    }

    /// Switches to allocator-paced mode at `gbps` (Flowtune rate update):
    /// the window opens and packets leave on the pacing clock.
    pub fn set_pace(&mut self, gbps: f64, now: u64, out: &mut Vec<Action>) {
        debug_assert_eq!(self.cfg.kind, CcKind::FlowtunePaced);
        let was_unpaced = self.paced_rate_bps.is_none();
        self.paced_rate_bps = Some(gbps * 1e9);
        self.cwnd = f64::MAX / 4.0;
        if was_unpaced {
            self.pace_next_ps = now;
        }
        self.pump(now, out);
    }

    // ------------------------------------------------------------ sending

    fn make_segment(&mut self, seq: u64, now: u64) -> Packet {
        let payload = (self.app_limit - seq).min(MSS as u64) as u32;
        let mut pkt = Packet::new(self.id, PktKind::Data, seq, payload, &self.fwd);
        pkt.sent_ps = now;
        if self.cfg.kind == CcKind::Pfabric {
            // Priority: remaining bytes of the flow (SRPT).
            pkt.prio = self.size.unwrap_or(u64::MAX).saturating_sub(self.snd_una);
        }
        if self.cfg.kind == CcKind::Xcp {
            pkt.xcp_cwnd = self.cwnd;
            pkt.xcp_rtt = self.xcp_rtt_ps;
            pkt.xcp_feedback = f64::MAX; // routers take the min along the path
        }
        pkt
    }

    /// Emits whatever the window (or pacer) currently allows.
    pub fn pump(&mut self, now: u64, out: &mut Vec<Action>) {
        if self.paced_rate_bps.is_some() {
            self.pump_paced(now, out);
            return;
        }
        let mut sent_any = false;
        while self.snd_nxt < self.app_limit
            && (self.snd_nxt - self.snd_una) as f64 + MSS as f64 / 2.0 < self.cwnd
        {
            let pkt = self.make_segment(self.snd_nxt, now);
            self.snd_nxt += pkt.payload as u64;
            if self.rtt_probe.is_none() {
                self.rtt_probe = Some((self.snd_nxt, now));
            }
            out.push(Action::Send(pkt));
            sent_any = true;
        }
        if sent_any || self.outstanding() > 0 {
            self.arm_rto(now, out);
        }
    }

    fn pump_paced(&mut self, now: u64, out: &mut Vec<Action>) {
        let rate = self.paced_rate_bps.unwrap_or(0.0);
        if rate < 1.0 {
            return; // paused; a future rate update re-pumps
        }
        if self.snd_nxt >= self.app_limit {
            if self.outstanding() > 0 {
                self.arm_rto(now, out);
            }
            return;
        }
        if now >= self.pace_next_ps {
            let pkt = self.make_segment(self.snd_nxt, now);
            self.snd_nxt += pkt.payload as u64;
            let gap = (pkt.wire_bytes as f64 * 8.0 * PS_PER_SEC as f64 / rate) as u64;
            self.pace_next_ps = now.max(self.pace_next_ps) + gap;
            out.push(Action::Send(pkt));
            self.arm_rto(now, out);
            if self.snd_nxt < self.app_limit {
                self.pace_generation += 1;
                out.push(Action::ArmPace(self.pace_next_ps));
            }
        } else {
            self.pace_generation += 1;
            out.push(Action::ArmPace(self.pace_next_ps));
        }
    }

    /// Pacing timer fired (generation already validated by the sim).
    pub fn on_pace_timer(&mut self, now: u64, out: &mut Vec<Action>) {
        self.pump(now, out);
    }

    fn arm_rto(&mut self, now: u64, out: &mut Vec<Action>) {
        self.rto_generation += 1;
        out.push(Action::ArmRto(now + self.rto_ps));
    }

    // ------------------------------------------------------- receiver side

    /// Handles an arriving data packet at the receiver; returns the ACK
    /// to send back and appends nothing else. `self.delivered` advances
    /// by the in-order progress.
    pub fn on_data(&mut self, pkt: &Packet, now: u64) -> Packet {
        let end = pkt.seq + pkt.payload as u64;
        if end > self.rcv_nxt {
            if pkt.seq <= self.rcv_nxt {
                self.rcv_nxt = end;
                // Drain contiguous out-of-order segments.
                while let Some((&s, &e)) = self.ooo.first_key_value() {
                    if s <= self.rcv_nxt {
                        self.rcv_nxt = self.rcv_nxt.max(e);
                        self.ooo.remove(&s);
                    } else {
                        break;
                    }
                }
            } else {
                let entry = self.ooo.entry(pkt.seq).or_insert(end);
                *entry = (*entry).max(end);
            }
        }
        self.delivered = self.rcv_nxt;
        let mut ack = Packet::new(self.id, PktKind::Ack, self.rcv_nxt, 0, &self.rev);
        ack.sent_ps = now;
        // DCTCP's accurate per-packet ECE echo; harmless elsewhere.
        ack.ce = pkt.ce;
        // XCP: echo the (router-reduced) feedback to the sender.
        ack.xcp_feedback = pkt.xcp_feedback;
        ack
    }

    // --------------------------------------------------------- sender side

    /// Handles an arriving ACK at the sender.
    pub fn on_ack(&mut self, pkt: &Packet, now: u64, out: &mut Vec<Action>) {
        let ack = pkt.seq;
        if ack > self.snd_una {
            let newly = ack - self.snd_una;
            self.snd_una = ack;
            // Defensive: an ACK can never cover unsent bytes on a real
            // network; keep the invariant even against a broken peer.
            self.snd_nxt = self.snd_nxt.max(self.snd_una);
            self.dup_acks = 0;
            // RTT sampling.
            if let Some((probe_seq, sent)) = self.rtt_probe {
                if ack >= probe_seq {
                    self.rtt_sample(now.saturating_sub(sent));
                    self.rtt_probe = None;
                }
            }
            if self.in_recovery && ack >= self.recover {
                self.in_recovery = false;
                self.cwnd = self.ssthresh;
            } else if self.in_recovery {
                // NewReno partial ACK: retransmit the next hole.
                let pkt = self.retransmit_segment(self.snd_una, now);
                out.push(Action::Send(pkt));
            }
            self.cc_on_ack(newly, pkt, now);
            if self.size.is_some_and(|s| self.snd_una >= s) && !self.sender_done {
                self.sender_done = true;
                self.rto_generation += 1; // cancel timer
                out.push(Action::SenderDone);
                return;
            }
            if self.outstanding() > 0 {
                self.arm_rto(now, out);
            } else {
                self.rto_generation += 1;
            }
        } else if ack == self.snd_una && self.outstanding() > 0 {
            self.dup_acks += 1;
            if self.dup_acks == 3 && !self.in_recovery && self.cfg.kind != CcKind::Pfabric {
                // Fast retransmit (pFabric relies on its tiny RTO instead).
                self.in_recovery = true;
                self.recover = self.snd_nxt;
                self.ssthresh = (self.cwnd / 2.0).max(2.0 * MSS as f64);
                self.cwnd = self.ssthresh;
                self.cubic_on_loss(now);
                let pkt = self.retransmit_segment(self.snd_una, now);
                out.push(Action::Send(pkt));
                self.arm_rto(now, out);
            }
        }
        self.pump(now, out);
    }

    fn retransmit_segment(&mut self, seq: u64, now: u64) -> Packet {
        self.retransmits += 1;
        self.rtt_probe = None; // Karn's rule
        self.make_segment(seq, now)
    }

    fn rtt_sample(&mut self, sample_ps: u64) {
        let s = sample_ps as f64;
        if self.srtt == 0.0 {
            self.srtt = s;
            self.rttvar = s / 2.0;
        } else {
            self.rttvar = 0.75 * self.rttvar + 0.25 * (self.srtt - s).abs();
            self.srtt = 0.875 * self.srtt + 0.125 * s;
        }
        let rto = (self.srtt + 4.0 * self.rttvar) as u64;
        self.rto_ps = rto.clamp(self.cfg.min_rto_ps, self.cfg.max_rto_ps);
        self.xcp_rtt_ps = self.srtt as u64;
    }

    fn cc_on_ack(&mut self, newly_acked: u64, ack: &Packet, now: u64) {
        match self.cfg.kind {
            CcKind::Reno | CcKind::FlowtunePaced => {
                if self.paced_rate_bps.is_some() {
                    return; // the allocator owns the rate
                }
                self.reno_growth(newly_acked);
            }
            CcKind::Dctcp => {
                self.dctcp_account(newly_acked, ack.ce);
                if !ack.ce {
                    self.reno_growth(newly_acked);
                }
            }
            CcKind::Cubic => {
                if self.cwnd < self.ssthresh {
                    self.cwnd += newly_acked as f64;
                } else {
                    self.cubic_growth(now);
                }
            }
            CcKind::Pfabric => {} // no congestion control
            CcKind::Xcp => {
                // Router-computed Δcwnd rides in the echoed feedback.
                let fb = ack.xcp_feedback;
                if fb.is_finite() {
                    self.cwnd = (self.cwnd + fb).max(MSS as f64);
                }
            }
        }
    }

    fn reno_growth(&mut self, newly_acked: u64) {
        if self.in_recovery {
            return;
        }
        if self.cwnd < self.ssthresh {
            self.cwnd += newly_acked as f64;
        } else {
            self.cwnd += (MSS as f64) * newly_acked as f64 / self.cwnd;
        }
    }

    fn dctcp_account(&mut self, newly_acked: u64, ce: bool) {
        self.win_acked += newly_acked;
        if ce {
            self.win_marked += newly_acked;
            if !self.win_reduced {
                // One proportional reduction per window of data.
                self.win_reduced = true;
                self.cwnd = (self.cwnd * (1.0 - self.dctcp_alpha / 2.0)).max(2.0 * MSS as f64);
            }
        }
        if self.snd_una >= self.win_end {
            let f = if self.win_acked > 0 {
                self.win_marked as f64 / self.win_acked as f64
            } else {
                0.0
            };
            self.dctcp_alpha = (1.0 - DCTCP_G) * self.dctcp_alpha + DCTCP_G * f;
            self.win_acked = 0;
            self.win_marked = 0;
            self.win_reduced = false;
            self.win_end = self.snd_nxt;
        }
    }

    fn cubic_on_loss(&mut self, now: u64) {
        if self.cfg.kind != CcKind::Cubic {
            return;
        }
        self.cubic.w_max = self.cwnd;
        self.cubic.epoch_start_ps = now;
        // K = cbrt(w_max·(1−β)/C), windows in MSS units, C = 0.4, β = 0.7.
        let wmax_mss = self.cubic.w_max / MSS as f64;
        self.cubic.k = (wmax_mss * 0.3 / 0.4).cbrt();
    }

    fn cubic_growth(&mut self, now: u64) {
        if self.cubic.epoch_start_ps == 0 {
            self.cubic.epoch_start_ps = now;
            self.cubic.w_max = self.cwnd;
            self.cubic.k = 0.0;
        }
        let t = (now - self.cubic.epoch_start_ps) as f64 / PS_PER_SEC as f64;
        let target_mss = 0.4 * (t - self.cubic.k).powi(3) + self.cubic.w_max / MSS as f64;
        let target = (target_mss * MSS as f64).max(self.cwnd + 0.01 * MSS as f64);
        // Approach the cubic target over roughly one RTT.
        self.cwnd += (target - self.cwnd) * 0.1;
    }

    /// RTO fired (generation already validated).
    pub fn on_rto(&mut self, now: u64, out: &mut Vec<Action>) {
        if self.outstanding() == 0 && self.to_send() == 0 {
            return;
        }
        self.ssthresh = (self.cwnd / 2.0).max(2.0 * MSS as f64);
        self.cwnd = if self.cfg.kind == CcKind::Pfabric {
            self.cfg.init_cwnd // pFabric never reduces its window
        } else if self.paced_rate_bps.is_some() {
            self.cwnd
        } else {
            MSS as f64
        };
        self.in_recovery = false;
        self.dup_acks = 0;
        self.cubic_on_loss(now);
        // Go-back-N: resend from the cumulative ACK point.
        self.snd_nxt = self.snd_una;
        self.retransmits += 1;
        self.rtt_probe = None;
        // Exponential backoff, capped.
        self.rto_ps = self
            .rto_ps
            .saturating_mul(2)
            .min(self.cfg.max_rto_ps.max(self.cfg.min_rto_ps));
        if self.paced_rate_bps.is_some() {
            // The pacer may be waiting far in the future; pull it in so
            // the retransmission leaves now.
            self.pace_next_ps = now;
        }
        self.pump(now, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u32) -> LinkId {
        LinkId(i)
    }

    fn conn(kind: CcKind, size: Option<u64>) -> Conn {
        Conn::new(
            1,
            TransportConfig::data_default(kind),
            vec![l(0), l(1)],
            vec![l(2), l(3)],
            size,
        )
    }

    fn sent_packets(actions: &[Action]) -> Vec<Packet> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send(p) => Some(*p),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn initial_window_limits_burst() {
        let mut c = conn(CcKind::Reno, Some(1_000_000));
        let mut out = Vec::new();
        c.on_app_data(1_000_000, 0, &mut out);
        let pkts = sent_packets(&out);
        assert_eq!(pkts.len(), 10, "IW = 10 MSS");
        assert_eq!(pkts[0].seq, 0);
        assert_eq!(pkts[1].seq, MSS as u64);
        assert!(out.iter().any(|a| matches!(a, Action::ArmRto(_))));
    }

    #[test]
    fn ack_slides_window_and_grows_slow_start() {
        let mut c = conn(CcKind::Reno, Some(1_000_000));
        let mut out = Vec::new();
        c.on_app_data(1_000_000, 0, &mut out);
        out.clear();
        let mut ack = Packet::new(1, PktKind::Ack, 3 * MSS as u64, 0, &[l(2)]);
        ack.sent_ps = 0;
        c.on_ack(&ack, 22_000_000, &mut out);
        // Slow start: 3 MSS acked → cwnd grows by 3 MSS → 6 new segments.
        assert_eq!(sent_packets(&out).len(), 6);
        assert!(c.cwnd() > 12.9 * MSS as f64);
    }

    #[test]
    fn receiver_reassembles_out_of_order() {
        let mut c = conn(CcKind::Reno, Some(10_000));
        let seg = |seq: u64| {
            let mut p = Packet::new(1, PktKind::Data, seq, MSS, &[l(0)]);
            p.sent_ps = 0;
            p
        };
        let a1 = c.on_data(&seg(MSS as u64), 10); // out of order
        assert_eq!(a1.seq, 0, "dup ack at 0");
        let a2 = c.on_data(&seg(0), 20);
        assert_eq!(a2.seq, 2 * MSS as u64, "hole filled, cumulative jump");
        assert_eq!(c.delivered, 2 * MSS as u64);
    }

    #[test]
    fn triple_dup_ack_fast_retransmits() {
        let mut c = conn(CcKind::Reno, Some(100_000));
        let mut out = Vec::new();
        c.on_app_data(100_000, 0, &mut out);
        out.clear();
        let dup = Packet::new(1, PktKind::Ack, 0, 0, &[l(2)]);
        c.on_ack(&dup, 100, &mut out);
        c.on_ack(&dup, 200, &mut out);
        assert!(sent_packets(&out).is_empty(), "two dups: nothing yet");
        c.on_ack(&dup, 300, &mut out);
        let pkts = sent_packets(&out);
        assert!(!pkts.is_empty(), "third dup triggers retransmit");
        assert_eq!(pkts[0].seq, 0);
        assert_eq!(c.retransmits, 1);
    }

    #[test]
    fn rto_goes_back_n_and_backs_off() {
        let mut c = conn(CcKind::Reno, Some(100_000));
        let mut out = Vec::new();
        c.on_app_data(100_000, 0, &mut out);
        out.clear();
        let rto_before = c.rto_ps;
        c.on_rto(1_000_000, &mut out);
        let pkts = sent_packets(&out);
        assert_eq!(pkts[0].seq, 0, "go-back-N from snd_una");
        assert_eq!(c.cwnd(), MSS as f64, "collapse to 1 MSS");
        assert!(c.rto_ps >= rto_before * 2 || c.rto_ps == c.cfg.max_rto_ps);
    }

    #[test]
    fn sized_flow_reports_sender_done() {
        let mut c = conn(CcKind::Reno, Some(2000));
        let mut out = Vec::new();
        c.on_app_data(2000, 0, &mut out);
        out.clear();
        let ack = Packet::new(1, PktKind::Ack, 2000, 0, &[l(2)]);
        c.on_ack(&ack, 30_000_000, &mut out);
        assert!(c.sender_done);
        assert!(out.iter().any(|a| matches!(a, Action::SenderDone)));
    }

    #[test]
    fn dctcp_alpha_tracks_mark_fraction() {
        let mut c = conn(CcKind::Dctcp, Some(10_000_000));
        let mut out = Vec::new();
        c.on_app_data(10_000_000, 0, &mut out);
        // Ack everything marked, window after window: alpha → 1.
        for i in 1..200u64 {
            out.clear();
            let mut ack = Packet::new(1, PktKind::Ack, i * MSS as u64, 0, &[l(2)]);
            ack.ce = true;
            c.on_ack(&ack, i * 1_000_000, &mut out);
        }
        assert!(c.dctcp_alpha > 0.5, "alpha {}", c.dctcp_alpha);
        // Marked ACKs shrink, never grow, the window.
        assert!(c.cwnd() <= 10.0 * MSS as f64);
    }

    #[test]
    fn dctcp_unmarked_acks_grow_window() {
        let mut c = conn(CcKind::Dctcp, Some(10_000_000));
        let mut out = Vec::new();
        c.on_app_data(10_000_000, 0, &mut out);
        let w0 = c.cwnd();
        out.clear();
        let ack = Packet::new(1, PktKind::Ack, 5 * MSS as u64, 0, &[l(2)]);
        c.on_ack(&ack, 22_000_000, &mut out);
        assert!(c.cwnd() > w0);
        assert_eq!(c.dctcp_alpha, 0.0);
    }

    #[test]
    fn pfabric_priority_is_remaining_bytes() {
        let mut c = conn(CcKind::Pfabric, Some(100_000));
        let mut out = Vec::new();
        c.on_app_data(100_000, 0, &mut out);
        let pkts = sent_packets(&out);
        assert!(!pkts.is_empty());
        assert_eq!(pkts[0].prio, 100_000, "nothing acked yet");
        // Ack ten segments; priorities of later packets must drop to the
        // new remaining size.
        out.clear();
        let acked = 10 * MSS as u64;
        let ack = Packet::new(1, PktKind::Ack, acked, 0, &[l(2)]);
        c.on_ack(&ack, 22_000_000, &mut out);
        let pkts = sent_packets(&out);
        assert!(!pkts.is_empty());
        assert!(pkts.iter().all(|p| p.prio == 100_000 - acked));
    }

    #[test]
    fn pfabric_rto_keeps_line_rate_window() {
        let mut c = conn(CcKind::Pfabric, Some(1_000_000));
        let mut out = Vec::new();
        c.on_app_data(1_000_000, 0, &mut out);
        let w0 = c.cwnd();
        out.clear();
        c.on_rto(1_000_000, &mut out);
        assert_eq!(c.cwnd(), w0, "pFabric has no congestion control");
    }

    #[test]
    fn xcp_feedback_moves_window_both_ways() {
        let mut c = conn(CcKind::Xcp, Some(10_000_000));
        let mut out = Vec::new();
        c.on_app_data(10_000_000, 0, &mut out);
        let w0 = c.cwnd();
        out.clear();
        let mut ack = Packet::new(1, PktKind::Ack, MSS as u64, 0, &[l(2)]);
        ack.xcp_feedback = 3000.0;
        c.on_ack(&ack, 22_000_000, &mut out);
        assert!((c.cwnd() - (w0 + 3000.0)).abs() < 1e-6);
        let mut ack2 = Packet::new(1, PktKind::Ack, 2 * MSS as u64, 0, &[l(2)]);
        ack2.xcp_feedback = -100_000.0;
        c.on_ack(&ack2, 44_000_000, &mut out);
        assert_eq!(c.cwnd(), MSS as f64, "floored at 1 MSS");
    }

    #[test]
    fn flowtune_paces_at_the_allocated_rate() {
        let mut c = conn(CcKind::FlowtunePaced, Some(1_000_000));
        let mut out = Vec::new();
        c.on_app_data(1_000_000, 0, &mut out);
        out.clear();
        // Allocator grants 10 Gbit/s.
        c.set_pace(10.0, 1_000_000, &mut out);
        let pkts = sent_packets(&out);
        assert_eq!(pkts.len(), 1, "pacing releases one packet at a time");
        let arm = out.iter().find_map(|a| match a {
            Action::ArmPace(t) => Some(*t),
            _ => None,
        });
        // Next credit after 1500 B at 10 G = 1.2 µs.
        assert_eq!(arm, Some(1_000_000 + 1_200_000));
    }

    #[test]
    fn flowtune_rate_change_respaces() {
        let mut c = conn(CcKind::FlowtunePaced, Some(10_000_000));
        let mut out = Vec::new();
        c.on_app_data(10_000_000, 0, &mut out);
        out.clear();
        c.set_pace(10.0, 0, &mut out);
        out.clear();
        c.on_pace_timer(1_200_000, &mut out);
        assert_eq!(sent_packets(&out).len(), 1);
        // Rate halves → gap doubles for subsequent packets.
        out.clear();
        c.set_pace(5.0, 2_400_000, &mut out);
        let arm = out
            .iter()
            .filter_map(|a| match a {
                Action::ArmPace(t) => Some(*t),
                _ => None,
            })
            .next_back()
            .unwrap();
        assert_eq!(arm, 2_400_000 + 2_400_000);
    }

    #[test]
    fn control_profile_has_paper_rto_bounds() {
        let cfg = TransportConfig::control_default();
        assert_eq!(cfg.min_rto_ps, 20_000_000);
        assert_eq!(cfg.max_rto_ps, 30_000_000);
        let mut c = Conn::new(9, cfg, vec![l(0)], vec![l(1)], None);
        let mut out = Vec::new();
        c.on_app_data(100, 0, &mut out);
        // Backoff can never exceed the 30 µs cap.
        for _ in 0..10 {
            out.clear();
            c.on_rto(1_000_000, &mut out);
        }
        assert!(c.rto_ps <= 30_000_000);
    }

    #[test]
    fn app_limited_stream_sends_increments() {
        let mut c = Conn::new(
            9,
            TransportConfig::control_default(),
            vec![l(0)],
            vec![l(1)],
            None,
        );
        let mut out = Vec::new();
        c.on_app_data(16, 0, &mut out);
        let pkts = sent_packets(&out);
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].payload, 16);
        out.clear();
        c.on_app_data(6, 10, &mut out);
        let pkts = sent_packets(&out);
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].seq, 16);
        assert_eq!(pkts[0].payload, 6);
    }
}
