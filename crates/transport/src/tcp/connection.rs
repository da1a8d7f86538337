//! The TCP connection state machine.

use std::collections::{BTreeMap, VecDeque};

use h3cdn_sim_core::{SimDuration, SimTime};

use crate::cc::{CcAlgorithm, CongestionController};
use crate::conn_id::{ConnId, MsgTag};
use crate::duplex::Driveable;
use crate::rtt::RttEstimator;
use crate::seq_ring::SeqRing;
use crate::tcp::TcpSegment;
use crate::CloseReason;

/// Configuration for one TCP connection.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Maximum segment payload size.
    pub mss: u64,
    /// RTT estimate used before the first sample.
    pub initial_rtt: SimDuration,
    /// Congestion-control algorithm.
    pub cc: CcAlgorithm,
    /// Receive window advertised to the peer.
    pub receive_window: u64,
    /// Give up on an incomplete handshake after this long (the kernel's
    /// SYN-retry budget collapsed into a deadline).
    pub handshake_timeout: SimDuration,
    /// Close after receiving nothing for this long; our own
    /// retransmissions do not extend the deadline.
    pub idle_timeout: SimDuration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: crate::cc::MSS,
            initial_rtt: SimDuration::from_millis(100),
            cc: CcAlgorithm::default(),
            receive_window: 1 << 20, // 1 MiB
            handshake_timeout: SimDuration::from_secs(30),
            idle_timeout: SimDuration::from_secs(60),
        }
    }
}

/// Connection lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TcpState {
    /// No handshake activity yet (client before `connect`, server before
    /// the first SYN).
    Closed,
    /// Client: SYN sent, awaiting SYN-ACK.
    SynSent,
    /// Server: SYN received, SYN-ACK sent, awaiting the final ACK.
    SynReceived,
    /// Handshake complete; data flows.
    Established,
}

/// Events surfaced to the layer above (TLS or tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcpEvent {
    /// The three-way handshake completed at `at`.
    Established {
        /// Completion time on this side.
        at: SimTime,
    },
    /// All bytes of the message tagged `tag` were delivered *in order*.
    Delivered {
        /// The application's tag for the message.
        tag: MsgTag,
        /// In-order delivery time.
        at: SimTime,
    },
    /// The connection closed itself and will emit nothing further.
    Closed {
        /// Close time.
        at: SimTime,
        /// Why it closed.
        reason: CloseReason,
    },
}

#[derive(Debug, Clone, Copy)]
struct SentSegment {
    len: u64,
    sent_at: SimTime,
    retransmitted: bool,
}

/// Delayed-ACK timer (RFC 5681 allows up to 500 ms; modern stacks use
/// tens of milliseconds — we match QUIC's 25 ms max ACK delay so the
/// comparison is apples-to-apples).
const DELAYED_ACK: SimDuration = SimDuration::from_millis(25);

/// A sans-IO TCP connection endpoint (one side).
///
/// Drive it through [`Driveable`]; drain events with
/// [`TcpConnection::poll_event`].
#[derive(Debug)]
pub struct TcpConnection {
    id: ConnId,
    is_client: bool,
    config: TcpConfig,
    state: TcpState,
    cc: Box<dyn CongestionController>,
    rtt: RttEstimator,

    // Send side.
    send_written: u64,
    next_to_send: u64,
    snd_una: u64,
    /// Unacknowledged segments by first byte.
    in_flight: SeqRing<SentSegment>,
    bytes_in_flight: u64,
    rtx_queue: BTreeMap<u64, u64>,
    force_rtx_credit: u32,
    /// Message boundaries not yet acknowledged: end offset → tag.
    send_markers: SeqRing<MsgTag>,
    dup_acks: u32,
    in_recovery: bool,
    recovery_end: u64,
    rto_deadline: Option<SimTime>,
    rto_backoff: u32,
    /// Tail-loss-probe deadline (RACK-TLP, RFC 8985 spirit): fires at
    /// ~2·SRTT after the last transmission and retransmits the newest
    /// unacked segment without collapsing the congestion window, so a
    /// lost flight tail costs two RTTs instead of the 200 ms RTO floor.
    tlp_deadline: Option<SimTime>,
    /// One probe per flight.
    tlp_used: bool,
    peer_rwnd: u64,

    // Handshake.
    need_syn: bool,
    need_syn_ack: bool,
    syn_sent_at: Option<SimTime>,
    syn_ack_sent_at: Option<SimTime>,

    // Lifecycle limits.
    /// Set once the connection closed itself; afterwards it is inert.
    closed: Option<(SimTime, CloseReason)>,
    /// Handshake-clock start: `connect` (client) or the first SYN
    /// (server).
    handshake_started_at: Option<SimTime>,
    /// Idle anchor: last receipt, or the first segment sent since the
    /// last receipt.
    idle_anchor: Option<SimTime>,
    /// Whether a segment left since the last receipt.
    sent_since_rx: bool,

    // Receive side.
    rcv_next: u64,
    out_of_order: BTreeMap<u64, u64>,
    recv_markers: BTreeMap<u64, MsgTag>,
    ack_pending: bool,
    /// In-order data segments received since the last ACK was sent
    /// (delayed-ACK accounting, RFC 5681 §4.2).
    segs_since_ack: u32,
    /// Delayed-ACK timer.
    delayed_ack_deadline: Option<SimTime>,

    events: VecDeque<TcpEvent>,
    retransmit_count: u64,
}

impl TcpConnection {
    /// Creates the client side of a connection. Call
    /// [`TcpConnection::connect`] to begin the handshake.
    pub fn client(id: ConnId, config: TcpConfig) -> Self {
        Self::new(id, true, config)
    }

    /// Creates the server side of a connection; it transitions out of
    /// `Closed` upon the first SYN.
    pub fn server(id: ConnId, config: TcpConfig) -> Self {
        Self::new(id, false, config)
    }

    fn new(id: ConnId, is_client: bool, config: TcpConfig) -> Self {
        let cc = config.cc.build();
        let rtt = RttEstimator::new(config.initial_rtt);
        TcpConnection {
            id,
            is_client,
            config,
            state: TcpState::Closed,
            cc,
            rtt,
            send_written: 0,
            next_to_send: 0,
            snd_una: 0,
            in_flight: SeqRing::default(),
            bytes_in_flight: 0,
            rtx_queue: BTreeMap::new(),
            force_rtx_credit: 0,
            send_markers: SeqRing::default(),
            dup_acks: 0,
            in_recovery: false,
            recovery_end: 0,
            rto_deadline: None,
            rto_backoff: 0,
            tlp_deadline: None,
            tlp_used: false,
            peer_rwnd: u64::MAX,
            need_syn: false,
            need_syn_ack: false,
            syn_sent_at: None,
            syn_ack_sent_at: None,
            closed: None,
            handshake_started_at: None,
            idle_anchor: None,
            sent_since_rx: false,
            rcv_next: 0,
            out_of_order: BTreeMap::new(),
            recv_markers: BTreeMap::new(),
            ack_pending: false,
            segs_since_ack: 0,
            delayed_ack_deadline: None,
            events: VecDeque::new(),
            retransmit_count: 0,
        }
    }

    /// The connection id.
    pub fn conn_id(&self) -> ConnId {
        self.id
    }

    /// Whether this endpoint is the client side.
    pub fn is_client(&self) -> bool {
        self.is_client
    }

    /// `true` once the handshake has completed on this side.
    pub fn is_established(&self) -> bool {
        self.state == TcpState::Established
    }

    /// Whether the connection closed itself (handshake or idle timeout).
    pub fn is_closed(&self) -> bool {
        self.closed.is_some()
    }

    /// Why the connection closed, if it did.
    pub fn close_reason(&self) -> Option<CloseReason> {
        self.closed.map(|(_, reason)| reason)
    }

    /// The RTT estimator (for diagnostics).
    pub fn rtt(&self) -> &RttEstimator {
        &self.rtt
    }

    /// Total segments retransmitted by this side.
    pub fn retransmit_count(&self) -> u64 {
        self.retransmit_count
    }

    /// Starts the client handshake.
    ///
    /// # Panics
    ///
    /// Panics if called on a server endpoint or more than once.
    pub fn connect(&mut self, now: SimTime) {
        assert!(self.is_client, "connect() is client-side only");
        assert_eq!(self.state, TcpState::Closed, "connect() called twice");
        self.state = TcpState::SynSent;
        self.need_syn = true;
        self.handshake_started_at = Some(now);
        self.arm_rto(now);
    }

    /// Queues an application message of `len` bytes tagged `tag` onto the
    /// stream. Bytes flow once the connection is established.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero (an empty message has no final byte to
    /// deliver).
    pub fn write_message(&mut self, len: u64, tag: MsgTag) {
        assert!(len > 0, "messages must be non-empty");
        self.send_written += len;
        self.send_markers.insert(self.send_written, tag);
    }

    /// Bytes written but not yet acknowledged.
    pub fn outstanding_bytes(&self) -> u64 {
        self.send_written - self.snd_una
    }

    /// Bytes written but not yet put on the wire for the first time. The
    /// HTTP/2 server uses this to keep its interleaving pump just ahead of
    /// the transport instead of dumping whole responses into the stream.
    pub fn unsent_bytes(&self) -> u64 {
        self.send_written - self.next_to_send
    }

    /// Pops the next pending event.
    pub fn poll_event(&mut self) -> Option<TcpEvent> {
        self.events.pop_front()
    }
}

impl Driveable for TcpConnection {
    type Wire = TcpSegment;

    fn on_packet(&mut self, seg: TcpSegment, now: SimTime) {
        debug_assert_eq!(seg.conn, self.id, "segment routed to wrong connection");
        debug_assert_ne!(
            seg.from_client, self.is_client,
            "segment reflected to its sender"
        );
        if self.closed.is_some() {
            return; // stray late segment on a dead connection
        }
        if seg.rst {
            // The server refused admission: abandon the connection at
            // once (no timers, no retransmissions into a closed door).
            self.close(now, CloseReason::Refused);
            return;
        }
        self.idle_anchor = Some(now);
        self.sent_since_rx = false;
        if self.handshake_started_at.is_none() {
            // Server side: the first SYN starts the handshake clock.
            self.handshake_started_at = Some(now);
        }
        match self.state {
            TcpState::Closed if !self.is_client && seg.syn => {
                self.state = TcpState::SynReceived;
                self.need_syn_ack = true;
                self.arm_rto(now);
                return;
            }
            TcpState::Closed => return, // stray packet
            TcpState::SynSent => {
                if seg.syn && seg.ack_flag {
                    if let Some(sent) = self.syn_sent_at {
                        let sample = now - sent;
                        self.rtt.on_sample(sample);
                        self.cc.on_rtt_sample(sample, now);
                    }
                    self.state = TcpState::Established;
                    self.rto_backoff = 0;
                    self.rto_deadline = None;
                    self.ack_pending = true;
                    self.events.push_back(TcpEvent::Established { at: now });
                }
                return;
            }
            TcpState::SynReceived => {
                if seg.syn {
                    // Retransmitted SYN: re-send our SYN-ACK.
                    self.need_syn_ack = true;
                    return;
                }
                if seg.ack_flag {
                    if let Some(sent) = self.syn_ack_sent_at {
                        let sample = now - sent;
                        self.rtt.on_sample(sample);
                        self.cc.on_rtt_sample(sample, now);
                    }
                    self.state = TcpState::Established;
                    self.rto_backoff = 0;
                    self.rto_deadline = None;
                    self.events.push_back(TcpEvent::Established { at: now });
                    // Fall through: the final ACK may carry data.
                }
            }
            TcpState::Established => {
                if seg.syn && seg.ack_flag && self.is_client {
                    // Retransmitted SYN-ACK (our final ACK was lost): the
                    // server still waits, so re-acknowledge.
                    self.ack_pending = true;
                    return;
                }
            }
        }

        if self.state != TcpState::Established {
            return;
        }
        if seg.ack_flag {
            self.peer_rwnd = seg.rwnd;
            self.process_ack(seg.ack, seg.len == 0 && !seg.syn, now);
            if !seg.sack.is_empty() {
                self.process_sack(&seg.sack, now);
            }
        }
        if seg.len > 0 {
            // RFC 5681: out-of-order (or duplicate) data is acknowledged
            // immediately — those ACKs are the peer's loss signal — while
            // in-order data uses the delayed-ACK rule (every second
            // segment, or a short timer).
            let out_of_order = seg.seq != self.rcv_next;
            self.process_data(&seg, now);
            if out_of_order {
                self.ack_pending = true;
                self.delayed_ack_deadline = None;
                self.segs_since_ack = 0;
            } else {
                self.segs_since_ack += 1;
                if self.segs_since_ack >= 2 {
                    self.ack_pending = true;
                    self.delayed_ack_deadline = None;
                    self.segs_since_ack = 0;
                } else if self.delayed_ack_deadline.is_none() {
                    self.delayed_ack_deadline = Some(now + DELAYED_ACK);
                }
            }
        }
    }

    fn poll_transmit(&mut self, now: SimTime) -> Option<TcpSegment> {
        if self.closed.is_some() {
            return None;
        }
        if self.need_syn {
            self.need_syn = false;
            self.syn_sent_at = Some(now);
            self.mark_sent_activity(now);
            return Some(self.segment(true, false, 0, 0, vec![]));
        }
        if self.need_syn_ack {
            self.need_syn_ack = false;
            self.syn_ack_sent_at = Some(now);
            self.mark_sent_activity(now);
            return Some(self.segment(true, true, 0, 0, vec![]));
        }
        if self.state != TcpState::Established {
            return None;
        }

        // Retransmissions take priority over new data.
        if let Some((&seq, &len)) = self.rtx_queue.iter().next() {
            let allowed = self.force_rtx_credit > 0 || self.has_window_for(len);
            if allowed {
                self.force_rtx_credit = self.force_rtx_credit.saturating_sub(1);
                self.rtx_queue.remove(&seq);
                self.track_sent(seq, len, now, true);
                self.retransmit_count += 1;
                self.mark_sent_activity(now);
                let markers = self.markers_in_range(seq, len);
                return Some(self.data_segment(seq, len, markers));
            }
        } else if self.next_to_send < self.send_written {
            let remaining = self.send_written - self.next_to_send;
            let window = self.available_window();
            let len = remaining.min(self.config.mss);
            // Silly-window-syndrome avoidance (RFC 9293 §3.8.6.2): never
            // chop a full-sized segment down to fit a sliver of window —
            // wait for an acknowledgement to open it instead.
            if window >= len {
                let seq = self.next_to_send;
                self.next_to_send += len;
                self.track_sent(seq, len, now, false);
                self.mark_sent_activity(now);
                let markers = self.markers_in_range(seq, len);
                return Some(self.data_segment(seq, len, markers));
            }
        }

        if self.ack_pending {
            self.ack_pending = false;
            return Some(self.segment(false, true, self.snd_una, 0, vec![]));
        }
        None
    }

    fn next_timeout(&self) -> Option<SimTime> {
        if self.closed.is_some() {
            return None;
        }
        [
            self.rto_deadline,
            self.tlp_deadline,
            self.delayed_ack_deadline,
            self.handshake_deadline(),
            self.idle_deadline(),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    fn on_timeout(&mut self, now: SimTime) {
        if self.closed.is_some() {
            return;
        }
        if self.handshake_deadline().is_some_and(|d| d <= now) {
            self.close(now, CloseReason::HandshakeTimeout);
            return;
        }
        if self.idle_deadline().is_some_and(|d| d <= now) {
            self.close(now, CloseReason::IdleTimeout);
            return;
        }
        // Delayed-ACK timer.
        if self.delayed_ack_deadline.is_some_and(|d| d <= now) {
            self.delayed_ack_deadline = None;
            self.ack_pending = true;
        }
        // Tail loss probe next: cheaper and non-destructive.
        if self.tlp_deadline.is_some_and(|d| d <= now) {
            self.tlp_deadline = None;
            if self.state == TcpState::Established && !self.tlp_used && self.rtx_queue.is_empty() {
                if let Some((seq, seg)) = self.in_flight.pop_last() {
                    self.tlp_used = true;
                    let len = seg.len;
                    self.bytes_in_flight = self.bytes_in_flight.saturating_sub(len);
                    self.rtx_queue.insert(seq, len);
                    self.force_rtx_credit += 1;
                    self.retransmit_count += 1;
                }
            }
        }
        let deadline = match self.rto_deadline {
            Some(d) if d <= now => d,
            _ => return,
        };
        let _ = deadline;
        self.rto_backoff = (self.rto_backoff + 1).min(10);
        match self.state {
            TcpState::SynSent => {
                self.need_syn = true;
                self.retransmit_count += 1;
                self.arm_rto(now);
            }
            TcpState::SynReceived => {
                self.need_syn_ack = true;
                self.retransmit_count += 1;
                self.arm_rto(now);
            }
            TcpState::Established => {
                if self.in_flight.is_empty() && self.rtx_queue.is_empty() {
                    self.rto_deadline = None;
                    return;
                }
                // RFC 6298: retransmit the earliest unacked segment and
                // collapse the window; SACK repairs any further holes as
                // acknowledgements resume (no go-back-N redump).
                self.cc.on_timeout(now);
                if let Some((seq, seg)) = self.in_flight.pop_first() {
                    self.bytes_in_flight = self.bytes_in_flight.saturating_sub(seg.len);
                    self.rtx_queue.insert(seq, seg.len);
                    self.force_rtx_credit += 1;
                }
                self.dup_acks = 0;
                self.in_recovery = false;
                self.arm_rto(now);
            }
            TcpState::Closed => {
                self.rto_deadline = None;
            }
        }
    }

    fn close_deadline(&self) -> Option<SimTime> {
        if self.closed.is_some() {
            return None;
        }
        [self.handshake_deadline(), self.idle_deadline()]
            .into_iter()
            .flatten()
            .min()
    }
}

impl TcpConnection {
    /// Deadline for an incomplete handshake: client-side from `connect`,
    /// server-side from the first received SYN.
    fn handshake_deadline(&self) -> Option<SimTime> {
        if self.state == TcpState::Established {
            return None;
        }
        Some(self.handshake_started_at? + self.config.handshake_timeout)
    }

    fn idle_deadline(&self) -> Option<SimTime> {
        Some(self.idle_anchor? + self.config.idle_timeout)
    }

    /// Closes the connection silently (no RST on the wire — the paths
    /// that trigger this are exactly the ones that eat packets) and
    /// disarms every timer.
    fn close(&mut self, now: SimTime, reason: CloseReason) {
        if self.closed.is_some() {
            return;
        }
        self.closed = Some((now, reason));
        self.rto_deadline = None;
        self.tlp_deadline = None;
        self.delayed_ack_deadline = None;
        self.ack_pending = false;
        self.need_syn = false;
        self.need_syn_ack = false;
        self.in_flight.clear();
        self.rtx_queue.clear();
        self.bytes_in_flight = 0;
        self.events.push_back(TcpEvent::Closed { at: now, reason });
    }

    fn process_ack(&mut self, ack: u64, pure_ack: bool, now: SimTime) {
        if ack > self.snd_una {
            let newly_acked = ack - self.snd_una;
            self.snd_una = ack;
            self.dup_acks = 0;
            self.rto_backoff = 0;
            self.tlp_used = false;

            // Remove fully covered in-flight segments; take one RTT sample
            // from a never-retransmitted segment (Karn's algorithm).
            let mut sampled = false;
            while let Some((_, seg)) = self.in_flight.pop_first_if(|seq, seg| seq + seg.len <= ack)
            {
                self.bytes_in_flight = self.bytes_in_flight.saturating_sub(seg.len);
                if !sampled && !seg.retransmitted {
                    let sample = now - seg.sent_at;
                    self.rtt.on_sample(sample);
                    self.cc.on_rtt_sample(sample, now);
                    sampled = true;
                }
            }
            // Drop acknowledged retransmission intents.
            self.rtx_queue
                .retain(|&seq, &mut len| seq >= ack || seq + len > ack);
            self.send_markers.remove_through(ack);
            self.cc.on_ack(newly_acked, now);

            if self.in_recovery {
                if ack >= self.recovery_end {
                    self.in_recovery = false;
                } else if let Some((seq, seg)) = self.in_flight.pop_first_if(|seq, _| seq == ack) {
                    // NewReno-style partial ACK: retransmit the next hole.
                    self.bytes_in_flight = self.bytes_in_flight.saturating_sub(seg.len);
                    self.rtx_queue.insert(seq, seg.len);
                    self.force_rtx_credit += 1;
                }
            }
            self.arm_or_clear_rto(now);
        } else if ack == self.snd_una && pure_ack && !self.in_flight.is_empty() {
            self.dup_acks += 1;
            if self.dup_acks == 3 && !self.in_recovery {
                // Fast retransmit of the earliest unacked segment.
                if let Some((seq, seg)) = self.in_flight.pop_first() {
                    self.bytes_in_flight = self.bytes_in_flight.saturating_sub(seg.len);
                    self.rtx_queue.insert(seq, seg.len);
                    self.force_rtx_credit += 1;
                }
                self.cc.on_congestion_event(now);
                self.in_recovery = true;
                self.recovery_end = self.next_to_send;
            }
        }
    }

    /// SACK-based recovery (RFC 2018/6675, simplified): sacked segments
    /// leave the pipe, and any unsacked segment entirely below the
    /// highest sacked byte is a hole — retransmit it without waiting for
    /// three duplicate ACKs or an RTO. Burst losses repair in one round
    /// trip instead of one hole per RTT.
    fn process_sack(&mut self, sack: &[(u64, u64)], now: SimTime) {
        let Some(highest_sacked) = sack.iter().map(|&(_, end)| end).max() else {
            return;
        };
        // Segments are never empty, so a segment that a block covers, or
        // that ends at or below the highest SACKed byte, starts below
        // it: both passes walk only that prefix of the in-flight ring.
        // 1. Remove segments fully covered by a SACK block, in ascending
        //    order: they were delivered and no longer occupy the pipe.
        let (cc, bytes_in_flight) = (&mut self.cc, &mut self.bytes_in_flight);
        self.in_flight.retain_below(highest_sacked, |seq, seg| {
            let sacked = sack
                .iter()
                .any(|&(lo, hi)| seq >= lo && seq + seg.len <= hi);
            if sacked {
                *bytes_in_flight = bytes_in_flight.saturating_sub(seg.len);
                cc.on_ack(seg.len, now);
            }
            !sacked
        });
        // 2. Retransmit the holes below the highest sacked byte. RFC 6675
        //    reordering tolerance: a hole is declared lost only once
        //    ~three segments' worth of data is SACKed above it, or after
        //    RACK's time window (9/8 RTT) — plain path reordering must
        //    not look like loss. Retransmissions themselves also wait out
        //    the time window before a repeat, so queueing-delayed ACKs
        //    cannot trigger spurious storms, yet a repair burst that died
        //    in a full queue is retried within ~an RTT.
        let loss_delay = self.rtt.loss_delay();
        let reorder_window = 3 * self.config.mss;
        let (rtx_queue, bytes_in_flight) = (&mut self.rtx_queue, &mut self.bytes_in_flight);
        let mut holes = 0;
        self.in_flight.retain_below(highest_sacked, |seq, seg| {
            let end = seq + seg.len;
            let by_sequence = end <= highest_sacked && highest_sacked - end >= reorder_window;
            let by_time = end <= highest_sacked && seg.sent_at + loss_delay <= now;
            let hole =
                (by_sequence || by_time) && (!seg.retransmitted || seg.sent_at + loss_delay <= now);
            if hole {
                *bytes_in_flight = bytes_in_flight.saturating_sub(seg.len);
                rtx_queue.insert(seq, seg.len);
                holes += 1;
            }
            !hole
        });
        if holes == 0 {
            return;
        }
        self.force_rtx_credit += holes;
        if !self.in_recovery {
            self.in_recovery = true;
            self.recovery_end = self.next_to_send;
            self.cc.on_congestion_event(now);
        }
        self.arm_rto(now);
    }

    fn process_data(&mut self, seg: &TcpSegment, now: SimTime) {
        for &(end, tag) in &seg.markers {
            // Markers inside the already-delivered prefix are duplicates
            // from spurious retransmissions; re-inserting would fire them
            // twice.
            if end > self.rcv_next {
                self.recv_markers.insert(end, tag);
            }
        }
        let seg_end = seg.seq + seg.len;
        if seg.seq <= self.rcv_next {
            if seg_end > self.rcv_next {
                self.rcv_next = seg_end;
                self.merge_out_of_order();
            }
            // else: pure duplicate, nothing advances.
        } else {
            self.out_of_order.insert(seg.seq, seg.len);
        }
        self.fire_delivered(now);
    }

    fn merge_out_of_order(&mut self) {
        while let Some((&seq, &len)) = self.out_of_order.iter().next() {
            if seq <= self.rcv_next {
                self.out_of_order.remove(&seq);
                self.rcv_next = self.rcv_next.max(seq + len);
            } else {
                break;
            }
        }
    }

    fn fire_delivered(&mut self, now: SimTime) {
        while let Some((&end, &tag)) = self.recv_markers.iter().next() {
            if end <= self.rcv_next {
                self.recv_markers.remove(&end);
                self.events.push_back(TcpEvent::Delivered { tag, at: now });
            } else {
                break;
            }
        }
    }

    fn markers_in_range(&self, seq: u64, len: u64) -> Vec<(u64, MsgTag)> {
        self.send_markers
            .range(seq + 1, seq + len)
            .map(|(end, &tag)| (end, tag))
            .collect()
    }

    fn available_window(&self) -> u64 {
        self.cc
            .window()
            .min(self.peer_rwnd)
            .saturating_sub(self.bytes_in_flight)
    }

    fn has_window_for(&self, len: u64) -> bool {
        self.available_window() >= len
    }

    fn track_sent(&mut self, seq: u64, len: u64, now: SimTime, retransmitted: bool) {
        debug_assert!(len > 0, "an empty segment is never tracked");
        self.in_flight.insert(
            seq,
            SentSegment {
                len,
                sent_at: now,
                retransmitted,
            },
        );
        self.bytes_in_flight += len;
        self.cc.on_packet_sent(len, now);
        self.arm_rto(now);
        if !self.tlp_used {
            // 2·SRTT after the most recent transmission (RACK-TLP).
            self.tlp_deadline = Some(now + self.rtt.smoothed() * 2);
        }
    }

    /// Only the *first* segment sent since the last receipt re-anchors
    /// the idle deadline — an RTO loop into a blackhole cannot postpone
    /// it indefinitely.
    fn mark_sent_activity(&mut self, now: SimTime) {
        if !self.sent_since_rx {
            self.sent_since_rx = true;
            self.idle_anchor = Some(now);
        }
    }

    fn arm_rto(&mut self, now: SimTime) {
        let backoff = 1u64 << self.rto_backoff.min(10);
        self.rto_deadline = Some(now + self.rtt.rto() * backoff);
    }

    fn arm_or_clear_rto(&mut self, now: SimTime) {
        if self.in_flight.is_empty() && self.rtx_queue.is_empty() {
            self.rto_deadline = None;
            self.tlp_deadline = None;
        } else {
            self.arm_rto(now);
        }
    }

    fn segment(
        &self,
        syn: bool,
        ack_flag: bool,
        seq: u64,
        len: u64,
        markers: Vec<(u64, MsgTag)>,
    ) -> TcpSegment {
        TcpSegment {
            conn: self.id,
            from_client: self.is_client,
            syn,
            rst: false,
            ack_flag,
            seq,
            len,
            ack: self.rcv_next,
            rwnd: self.config.receive_window,
            markers,
            sack: self.sack_blocks(),
        }
    }

    /// Up to four merged SACK blocks from the out-of-order buffer.
    fn sack_blocks(&self) -> Vec<(u64, u64)> {
        let mut blocks: Vec<(u64, u64)> = Vec::new();
        for (&seq, &len) in &self.out_of_order {
            let end = seq + len;
            match blocks.last_mut() {
                Some(last) if seq <= last.1 => last.1 = last.1.max(end),
                _ => blocks.push((seq, end)),
            }
        }
        blocks.truncate(4);
        blocks
    }

    fn data_segment(&mut self, seq: u64, len: u64, markers: Vec<(u64, MsgTag)>) -> TcpSegment {
        // Data segments carry the cumulative ACK.
        self.ack_pending = false;
        self.segs_since_ack = 0;
        self.delayed_ack_deadline = None;
        self.segment(false, true, seq, len, markers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h3cdn_netsim::NodeId;
    use h3cdn_sim_core::EventQueue;

    fn conn_id() -> ConnId {
        ConnId::new(NodeId::from_raw(0), NodeId::from_raw(1), 1)
    }

    fn pair() -> (TcpConnection, TcpConnection) {
        let cfg = TcpConfig {
            initial_rtt: SimDuration::from_millis(40),
            ..TcpConfig::default()
        };
        (
            TcpConnection::client(conn_id(), cfg.clone()),
            TcpConnection::server(conn_id(), cfg),
        )
    }

    /// Drives both endpoints over a fixed-latency pipe, optionally
    /// dropping segments selected by `drop_nth` (indices into the global
    /// data-bearing send order).
    struct Harness {
        client: TcpConnection,
        server: TcpConnection,
        queue: EventQueue<(bool, TcpSegment)>, // (to_client, seg)
        latency: SimDuration,
        now: SimTime,
        sent_index: u64,
        drop: Vec<u64>,
        client_events: Vec<TcpEvent>,
        server_events: Vec<TcpEvent>,
    }

    impl Harness {
        fn new(drop: Vec<u64>) -> Self {
            let (client, server) = pair();
            Harness {
                client,
                server,
                queue: EventQueue::new(),
                latency: SimDuration::from_millis(20),
                now: SimTime::ZERO,
                sent_index: 0,
                drop,
                client_events: Vec::new(),
                server_events: Vec::new(),
            }
        }

        fn pump_side(&mut self, client_side: bool) {
            loop {
                let side = if client_side {
                    &mut self.client
                } else {
                    &mut self.server
                };
                let Some(seg) = side.poll_transmit(self.now) else {
                    break;
                };
                let idx = self.sent_index;
                self.sent_index += 1;
                if self.drop.contains(&idx) {
                    continue; // the network ate it
                }
                self.queue
                    .schedule(self.now + self.latency, (!client_side, seg));
            }
            let (side, sink) = if client_side {
                (&mut self.client, &mut self.client_events)
            } else {
                (&mut self.server, &mut self.server_events)
            };
            while let Some(ev) = side.poll_event() {
                sink.push(ev);
            }
        }

        fn run(&mut self) {
            self.pump_side(true);
            self.pump_side(false);
            for _ in 0..100_000 {
                // Next event: earliest of queue arrival and both timers.
                let arrival = self.queue.peek_time();
                let t_client = self.client.next_timeout();
                let t_server = self.server.next_timeout();
                let next = [arrival, t_client, t_server].into_iter().flatten().min();
                let Some(next) = next else { return };
                self.now = next;
                if arrival == Some(next) {
                    let (_, (to_client, seg)) = self.queue.pop().unwrap();
                    if to_client {
                        self.client.on_packet(seg, self.now);
                    } else {
                        self.server.on_packet(seg, self.now);
                    }
                } else if t_client == Some(next) {
                    self.client.on_timeout(self.now);
                } else {
                    self.server.on_timeout(self.now);
                }
                self.pump_side(true);
                self.pump_side(false);
            }
            panic!("harness did not quiesce");
        }
    }

    #[test]
    fn handshake_takes_one_rtt_each_side() {
        let mut h = Harness::new(vec![]);
        h.client.connect(SimTime::ZERO);
        h.run();
        // Client established after 1 RTT (40 ms), server after 1.5 RTT.
        assert_eq!(
            h.client_events[0],
            TcpEvent::Established {
                at: SimTime::ZERO + SimDuration::from_millis(40)
            }
        );
        assert_eq!(
            h.server_events[0],
            TcpEvent::Established {
                at: SimTime::ZERO + SimDuration::from_millis(60)
            }
        );
    }

    #[test]
    fn single_message_delivered_in_order() {
        let mut h = Harness::new(vec![]);
        h.client.connect(SimTime::ZERO);
        h.client.write_message(500, MsgTag(1));
        h.run();
        let delivered: Vec<_> = h
            .server_events
            .iter()
            .filter_map(|e| match e {
                TcpEvent::Delivered { tag, at } => Some((*tag, *at)),
                _ => None,
            })
            .collect();
        // SYN at 0, SYN-ACK at 20→40, data leaves at 40, arrives at 60.
        assert_eq!(
            delivered,
            vec![(MsgTag(1), SimTime::ZERO + SimDuration::from_millis(60))]
        );
    }

    #[test]
    fn large_transfer_delivers_all_messages() {
        let mut h = Harness::new(vec![]);
        h.client.connect(SimTime::ZERO);
        h.server.write_message(200_000, MsgTag(10));
        h.server.write_message(50_000, MsgTag(11));
        h.run();
        let tags: Vec<MsgTag> = h
            .client_events
            .iter()
            .filter_map(|e| match e {
                TcpEvent::Delivered { tag, .. } => Some(*tag),
                _ => None,
            })
            .collect();
        assert_eq!(tags, vec![MsgTag(10), MsgTag(11)]);
    }

    #[test]
    fn delivery_order_is_stream_order_even_with_loss() {
        // Drop a handful of mid-transfer data segments; delivery order
        // must still be (10, 11) and both must eventually arrive.
        let mut h = Harness::new(vec![5, 9, 12]);
        h.client.connect(SimTime::ZERO);
        h.server.write_message(100_000, MsgTag(10));
        h.server.write_message(40_000, MsgTag(11));
        h.run();
        let tags: Vec<MsgTag> = h
            .client_events
            .iter()
            .filter_map(|e| match e {
                TcpEvent::Delivered { tag, .. } => Some(*tag),
                _ => None,
            })
            .collect();
        assert_eq!(tags, vec![MsgTag(10), MsgTag(11)]);
        assert!(h.server.retransmit_count() > 0, "loss must retransmit");
    }

    #[test]
    fn loss_delays_delivery_relative_to_clean_run() {
        let run = |drop: Vec<u64>| {
            let mut h = Harness::new(drop);
            h.client.connect(SimTime::ZERO);
            h.server.write_message(80_000, MsgTag(1));
            h.run();
            h.client_events
                .iter()
                .find_map(|e| match e {
                    TcpEvent::Delivered { at, .. } => Some(*at),
                    _ => None,
                })
                .expect("delivered")
        };
        let clean = run(vec![]);
        let lossy = run(vec![4]);
        assert!(
            lossy > clean,
            "lost segment must delay delivery: {clean} vs {lossy}"
        );
    }

    #[test]
    fn syn_loss_is_recovered_by_retransmission() {
        // Index 0 is the first SYN.
        let mut h = Harness::new(vec![0]);
        h.client.connect(SimTime::ZERO);
        h.client.write_message(100, MsgTag(1));
        h.run();
        assert!(h
            .client_events
            .iter()
            .any(|e| matches!(e, TcpEvent::Established { .. })));
        assert!(h
            .server_events
            .iter()
            .any(|e| matches!(e, TcpEvent::Delivered { .. })));
        // Establishment must have been delayed by at least the RTO floor.
        let at = h
            .client_events
            .iter()
            .find_map(|e| match e {
                TcpEvent::Established { at } => Some(*at),
                _ => None,
            })
            .unwrap();
        assert!(at >= SimTime::ZERO + SimDuration::from_millis(200));
    }

    #[test]
    fn syn_ack_loss_is_recovered() {
        let mut h = Harness::new(vec![1]);
        h.client.connect(SimTime::ZERO);
        h.server.write_message(100, MsgTag(2));
        h.run();
        assert!(h
            .client_events
            .iter()
            .any(|e| matches!(e, TcpEvent::Delivered { .. })));
    }

    #[test]
    fn bidirectional_transfer() {
        let mut h = Harness::new(vec![]);
        h.client.connect(SimTime::ZERO);
        h.client.write_message(5_000, MsgTag(1));
        h.server.write_message(7_000, MsgTag(2));
        h.run();
        assert!(h
            .server_events
            .iter()
            .any(|e| matches!(e, TcpEvent::Delivered { tag: MsgTag(1), .. })));
        assert!(h
            .client_events
            .iter()
            .any(|e| matches!(e, TcpEvent::Delivered { tag: MsgTag(2), .. })));
    }

    #[test]
    fn messages_written_before_connect_flow_after_handshake() {
        let mut h = Harness::new(vec![]);
        h.client.write_message(1_000, MsgTag(9));
        h.client.connect(SimTime::ZERO);
        h.run();
        assert!(h
            .server_events
            .iter()
            .any(|e| matches!(e, TcpEvent::Delivered { tag: MsgTag(9), .. })));
    }

    #[test]
    fn blackholed_syn_times_out_with_typed_event() {
        // No peer: every SYN vanishes. The connection must give up at
        // exactly connect + handshake_timeout instead of backing off
        // forever.
        let (mut client, _) = pair();
        client.connect(SimTime::ZERO);
        while client.poll_transmit(SimTime::ZERO).is_some() {}
        let mut guard = 0;
        while let Some(t) = client.next_timeout() {
            client.on_timeout(t);
            while client.poll_transmit(t).is_some() {}
            guard += 1;
            assert!(guard < 10_000, "timer loop must converge");
        }
        assert!(client.is_closed());
        assert_eq!(
            client.close_reason(),
            Some(crate::CloseReason::HandshakeTimeout)
        );
        let deadline = SimTime::ZERO + TcpConfig::default().handshake_timeout;
        let mut closed = None;
        while let Some(ev) = client.poll_event() {
            if let TcpEvent::Closed { at, reason } = ev {
                closed = Some((at, reason));
            }
        }
        assert_eq!(
            closed,
            Some((deadline, crate::CloseReason::HandshakeTimeout)),
            "typed close event at the exact deadline"
        );
        assert_eq!(client.next_timeout(), None, "closed connections are inert");
    }

    #[test]
    fn idle_connection_closes_after_idle_timeout() {
        let mut h = Harness::new(vec![]);
        h.client.connect(SimTime::ZERO);
        h.client.write_message(500, MsgTag(1));
        h.run();
        let closed: Vec<_> = h
            .client_events
            .iter()
            .filter_map(|e| match e {
                TcpEvent::Closed { at, reason } => Some((*at, *reason)),
                _ => None,
            })
            .collect();
        assert_eq!(closed.len(), 1, "exactly one close event");
        assert_eq!(closed[0].1, crate::CloseReason::IdleTimeout);
        assert!(
            closed[0].0 >= SimTime::ZERO + TcpConfig::default().idle_timeout,
            "idle close cannot precede the idle window"
        );
        assert!(h
            .server_events
            .iter()
            .any(|e| matches!(e, TcpEvent::Closed { .. })));
    }

    #[test]
    #[should_panic(expected = "client-side only")]
    fn server_cannot_connect() {
        let (_, mut server) = pair();
        server.connect(SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_message_rejected() {
        let (mut client, _) = pair();
        client.write_message(0, MsgTag(1));
    }

    #[test]
    fn slow_start_then_congestion_growth_visible() {
        // A 500 KB transfer over a 40 ms RTT path should need several
        // round trips (slow start), i.e. finish well after 2 RTTs but
        // within ~15.
        let mut h = Harness::new(vec![]);
        h.client.connect(SimTime::ZERO);
        h.server.write_message(500_000, MsgTag(1));
        h.run();
        let at = h
            .client_events
            .iter()
            .find_map(|e| match e {
                TcpEvent::Delivered { at, .. } => Some(*at),
                _ => None,
            })
            .unwrap();
        let rtt_ms = 40.0;
        let elapsed = at.as_millis_f64();
        assert!(elapsed > 3.0 * rtt_ms, "too fast: {elapsed}ms");
        assert!(elapsed < 15.0 * rtt_ms, "too slow: {elapsed}ms");
    }

    #[test]
    fn tail_loss_recovers_via_probe_not_rto() {
        // A two-segment flight whose LAST segment is dropped: no dupacks
        // can fire, so pre-TLP stacks wait out the 200 ms RTO floor. The
        // probe retransmits the tail at ~2·SRTT instead.
        let run = |drop: Vec<u64>| {
            let mut h = Harness::new(drop);
            h.client.connect(SimTime::ZERO);
            h.server.write_message(2_500, MsgTag(1)); // two segments
            h.run();
            h.client_events
                .iter()
                .find_map(|e| match e {
                    TcpEvent::Delivered { at, .. } => Some(*at),
                    _ => None,
                })
                .expect("delivered")
        };
        let clean = run(vec![]);
        // Global send order: 0 SYN, 1 SYN-ACK, 2 client ACK, 3 first
        // data, 4 second (final) data.
        let lossy = run(vec![4]);
        let penalty = lossy - clean;
        assert!(
            penalty < SimDuration::from_millis(200),
            "TLP must beat the RTO floor; penalty {penalty}"
        );
        assert!(
            penalty >= SimDuration::from_millis(40),
            "recovery still costs ~2 RTT; penalty {penalty}"
        );
    }

    #[test]
    fn peer_rwnd_limits_sender() {
        let cfg_small = TcpConfig {
            initial_rtt: SimDuration::from_millis(40),
            receive_window: 4_000,
            ..TcpConfig::default()
        };
        let cfg = TcpConfig {
            initial_rtt: SimDuration::from_millis(40),
            ..TcpConfig::default()
        };
        let mut h = Harness::new(vec![]);
        h.client = TcpConnection::client(conn_id(), cfg);
        h.server = TcpConnection::server(conn_id(), cfg_small);
        h.client.connect(SimTime::ZERO);
        h.client.write_message(100_000, MsgTag(1));
        h.run();
        // Delivery still completes (our receiver consumes instantly so the
        // advertised window never shrinks), but the sender was paced by a
        // 4 KB window: ≥ 25 round trips of ~40 ms.
        let at = h
            .server_events
            .iter()
            .find_map(|e| match e {
                TcpEvent::Delivered { at, .. } => Some(*at),
                _ => None,
            })
            .unwrap();
        assert!(at.as_millis_f64() > 900.0, "rwnd pacing missing: {at}");
    }

    #[test]
    fn rst_closes_client_within_one_rtt() {
        // An overloaded edge answers the SYN with RST: the client
        // abandons the connection at once instead of retransmitting the
        // SYN into a closed door.
        let (mut client, _) = pair();
        client.connect(SimTime::ZERO);
        while client.poll_transmit(SimTime::ZERO).is_some() {}
        let rst = TcpSegment {
            conn: conn_id(),
            from_client: false,
            syn: false,
            rst: true,
            ack_flag: false,
            seq: 0,
            len: 0,
            ack: 0,
            rwnd: 0,
            markers: vec![],
            sack: vec![],
        };
        let at = SimTime::ZERO + SimDuration::from_millis(20);
        client.on_packet(rst, at);
        assert!(client.is_closed());
        assert_eq!(client.close_reason(), Some(CloseReason::Refused));
        let closed = std::iter::from_fn(|| client.poll_event()).any(|e| {
            matches!(
                e,
                TcpEvent::Closed {
                    reason: CloseReason::Refused,
                    ..
                }
            )
        });
        assert!(closed, "the close must surface as an event");
        assert_eq!(client.next_timeout(), None, "all timers cleared");
        assert!(client.poll_transmit(at).is_none());
    }
}
