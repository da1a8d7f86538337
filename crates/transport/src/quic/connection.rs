//! The QUIC connection state machine: handshake, streams, ACK handling,
//! loss detection, PTO, and connection-level flow control.

use std::collections::VecDeque;

use h3cdn_sim_core::{SimDuration, SimTime};

use crate::cc::{CcAlgorithm, CongestionController};
use crate::conn_id::{ConnId, MsgTag};
use crate::duplex::Driveable;
use crate::handshake::{is_handshake_tag, quic_sizes, Action, Handshake, TlsVersion};
use crate::quic::streams::{RecvStream, SendStream, StreamTable};
use crate::quic::{Frame, QuicPacket, CRYPTO_STREAM, MAX_PAYLOAD};
use crate::rtt::RttEstimator;
use crate::seq_ring::SeqRing;
use crate::tls::Ticket;
use crate::CloseReason;

/// Configuration for one QUIC connection.
#[derive(Debug, Clone)]
pub struct QuicConfig {
    /// RTT estimate before the first sample.
    pub initial_rtt: SimDuration,
    /// Congestion-control algorithm.
    pub cc: CcAlgorithm,
    /// Maximum delay before a solicited ACK is sent.
    pub max_ack_delay: SimDuration,
    /// ACK after this many ack-eliciting packets.
    pub ack_eliciting_threshold: u32,
    /// Connection-level flow-control window.
    pub max_data: u64,
    /// Per-stream flow-control window.
    pub max_stream_data: u64,
    /// Give up on an incomplete handshake after this long. Without it a
    /// blackholed handshake retries PTO probes forever (capped backoff,
    /// no abort) and only the engine's event budget stops the run.
    pub handshake_timeout: SimDuration,
    /// Close after receiving nothing for this long (RFC 9000 §10.1). Our
    /// own retransmissions do not extend the deadline: only the first
    /// ack-eliciting send since the last receipt re-anchors it.
    pub idle_timeout: SimDuration,
    /// Server side: whether 0-RTT early data is accepted. When `false`
    /// the server still resumes the session but answers with a rejection,
    /// and the client downgrades to 1-RTT instead of failing.
    pub accept_early_data: bool,
}

impl Default for QuicConfig {
    fn default() -> Self {
        QuicConfig {
            initial_rtt: SimDuration::from_millis(100),
            cc: CcAlgorithm::default(),
            max_ack_delay: SimDuration::from_millis(25),
            ack_eliciting_threshold: 2,
            max_data: 16 << 20,       // 16 MiB
            max_stream_data: 4 << 20, // 4 MiB
            handshake_timeout: SimDuration::from_secs(10),
            idle_timeout: SimDuration::from_secs(30),
            accept_early_data: true,
        }
    }
}

/// Events surfaced by [`QuicConnection`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuicEvent {
    /// The combined transport + TLS handshake finished on this side.
    HandshakeComplete {
        /// Completion time.
        at: SimTime,
    },
    /// An application message was fully delivered in order on its stream.
    Delivered {
        /// Stream id.
        stream: u64,
        /// Application tag.
        tag: MsgTag,
        /// Delivery time.
        at: SimTime,
    },
    /// The server issued a session ticket (client side only).
    TicketIssued {
        /// Receipt time.
        at: SimTime,
    },
    /// The server rejected the 0-RTT early data this client sent; the
    /// connection transparently downgraded to 1-RTT (client side only).
    ZeroRttRejected {
        /// Rejection receipt time.
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

#[derive(Debug, Clone)]
enum RtxInfo {
    Stream { id: u64, offset: u64, len: u64 },
    MaxData,
    MaxStreamData { id: u64 },
}

#[derive(Debug)]
struct SentPacket {
    size: u64,
    sent_at: SimTime,
    frames: Vec<RtxInfo>,
}

/// Packet-number reordering threshold for loss declaration (RFC 9002).
const PACKET_THRESHOLD: u64 = 3;
/// Maximum ACK ranges carried per ACK frame.
const MAX_ACK_RANGES: usize = 32;
/// Cap on recycled buffers kept per connection (frame and rtx pools).
const POOL_CAP: usize = 32;

/// A sans-IO QUIC connection endpoint (one side).
#[derive(Debug)]
pub struct QuicConnection {
    id: ConnId,
    is_client: bool,
    config: QuicConfig,

    hs: Handshake,

    /// Set once the connection closed itself; afterwards it is inert.
    closed: Option<(SimTime, CloseReason)>,
    /// First packet receipt (server side: starts the handshake clock).
    first_activity: Option<SimTime>,
    /// RFC 9000 §10.1 idle anchor: last receipt, or the first
    /// ack-eliciting send since the last receipt.
    idle_anchor: Option<SimTime>,
    /// Whether an ack-eliciting packet left since the last receipt.
    sent_since_rx: bool,
    /// Server with `accept_early_data = false`: application messages
    /// delivered by 0-RTT data, as `(stream, tag)`, held back and
    /// released at handshake completion — the 1-RTT penalty of a
    /// rejected 0-RTT offer.
    deferred: Vec<(u64, MsgTag)>,

    cc: Box<dyn CongestionController>,
    rtt: RttEstimator,
    next_pn: u64,
    /// Ack-eliciting packets in flight, by packet number.
    sent: SeqRing<SentPacket>,
    bytes_in_flight: u64,
    largest_acked: Option<u64>,
    loss_time: Option<SimTime>,
    pto_count: u32,
    /// Start of the current congestion-recovery period: losses of packets
    /// sent before this instant belong to the same congestion event
    /// (RFC 9002 §7.3.1).
    recovery_start: Option<SimTime>,
    /// Packets' worth of congestion-window bypass granted for
    /// retransmitting lost data — the QUIC analogue of TCP's
    /// fast-retransmit exemption, so repairs are not starved by the very
    /// window reduction the loss caused.
    rtx_credit: u32,

    /// The handshake's send half ([`CRYPTO_STREAM`]).
    crypto_send: SendStream,
    /// The handshake's receive half.
    crypto_recv: RecvStream,
    /// Application streams: both halves, scheduling class and both
    /// flow-control limits, indexed by stream id.
    streams: StreamTable,
    /// Application streams with pending data (new or retransmission),
    /// ascending: exactly the ids of `streams` whose send half
    /// `has_pending()`, so the scheduler never walks a drained stream.
    active_streams: Vec<u64>,
    next_stream_id: u64,
    rr_cursor: u64,

    recv_ranges: Vec<(u64, u64)>,
    ack_eliciting_since_ack: u32,
    ack_timer: Option<SimTime>,
    ack_pending: bool,

    peer_max_data: u64,
    data_sent: u64,
    local_max_data: u64,
    data_received: u64,
    need_max_data: bool,
    /// Streams whose `MAX_STREAM_DATA` update must be sent, ascending.
    need_max_stream_data: Vec<u64>,

    events: VecDeque<QuicEvent>,
    retransmit_count: u64,

    /// Recycled `QuicPacket::frames` buffers: consumed incoming packets
    /// donate theirs, so steady-state sends allocate nothing.
    frame_pool: Vec<Vec<Frame>>,
    /// Recycled retransmission-info buffers (freed when a tracked packet
    /// is acked, declared lost, or probed).
    rtx_pool: Vec<Vec<RtxInfo>>,
    /// Scratch for the round-robin stream ids in `poll_transmit`.
    rr_scratch: Vec<u64>,
    /// Scratch for acked / lost packet numbers.
    pn_scratch: Vec<u64>,
}

impl QuicConnection {
    /// Creates the client side. `ticket` enables PSK resumption;
    /// `early_data` additionally sends queued stream data at 0-RTT.
    pub fn client(
        id: ConnId,
        config: QuicConfig,
        ticket: Option<Ticket>,
        early_data: bool,
    ) -> Self {
        let hs = Handshake::client(quic_sizes, TlsVersion::Tls13, ticket.is_some(), early_data);
        Self::new(id, true, config, hs)
    }

    /// Creates the server side.
    pub fn server(id: ConnId, config: QuicConfig) -> Self {
        let hs = Handshake::server(quic_sizes, config.accept_early_data);
        Self::new(id, false, config, hs)
    }

    fn new(id: ConnId, is_client: bool, config: QuicConfig, hs: Handshake) -> Self {
        let cc = config.cc.build();
        let rtt = RttEstimator::new(config.initial_rtt);
        let max_data = config.max_data;
        let streams = StreamTable::new(config.max_stream_data);
        QuicConnection {
            id,
            is_client,
            config,
            hs,
            closed: None,
            first_activity: None,
            idle_anchor: None,
            sent_since_rx: false,
            deferred: Vec::new(),
            cc,
            rtt,
            next_pn: 0,
            sent: SeqRing::default(),
            bytes_in_flight: 0,
            largest_acked: None,
            loss_time: None,
            pto_count: 0,
            recovery_start: None,
            rtx_credit: 0,
            crypto_send: SendStream::default(),
            crypto_recv: RecvStream::default(),
            streams,
            active_streams: Vec::new(),
            next_stream_id: 0,
            rr_cursor: 0,
            recv_ranges: Vec::new(),
            ack_eliciting_since_ack: 0,
            ack_timer: None,
            ack_pending: false,
            peer_max_data: max_data,
            data_sent: 0,
            local_max_data: max_data,
            data_received: 0,
            need_max_data: false,
            need_max_stream_data: Vec::new(),
            events: VecDeque::new(),
            retransmit_count: 0,
            frame_pool: Vec::new(),
            rtx_pool: Vec::new(),
            rr_scratch: Vec::new(),
            pn_scratch: Vec::new(),
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

    /// The handshake and its timing record.
    pub fn handshake(&self) -> &Handshake {
        &self.hs
    }

    /// When the handshake completed, if it has.
    pub fn handshake_complete_at(&self) -> Option<SimTime> {
        self.hs.handshake_complete_at()
    }

    /// Whether the connection closed itself (handshake or idle timeout).
    pub fn is_closed(&self) -> bool {
        self.closed.is_some()
    }

    /// Why the connection closed, if it did.
    pub fn close_reason(&self) -> Option<CloseReason> {
        self.closed.map(|(_, reason)| reason)
    }

    /// Packets declared lost and re-queued so far.
    pub fn retransmit_count(&self) -> u64 {
        self.retransmit_count
    }

    /// Bytes queued across all send streams (new plus retransmission),
    /// for diagnostics and idle detection.
    pub fn pending_send_bytes(&self) -> u64 {
        self.crypto_send.pending_bytes()
            + self
                .streams
                .iter()
                .map(|(_, s)| s.send.pending_bytes())
                .sum::<u64>()
    }

    /// Highest first-transmission offset of `stream` (diagnostics; also
    /// the reference point for its peer flow-control limit).
    pub fn stream_sent_watermark(&self, stream: u64) -> u64 {
        if stream == CRYPTO_STREAM {
            return self.crypto_send.sent_watermark();
        }
        self.streams
            .get(stream)
            .map_or(0, |s| s.send.sent_watermark())
    }

    /// The RTT estimator (diagnostics).
    pub fn rtt(&self) -> &RttEstimator {
        &self.rtt
    }

    /// Starts the handshake (client side).
    ///
    /// # Panics
    ///
    /// Panics if called on a server endpoint or twice.
    pub fn connect(&mut self, now: SimTime) {
        self.hs.connect(now);
        let (len, tag) = self.hs.client_hello(now, !self.active_streams.is_empty());
        self.crypto_write(len, tag);
    }

    /// Opens a new client-initiated bidirectional stream.
    pub fn open_stream(&mut self) -> u64 {
        let id = self.next_stream_id;
        self.next_stream_id += 4;
        self.streams.open(id);
        id
    }

    /// Sets the scheduling class of `stream` (lower values are sent
    /// first; unset streams default to class 1). The wire analogue is
    /// HTTP/3's PRIORITY_UPDATE.
    pub fn set_stream_priority(&mut self, stream: u64, priority: u8) {
        if let Some(s) = self.streams.open(stream) {
            s.priority = priority;
        }
    }

    /// Writes an application message on `stream`.
    pub fn write_stream(&mut self, stream: u64, len: u64, tag: MsgTag) {
        debug_assert_ne!(stream, CRYPTO_STREAM, "crypto stream is internal");
        if let Some(s) = self.streams.open(stream) {
            s.send.write(len, tag);
        }
        self.index_stream(stream);
        debug_assert!(self.active_index_is_exact(), "stale active-stream index");
        self.hs.on_app_write();
    }

    /// Pops the next pending event.
    pub fn poll_event(&mut self) -> Option<QuicEvent> {
        self.events.pop_front()
    }
}

impl Driveable for QuicConnection {
    type Wire = QuicPacket;

    fn on_packet(&mut self, pkt: QuicPacket, now: SimTime) {
        debug_assert_eq!(pkt.conn, self.id, "packet routed to wrong connection");
        debug_assert_ne!(
            pkt.from_client, self.is_client,
            "packet reflected to its sender"
        );
        if self.closed.is_some() {
            return; // silently dropped, like an undecryptable packet
        }
        self.first_activity.get_or_insert(now);
        self.idle_anchor = Some(now);
        self.sent_since_rx = false;
        let gap = self.record_received(pkt.pn);
        if pkt.is_ack_eliciting() {
            self.ack_eliciting_since_ack += 1;
            // RFC 9000 §13.2.1: acknowledge immediately when the packet
            // creates or follows a gap — that is the peer's loss signal.
            if gap
                || self.ack_eliciting_since_ack >= self.config.ack_eliciting_threshold
                || self.hs.handshake_complete_at().is_none()
            {
                self.ack_pending = true;
                self.ack_timer = None;
            } else if self.ack_timer.is_none() {
                self.ack_timer = Some(now + self.config.max_ack_delay);
            }
        }
        let mut frames = pkt.frames;
        for frame in frames.drain(..) {
            match frame {
                Frame::Stream {
                    id,
                    offset,
                    len,
                    markers,
                } => self.on_stream_frame(id, offset, len, &markers, now),
                Frame::Ack { ranges } => self.on_ack(&ranges, now),
                Frame::MaxData { max } => {
                    self.peer_max_data = self.peer_max_data.max(max);
                }
                Frame::MaxStreamData { id, max } => {
                    if let Some(s) = self.streams.open(id) {
                        s.peer_limit = s.peer_limit.max(max);
                    }
                }
                Frame::ConnectionRefused => {
                    // The server's admission controller shed this
                    // connection; nothing after the refusal matters.
                    self.close(now, CloseReason::Refused);
                    break;
                }
            }
        }
        // The consumed packet donates its frame buffer to the send path.
        if self.frame_pool.len() < POOL_CAP {
            self.frame_pool.push(frames);
        }
    }

    fn poll_transmit(&mut self, now: SimTime) -> Option<QuicPacket> {
        if self.closed.is_some() {
            return None;
        }
        let mut frames: Vec<Frame> = self.frame_pool.pop().unwrap_or_default();
        let mut budget = MAX_PAYLOAD;
        let mut rtx_info: Vec<RtxInfo> = self.rtx_pool.pop().unwrap_or_default();
        let mut stream_payload = 0u64;

        if self.ack_pending {
            let ranges = self.ack_ranges_descending();
            if !ranges.is_empty() {
                let f = Frame::Ack { ranges };
                budget = budget.saturating_sub(f.size());
                frames.push(f);
            }
            self.ack_pending = false;
            self.ack_eliciting_since_ack = 0;
            self.ack_timer = None;
        }
        if self.need_max_data && budget >= 9 {
            self.need_max_data = false;
            frames.push(Frame::MaxData {
                max: self.local_max_data,
            });
            budget -= 9;
            rtx_info.push(RtxInfo::MaxData);
        }
        while budget >= 13 && !self.need_max_stream_data.is_empty() {
            let id = self.need_max_stream_data.remove(0);
            let max = self
                .streams
                .get(id)
                .map_or(self.config.max_stream_data, |s| s.local_limit);
            frames.push(Frame::MaxStreamData { id, max });
            budget -= 13;
            rtx_info.push(RtxInfo::MaxStreamData { id });
        }

        // Crypto data is exempt from app-readiness and flow control but
        // still paced by the congestion window. Retransmission credit
        // bypasses the (just-halved) window so repairs go out at once.
        let bypass = self.rtx_credit > 0;
        let cwnd_room = if bypass {
            MAX_PAYLOAD * 2
        } else {
            self.cc.window().saturating_sub(self.bytes_in_flight)
        };
        let mut data_room = cwnd_room;
        while budget > 12 && data_room > 12 {
            let Some((offset, len, markers)) = self
                .crypto_send
                .take((budget - 12).min(data_room.saturating_sub(12)))
            else {
                break;
            };
            budget -= 12 + len;
            data_room = data_room.saturating_sub(12 + len);
            rtx_info.push(RtxInfo::Stream {
                id: CRYPTO_STREAM,
                offset,
                len,
            });
            frames.push(Frame::Stream {
                id: CRYPTO_STREAM,
                offset,
                len,
                markers,
            });
        }

        if self.hs.can_send() {
            let fc_room = self.peer_max_data.saturating_sub(self.data_sent);
            let mut app_room = data_room.min(fc_room);
            // Strict priority across classes, round-robin within the
            // top class. First pass: the top (minimum) class among
            // streams with pending data.
            let mut top: Option<u8> = None;
            for &id in &self.active_streams {
                let prio = self.streams.get(id).map_or(1, |s| s.priority);
                top = Some(top.map_or(prio, |t| t.min(prio)));
            }
            // Second pass: the top class's stream ids (ascending, the
            // index's order) and their total backlog, into a reused buffer.
            let mut ids = std::mem::take(&mut self.rr_scratch);
            ids.clear();
            let mut total_pending = 0u64;
            if let Some(top) = top {
                for &id in &self.active_streams {
                    let Some(s) = self.streams.get(id) else {
                        continue;
                    };
                    if s.priority == top {
                        ids.push(id);
                        total_pending += s.send.pending_bytes();
                    }
                }
            }
            // Anti-amplification of tiny packets (the TCP world's
            // silly-window avoidance): when congestion-limited, wait for
            // ACKs instead of emitting sliver packets — unless what is
            // left genuinely is a sliver.
            if !bypass && app_room < total_pending.min(MAX_PAYLOAD) {
                app_room = 0;
            }
            if !ids.is_empty() {
                // Round-robin fairness across streams, one frame each per
                // revolution, so concurrent responses interleave the way
                // multiplexed H2/H3 transfers do.
                let start = ids.iter().position(|&id| id > self.rr_cursor).unwrap_or(0);
                let mut i = start;
                let mut visited = 0;
                while visited < ids.len() && budget > 12 && app_room > 12 {
                    let Some(&id) = ids.get(i) else { break };
                    let Some(stream) = self.streams.get_mut(id) else {
                        // A listed id without a stream entry cannot occur
                        // (the index holds only the table's ids); skip it
                        // rather than panic.
                        i = (i + 1) % ids.len().max(1);
                        visited += 1;
                        continue;
                    };
                    let flow_limit = stream.peer_limit;
                    if let Some((offset, len, markers)) = stream
                        .send
                        .take_limited((budget - 12).min(app_room - 12), flow_limit)
                    {
                        let drained = !stream.send.has_pending();
                        budget -= 12 + len;
                        app_room -= (12 + len).min(app_room);
                        stream_payload += len;
                        self.rr_cursor = id;
                        rtx_info.push(RtxInfo::Stream { id, offset, len });
                        frames.push(Frame::Stream {
                            id,
                            offset,
                            len,
                            markers,
                        });
                        if drained {
                            if let Ok(at) = self.active_streams.binary_search(&id) {
                                self.active_streams.remove(at);
                            }
                        }
                    }
                    i = (i + 1) % ids.len();
                    visited += 1;
                }
            }
            self.rr_scratch = ids;
        }

        debug_assert!(self.active_index_is_exact(), "stale active-stream index");
        if frames.is_empty() {
            // Keep both (still empty) buffers for the next call.
            self.frame_pool.push(frames);
            self.rtx_pool.push(rtx_info);
            return None;
        }
        let pn = self.next_pn;
        self.next_pn += 1;
        let pkt = QuicPacket {
            conn: self.id,
            from_client: self.is_client,
            pn,
            frames,
        };
        if pkt.is_ack_eliciting() {
            // RFC 9000 §10.1: only the *first* ack-eliciting send since
            // the last receipt re-anchors the idle deadline — a PTO loop
            // into a blackhole cannot postpone it indefinitely.
            if !self.sent_since_rx {
                self.sent_since_rx = true;
                self.idle_anchor = Some(now);
            }
            let size = pkt.wire_bytes();
            self.sent.insert(
                pn,
                SentPacket {
                    size,
                    sent_at: now,
                    frames: rtx_info,
                },
            );
            self.bytes_in_flight += size;
            self.cc.on_packet_sent(size, now);
            self.data_sent += stream_payload;
            if bypass {
                self.rtx_credit -= 1;
            }
        } else {
            reclaim_rtx(&mut self.rtx_pool, rtx_info);
        }
        Some(pkt)
    }

    /// Next timer deadline (loss timer, PTO, delayed-ACK timer,
    /// handshake deadline, or idle deadline).
    fn next_timeout(&self) -> Option<SimTime> {
        if self.closed.is_some() {
            return None;
        }
        [
            self.loss_time,
            self.pto_deadline(),
            self.ack_timer,
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
        if let Some(t) = self.ack_timer {
            if t <= now {
                self.ack_timer = None;
                self.ack_pending = true;
            }
        }
        if let Some(t) = self.loss_time {
            if t <= now {
                self.detect_lost(now);
            }
        }
        if let Some(t) = self.pto_deadline() {
            if t <= now {
                self.on_pto(now);
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

impl QuicConnection {
    // ---- internals ----

    /// Deadline for an incomplete handshake: client-side from `connect`,
    /// server-side from the first received packet.
    fn handshake_deadline(&self) -> Option<SimTime> {
        if self.hs.handshake_complete_at().is_some() {
            return None;
        }
        let start = self.hs.connect_started_at().or(self.first_activity)?;
        Some(start + self.config.handshake_timeout)
    }

    fn idle_deadline(&self) -> Option<SimTime> {
        Some(self.idle_anchor? + self.config.idle_timeout)
    }

    /// Closes the connection silently: every timer is disarmed and no
    /// further packet leaves, so a close has no wire footprint (a CLOSE
    /// frame into a blackhole would be lost anyway).
    fn close(&mut self, now: SimTime, reason: CloseReason) {
        if self.closed.is_some() {
            return;
        }
        self.closed = Some((now, reason));
        self.loss_time = None;
        self.ack_timer = None;
        self.ack_pending = false;
        self.sent.clear();
        self.bytes_in_flight = 0;
        self.need_max_data = false;
        self.need_max_stream_data.clear();
        self.events.push_back(QuicEvent::Closed { at: now, reason });
    }

    fn crypto_write(&mut self, len: u64, tag: MsgTag) {
        self.crypto_send.write(len, tag);
    }

    fn on_stream_frame(
        &mut self,
        id: u64,
        offset: u64,
        len: u64,
        markers: &[(u64, MsgTag)],
        now: SimTime,
    ) {
        let fired = if id == CRYPTO_STREAM {
            self.crypto_recv.on_frame(offset, len, markers, now)
        } else {
            let Some(stream) = self.streams.open(id) else {
                return;
            };
            let before = stream.recv.delivered_bytes();
            let fired = stream.recv.on_frame(offset, len, markers, now);
            let delivered = stream.recv.delivered_bytes();
            let window = self.config.max_stream_data;
            let credit_low = stream.local_limit - delivered < window / 2;
            if credit_low {
                stream.local_limit = delivered + window;
            }
            self.data_received += delivered - before;
            if self.local_max_data - self.data_received < self.config.max_data / 2 {
                self.local_max_data = self.data_received + self.config.max_data;
                self.need_max_data = true;
            }
            if credit_low {
                self.need_stream_credit(id);
            }
            fired
        };
        for (tag, at) in fired {
            if is_handshake_tag(tag) {
                self.on_crypto_message(tag, at);
            } else if !self.is_client
                && !self.config.accept_early_data
                && self.hs.handshake_complete_at().is_none()
            {
                // Refused early data is undecryptable in reality, so it
                // must not surface before the 1-RTT keys exist.
                self.deferred.push((id, tag));
            } else {
                self.events.push_back(QuicEvent::Delivered {
                    stream: id,
                    tag,
                    at,
                });
            }
        }
    }

    fn on_crypto_message(&mut self, tag: MsgTag, at: SimTime) {
        for action in self.hs.on_message(tag, at) {
            match action {
                Action::Send(len, tag) => self.crypto_write(len, tag),
                Action::EarlyDataRefused => {
                    self.events.push_back(QuicEvent::ZeroRttRejected { at });
                }
                Action::Complete => {
                    self.events.push_back(QuicEvent::HandshakeComplete { at });
                    // Release what a refused 0-RTT offer delivered,
                    // stamped now: it became readable with the 1-RTT keys.
                    for (stream, tag) in std::mem::take(&mut self.deferred) {
                        self.events
                            .push_back(QuicEvent::Delivered { stream, tag, at });
                    }
                }
                Action::TicketReceived => self.events.push_back(QuicEvent::TicketIssued { at }),
            }
        }
    }

    /// Records `pn` as received; returns `true` when the packet arrives
    /// out of order — it opens a new gap, duplicates, or lands while
    /// earlier packets are still missing. RFC 9000 §13.2.1: such packets
    /// are ACKed immediately so the peer learns about losses within one
    /// flight time (the QUIC analogue of TCP's immediate duplicate
    /// ACKs). Handles arbitrary arrival order (jittery paths reorder).
    fn record_received(&mut self, pn: u64) -> bool {
        let largest_before = self.recv_ranges.last().map(|&(_, hi)| hi);
        // Find the first range that could contain or touch pn.
        let mut i = 0;
        while self.recv_ranges.get(i).is_some_and(|&(_, hi)| hi + 1 < pn) {
            i += 1;
        }
        match self.recv_ranges.get(i).copied() {
            None => self.recv_ranges.push((pn, pn)),
            Some((lo, hi)) if pn >= lo && pn <= hi => {
                return true; // duplicate
            }
            Some((_, hi)) if pn == hi + 1 => {
                if let Some(range) = self.recv_ranges.get_mut(i) {
                    range.1 = pn;
                }
                // Merge with the next range if now contiguous.
                if let Some((_, next_hi)) = self
                    .recv_ranges
                    .get(i + 1)
                    .copied()
                    .filter(|&(next_lo, _)| next_lo == pn + 1)
                {
                    self.recv_ranges.remove(i + 1);
                    if let Some(range) = self.recv_ranges.get_mut(i) {
                        range.1 = next_hi;
                    }
                }
            }
            Some((lo, _)) if pn + 1 == lo => {
                if let Some(range) = self.recv_ranges.get_mut(i) {
                    range.0 = pn;
                }
            }
            Some(_) => self.recv_ranges.insert(i, (pn, pn)),
        }
        if self.recv_ranges.len() > 64 {
            self.recv_ranges.remove(0);
        }
        // In order = extends the previous largest contiguously and leaves
        // no holes behind.
        let in_order = largest_before.is_none_or(|l| pn == l + 1) && self.recv_ranges.len() == 1;
        !in_order
    }

    fn ack_ranges_descending(&self) -> Vec<(u64, u64)> {
        self.recv_ranges
            .iter()
            .rev()
            .take(MAX_ACK_RANGES)
            .copied()
            .collect()
    }

    fn on_ack(&mut self, ranges: &[(u64, u64)], now: SimTime) {
        let Some(&largest) = ranges.iter().map(|(_, hi)| hi).max() else {
            return;
        };
        self.largest_acked = Some(self.largest_acked.map_or(largest, |l| l.max(largest)));

        // Newly acked packets leave in ascending packet number; the RTT
        // sample comes from the largest acked one if it is among them.
        let mut any_acked = false;
        let (bytes_in_flight, cc, rtt, rtx_pool) = (
            &mut self.bytes_in_flight,
            &mut self.cc,
            &mut self.rtt,
            &mut self.rtx_pool,
        );
        self.sent.drain_ranges(ranges, |pn, info| {
            any_acked = true;
            *bytes_in_flight = bytes_in_flight.saturating_sub(info.size);
            cc.on_ack(info.size, now);
            if pn == largest {
                let sample = now - info.sent_at;
                rtt.on_sample(sample);
                cc.on_rtt_sample(sample, now);
            }
            reclaim_rtx(rtx_pool, std::mem::take(&mut info.frames));
        });
        if !any_acked {
            // Still re-evaluate time-threshold losses against the (possibly
            // new) largest acked.
            self.detect_lost(now);
            return;
        }
        self.pto_count = 0;
        self.detect_lost(now);
    }

    fn detect_lost(&mut self, now: SimTime) {
        self.loss_time = None;
        let Some(largest_acked) = self.largest_acked else {
            return;
        };
        let loss_delay = self.rtt.loss_delay();
        let mut lost = std::mem::take(&mut self.pn_scratch);
        lost.clear();
        let mut next_loss_time: Option<SimTime> = None;
        for (pn, info) in self.sent.iter() {
            if pn >= largest_acked {
                break;
            }
            let by_packets = largest_acked >= pn + PACKET_THRESHOLD;
            let lost_at = info.sent_at + loss_delay;
            if by_packets || lost_at <= now {
                lost.push(pn);
            } else {
                next_loss_time = Some(next_loss_time.map_or(lost_at, |t| t.min(lost_at)));
            }
        }
        self.loss_time = next_loss_time;
        if lost.is_empty() {
            self.pn_scratch = lost;
            return;
        }
        let mut newest_lost_sent = SimTime::ZERO;
        for &pn in &lost {
            // `lost` came from `sent`'s own keys; tolerate a vanished
            // entry the same way `on_ack` does.
            let Some(info) = self.sent.remove(pn) else {
                continue;
            };
            self.bytes_in_flight = self.bytes_in_flight.saturating_sub(info.size);
            newest_lost_sent = newest_lost_sent.max(info.sent_at);
            self.requeue(info.frames);
            self.retransmit_count += 1;
            self.rtx_credit = self.rtx_credit.saturating_add(1);
        }
        self.pn_scratch = lost;
        // RFC 9002 §7.3.1: one congestion event per recovery period —
        // only losses of packets sent after recovery started count as a
        // new event.
        let new_event = match self.recovery_start {
            Some(start) => newest_lost_sent > start,
            None => true,
        };
        if new_event {
            self.recovery_start = Some(now);
            self.cc.on_congestion_event(now);
        }
    }

    fn on_pto(&mut self, now: SimTime) {
        self.pto_count = (self.pto_count + 1).min(10);
        if self.pto_count >= 3 {
            self.cc.on_timeout(now);
        }
        // Probe by re-sending the oldest unacked packet's frames.
        if let Some((_, info)) = self.sent.pop_first() {
            self.bytes_in_flight = self.bytes_in_flight.saturating_sub(info.size);
            self.requeue(info.frames);
            self.retransmit_count += 1;
            self.rtx_credit = self.rtx_credit.saturating_add(1);
        }
    }

    fn requeue(&mut self, mut frames: Vec<RtxInfo>) {
        for f in frames.drain(..) {
            match f {
                RtxInfo::Stream { id, offset, len } if id == CRYPTO_STREAM => {
                    self.crypto_send.requeue(offset, len);
                }
                RtxInfo::Stream { id, offset, len } => {
                    if let Some(s) = self.streams.open(id) {
                        s.send.requeue(offset, len);
                    }
                    self.index_stream(id);
                }
                RtxInfo::MaxData => self.need_max_data = true,
                RtxInfo::MaxStreamData { id } => self.need_stream_credit(id),
            }
        }
        reclaim_rtx(&mut self.rtx_pool, frames);
        debug_assert!(self.active_index_is_exact(), "stale active-stream index");
    }

    /// Adds `id` to the active-stream index once its send stream has
    /// pending data, and drops it once the stream drained.
    fn index_stream(&mut self, id: u64) {
        let pending = self.streams.get(id).is_some_and(|s| s.send.has_pending());
        match (self.active_streams.binary_search(&id), pending) {
            (Err(at), true) => self.active_streams.insert(at, id),
            (Ok(at), false) => {
                self.active_streams.remove(at);
            }
            _ => {}
        }
    }

    /// Whether `active_streams` lists exactly the application streams
    /// with pending data, ascending.
    fn active_index_is_exact(&self) -> bool {
        self.streams
            .iter()
            .filter(|(_, s)| s.send.has_pending())
            .map(|(id, _)| id)
            .eq(self.active_streams.iter().copied())
    }

    /// Queues a `MAX_STREAM_DATA` update for stream `id`.
    fn need_stream_credit(&mut self, id: u64) {
        if let Err(at) = self.need_max_stream_data.binary_search(&id) {
            self.need_max_stream_data.insert(at, id);
        }
    }

    fn pto_deadline(&self) -> Option<SimTime> {
        // Packet numbers are assigned in send order and `now` never goes
        // backwards, so the first tracked packet is also the oldest.
        let oldest = self.sent.first().map(|(_, p)| p.sent_at)?;
        let backoff = 1u64 << self.pto_count.min(10);
        Some(oldest + self.rtt.pto(self.config.max_ack_delay) * backoff)
    }
}

/// Returns a drained retransmission-info buffer to `pool`.
fn reclaim_rtx(pool: &mut Vec<Vec<RtxInfo>>, mut v: Vec<RtxInfo>) {
    if pool.len() < POOL_CAP {
        v.clear();
        pool.push(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::duplex::Duplex;
    use h3cdn_netsim::NodeId;

    const RTT_MS: u64 = 40;

    fn make_pair(ticket: Option<Ticket>, early: bool) -> Duplex<QuicConnection, QuicConnection> {
        let id = ConnId::new(NodeId::from_raw(0), NodeId::from_raw(1), 1);
        let cfg = QuicConfig {
            initial_rtt: SimDuration::from_millis(RTT_MS),
            ..QuicConfig::default()
        };
        let client = QuicConnection::client(id, cfg.clone(), ticket, early);
        let server = QuicConnection::server(id, cfg);
        Duplex::new(client, server, SimDuration::from_millis(RTT_MS / 2))
    }

    fn ticket() -> Ticket {
        Ticket {
            domain: 1,
            issued_at: SimTime::ZERO,
            lifetime: SimDuration::from_secs(7200),
        }
    }

    fn drain(c: &mut QuicConnection) -> Vec<QuicEvent> {
        std::iter::from_fn(|| c.poll_event()).collect()
    }

    fn ms(v: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(v)
    }

    fn delivery_time(events: &[QuicEvent], want: MsgTag) -> Option<SimTime> {
        events.iter().find_map(|e| match e {
            QuicEvent::Delivered { tag, at, .. } if *tag == want => Some(*at),
            _ => None,
        })
    }

    #[test]
    fn handshake_completes_in_one_rtt() {
        let mut pipe = make_pair(None, false);
        pipe.a.connect(SimTime::ZERO);
        pipe.run(200_000);
        let ev = drain(&mut pipe.a);
        let at = ev
            .iter()
            .find_map(|e| match e {
                QuicEvent::HandshakeComplete { at } => Some(*at),
                _ => None,
            })
            .expect("handshake");
        assert_eq!(at, ms(RTT_MS), "combined handshake is 1 RTT");
    }

    #[test]
    fn request_reaches_server_at_one_and_a_half_rtt() {
        let mut pipe = make_pair(None, false);
        let stream = pipe.a.open_stream();
        pipe.a.write_stream(stream, 400, MsgTag(1));
        pipe.a.connect(SimTime::ZERO);
        pipe.run(200_000);
        let sev = drain(&mut pipe.b);
        assert_eq!(
            delivery_time(&sev, MsgTag(1)),
            Some(ms(3 * RTT_MS / 2)),
            "request waits for the 1-RTT handshake then crosses in 0.5 RTT"
        );
    }

    #[test]
    fn zero_rtt_request_reaches_server_in_half_rtt() {
        let mut pipe = make_pair(Some(ticket()), true);
        let stream = pipe.a.open_stream();
        pipe.a.write_stream(stream, 400, MsgTag(1));
        pipe.a.connect(SimTime::ZERO);
        pipe.run(200_000);
        assert!(pipe.a.handshake().used_early_data());
        let sev = drain(&mut pipe.b);
        assert_eq!(
            delivery_time(&sev, MsgTag(1)),
            Some(ms(RTT_MS / 2)),
            "0-RTT data rides with the ClientInitial"
        );
        assert!(pipe.b.handshake().was_resumed());
    }

    #[test]
    fn server_sees_stream_opened_and_can_respond() {
        let mut pipe = make_pair(None, false);
        let stream = pipe.a.open_stream();
        pipe.a.write_stream(stream, 400, MsgTag(1));
        pipe.a.connect(SimTime::ZERO);
        pipe.run(200_000);
        let sev = drain(&mut pipe.b);
        let request_stream = sev.iter().find_map(|e| match e {
            QuicEvent::Delivered { stream, .. } => Some(*stream),
            _ => None,
        });
        assert_eq!(request_stream, Some(stream));
        pipe.b.write_stream(stream, 20_000, MsgTag(2));
        pipe.run(200_000);
        let cev = drain(&mut pipe.a);
        assert!(delivery_time(&cev, MsgTag(2)).is_some());
    }

    #[test]
    fn ticket_issued_to_client() {
        let mut pipe = make_pair(None, false);
        pipe.a.connect(SimTime::ZERO);
        pipe.run(200_000);
        let cev = drain(&mut pipe.a);
        assert_eq!(
            cev.iter()
                .filter(|e| matches!(e, QuicEvent::TicketIssued { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn loss_on_one_stream_does_not_delay_the_other() {
        // Two 5 KB responses on separate streams (well inside the initial
        // congestion window, so a post-loss window cut cannot slow the
        // un-hit stream); drop one mid-transfer server packet. The un-hit
        // stream must finish at the loss-free time — no cross-stream HoL —
        // while the hit stream finishes late.
        let run = |drop: Vec<u64>| {
            let mut pipe = make_pair(None, false).drop_b_to_a(drop);
            let s1 = pipe.a.open_stream();
            let s2 = pipe.a.open_stream();
            pipe.a.write_stream(s1, 100, MsgTag(1));
            pipe.a.write_stream(s2, 100, MsgTag(2));
            pipe.a.connect(SimTime::ZERO);
            pipe.run(400_000);
            pipe.b.write_stream(s1, 5_000, MsgTag(11));
            pipe.b.write_stream(s2, 5_000, MsgTag(12));
            pipe.run(400_000);
            let cev = drain(&mut pipe.a);
            (
                delivery_time(&cev, MsgTag(11)).unwrap(),
                delivery_time(&cev, MsgTag(12)).unwrap(),
                pipe.b.retransmit_count(),
            )
        };
        let (clean_a, clean_b, _) = run(vec![]);
        // Drop a mid-burst data packet from the server (indices 0..4 are
        // the handshake flight; 6 lands inside the response burst).
        let (lossy_a, lossy_b, rtx) = run(vec![6]);
        assert!(rtx > 0, "drop must cause retransmission");
        let clean_min = clean_a.min(clean_b);
        let lossy_min = lossy_a.min(lossy_b);
        let clean_max = clean_a.max(clean_b);
        let lossy_max = lossy_a.max(lossy_b);
        assert_eq!(
            lossy_min, clean_min,
            "the stream the loss missed must be completely unaffected"
        );
        assert!(
            lossy_max > clean_max,
            "the stream the loss hit must be delayed"
        );
    }

    #[test]
    fn blackout_of_server_flight_recovers_via_pto() {
        // Swallow the server's first several packets; the handshake must
        // still complete through probes/retransmission.
        let mut pipe = make_pair(None, false).drop_b_to_a(vec![0, 1, 2, 3]);
        pipe.a.connect(SimTime::ZERO);
        pipe.run(1_000_000);
        assert!(
            pipe.a.handshake_complete_at().is_some(),
            "handshake recovered"
        );
        assert!(
            pipe.a.handshake_complete_at().unwrap() > ms(3 * RTT_MS),
            "recovery must have cost extra time"
        );
    }

    #[test]
    fn large_transfer_under_scripted_loss_completes() {
        let mut pipe = make_pair(None, false).drop_b_to_a(vec![7, 13, 19, 31]);
        let s = pipe.a.open_stream();
        pipe.a.write_stream(s, 200, MsgTag(1));
        pipe.a.connect(SimTime::ZERO);
        pipe.run(400_000);
        pipe.b.write_stream(s, 400_000, MsgTag(9));
        pipe.run(2_000_000);
        let cev = drain(&mut pipe.a);
        assert!(delivery_time(&cev, MsgTag(9)).is_some());
        assert!(pipe.b.retransmit_count() >= 4);
    }

    #[test]
    fn stream_flow_control_paces_one_stream_without_stalling_others() {
        let id = ConnId::new(NodeId::from_raw(0), NodeId::from_raw(1), 1);
        let cfg = QuicConfig {
            initial_rtt: SimDuration::from_millis(RTT_MS),
            max_stream_data: 8_000,
            ..QuicConfig::default()
        };
        let client = QuicConnection::client(id, cfg.clone(), None, false);
        let server = QuicConnection::server(id, cfg);
        let mut pipe = Duplex::new(client, server, SimDuration::from_millis(RTT_MS / 2));
        let s1 = pipe.a.open_stream();
        let s2 = pipe.a.open_stream();
        pipe.a.write_stream(s1, 100, MsgTag(1));
        pipe.a.write_stream(s2, 100, MsgTag(2));
        pipe.a.connect(SimTime::ZERO);
        pipe.run(400_000);
        // A large response on s1 must round-trip MAX_STREAM_DATA credit;
        // a small response on s2 is unaffected by s1's limit.
        pipe.b.write_stream(s1, 64_000, MsgTag(11));
        pipe.b.write_stream(s2, 4_000, MsgTag(12));
        pipe.run(1_000_000);
        let cev = drain(&mut pipe.a);
        let big = delivery_time(&cev, MsgTag(11)).expect("credited stream completes");
        let small = delivery_time(&cev, MsgTag(12)).expect("small stream completes");
        assert!(
            big > small + SimDuration::from_millis(2 * RTT_MS),
            "64 KB through an 8 KB stream window needs credit round trips: {small} vs {big}"
        );
    }

    #[test]
    fn flow_control_paces_but_does_not_deadlock() {
        let id = ConnId::new(NodeId::from_raw(0), NodeId::from_raw(1), 1);
        let small = QuicConfig {
            initial_rtt: SimDuration::from_millis(RTT_MS),
            max_data: 10_000,
            ..QuicConfig::default()
        };
        let client = QuicConnection::client(id, small.clone(), None, false);
        let server = QuicConnection::server(id, small);
        let mut pipe = Duplex::new(client, server, SimDuration::from_millis(RTT_MS / 2));
        let s = pipe.a.open_stream();
        pipe.a.write_stream(s, 100, MsgTag(1));
        pipe.a.connect(SimTime::ZERO);
        pipe.run(400_000);
        pipe.b.write_stream(s, 100_000, MsgTag(2));
        pipe.run(4_000_000);
        let cev = drain(&mut pipe.a);
        let at = delivery_time(&cev, MsgTag(2)).expect("must complete via MAX_DATA updates");
        // 100 KB through a 10 KB window takes ≥ 10 credit round trips.
        assert!(at > ms(5 * RTT_MS), "flow control must pace: {at}");
    }

    #[test]
    fn slow_start_growth_bounds_transfer_time() {
        let mut pipe = make_pair(None, false);
        let s = pipe.a.open_stream();
        pipe.a.write_stream(s, 100, MsgTag(1));
        pipe.a.connect(SimTime::ZERO);
        pipe.run(400_000);
        pipe.b.write_stream(s, 500_000, MsgTag(2));
        pipe.run(4_000_000);
        let cev = drain(&mut pipe.a);
        let at = delivery_time(&cev, MsgTag(2)).unwrap();
        let elapsed = at.as_millis_f64();
        assert!(elapsed > 3.0 * RTT_MS as f64, "too fast: {elapsed}ms");
        assert!(elapsed < 15.0 * RTT_MS as f64, "too slow: {elapsed}ms");
    }

    #[test]
    #[should_panic(expected = "client-side only")]
    fn server_cannot_connect() {
        let id = ConnId::new(NodeId::from_raw(0), NodeId::from_raw(1), 1);
        let mut server = QuicConnection::server(id, QuicConfig::default());
        server.connect(SimTime::ZERO);
    }

    /// Drives a lone endpoint's timers to quiescence (total blackhole:
    /// everything it sends vanishes, nothing ever arrives).
    fn run_timers_into_blackhole(conn: &mut QuicConnection) {
        let mut guard = 0;
        while let Some(t) = conn.next_timeout() {
            conn.on_timeout(t);
            while conn.poll_transmit(t).is_some() {}
            guard += 1;
            assert!(guard < 10_000, "timer loop must converge");
        }
    }

    #[test]
    fn blackholed_handshake_times_out_with_typed_event() {
        // No peer at all: every packet vanishes. Pre-timeout behaviour
        // was an unbounded PTO retry loop; now the connection gives up
        // at exactly connect + handshake_timeout.
        let id = ConnId::new(NodeId::from_raw(0), NodeId::from_raw(1), 1);
        let cfg = QuicConfig::default();
        let deadline = SimTime::ZERO + cfg.handshake_timeout;
        let mut client = QuicConnection::client(id, cfg, None, false);
        client.connect(SimTime::ZERO);
        while client.poll_transmit(SimTime::ZERO).is_some() {}
        run_timers_into_blackhole(&mut client);
        assert!(client.is_closed());
        assert_eq!(
            client.close_reason(),
            Some(crate::CloseReason::HandshakeTimeout)
        );
        let ev = drain(&mut client);
        assert!(
            ev.contains(&QuicEvent::Closed {
                at: deadline,
                reason: crate::CloseReason::HandshakeTimeout,
            }),
            "typed close event at the exact deadline: {ev:?}"
        );
        // Closed means inert: no timers, no packets.
        assert_eq!(client.next_timeout(), None);
        assert!(client.poll_transmit(deadline).is_none());
    }

    #[test]
    fn established_connection_idle_times_out_when_path_goes_dark() {
        let mut pipe = make_pair(None, false);
        pipe.a.connect(SimTime::ZERO);
        // Runs to full quiescence: the transfer ends, then both sides
        // sit idle until the RFC 9000 idle timer closes them.
        pipe.run_to_close(400_000);
        assert!(pipe.a.handshake_complete_at().is_some());
        assert_eq!(pipe.a.close_reason(), Some(crate::CloseReason::IdleTimeout));
        assert_eq!(pipe.b.close_reason(), Some(crate::CloseReason::IdleTimeout));
        let ev = drain(&mut pipe.a);
        let closed_at = ev
            .iter()
            .find_map(|e| match e {
                QuicEvent::Closed { at, .. } => Some(*at),
                _ => None,
            })
            .expect("closed event");
        let idle = QuicConfig::default().idle_timeout;
        assert!(
            closed_at >= SimTime::ZERO + idle,
            "idle close cannot precede the idle window: {closed_at}"
        );
    }

    #[test]
    fn pto_retransmissions_do_not_postpone_idle_timeout() {
        // Mid-connection blackout: after the handshake, every further
        // server packet dies, so the client's request keeps probing into
        // the void. RFC 9000 §10.1: the client's own probes must not
        // extend its idle deadline — it closes ~idle_timeout after the
        // last *received* packet, despite transmitting the whole time.
        let blackhole: Vec<u64> = (4..10_000).collect();
        let mut pipe = make_pair(None, false).drop_b_to_a(blackhole);
        let s = pipe.a.open_stream();
        pipe.a.write_stream(s, 400, MsgTag(1));
        pipe.a.connect(SimTime::ZERO);
        pipe.run_to_close(400_000);
        assert!(
            pipe.a.handshake_complete_at().is_some(),
            "handshake precedes outage"
        );
        assert_eq!(pipe.a.close_reason(), Some(crate::CloseReason::IdleTimeout));
        assert!(
            pipe.a.retransmit_count() > 0,
            "the request must have been probed into the blackhole"
        );
        let cev = drain(&mut pipe.a);
        let closed_at = cev
            .iter()
            .find_map(|e| match e {
                QuicEvent::Closed { at, .. } => Some(*at),
                _ => None,
            })
            .expect("closed");
        let idle = QuicConfig::default().idle_timeout;
        // Anchored at the last receipt (within the first ~second of the
        // connection), not at the last of the many retransmissions.
        assert!(
            closed_at <= SimTime::ZERO + idle + SimDuration::from_secs(2),
            "probes must not postpone the idle close: {closed_at}"
        );
    }

    #[test]
    fn rejected_zero_rtt_downgrades_to_one_rtt() {
        let id = ConnId::new(NodeId::from_raw(0), NodeId::from_raw(1), 1);
        let cfg = QuicConfig {
            initial_rtt: SimDuration::from_millis(RTT_MS),
            ..QuicConfig::default()
        };
        let server_cfg = QuicConfig {
            accept_early_data: false,
            ..cfg.clone()
        };
        let client = QuicConnection::client(id, cfg, Some(ticket()), true);
        let server = QuicConnection::server(id, server_cfg);
        let mut pipe = Duplex::new(client, server, SimDuration::from_millis(RTT_MS / 2));
        let stream = pipe.a.open_stream();
        pipe.a.write_stream(stream, 400, MsgTag(1));
        pipe.a.connect(SimTime::ZERO);
        pipe.run(400_000);
        // The connection survives — a downgrade, not an error.
        assert!(pipe.a.handshake_complete_at().is_some());
        assert!(
            !pipe.a.handshake().used_early_data(),
            "0-RTT credit revoked"
        );
        assert_eq!(
            pipe.a.handshake().send_ready_at(),
            Some(ms(RTT_MS)),
            "send-readiness re-stamps to the 1-RTT handshake completion"
        );
        let cev = drain(&mut pipe.a);
        assert!(
            cev.iter()
                .any(|e| matches!(e, QuicEvent::ZeroRttRejected { .. })),
            "client told about the rejection: {cev:?}"
        );
        let sev = drain(&mut pipe.b);
        assert_eq!(
            delivery_time(&sev, MsgTag(1)),
            Some(ms(3 * RTT_MS / 2)),
            "early request surfaces only once the 1-RTT keys exist"
        );
        assert!(
            pipe.b.handshake().was_resumed(),
            "PSK still resumed the session"
        );
    }

    #[test]
    fn rejection_without_early_data_is_a_plain_psk_handshake() {
        let id = ConnId::new(NodeId::from_raw(0), NodeId::from_raw(1), 1);
        let cfg = QuicConfig {
            initial_rtt: SimDuration::from_millis(RTT_MS),
            ..QuicConfig::default()
        };
        let server_cfg = QuicConfig {
            accept_early_data: false,
            ..cfg.clone()
        };
        let client = QuicConnection::client(id, cfg, Some(ticket()), false);
        let server = QuicConnection::server(id, server_cfg);
        let mut pipe = Duplex::new(client, server, SimDuration::from_millis(RTT_MS / 2));
        pipe.a.connect(SimTime::ZERO);
        pipe.run(400_000);
        let cev = drain(&mut pipe.a);
        assert!(
            !cev.iter()
                .any(|e| matches!(e, QuicEvent::ZeroRttRejected { .. })),
            "no early data offered, so nothing was rejected"
        );
        assert!(cev
            .iter()
            .any(|e| matches!(e, QuicEvent::HandshakeComplete { at } if *at == ms(RTT_MS))));
    }

    #[test]
    fn stream_ids_are_client_bidi_spaced() {
        let id = ConnId::new(NodeId::from_raw(0), NodeId::from_raw(1), 1);
        let mut client = QuicConnection::client(id, QuicConfig::default(), None, false);
        assert_eq!(client.open_stream(), 0);
        assert_eq!(client.open_stream(), 4);
        assert_eq!(client.open_stream(), 8);
    }

    #[test]
    fn connection_refused_closes_client_within_one_rtt() {
        // An overloaded edge answers the ClientInitial with
        // CONNECTION_REFUSED: the client closes at once — no handshake
        // timer has to expire, no retransmissions into a closed door.
        let id = ConnId::new(NodeId::from_raw(0), NodeId::from_raw(1), 1);
        let cfg = QuicConfig {
            initial_rtt: SimDuration::from_millis(RTT_MS),
            ..QuicConfig::default()
        };
        let mut client = QuicConnection::client(id, cfg, None, false);
        client.connect(SimTime::ZERO);
        while client.poll_transmit(SimTime::ZERO).is_some() {}
        let refusal = QuicPacket {
            conn: id,
            from_client: false,
            pn: 0,
            frames: vec![Frame::ConnectionRefused],
        };
        client.on_packet(refusal, ms(RTT_MS / 2));
        assert!(client.is_closed());
        assert_eq!(client.close_reason(), Some(CloseReason::Refused));
        let ev = drain(&mut client);
        assert!(ev.iter().any(|e| matches!(
            e,
            QuicEvent::Closed {
                at,
                reason: CloseReason::Refused
            } if *at == ms(RTT_MS / 2)
        )));
        assert_eq!(client.next_timeout(), None, "all timers cleared");
        assert!(client.poll_transmit(ms(RTT_MS)).is_none());
    }
}
