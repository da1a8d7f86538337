//! TLS session layer over the simulated TCP stream.
//!
//! [`SecureTcp`] runs the one [`Handshake`] on the TCP byte stream once
//! the 3-way handshake completes, so every flow costs one TCP round
//! trip more than the same flow over QUIC:
//!
//! * **TLS 1.3 full**: first app byte leaves 1 TLS RTT after the TCP
//!   handshake (2 RTT total).
//! * **TLS 1.2 full**: two TLS round trips (3 RTT total) — the
//!   `H2 + TLS/1.2` suite the paper contrasts H3 against.
//! * **TLS 1.2 abbreviated** (session resumption): one TLS round trip.
//! * **TLS 1.3 PSK + early data**: app data rides immediately behind the
//!   ClientHello — TCP's 1 RTT is the only connection cost, matching the
//!   paper's §VI-D observation that resumed H2 still pays the TCP
//!   handshake while resumed H3 pays nothing.
//!
//! Servers issue a NewSessionTicket after each completed handshake;
//! clients surface it as [`TlsEvent::TicketIssued`] and the browser layer
//! stores it per domain in a [`TicketStore`], which is what makes
//! cross-page resumption to shared CDN providers possible (Fig. 8 /
//! Table III).

use std::collections::{HashMap, VecDeque};

use h3cdn_sim_core::{SimDuration, SimTime};

use crate::conn_id::{ConnId, MsgTag};
use crate::duplex::Driveable;
use crate::handshake::{is_handshake_tag, tcp_sizes, Action, Handshake, TlsVersion};
use crate::tcp::{TcpConfig, TcpConnection, TcpEvent, TcpSegment};
use crate::CloseReason;

/// Per-message TLS record overhead (5-byte header + AEAD tag + padding).
pub(crate) const RECORD_OVERHEAD: u64 = 29;

/// A session ticket usable for resumption with one domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ticket {
    /// Domain the ticket was issued for.
    pub domain: u64,
    /// Issue time.
    pub issued_at: SimTime,
    /// Validity window.
    pub lifetime: SimDuration,
}

impl Ticket {
    /// Whether the ticket is still within its validity window at `now`.
    pub fn is_valid(&self, now: SimTime) -> bool {
        now <= self.issued_at + self.lifetime
    }
}

/// Client-side store of session tickets, keyed by domain.
///
/// One store per simulated browser profile; it survives across page
/// visits in consecutive-browsing mode and is cleared between independent
/// measurements — mirroring the paper's §VI-D methodology (connections
/// terminated, cache cleared, *tickets kept*).
#[derive(Debug, Clone, Default)]
pub struct TicketStore {
    tickets: HashMap<u64, Ticket>,
}

impl TicketStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        TicketStore::default()
    }

    /// Inserts (or replaces) the ticket for its domain.
    pub fn insert(&mut self, ticket: Ticket) {
        self.tickets.insert(ticket.domain, ticket);
    }

    /// Returns a still-valid ticket for `domain`, if present.
    pub fn lookup(&self, domain: u64, now: SimTime) -> Option<Ticket> {
        self.tickets
            .get(&domain)
            .copied()
            .filter(|t| t.is_valid(now))
    }

    /// Number of stored tickets (including expired ones not yet pruned).
    pub fn len(&self) -> usize {
        self.tickets.len()
    }

    /// Whether the store holds no tickets.
    pub fn is_empty(&self) -> bool {
        self.tickets.is_empty()
    }

    /// Removes every ticket.
    pub fn clear(&mut self) {
        self.tickets.clear();
    }
}

/// Client-side TLS parameters for one connection.
#[derive(Debug, Clone, Copy)]
pub struct TlsConfig {
    /// Version to negotiate.
    pub version: TlsVersion,
    /// Ticket to resume with, if the caller found one.
    pub ticket: Option<Ticket>,
    /// Send application data as TLS 1.3 early data when resuming.
    pub early_data: bool,
}

impl Default for TlsConfig {
    fn default() -> Self {
        TlsConfig {
            version: TlsVersion::Tls13,
            ticket: None,
            early_data: false,
        }
    }
}

/// Events surfaced by [`SecureTcp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlsEvent {
    /// The TLS handshake finished on this side.
    HandshakeComplete {
        /// Completion time.
        at: SimTime,
    },
    /// An application message was fully delivered in order.
    Delivered {
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
    /// The underlying TCP connection closed itself (handshake or idle
    /// timeout); the TLS session is dead with it.
    Closed {
        /// Close time.
        at: SimTime,
        /// Why it closed.
        reason: CloseReason,
    },
}

/// A TLS-protected TCP connection endpoint (sans-IO).
///
/// Wraps a [`TcpConnection`]; application messages written with
/// [`SecureTcp::write_app`] are held until the handshake permits them
/// (immediately, for 0-RTT early data) and delivered to the peer as
/// [`TlsEvent::Delivered`].
#[derive(Debug)]
pub struct SecureTcp {
    tcp: TcpConnection,
    hs: Handshake,
    /// Application messages held until the handshake lets them leave.
    pending_app: VecDeque<(u64, MsgTag)>,
    events: VecDeque<TlsEvent>,
}

impl SecureTcp {
    /// Creates the client side. Call [`SecureTcp::connect`] to start.
    pub fn client(id: ConnId, tcp: TcpConfig, tls: TlsConfig) -> Self {
        let hs = Handshake::client(tcp_sizes, tls.version, tls.ticket.is_some(), tls.early_data);
        Self::new(TcpConnection::client(id, tcp), hs)
    }

    /// Creates the server side; it follows whatever the client offers
    /// and always accepts early data.
    pub fn server(id: ConnId, tcp: TcpConfig) -> Self {
        Self::new(
            TcpConnection::server(id, tcp),
            Handshake::server(tcp_sizes, true),
        )
    }

    fn new(tcp: TcpConnection, hs: Handshake) -> Self {
        SecureTcp {
            tcp,
            hs,
            pending_app: VecDeque::new(),
            events: VecDeque::new(),
        }
    }

    /// Starts the TCP + TLS handshake (client side).
    pub fn connect(&mut self, now: SimTime) {
        self.hs.connect(now);
        self.tcp.connect(now);
    }

    /// Queues an application message. It is transmitted as soon as the
    /// handshake state allows (immediately under 0-RTT early data).
    pub fn write_app(&mut self, len: u64, tag: MsgTag) {
        self.hs.on_app_write();
        if self.hs.can_send() {
            self.tcp.write_message(len + RECORD_OVERHEAD, tag);
        } else {
            self.pending_app.push_back((len, tag));
        }
    }

    /// The connection id.
    pub fn conn_id(&self) -> ConnId {
        self.tcp.conn_id()
    }

    /// The handshake and its timing record.
    pub fn handshake(&self) -> &Handshake {
        &self.hs
    }

    /// When the handshake completed, if it has.
    pub fn handshake_complete_at(&self) -> Option<SimTime> {
        self.hs.handshake_complete_at()
    }

    /// Whether the underlying TCP connection closed itself.
    pub fn is_closed(&self) -> bool {
        self.tcp.is_closed()
    }

    /// Why the connection closed, if it did.
    pub fn close_reason(&self) -> Option<CloseReason> {
        self.tcp.close_reason()
    }

    /// The underlying TCP connection (diagnostics).
    pub fn tcp(&self) -> &TcpConnection {
        &self.tcp
    }

    /// Bytes queued in the TCP stream but not yet first-transmitted (see
    /// [`TcpConnection::unsent_bytes`]).
    pub fn unsent_bytes(&self) -> u64 {
        self.tcp.unsent_bytes()
    }

    /// Pops the next TLS-level event.
    pub fn poll_event(&mut self) -> Option<TlsEvent> {
        self.process_tcp_events();
        self.events.pop_front()
    }
}

impl Driveable for SecureTcp {
    type Wire = TcpSegment;

    fn on_packet(&mut self, seg: TcpSegment, now: SimTime) {
        self.tcp.on_packet(seg, now);
        self.process_tcp_events();
    }

    fn poll_transmit(&mut self, now: SimTime) -> Option<TcpSegment> {
        self.process_tcp_events();
        self.tcp.poll_transmit(now)
    }

    fn next_timeout(&self) -> Option<SimTime> {
        self.tcp.next_timeout()
    }

    fn on_timeout(&mut self, now: SimTime) {
        self.tcp.on_timeout(now);
        self.process_tcp_events();
    }

    fn close_deadline(&self) -> Option<SimTime> {
        self.tcp.close_deadline()
    }
}

impl SecureTcp {
    fn process_tcp_events(&mut self) {
        while let Some(ev) = self.tcp.poll_event() {
            match ev {
                TcpEvent::Established { at } => {
                    if self.tcp.is_client() {
                        let (len, tag) = self.hs.client_hello(at, !self.pending_app.is_empty());
                        self.tcp.write_message(len, tag);
                        if self.hs.can_send() {
                            // 0-RTT: application data rides right behind
                            // the hello.
                            self.flush_pending();
                        }
                    }
                }
                TcpEvent::Delivered { tag, at } => {
                    if is_handshake_tag(tag) {
                        self.on_handshake_message(tag, at);
                    } else {
                        self.events.push_back(TlsEvent::Delivered { tag, at });
                    }
                }
                TcpEvent::Closed { at, reason } => {
                    self.events.push_back(TlsEvent::Closed { at, reason });
                }
            }
        }
    }

    fn on_handshake_message(&mut self, tag: MsgTag, at: SimTime) {
        for action in self.hs.on_message(tag, at) {
            match action {
                Action::Send(len, tag) => self.tcp.write_message(len, tag),
                Action::Complete => {
                    self.events.push_back(TlsEvent::HandshakeComplete { at });
                    self.flush_pending();
                }
                Action::TicketReceived => self.events.push_back(TlsEvent::TicketIssued { at }),
                // A TLS server accepts all early data.
                Action::EarlyDataRefused => {}
            }
        }
    }

    fn flush_pending(&mut self) {
        while let Some((len, tag)) = self.pending_app.pop_front() {
            self.tcp.write_message(len + RECORD_OVERHEAD, tag);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::duplex::Duplex;
    use h3cdn_netsim::NodeId;

    const RTT_MS: u64 = 40;

    fn make_pair(tls: TlsConfig) -> Duplex<SecureTcp, SecureTcp> {
        let id = ConnId::new(NodeId::from_raw(0), NodeId::from_raw(1), 1);
        let tcp_cfg = TcpConfig {
            initial_rtt: SimDuration::from_millis(RTT_MS),
            ..TcpConfig::default()
        };
        let client = SecureTcp::client(id, tcp_cfg.clone(), tls);
        let server = SecureTcp::server(id, tcp_cfg);
        Duplex::new(client, server, SimDuration::from_millis(RTT_MS / 2))
    }

    fn drain(side: &mut SecureTcp) -> Vec<TlsEvent> {
        std::iter::from_fn(|| side.poll_event()).collect()
    }

    fn first_app_delivery(events: &[TlsEvent]) -> Option<SimTime> {
        events.iter().find_map(|e| match e {
            TlsEvent::Delivered { at, .. } => Some(*at),
            _ => None,
        })
    }

    fn handshake_at(events: &[TlsEvent]) -> Option<SimTime> {
        events.iter().find_map(|e| match e {
            TlsEvent::HandshakeComplete { at } => Some(*at),
            _ => None,
        })
    }

    /// Runs a handshake + one small request; returns (client events,
    /// server events).
    fn run_scenario(tls: TlsConfig) -> (Vec<TlsEvent>, Vec<TlsEvent>) {
        let mut pipe = make_pair(tls);
        pipe.a.connect(SimTime::ZERO);
        pipe.a.write_app(400, MsgTag(1));
        pipe.run(200_000);
        let ca = drain(&mut pipe.a);
        let sa = drain(&mut pipe.b);
        (ca, sa)
    }

    fn ms(v: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(v)
    }

    #[test]
    fn tls13_full_request_arrives_after_two_rtts() {
        let (client_ev, server_ev) = run_scenario(TlsConfig::default());
        // TCP: 1 RTT. TLS 1.3: 1 RTT. Request arrives at server 2.5 RTT
        // after connect (client hs done at 2 RTT, req +0.5 RTT).
        assert_eq!(handshake_at(&client_ev), Some(ms(2 * RTT_MS)));
        assert_eq!(first_app_delivery(&server_ev), Some(ms(5 * RTT_MS / 2)));
    }

    #[test]
    fn tls12_full_costs_an_extra_rtt() {
        let (client_ev, server_ev) = run_scenario(TlsConfig {
            version: TlsVersion::Tls12,
            ..TlsConfig::default()
        });
        assert_eq!(handshake_at(&client_ev), Some(ms(3 * RTT_MS)));
        assert_eq!(first_app_delivery(&server_ev), Some(ms(7 * RTT_MS / 2)));
    }

    fn ticket() -> Ticket {
        Ticket {
            domain: 7,
            issued_at: SimTime::ZERO,
            lifetime: SimDuration::from_secs(7200),
        }
    }

    #[test]
    fn tls13_psk_without_early_data_still_one_tls_rtt() {
        let (client_ev, _) = run_scenario(TlsConfig {
            ticket: Some(ticket()),
            ..TlsConfig::default()
        });
        assert_eq!(handshake_at(&client_ev), Some(ms(2 * RTT_MS)));
    }

    #[test]
    fn tls13_early_data_arrives_one_and_a_half_rtts_after_connect() {
        let (_, server_ev) = run_scenario(TlsConfig {
            ticket: Some(ticket()),
            early_data: true,
            ..TlsConfig::default()
        });
        // TCP handshake 1 RTT, CH + early data leave together, arrive at
        // 1.5 RTT: a full RTT earlier than the non-resumed TLS 1.3 case.
        assert_eq!(first_app_delivery(&server_ev), Some(ms(3 * RTT_MS / 2)));
    }

    #[test]
    fn tls12_abbreviated_saves_one_rtt() {
        let (client_ev, _) = run_scenario(TlsConfig {
            version: TlsVersion::Tls12,
            ticket: Some(ticket()),
            ..TlsConfig::default()
        });
        assert_eq!(handshake_at(&client_ev), Some(ms(2 * RTT_MS)));
    }

    #[test]
    fn server_issues_ticket_once() {
        let (client_ev, _) = run_scenario(TlsConfig::default());
        let tickets = client_ev
            .iter()
            .filter(|e| matches!(e, TlsEvent::TicketIssued { .. }))
            .count();
        assert_eq!(tickets, 1);
    }

    #[test]
    fn server_sees_resumption_flag() {
        let mut pipe = make_pair(TlsConfig {
            ticket: Some(ticket()),
            early_data: true,
            ..TlsConfig::default()
        });
        pipe.a.connect(SimTime::ZERO);
        pipe.a.write_app(100, MsgTag(1));
        pipe.run(200_000);
        assert!(pipe.b.handshake().was_resumed());
        assert!(pipe.a.handshake().used_early_data());
    }

    #[test]
    fn early_data_not_marked_without_pending_messages() {
        let mut pipe = make_pair(TlsConfig {
            ticket: Some(ticket()),
            early_data: true,
            ..TlsConfig::default()
        });
        pipe.a.connect(SimTime::ZERO);
        pipe.run(200_000);
        assert!(!pipe.a.handshake().used_early_data());
    }

    #[test]
    fn response_after_request_round_trips() {
        let mut pipe = make_pair(TlsConfig::default());
        pipe.a.connect(SimTime::ZERO);
        pipe.a.write_app(400, MsgTag(1));
        pipe.run(200_000);
        // Server answers with a response once the request arrived.
        pipe.b.write_app(20_000, MsgTag(2));
        pipe.run(200_000);
        let client_ev = drain(&mut pipe.a);
        assert!(
            client_ev
                .iter()
                .any(|e| matches!(e, TlsEvent::Delivered { tag: MsgTag(2), .. })),
            "response delivered to client"
        );
    }

    #[test]
    fn handshake_survives_server_flight_loss() {
        let id = ConnId::new(NodeId::from_raw(0), NodeId::from_raw(1), 1);
        let tcp_cfg = TcpConfig {
            initial_rtt: SimDuration::from_millis(RTT_MS),
            ..TcpConfig::default()
        };
        let client = SecureTcp::client(id, tcp_cfg.clone(), TlsConfig::default());
        let server = SecureTcp::server(id, tcp_cfg);
        // Drop the server's first data segment (index 0 is the SYN-ACK;
        // index 1 carries the start of the TLS flight).
        let mut pipe =
            Duplex::new(client, server, SimDuration::from_millis(RTT_MS / 2)).drop_b_to_a(vec![1]);
        pipe.a.connect(SimTime::ZERO);
        pipe.a.write_app(400, MsgTag(1));
        pipe.run(400_000);
        let client_ev = drain(&mut pipe.a);
        assert!(handshake_at(&client_ev).is_some(), "handshake recovered");
        assert!(handshake_at(&client_ev).unwrap() > ms(2 * RTT_MS));
    }

    #[test]
    fn blackholed_tcp_handshake_surfaces_typed_close() {
        // Lone client, no peer: the TCP SYN timeout must bubble up as a
        // TLS-level Closed event so the browser can fall back.
        let id = ConnId::new(NodeId::from_raw(0), NodeId::from_raw(1), 1);
        let tcp_cfg = TcpConfig {
            initial_rtt: SimDuration::from_millis(RTT_MS),
            ..TcpConfig::default()
        };
        let deadline = SimTime::ZERO + tcp_cfg.handshake_timeout;
        let mut client = SecureTcp::client(id, tcp_cfg, TlsConfig::default());
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
        let ev = drain(&mut client);
        assert!(
            ev.contains(&TlsEvent::Closed {
                at: deadline,
                reason: crate::CloseReason::HandshakeTimeout,
            }),
            "typed close surfaced through TLS: {ev:?}"
        );
    }

    #[test]
    fn ticket_expiry_checked() {
        let t = Ticket {
            domain: 1,
            issued_at: SimTime::ZERO,
            lifetime: SimDuration::from_secs(10),
        };
        assert!(t.is_valid(ms(5_000)));
        assert!(!t.is_valid(ms(20_000)));
    }

    #[test]
    fn ticket_store_lookup_and_clear() {
        let mut store = TicketStore::new();
        assert!(store.is_empty());
        store.insert(Ticket {
            domain: 3,
            issued_at: SimTime::ZERO,
            lifetime: SimDuration::from_secs(100),
        });
        assert_eq!(store.len(), 1);
        assert!(store.lookup(3, ms(1)).is_some());
        assert!(store.lookup(4, ms(1)).is_none());
        assert!(store.lookup(3, ms(200_000)).is_none(), "expired");
        store.clear();
        assert!(store.is_empty());
    }

    #[test]
    fn send_ready_at_marks_early_data_at_tcp_establishment() {
        // Full handshake: ready when TLS completes (2 RTT).
        let mut full = make_pair(TlsConfig::default());
        full.a.connect(SimTime::ZERO);
        full.run(200_000);
        assert_eq!(full.a.handshake().send_ready_at(), Some(ms(2 * RTT_MS)));
        // 0-RTT: ready at TCP establishment (1 RTT), a full RTT earlier.
        let mut early = make_pair(TlsConfig {
            ticket: Some(ticket()),
            early_data: true,
            ..TlsConfig::default()
        });
        early.a.connect(SimTime::ZERO);
        early.run(200_000);
        assert_eq!(early.a.handshake().send_ready_at(), Some(ms(RTT_MS)));
    }

    #[test]
    fn unsent_bytes_drain_as_the_stream_flows() {
        let mut pipe = make_pair(TlsConfig::default());
        pipe.a.connect(SimTime::ZERO);
        pipe.a.write_app(50_000, MsgTag(1));
        // Pre-handshake the app message is parked at the TLS layer, not
        // in the TCP stream.
        assert_eq!(pipe.a.unsent_bytes(), 0, "held above TCP until ready");
        pipe.run(400_000);
        assert_eq!(pipe.a.unsent_bytes(), 0, "fully transmitted");
        let delivered = std::iter::from_fn(|| pipe.b.poll_event())
            .any(|e| matches!(e, TlsEvent::Delivered { tag: MsgTag(1), .. }));
        assert!(delivered);
    }

    #[test]
    fn resumption_vs_full_comparative_latency() {
        // The paper's core claim for §VI-D: resumed beats full handshake.
        let (_, full_server) = run_scenario(TlsConfig::default());
        let (_, resumed_server) = run_scenario(TlsConfig {
            ticket: Some(ticket()),
            early_data: true,
            ..TlsConfig::default()
        });
        let full = first_app_delivery(&full_server).unwrap();
        let resumed = first_app_delivery(&resumed_server).unwrap();
        assert!(
            resumed + SimDuration::from_millis(RTT_MS) <= full,
            "early data must save a full RTT: {resumed} vs {full}"
        );
    }
}
