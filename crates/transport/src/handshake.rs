//! The TLS handshake both secure transports run (sans-IO).
//!
//! One state machine covers every flow the paper's connection-time
//! figures rest on. Its flights are tagged messages sized by the
//! carrying transport's table, so their latency cost emerges from
//! transmission rather than arithmetic:
//!
//! * **TLS 1.3 full**: ClientHello → server flight → client Finished,
//!   1 RTT.
//! * **TLS 1.3 PSK** (resumption): the same flights without the
//!   certificate. With early data, application data leaves right
//!   behind the ClientHello (0-RTT); a server that refuses it says so
//!   in its flight, and the client downgrades to sending at completion.
//! * **TLS 1.2 full**: ClientHello → server flight → client key
//!   exchange and Finished → server Finished, 2 RTT. The server sends
//!   no 0.5-RTT data.
//! * **TLS 1.2 abbreviated** (resumption): 1 RTT.
//!
//! The server issues a NewSessionTicket once it completes.
//! [`SecureTcp`](crate::tls::SecureTcp) carries the messages on the TCP
//! byte stream once the 3-way handshake completes, and
//! [`QuicConnection`](crate::quic::QuicConnection) on its CRYPTO stream
//! from `connect`. Each performs the actions a message returns, in
//! order, and exposes the record the HAR is built from through
//! `handshake()`.

use h3cdn_sim_core::SimTime;

use crate::conn_id::MsgTag;

/// TLS protocol version a client offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TlsVersion {
    /// TLS 1.2: 2-RTT full handshake, 1-RTT abbreviated.
    Tls12,
    /// TLS 1.3: 1-RTT full handshake, 0-RTT with PSK + early data.
    Tls13,
}

// Handshake messages are tagged far above any application tag.
const TAG_BASE: u64 = 1 << 62;
const CLIENT_HELLO: MsgTag = MsgTag(TAG_BASE + 1);
const CLIENT_HELLO_PSK: MsgTag = MsgTag(TAG_BASE + 2);
const CLIENT_HELLO12: MsgTag = MsgTag(TAG_BASE + 3);
const CLIENT_HELLO_RESUMED12: MsgTag = MsgTag(TAG_BASE + 4);
const SERVER_FLIGHT: MsgTag = MsgTag(TAG_BASE + 5);
const SERVER_FLIGHT_PSK: MsgTag = MsgTag(TAG_BASE + 6);
/// Server flight under PSK refusing the 0-RTT offer: the accepting
/// flight's size, a different meaning.
const SERVER_FLIGHT_PSK_REFUSED: MsgTag = MsgTag(TAG_BASE + 7);
const SERVER_FLIGHT12: MsgTag = MsgTag(TAG_BASE + 8);
const SERVER_RESUMED12: MsgTag = MsgTag(TAG_BASE + 9);
const CLIENT_FINISHED: MsgTag = MsgTag(TAG_BASE + 10);
const CLIENT_FLIGHT12: MsgTag = MsgTag(TAG_BASE + 11);
const SERVER_FINISHED12: MsgTag = MsgTag(TAG_BASE + 12);
const TICKET: MsgTag = MsgTag(TAG_BASE + 13);

/// Whether a delivered message belongs to the handshake rather than
/// the application.
pub(crate) fn is_handshake_tag(tag: MsgTag) -> bool {
    tag.0 >= TAG_BASE
}

/// One transport's handshake message sizes in bytes, by tag.
pub(crate) type Sizes = fn(MsgTag) -> u64;

/// TLS records on a TCP stream, calibrated to typical production
/// certificate chains.
pub(crate) fn tcp_sizes(message: MsgTag) -> u64 {
    match message {
        CLIENT_HELLO | CLIENT_HELLO12 => 330,
        CLIENT_HELLO_PSK | CLIENT_HELLO_RESUMED12 => 560,
        SERVER_FLIGHT => 4300,
        SERVER_FLIGHT_PSK | SERVER_FLIGHT_PSK_REFUSED => 350,
        CLIENT_FINISHED => 74,
        TICKET => 230,
        // TLS 1.2: ServerHello + Certificate + ServerHelloDone, the
        // client's key exchange + ChangeCipherSpec + Finished, the
        // server's ChangeCipherSpec + Finished, the abbreviated flight.
        SERVER_FLIGHT12 => 3900,
        CLIENT_FLIGHT12 => 340,
        SERVER_FINISHED12 => 110,
        SERVER_RESUMED12 => 280,
        _ => 0,
    }
}

/// QUIC CRYPTO data. The full ClientInitial is padded; the PSK one
/// leaves room for 0-RTT data in its datagram. QUIC never offers
/// TLS 1.2 (RFC 9001 §4.2), so its TLS 1.2 flights are never sent.
pub(crate) fn quic_sizes(message: MsgTag) -> u64 {
    match message {
        CLIENT_HELLO => 1150,
        CLIENT_HELLO_PSK => 650,
        SERVER_FLIGHT => 4500,
        SERVER_FLIGHT_PSK | SERVER_FLIGHT_PSK_REFUSED => 400,
        CLIENT_FINISHED => 80,
        TICKET => 230,
        _ => 0,
    }
}

/// What one handshake message asks of its transport.
/// [`Handshake::on_message`] returns them in the order they must
/// happen: a refusal notice, the reply, completion, the server's ticket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Action {
    /// Send this handshake message, `(length, tag)`.
    Send(u64, MsgTag),
    /// The server refused the early data this client sent.
    EarlyDataRefused,
    /// The handshake completed: report it, then release held data.
    Complete,
    /// The server's session ticket arrived (client side).
    TicketReceived,
}

/// One endpoint's TLS handshake and its timing record.
#[derive(Debug)]
pub struct Handshake {
    is_client: bool,
    sizes: Sizes,
    /// The version a client offers.
    version: TlsVersion,
    /// Client: resumes with a ticket. Server: the client offered one.
    resumed: bool,
    /// Client: offers 0-RTT early data. Server: accepts it.
    early_data: bool,
    used_early_data: bool,
    /// Whether application data may leave this side.
    can_send: bool,
    connect_started_at: Option<SimTime>,
    handshake_complete_at: Option<SimTime>,
    send_ready_at: Option<SimTime>,
}

impl Handshake {
    /// The client side.
    pub(crate) fn client(
        sizes: Sizes,
        version: TlsVersion,
        resumed: bool,
        early_data: bool,
    ) -> Self {
        Handshake {
            is_client: true,
            sizes,
            version,
            resumed,
            // Early data needs a ticket and TLS 1.3.
            early_data: early_data && resumed && version == TlsVersion::Tls13,
            used_early_data: false,
            can_send: false,
            connect_started_at: None,
            handshake_complete_at: None,
            send_ready_at: None,
        }
    }

    /// The server side; it follows whatever the client offers.
    pub(crate) fn server(sizes: Sizes, accept_early_data: bool) -> Self {
        Handshake {
            is_client: false,
            early_data: accept_early_data,
            ..Self::client(sizes, TlsVersion::Tls13, false, false)
        }
    }

    /// Records the client's `connect` call.
    ///
    /// # Panics
    ///
    /// Panics on a server, or when called twice.
    pub(crate) fn connect(&mut self, now: SimTime) {
        assert!(self.is_client, "connect() is client-side only");
        assert!(self.connect_started_at.is_none(), "connect() called twice");
        self.connect_started_at = Some(now);
    }

    /// The client's ClientHello, leaving at `now`, as `(length, tag)`.
    /// Under 0-RTT, application data may leave right behind it, and
    /// `app_pending` says whether some is already queued.
    pub(crate) fn client_hello(&mut self, now: SimTime, app_pending: bool) -> (u64, MsgTag) {
        let hello = match (self.version, self.resumed) {
            (TlsVersion::Tls13, false) => CLIENT_HELLO,
            (TlsVersion::Tls13, true) => CLIENT_HELLO_PSK,
            (TlsVersion::Tls12, false) => CLIENT_HELLO12,
            (TlsVersion::Tls12, true) => CLIENT_HELLO_RESUMED12,
        };
        if self.early_data {
            self.can_send = true;
            self.send_ready_at = Some(now);
            self.used_early_data = app_pending;
        }
        ((self.sizes)(hello), hello)
    }

    /// Notes application data written on this side: a client's write
    /// between a 0-RTT ClientHello and completion is early data.
    pub(crate) fn on_app_write(&mut self) {
        if self.is_client && self.can_send && self.handshake_complete_at.is_none() {
            self.used_early_data = true;
        }
    }

    /// Whether application data may leave this side now: after
    /// completion, behind a 0-RTT ClientHello, or behind a server
    /// flight other than a full TLS 1.2 one (0.5-RTT data).
    pub(crate) fn can_send(&self) -> bool {
        self.can_send
    }

    /// Handles one delivered handshake message, returning what the
    /// transport must do, in order.
    pub(crate) fn on_message(&mut self, tag: MsgTag, at: SimTime) -> impl Iterator<Item = Action> {
        let actions = match (self.is_client, tag) {
            (false, CLIENT_HELLO | CLIENT_HELLO_PSK | CLIENT_HELLO12 | CLIENT_HELLO_RESUMED12) => {
                self.resumed = matches!(tag, CLIENT_HELLO_PSK | CLIENT_HELLO_RESUMED12);
                let reply = match tag {
                    CLIENT_HELLO => SERVER_FLIGHT,
                    CLIENT_HELLO_PSK if self.early_data => SERVER_FLIGHT_PSK,
                    CLIENT_HELLO_PSK => SERVER_FLIGHT_PSK_REFUSED,
                    CLIENT_HELLO12 => SERVER_FLIGHT12,
                    _ => SERVER_RESUMED12,
                };
                self.can_send = tag != CLIENT_HELLO12;
                [Some(self.send(reply)), None, None]
            }
            (true, SERVER_FLIGHT | SERVER_FLIGHT_PSK | SERVER_RESUMED12) => {
                [Some(self.send(CLIENT_FINISHED)), self.complete(at), None]
            }
            (true, SERVER_FLIGHT_PSK_REFUSED) => {
                // Downgrade to 1-RTT instead of failing: anything sent
                // early counts as never sent, and send-readiness moves
                // to completion (the HAR `connect` phase grows an RTT).
                let refused = std::mem::take(&mut self.used_early_data);
                self.send_ready_at = None;
                [
                    refused.then_some(Action::EarlyDataRefused),
                    Some(self.send(CLIENT_FINISHED)),
                    self.complete(at),
                ]
            }
            (true, SERVER_FLIGHT12) => [Some(self.send(CLIENT_FLIGHT12)), None, None],
            (true, SERVER_FINISHED12) => [self.complete(at), None, None],
            (false, CLIENT_FINISHED) => {
                let done = self.complete(at);
                [done, done.map(|_| self.send(TICKET)), None]
            }
            (false, CLIENT_FLIGHT12) => {
                let reply = self.send(SERVER_FINISHED12);
                let done = self.complete(at);
                [Some(reply), done, done.map(|_| self.send(TICKET))]
            }
            (true, TICKET) => [Some(Action::TicketReceived), None, None],
            (is_client, other) => {
                debug_assert!(
                    false,
                    "unexpected handshake message {other} (client={is_client})"
                );
                [None, None, None]
            }
        };
        actions.into_iter().flatten()
    }

    fn send(&self, message: MsgTag) -> Action {
        Action::Send((self.sizes)(message), message)
    }

    fn complete(&mut self, at: SimTime) -> Option<Action> {
        if self.handshake_complete_at.is_some() {
            return None;
        }
        self.handshake_complete_at = Some(at);
        self.send_ready_at.get_or_insert(at);
        self.can_send = true;
        Some(Action::Complete)
    }

    /// When `connect` was called (client side).
    pub fn connect_started_at(&self) -> Option<SimTime> {
        self.connect_started_at
    }

    /// When the handshake completed on this side, if it has.
    pub fn handshake_complete_at(&self) -> Option<SimTime> {
        self.handshake_complete_at
    }

    /// When application data could first leave this side: the
    /// ClientHello under accepted 0-RTT, otherwise completion. This is
    /// the HAR `connect` endpoint.
    pub fn send_ready_at(&self) -> Option<SimTime> {
        self.send_ready_at
    }

    /// Whether the session resumed with a ticket.
    pub fn was_resumed(&self) -> bool {
        self.resumed
    }

    /// Whether application data left as 0-RTT early data that the
    /// server did not refuse.
    pub fn used_early_data(&self) -> bool {
        self.used_early_data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn_id::ConnId;
    use crate::duplex::{Driveable, Duplex};
    use crate::quic::{QuicConfig, QuicConnection};
    use crate::tcp::TcpConfig;
    use crate::tls::{SecureTcp, Ticket, TlsConfig};
    use h3cdn_netsim::NodeId;
    use h3cdn_sim_core::SimDuration;

    /// Round-trip times the cross-transport equalities are pinned at.
    const PINNED_RTTS_MS: [u64; 3] = [20, 40, 100];

    fn conn_id() -> ConnId {
        ConnId::new(NodeId::from_raw(0), NodeId::from_raw(1), 1)
    }

    fn ticket() -> Ticket {
        Ticket {
            domain: 1,
            issued_at: SimTime::ZERO,
            lifetime: SimDuration::from_secs(7200),
        }
    }

    fn ms(v: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(v)
    }

    /// Client completion, client send-readiness and server completion.
    type Record = (SimTime, SimTime, SimTime);

    fn record(client: &Handshake, server: &Handshake) -> Record {
        (
            client.handshake_complete_at().expect("client completes"),
            client.send_ready_at().expect("client can send"),
            server.handshake_complete_at().expect("server completes"),
        )
    }

    /// A loss-free TLS handshake over TCP at `rtt_ms`.
    fn tls_record(rtt_ms: u64, tls: TlsConfig) -> Record {
        let tcp = TcpConfig {
            initial_rtt: SimDuration::from_millis(rtt_ms),
            ..TcpConfig::default()
        };
        let mut client = SecureTcp::client(conn_id(), tcp.clone(), tls);
        client.connect(SimTime::ZERO);
        let server = SecureTcp::server(conn_id(), tcp);
        let mut pipe = Duplex::new(client, server, SimDuration::from_millis(rtt_ms / 2));
        pipe.run(200_000);
        record(pipe.a.handshake(), pipe.b.handshake())
    }

    /// A loss-free QUIC handshake at `rtt_ms`.
    fn quic_record(rtt_ms: u64, resumed: bool, early_data: bool) -> Record {
        let quic = QuicConfig {
            initial_rtt: SimDuration::from_millis(rtt_ms),
            ..QuicConfig::default()
        };
        let mut client =
            QuicConnection::client(conn_id(), quic.clone(), resumed.then(ticket), early_data);
        client.connect(SimTime::ZERO);
        let server = QuicConnection::server(conn_id(), quic);
        let mut pipe = Duplex::new(client, server, SimDuration::from_millis(rtt_ms / 2));
        pipe.run(200_000);
        record(pipe.a.handshake(), pipe.b.handshake())
    }

    #[test]
    fn tls_over_tcp_costs_the_quic_handshake_plus_tcp_round_trips() {
        // (flow, version, resumed, early data, extra client RTTs, extra
        // server RTTs): every flow pays TCP's 3-way handshake on top of
        // QUIC's, and a full TLS 1.2 client one more round trip.
        let flows = [
            ("TLS 1.3 full", TlsVersion::Tls13, false, false, 1, 1),
            ("TLS 1.3 PSK", TlsVersion::Tls13, true, false, 1, 1),
            ("TLS 1.3 PSK + 0-RTT", TlsVersion::Tls13, true, true, 1, 1),
            ("TLS 1.2 abbreviated", TlsVersion::Tls12, true, false, 1, 1),
            ("TLS 1.2 full", TlsVersion::Tls12, false, false, 2, 1),
        ];
        for rtt_ms in PINNED_RTTS_MS {
            let rtt = SimDuration::from_millis(rtt_ms);
            for (flow, version, resumed, early_data, client_rtts, server_rtts) in flows {
                let tls = tls_record(
                    rtt_ms,
                    TlsConfig {
                        version,
                        ticket: resumed.then(ticket),
                        early_data,
                    },
                );
                let (client, ready, server) = quic_record(rtt_ms, resumed, early_data);
                let expected = (
                    client + rtt * client_rtts,
                    ready + rtt * client_rtts,
                    server + rtt * server_rtts,
                );
                assert_eq!(tls, expected, "{flow} at {rtt_ms} ms RTT");
            }
        }
    }

    #[test]
    fn zero_rtt_client_writes_after_its_hello_are_early_data() {
        // Driven by hand: the resumed client writes for the first time
        // only after its ClientHello has left.
        let tcp = TcpConfig {
            initial_rtt: SimDuration::from_millis(40),
            ..TcpConfig::default()
        };
        let tls = TlsConfig {
            ticket: Some(ticket()),
            early_data: true,
            ..TlsConfig::default()
        };
        let mut client = SecureTcp::client(conn_id(), tcp.clone(), tls);
        let mut server = SecureTcp::server(conn_id(), tcp);
        client.connect(ms(0));
        let syn = client.poll_transmit(ms(0)).expect("SYN");
        server.on_packet(syn, ms(20));
        let syn_ack = server.poll_transmit(ms(20)).expect("SYN-ACK");
        client.on_packet(syn_ack, ms(40));
        let hello: u64 = std::iter::from_fn(|| client.poll_transmit(ms(40)))
            .map(|seg| seg.len)
            .sum();
        assert!(hello > 0, "the ClientHello left at establishment");
        assert!(!client.handshake().used_early_data(), "nothing written yet");

        client.write_app(400, MsgTag(1));
        let request = client
            .poll_transmit(ms(40))
            .expect("request leaves at once");
        assert!(request.len > 400, "the request rides behind the hello");
        assert!(client.handshake().used_early_data());
    }
}
