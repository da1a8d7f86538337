//! HTTP/3 client and QUIC server.
//!
//! Each request rides its own QUIC bidirectional stream, so responses
//! deliver independently — the transport-level head-of-line-blocking cure
//! the paper credits H3 with — and, with a session ticket, requests leave
//! at 0-RTT.

use std::collections::VecDeque;
use std::sync::Arc;

use h3cdn_sim_core::{SimDuration, SimTime};
use h3cdn_transport::duplex::Driveable;
use h3cdn_transport::quic::{QuicConfig, QuicConnection, QuicEvent};
use h3cdn_transport::tls::Ticket;
use h3cdn_transport::{ConnId, WirePacket};

use crate::server::Processing;
use crate::types::{
    decode_tag, request_tag, response_done_tag, response_event, response_headers_tag, Catalog,
    HttpEvent, RequestMeta, TagKind, FRAME_OVERHEAD,
};

/// An HTTP/3 client connection: one QUIC stream per request.
#[derive(Debug)]
pub struct H3Client {
    conn: QuicConnection,
    events: VecDeque<HttpEvent>,
    requests_sent: u64,
}

impl H3Client {
    /// Creates a client connection. A `ticket` enables PSK resumption and,
    /// with `early_data`, 0-RTT requests.
    pub fn new(id: ConnId, quic: QuicConfig, ticket: Option<Ticket>, early_data: bool) -> Self {
        H3Client {
            conn: QuicConnection::client(id, quic, ticket, early_data),
            events: VecDeque::new(),
            requests_sent: 0,
        }
    }

    /// Starts the QUIC handshake.
    pub fn connect(&mut self, now: SimTime) {
        self.conn.connect(now);
    }

    /// Issues a request on a fresh stream.
    pub fn send_request(&mut self, req: RequestMeta) {
        self.requests_sent += 1;
        let stream = self.conn.open_stream();
        self.conn.write_stream(
            stream,
            req.header_bytes + FRAME_OVERHEAD,
            request_tag(req.id),
        );
    }

    /// Total requests issued on this connection.
    pub fn requests_sent(&self) -> u64 {
        self.requests_sent
    }

    /// The underlying QUIC connection (timing/resumption diagnostics).
    pub fn quic(&self) -> &QuicConnection {
        &self.conn
    }

    /// Pops the next HTTP event.
    pub fn poll_event(&mut self) -> Option<HttpEvent> {
        self.translate();
        self.events.pop_front()
    }

    fn translate(&mut self) {
        while let Some(ev) = self.conn.poll_event() {
            let ev = match ev {
                QuicEvent::HandshakeComplete { at } => Some(HttpEvent::Connected { at }),
                QuicEvent::TicketIssued { at } => Some(HttpEvent::TicketIssued { at }),
                // Transparent downgrade: timings already reflect it via
                // the re-stamped send-readiness.
                QuicEvent::ZeroRttRejected { .. } => None,
                QuicEvent::Closed { at, reason } => {
                    Some(HttpEvent::ConnectionClosed { at, reason })
                }
                QuicEvent::Delivered { tag, at, .. } => response_event(tag, at),
            };
            self.events.extend(ev);
        }
    }
}

impl Driveable for H3Client {
    type Wire = WirePacket;

    fn on_packet(&mut self, pkt: WirePacket, now: SimTime) {
        match pkt {
            WirePacket::Quic(p) => self.conn.on_packet(p, now),
            WirePacket::Tcp(_) => debug_assert!(false, "TCP segment on an H3 connection"),
        }
        self.translate();
    }

    fn poll_transmit(&mut self, now: SimTime) -> Option<WirePacket> {
        self.translate();
        self.conn.poll_transmit(now).map(WirePacket::Quic)
    }

    fn next_timeout(&self) -> Option<SimTime> {
        self.conn.next_timeout()
    }

    fn on_timeout(&mut self, now: SimTime) {
        self.conn.on_timeout(now);
        self.translate();
    }

    fn close_deadline(&self) -> Option<SimTime> {
        self.conn.close_deadline()
    }
}

/// The QUIC-side server connection: answers one client's H3 requests from
/// a shared [`Catalog`].
#[derive(Debug)]
pub struct QuicServer {
    conn: QuicConnection,
    /// Requests in processing, with the stream each response must use.
    /// Its surcharge is the H3 compute cost behind the paper's negative
    /// wait-reduction median.
    processing: Processing<u64>,
    requests_served: u64,
}

impl QuicServer {
    /// Creates the server side of one client connection.
    pub fn new(
        id: ConnId,
        quic: QuicConfig,
        catalog: Arc<Catalog>,
        extra_processing: SimDuration,
    ) -> Self {
        QuicServer {
            conn: QuicConnection::server(id, quic),
            processing: Processing::new(catalog, extra_processing),
            requests_served: 0,
        }
    }

    /// Requests fully answered so far.
    pub fn requests_served(&self) -> u64 {
        self.requests_served
    }

    /// Whether the underlying transport has closed (lets an edge return
    /// this connection's resources to its admission budgets).
    pub fn is_closed(&self) -> bool {
        self.conn.is_closed()
    }

    fn process(&mut self, now: SimTime) {
        while let Some(ev) = self.conn.poll_event() {
            if let QuicEvent::Delivered { stream, tag, at } = ev {
                if let TagKind::Request(id) = decode_tag(tag) {
                    self.processing.admit(id, at, stream);
                }
            }
        }
        while let Some((id, spec, stream)) = self.processing.pop_ready(now) {
            self.conn.set_stream_priority(stream, spec.priority);
            self.conn.write_stream(
                stream,
                spec.header_bytes + FRAME_OVERHEAD,
                response_headers_tag(id),
            );
            // QUIC round-robins frames across streams, so the whole body
            // can be queued at once; completion is the final byte.
            self.conn
                .write_stream(stream, spec.body_bytes.max(1), response_done_tag(id));
            self.requests_served += 1;
        }
    }
}

impl Driveable for QuicServer {
    type Wire = WirePacket;

    fn on_packet(&mut self, pkt: WirePacket, now: SimTime) {
        match pkt {
            WirePacket::Quic(p) => self.conn.on_packet(p, now),
            WirePacket::Tcp(_) => debug_assert!(false, "TCP segment on a QUIC server"),
        }
        self.process(now);
    }

    fn poll_transmit(&mut self, now: SimTime) -> Option<WirePacket> {
        self.process(now);
        self.conn.poll_transmit(now).map(WirePacket::Quic)
    }

    /// The transport's deadline or the earliest response-ready time.
    fn next_timeout(&self) -> Option<SimTime> {
        [self.conn.next_timeout(), self.processing.next_ready()]
            .into_iter()
            .flatten()
            .min()
    }

    /// Fires transport timers and releases finished processing.
    fn on_timeout(&mut self, now: SimTime) {
        self.conn.on_timeout(now);
        self.process(now);
    }

    fn close_deadline(&self) -> Option<SimTime> {
        self.conn.close_deadline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientConn;
    use crate::h2::{H2Client, TcpServer};
    use crate::server::ServerConn;
    use crate::types::ResponseSpec;
    use h3cdn_netsim::NodeId;
    use h3cdn_transport::duplex::Duplex;
    use h3cdn_transport::handshake::TlsVersion;
    use h3cdn_transport::tcp::TcpConfig;
    use h3cdn_transport::tls::TlsConfig;

    const RTT_MS: u64 = 40;
    /// Round-trip times and response sizes the handshake savings are
    /// pinned at.
    const PINNED_RTTS_MS: [u64; 3] = [20, 40, 100];
    const PINNED_BODIES: [u64; 2] = [1_000, 10_000];

    fn catalog(entries: &[(u64, u64, u64)]) -> Arc<Catalog> {
        let mut cat = Catalog::new();
        for &(id, body, proc_ms) in entries {
            cat.register(
                id,
                ResponseSpec {
                    header_bytes: 250,
                    body_bytes: body,
                    processing: SimDuration::from_millis(proc_ms),
                    priority: crate::types::priority::NORMAL,
                },
            );
        }
        cat.into_shared()
    }

    fn pair(
        rtt_ms: u64,
        cat: Arc<Catalog>,
        ticket: Option<Ticket>,
        early: bool,
    ) -> Duplex<H3Client, QuicServer> {
        let id = ConnId::new(NodeId::from_raw(0), NodeId::from_raw(1), 1);
        let quic = QuicConfig {
            initial_rtt: SimDuration::from_millis(rtt_ms),
            ..QuicConfig::default()
        };
        let client = H3Client::new(id, quic.clone(), ticket, early);
        let server = QuicServer::new(id, quic, cat, SimDuration::ZERO);
        Duplex::new(client, server, SimDuration::from_millis(rtt_ms / 2))
    }

    /// Completion time of one `body`-byte response over a fresh H3
    /// connection or, with `resume`, a 0-RTT one, at zero loss.
    fn h3_fetch(rtt_ms: u64, body: u64, resume: bool) -> SimTime {
        let mut pipe = pair(
            rtt_ms,
            catalog(&[(1, body, 0)]),
            resume.then(ticket),
            resume,
        );
        pipe.a.send_request(RequestMeta {
            id: 1,
            header_bytes: 300,
        });
        pipe.a.connect(SimTime::ZERO);
        pipe.run(200_000);
        assert_eq!(pipe.a.quic().handshake().used_early_data(), resume);
        complete_at(&events(&mut pipe.a), 1).expect("complete")
    }

    /// A fresh H2 pair on TLS `version`.
    fn h2_pair(rtt_ms: u64, cat: Arc<Catalog>, version: TlsVersion) -> Duplex<H2Client, TcpServer> {
        let id = ConnId::new(NodeId::from_raw(0), NodeId::from_raw(1), 1);
        let tcp = TcpConfig {
            initial_rtt: SimDuration::from_millis(rtt_ms),
            ..TcpConfig::default()
        };
        let tls = TlsConfig {
            version,
            ..TlsConfig::default()
        };
        let client = H2Client::new(id, tcp.clone(), tls);
        let server = TcpServer::new(id, tcp, cat, SimDuration::ZERO);
        Duplex::new(client, server, SimDuration::from_millis(rtt_ms / 2))
    }

    /// Completion time of the same fetch over H2 on TLS `version`.
    fn h2_fetch(rtt_ms: u64, body: u64, version: TlsVersion) -> SimTime {
        let mut pipe = h2_pair(rtt_ms, catalog(&[(1, body, 0)]), version);
        pipe.a.connect(SimTime::ZERO);
        pipe.a.send_request(RequestMeta {
            id: 1,
            header_bytes: 300,
        });
        pipe.run(200_000);
        let evs: Vec<HttpEvent> = std::iter::from_fn(|| pipe.a.poll_event()).collect();
        complete_at(&evs, 1).expect("complete")
    }

    fn events(c: &mut H3Client) -> Vec<HttpEvent> {
        std::iter::from_fn(|| c.poll_event()).collect()
    }

    fn complete_at(evs: &[HttpEvent], id: u64) -> Option<SimTime> {
        evs.iter().find_map(|e| match e {
            HttpEvent::ResponseComplete { id: i, at } if *i == id => Some(*at),
            _ => None,
        })
    }

    fn ticket() -> Ticket {
        Ticket {
            domain: 1,
            issued_at: SimTime::ZERO,
            lifetime: SimDuration::from_secs(7200),
        }
    }

    #[test]
    fn request_response_over_h3_is_one_rtt_faster_than_h2() {
        // At zero loss a one-resource fetch is its handshake RTTs plus one
        // request/response RTT: QUIC 1 + 1; TCP 1 + TLS 1.3 1 + 1; TCP 1 +
        // TLS 1.2 2 + 1.
        for rtt_ms in PINNED_RTTS_MS {
            let rtt = SimDuration::from_millis(rtt_ms);
            for body in PINNED_BODIES {
                let h3 = h3_fetch(rtt_ms, body, false);
                let case = format!("{rtt_ms} ms RTT, {body} B");
                assert_eq!(h3, SimTime::ZERO + rtt * 2, "fresh H3, {case}");
                let h2 = h2_fetch(rtt_ms, body, TlsVersion::Tls13);
                assert_eq!(h2, h3 + rtt, "H2 over TLS 1.3, {case}");
                let h2 = h2_fetch(rtt_ms, body, TlsVersion::Tls12);
                assert_eq!(h2, h3 + rtt * 2, "H2 over TLS 1.2, {case}");
            }
        }
    }

    #[test]
    fn zero_rtt_request_completes_in_about_one_rtt() {
        // An accepted 0-RTT ticket saves the one QUIC handshake RTT.
        for rtt_ms in PINNED_RTTS_MS {
            let rtt = SimDuration::from_millis(rtt_ms);
            for body in PINNED_BODIES {
                let early = h3_fetch(rtt_ms, body, true);
                assert_eq!(
                    early + rtt,
                    h3_fetch(rtt_ms, body, false),
                    "{rtt_ms} ms RTT, {body} B"
                );
            }
        }
    }

    /// Completion times of responses 1 and 2, requested together on a
    /// fresh connection of either version, with the server→client
    /// packets indexed in `drops` lost.
    fn two_responses(
        client: ClientConn,
        server: ServerConn,
        rtt_ms: u64,
        drops: Vec<u64>,
    ) -> (SimTime, SimTime) {
        let latency = SimDuration::from_millis(rtt_ms / 2);
        let mut pipe = Duplex::new(client, server, latency).drop_b_to_a(drops);
        pipe.a.connect(SimTime::ZERO);
        for id in [1, 2] {
            pipe.a.send_request(RequestMeta {
                id,
                header_bytes: 300,
            });
        }
        pipe.run(400_000);
        let evs: Vec<HttpEvent> = std::iter::from_fn(|| pipe.a.poll_event()).collect();
        let done = |id| complete_at(&evs, id).expect("response completes");
        (done(1), done(2))
    }

    #[test]
    fn one_lost_packet_delays_every_h2_stream_but_one_h3_stream() {
        // Head-of-line isolation. Dropping any one of server→client
        // packets 4–8 costs exactly one RTT of repair: on H2 every
        // response waits behind the gap in TCP's single byte stream; on
        // H3 only the stream that owned the lost packet does. The 6,000-byte bodies stay inside the initial
        // congestion window: at 20 KB the loss-halved window delays both
        // H3 streams, which is congestion control, not head-of-line
        // blocking.
        let cat = || catalog(&[(1, 6_000, 0), (2, 6_000, 0)]);
        for rtt_ms in PINNED_RTTS_MS {
            let rtt = SimDuration::from_millis(rtt_ms);
            let h2 = |drops| {
                let pipe = h2_pair(rtt_ms, cat(), TlsVersion::Tls13);
                two_responses(
                    ClientConn::H2(pipe.a),
                    ServerConn::Tcp(pipe.b),
                    rtt_ms,
                    drops,
                )
            };
            let h3 = |drops| {
                let pipe = pair(rtt_ms, cat(), None, false);
                two_responses(
                    ClientConn::H3(pipe.a),
                    ServerConn::Quic(pipe.b),
                    rtt_ms,
                    drops,
                )
            };
            let (h2_clean, h3_clean) = (h2(vec![]), h3(vec![]));
            for k in 4..=8 {
                let case = format!("{rtt_ms} ms RTT, packet {k} lost");
                assert_eq!(
                    h2(vec![k]),
                    (h2_clean.0 + rtt, h2_clean.1 + rtt),
                    "H2, {case}"
                );
                let lossy = h3(vec![k]);
                let first_stalls = (h3_clean.0 + rtt, h3_clean.1);
                let second_stalls = (h3_clean.0, h3_clean.1 + rtt);
                assert!(
                    lossy == first_stalls || lossy == second_stalls,
                    "H3, {case}: clean {h3_clean:?}, lossy {lossy:?}"
                );
            }
        }
    }

    #[test]
    fn concurrent_responses_complete_near_each_other() {
        let mut pipe = pair(
            RTT_MS,
            catalog(&[(1, 100_000, 0), (2, 100_000, 0)]),
            None,
            false,
        );
        pipe.a.connect(SimTime::ZERO);
        pipe.a.send_request(RequestMeta {
            id: 1,
            header_bytes: 300,
        });
        pipe.a.send_request(RequestMeta {
            id: 2,
            header_bytes: 300,
        });
        pipe.run(1_000_000);
        let evs = events(&mut pipe.a);
        let d1 = complete_at(&evs, 1).unwrap();
        let d2 = complete_at(&evs, 2).unwrap();
        let gap = if d1 > d2 { d1 - d2 } else { d2 - d1 };
        assert!(
            gap < SimDuration::from_millis(40),
            "streams not interleaved: gap {gap}"
        );
    }

    #[test]
    fn high_priority_stream_preempts_low() {
        let mut cat = Catalog::new();
        cat.register(
            1,
            ResponseSpec {
                header_bytes: 250,
                body_bytes: 300_000,
                processing: SimDuration::ZERO,
                priority: crate::types::priority::LOW,
            },
        );
        cat.register(
            2,
            ResponseSpec {
                header_bytes: 250,
                body_bytes: 300_000,
                processing: SimDuration::ZERO,
                priority: crate::types::priority::HIGH,
            },
        );
        let mut pipe = pair(RTT_MS, cat.into_shared(), None, false);
        pipe.a.connect(SimTime::ZERO);
        pipe.a.send_request(RequestMeta {
            id: 1,
            header_bytes: 300,
        });
        pipe.a.send_request(RequestMeta {
            id: 2,
            header_bytes: 300,
        });
        pipe.run(2_000_000);
        let evs = events(&mut pipe.a);
        let low = complete_at(&evs, 1).unwrap();
        let high = complete_at(&evs, 2).unwrap();
        assert!(
            high + SimDuration::from_millis(20) < low,
            "high-priority stream must finish first: high {high}, low {low}"
        );
    }

    #[test]
    fn many_requests_all_complete() {
        let specs: Vec<(u64, u64, u64)> = (1..=25).map(|i| (i, 6_000, 1)).collect();
        let mut pipe = pair(RTT_MS, catalog(&specs), None, false);
        pipe.a.connect(SimTime::ZERO);
        for i in 1..=25 {
            pipe.a.send_request(RequestMeta {
                id: i,
                header_bytes: 300,
            });
        }
        pipe.run(2_000_000);
        let evs = events(&mut pipe.a);
        for i in 1..=25 {
            assert!(complete_at(&evs, i).is_some(), "response {i} missing");
        }
        assert_eq!(pipe.b.requests_served(), 25);
    }

    #[test]
    fn processing_surcharge_applies() {
        let id = ConnId::new(NodeId::from_raw(0), NodeId::from_raw(1), 1);
        let quic = QuicConfig {
            initial_rtt: SimDuration::from_millis(RTT_MS),
            ..QuicConfig::default()
        };
        let run = |extra_ms: u64| {
            let client = H3Client::new(id, quic.clone(), None, false);
            let server = QuicServer::new(
                id,
                quic.clone(),
                catalog(&[(1, 1_000, 0)]),
                SimDuration::from_millis(extra_ms),
            );
            let mut pipe = Duplex::new(client, server, SimDuration::from_millis(RTT_MS / 2));
            pipe.a.connect(SimTime::ZERO);
            pipe.a.send_request(RequestMeta {
                id: 1,
                header_bytes: 300,
            });
            pipe.run(200_000);
            let evs = events(&mut pipe.a);
            evs.iter()
                .find_map(|e| match e {
                    HttpEvent::ResponseHeaders { at, .. } => Some(*at),
                    _ => None,
                })
                .unwrap()
        };
        assert_eq!(run(5) - run(0), SimDuration::from_millis(5));
    }
}
