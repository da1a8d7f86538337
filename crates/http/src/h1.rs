//! HTTP/1.1 client: one outstanding request per connection.
//!
//! H1 has no multiplexing — requests on one connection are strictly
//! serial (we model keep-alive, no pipelining, matching modern browser
//! behaviour). Browsers compensate with up to six parallel connections
//! per host; that limit lives in the pool layer (`h3cdn-browser`).

use std::collections::VecDeque;

use h3cdn_sim_core::SimTime;
use h3cdn_transport::duplex::Driveable;
use h3cdn_transport::tcp::TcpConfig;
use h3cdn_transport::tls::{SecureTcp, TlsConfig, TlsEvent};
use h3cdn_transport::{ConnId, WirePacket};

use crate::types::{request_tag, response_event, HttpEvent, RequestMeta};

/// HTTP/1.1 request-header overhead relative to the compressed H2/H3
/// form: H1 headers are uncompressed, roughly 3× larger.
const H1_HEADER_FACTOR: u64 = 3;

/// An HTTP/1.1 client connection (serial requests over TLS/TCP).
#[derive(Debug)]
pub struct H1Client {
    conn: SecureTcp,
    queue: VecDeque<RequestMeta>,
    in_flight: Option<u64>,
    connected: bool,
    events: VecDeque<HttpEvent>,
    requests_sent: u64,
}

impl H1Client {
    /// Creates a client connection (not yet connected).
    pub fn new(id: ConnId, tcp: TcpConfig, tls: TlsConfig) -> Self {
        H1Client {
            conn: SecureTcp::client(id, tcp, tls),
            queue: VecDeque::new(),
            in_flight: None,
            connected: false,
            events: VecDeque::new(),
            requests_sent: 0,
        }
    }

    /// Starts the TCP + TLS handshake.
    pub fn connect(&mut self, now: SimTime) {
        self.conn.connect(now);
    }

    /// Queues a request; it is sent when the connection is idle.
    pub fn send_request(&mut self, req: RequestMeta) {
        self.queue.push_back(req);
        self.maybe_dispatch();
    }

    /// Requests waiting for the connection to become idle.
    pub fn queued_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether a request is currently outstanding.
    pub fn is_busy(&self) -> bool {
        self.in_flight.is_some()
    }

    /// Total requests put on the wire so far.
    pub fn requests_sent(&self) -> u64 {
        self.requests_sent
    }

    /// The underlying secure channel (diagnostics).
    pub fn secure(&self) -> &SecureTcp {
        &self.conn
    }

    /// Pops the next HTTP event.
    pub fn poll_event(&mut self) -> Option<HttpEvent> {
        self.translate();
        self.events.pop_front()
    }

    fn translate(&mut self) {
        while let Some(ev) = self.conn.poll_event() {
            match ev {
                TlsEvent::HandshakeComplete { at } => {
                    self.connected = true;
                    self.events.push_back(HttpEvent::Connected { at });
                    self.maybe_dispatch();
                }
                TlsEvent::TicketIssued { at } => {
                    self.events.push_back(HttpEvent::TicketIssued { at });
                }
                TlsEvent::Closed { at, reason } => {
                    self.events
                        .push_back(HttpEvent::ConnectionClosed { at, reason });
                }
                TlsEvent::Delivered { tag, at } => {
                    let ev = response_event(tag, at);
                    self.events.extend(ev);
                    if let Some(HttpEvent::ResponseComplete { id, .. }) = ev {
                        debug_assert_eq!(self.in_flight, Some(id), "response for idle request");
                        self.in_flight = None;
                        self.maybe_dispatch();
                    }
                }
            }
        }
    }

    fn maybe_dispatch(&mut self) {
        if !self.connected || self.in_flight.is_some() {
            return;
        }
        if let Some(req) = self.queue.pop_front() {
            self.in_flight = Some(req.id);
            self.requests_sent += 1;
            self.conn
                .write_app(req.header_bytes * H1_HEADER_FACTOR, request_tag(req.id));
        }
    }
}

impl Driveable for H1Client {
    type Wire = WirePacket;

    fn on_packet(&mut self, pkt: WirePacket, now: SimTime) {
        match pkt {
            WirePacket::Tcp(seg) => self.conn.on_packet(seg, now),
            WirePacket::Quic(_) => debug_assert!(false, "QUIC packet on an H1 connection"),
        }
        self.translate();
    }

    fn poll_transmit(&mut self, now: SimTime) -> Option<WirePacket> {
        self.translate();
        self.conn.poll_transmit(now).map(WirePacket::Tcp)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::h2::TcpServer;
    use crate::types::{Catalog, ResponseSpec};
    use h3cdn_netsim::NodeId;
    use h3cdn_sim_core::SimDuration;
    use h3cdn_transport::duplex::Duplex;
    use std::sync::Arc;

    const RTT_MS: u64 = 40;

    fn catalog(n: u64, body: u64) -> Arc<Catalog> {
        let mut cat = Catalog::new();
        for id in 1..=n {
            cat.register(
                id,
                ResponseSpec {
                    header_bytes: 250,
                    body_bytes: body,
                    processing: SimDuration::ZERO,
                    priority: crate::types::priority::NORMAL,
                },
            );
        }
        cat.into_shared()
    }

    fn pair(cat: Arc<Catalog>) -> Duplex<H1Client, TcpServer> {
        let id = ConnId::new(NodeId::from_raw(0), NodeId::from_raw(1), 1);
        let tcp = TcpConfig {
            initial_rtt: SimDuration::from_millis(RTT_MS),
            ..TcpConfig::default()
        };
        let client = H1Client::new(id, tcp.clone(), TlsConfig::default());
        let server = TcpServer::new(id, tcp, cat, SimDuration::ZERO);
        Duplex::new(client, server, SimDuration::from_millis(RTT_MS / 2))
    }

    fn completions(c: &mut H1Client) -> Vec<(u64, SimTime)> {
        std::iter::from_fn(|| c.poll_event())
            .filter_map(|e| match e {
                HttpEvent::ResponseComplete { id, at } => Some((id, at)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn requests_are_strictly_serial() {
        let mut pipe = pair(catalog(3, 4_000));
        pipe.a.connect(SimTime::ZERO);
        for id in 1..=3 {
            pipe.a.send_request(RequestMeta {
                id,
                header_bytes: 300,
            });
        }
        assert_eq!(pipe.a.queued_len(), 3, "nothing dispatches before TLS");
        pipe.run(400_000);
        let done = completions(&mut pipe.a);
        assert_eq!(done.len(), 3);
        // Serial: each response completes at least ~1 RTT after the
        // previous (request + response round trip).
        assert!(done[1].1 - done[0].1 >= SimDuration::from_millis(RTT_MS));
        assert!(done[2].1 - done[1].1 >= SimDuration::from_millis(RTT_MS));
        // And in request order.
        assert_eq!(
            done.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn busy_flag_tracks_in_flight() {
        let mut pipe = pair(catalog(1, 1_000));
        pipe.a.connect(SimTime::ZERO);
        pipe.a.send_request(RequestMeta {
            id: 1,
            header_bytes: 300,
        });
        pipe.run(400_000);
        assert!(!pipe.a.is_busy(), "idle after the response completed");
        assert_eq!(pipe.a.requests_sent(), 1);
    }

    #[test]
    fn h1_headers_are_fatter_than_h2() {
        // Same logical request costs ~3× the header bytes on the wire;
        // verify via requests_sent accounting + server delivery.
        let mut pipe = pair(catalog(1, 1_000));
        pipe.a.connect(SimTime::ZERO);
        pipe.a.send_request(RequestMeta {
            id: 1,
            header_bytes: 300,
        });
        pipe.run(400_000);
        assert_eq!(pipe.b.requests_served(), 1);
    }
}
