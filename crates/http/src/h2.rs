//! HTTP/2 client and the TCP server that answers H1 and H2 clients.
//!
//! The client multiplexes every request onto one [`SecureTcp`] connection.
//! The server interleaves concurrent response bodies in 16 KiB round-robin
//! chunks — as real H2 servers interleave DATA frames — by keeping a pump
//! of queued bytes just ahead of the transport. Because everything shares
//! one in-order TCP stream, loss anywhere stalls all streams: the
//! head-of-line blocking the paper contrasts with H3.

use std::collections::VecDeque;
use std::sync::Arc;

use h3cdn_sim_core::{SimDuration, SimTime};
use h3cdn_transport::duplex::Driveable;
use h3cdn_transport::tcp::TcpConfig;
use h3cdn_transport::tls::{SecureTcp, TlsConfig, TlsEvent};
use h3cdn_transport::{ConnId, WirePacket};

use crate::server::Processing;
use crate::types::{
    decode_tag, request_tag, response_chunk_tag, response_done_tag, response_event,
    response_headers_tag, Catalog, HttpEvent, RequestMeta, TagKind, FRAME_OVERHEAD,
};

/// Body bytes per interleaved DATA chunk.
const CHUNK_BYTES: u64 = 16 * 1024;
/// The pump keeps at most this many un-transmitted bytes queued in TCP.
/// Kept shallow (three chunks) so freshly cooked response HEADERS — which
/// enter the stream behind the queued chunks — wait as little as a
/// priority-aware H2 server would allow.
const PUMP_HIGH_WATER: u64 = 48 * 1024;

/// An HTTP/2 client connection: many concurrent requests, one TLS/TCP
/// connection.
#[derive(Debug)]
pub struct H2Client {
    conn: SecureTcp,
    events: VecDeque<HttpEvent>,
    requests_sent: u64,
}

impl H2Client {
    /// Creates a client connection (not yet connected).
    pub fn new(id: ConnId, tcp: TcpConfig, tls: TlsConfig) -> Self {
        H2Client {
            conn: SecureTcp::client(id, tcp, tls),
            events: VecDeque::new(),
            requests_sent: 0,
        }
    }

    /// Starts the TCP + TLS handshake.
    pub fn connect(&mut self, now: SimTime) {
        self.conn.connect(now);
    }

    /// Issues a request; it is transmitted as soon as TLS permits
    /// (immediately under 0-RTT early data).
    pub fn send_request(&mut self, req: RequestMeta) {
        self.requests_sent += 1;
        self.conn
            .write_app(req.header_bytes + FRAME_OVERHEAD, request_tag(req.id));
    }

    /// Total requests issued on this connection.
    pub fn requests_sent(&self) -> u64 {
        self.requests_sent
    }

    /// The underlying secure channel (timing/resumption diagnostics).
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
            let ev = match ev {
                TlsEvent::HandshakeComplete { at } => Some(HttpEvent::Connected { at }),
                TlsEvent::TicketIssued { at } => Some(HttpEvent::TicketIssued { at }),
                TlsEvent::Closed { at, reason } => Some(HttpEvent::ConnectionClosed { at, reason }),
                TlsEvent::Delivered { tag, at } => response_event(tag, at),
            };
            self.events.extend(ev);
        }
    }
}

impl Driveable for H2Client {
    type Wire = WirePacket;

    fn on_packet(&mut self, pkt: WirePacket, now: SimTime) {
        match pkt {
            WirePacket::Tcp(seg) => self.conn.on_packet(seg, now),
            WirePacket::Quic(_) => debug_assert!(false, "QUIC packet on an H2 connection"),
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

/// One pending response body in the server's interleaving pump.
#[derive(Debug)]
struct ActiveResponse {
    id: u64,
    remaining: u64,
    priority: u8,
}

/// The TCP-side server connection: answers one client's H1 or H2 requests
/// from a shared [`Catalog`], simulating per-request processing time.
#[derive(Debug)]
pub struct TcpServer {
    conn: SecureTcp,
    processing: Processing<()>,
    /// Response bodies being interleaved.
    active: VecDeque<ActiveResponse>,
    requests_served: u64,
}

impl TcpServer {
    /// Creates the server side of one client connection.
    pub fn new(
        id: ConnId,
        tcp: TcpConfig,
        catalog: Arc<Catalog>,
        extra_processing: SimDuration,
    ) -> Self {
        TcpServer {
            conn: SecureTcp::server(id, tcp),
            processing: Processing::new(catalog, extra_processing),
            active: VecDeque::new(),
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
        // 1. Ingest newly delivered requests.
        while let Some(ev) = self.conn.poll_event() {
            if let TlsEvent::Delivered { tag, at } = ev {
                if let TagKind::Request(id) = decode_tag(tag) {
                    self.processing.admit(id, at, ());
                }
            }
        }
        // 2. Move finished requests into the response pump.
        while let Some((id, spec, ())) = self.processing.pop_ready(now) {
            self.conn
                .write_app(spec.header_bytes + FRAME_OVERHEAD, response_headers_tag(id));
            if spec.body_bytes == 0 {
                // Header-only response: completion rides on a 1-byte
                // sentinel chunk so the done tag has a final byte.
                self.conn.write_app(1, response_done_tag(id));
                self.requests_served += 1;
            } else {
                self.active.push_back(ActiveResponse {
                    id,
                    remaining: spec.body_bytes,
                    priority: spec.priority,
                });
            }
        }
        // 3. Pump interleaved body chunks, keeping the transport fed but
        //    not flooded (so streams actually interleave). Strict
        //    priority across classes (render-blocking content first),
        //    round-robin within a class — Chrome's H2 priority scheme at
        //    class granularity.
        while !self.active.is_empty() && self.conn.unsent_bytes() < PUMP_HIGH_WATER {
            let top = self
                .active
                .iter()
                .map(|r| r.priority)
                .min()
                .expect("non-empty");
            let pos = self
                .active
                .iter()
                .position(|r| r.priority == top)
                .expect("class member exists");
            let mut resp = self.active.remove(pos).expect("position valid");
            let take = resp.remaining.min(CHUNK_BYTES);
            resp.remaining -= take;
            if resp.remaining == 0 {
                self.conn.write_app(take, response_done_tag(resp.id));
                self.requests_served += 1;
            } else {
                self.conn.write_app(take, response_chunk_tag(resp.id));
                self.active.push_back(resp);
            }
        }
    }
}

impl Driveable for TcpServer {
    type Wire = WirePacket;

    fn on_packet(&mut self, pkt: WirePacket, now: SimTime) {
        match pkt {
            WirePacket::Tcp(seg) => self.conn.on_packet(seg, now),
            WirePacket::Quic(_) => debug_assert!(false, "QUIC packet on a TCP server"),
        }
        self.process(now);
    }

    fn poll_transmit(&mut self, now: SimTime) -> Option<WirePacket> {
        self.process(now);
        self.conn.poll_transmit(now).map(WirePacket::Tcp)
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
    use crate::types::ResponseSpec;
    use h3cdn_netsim::NodeId;
    use h3cdn_transport::duplex::Duplex;

    const RTT_MS: u64 = 40;

    fn catalog(entries: &[(u64, u64, u64)]) -> Arc<Catalog> {
        catalog_with_priority(
            &entries
                .iter()
                .map(|&(id, body, proc_ms)| (id, body, proc_ms, crate::types::priority::NORMAL))
                .collect::<Vec<_>>(),
        )
    }

    fn catalog_with_priority(entries: &[(u64, u64, u64, u8)]) -> Arc<Catalog> {
        let mut cat = Catalog::new();
        for &(id, body, proc_ms, priority) in entries {
            cat.register(
                id,
                ResponseSpec {
                    header_bytes: 250,
                    body_bytes: body,
                    processing: SimDuration::from_millis(proc_ms),
                    priority,
                },
            );
        }
        cat.into_shared()
    }

    fn pair(cat: Arc<Catalog>) -> Duplex<H2Client, TcpServer> {
        let id = ConnId::new(NodeId::from_raw(0), NodeId::from_raw(1), 1);
        let tcp = TcpConfig {
            initial_rtt: SimDuration::from_millis(RTT_MS),
            ..TcpConfig::default()
        };
        let client = H2Client::new(id, tcp.clone(), TlsConfig::default());
        let server = TcpServer::new(id, tcp, cat, SimDuration::ZERO);
        Duplex::new(client, server, SimDuration::from_millis(RTT_MS / 2))
    }

    fn events(c: &mut H2Client) -> Vec<HttpEvent> {
        std::iter::from_fn(|| c.poll_event()).collect()
    }

    fn complete_at(evs: &[HttpEvent], id: u64) -> Option<SimTime> {
        evs.iter().find_map(|e| match e {
            HttpEvent::ResponseComplete { id: i, at } if *i == id => Some(*at),
            _ => None,
        })
    }

    #[test]
    fn single_request_response_cycle() {
        let mut pipe = pair(catalog(&[(1, 10_000, 0)]));
        pipe.a.connect(SimTime::ZERO);
        pipe.a.send_request(RequestMeta {
            id: 1,
            header_bytes: 300,
        });
        pipe.run(200_000);
        let evs = events(&mut pipe.a);
        assert!(evs.iter().any(|e| matches!(e, HttpEvent::Connected { .. })));
        assert!(evs
            .iter()
            .any(|e| matches!(e, HttpEvent::ResponseHeaders { id: 1, .. })));
        let done = complete_at(&evs, 1).expect("response complete");
        // 2 RTT handshake + 1 RTT request/response + transmission.
        assert!(done.as_millis_f64() >= 3.0 * RTT_MS as f64);
        assert!(done.as_millis_f64() < 5.0 * RTT_MS as f64);
        assert_eq!(pipe.b.requests_served(), 1);
    }

    #[test]
    fn processing_delay_shifts_first_byte() {
        let run = |proc_ms| {
            let mut pipe = pair(catalog(&[(1, 1_000, proc_ms)]));
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
        let fast = run(0);
        let slow = run(30);
        assert_eq!(slow - fast, SimDuration::from_millis(30));
    }

    #[test]
    fn concurrent_responses_interleave() {
        // Two equal 200 KB responses requested together must finish close
        // to each other (round-robin chunks), not strictly serially.
        let mut pipe = pair(catalog(&[(1, 200_000, 0), (2, 200_000, 0)]));
        pipe.a.connect(SimTime::ZERO);
        pipe.a.send_request(RequestMeta {
            id: 1,
            header_bytes: 300,
        });
        pipe.a.send_request(RequestMeta {
            id: 2,
            header_bytes: 300,
        });
        pipe.run(400_000);
        let evs = events(&mut pipe.a);
        let d1 = complete_at(&evs, 1).unwrap();
        let d2 = complete_at(&evs, 2).unwrap();
        let gap = d2.saturating_duration_since(d1).as_millis_f64().abs();
        // Serial delivery would separate completions by the full transfer
        // time of one body (many RTTs); interleaving keeps them within a
        // chunk's worth of each other.
        assert!(gap < 40.0, "responses not interleaved: gap {gap}ms");
        assert_eq!(pipe.b.requests_served(), 2);
    }

    #[test]
    fn high_priority_response_preempts_low() {
        use crate::types::priority;
        // Two equal large responses; the HIGH one is requested SECOND but
        // must complete well before the LOW one (strict priority).
        let mut pipe = pair(catalog_with_priority(&[
            (1, 300_000, 0, priority::LOW),
            (2, 300_000, 0, priority::HIGH),
        ]));
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
        let low = complete_at(&evs, 1).unwrap();
        let high = complete_at(&evs, 2).unwrap();
        assert!(
            high + SimDuration::from_millis(20) < low,
            "render-blocking content must finish first: high {high}, low {low}"
        );
    }

    #[test]
    fn header_only_response_completes() {
        let mut pipe = pair(catalog(&[(9, 0, 0)]));
        pipe.a.connect(SimTime::ZERO);
        pipe.a.send_request(RequestMeta {
            id: 9,
            header_bytes: 200,
        });
        pipe.run(200_000);
        let evs = events(&mut pipe.a);
        assert!(complete_at(&evs, 9).is_some());
    }

    #[test]
    fn many_small_responses_all_complete() {
        let specs: Vec<(u64, u64, u64)> = (1..=20).map(|i| (i, 8_000, 1)).collect();
        let mut pipe = pair(catalog(&specs));
        pipe.a.connect(SimTime::ZERO);
        for i in 1..=20 {
            pipe.a.send_request(RequestMeta {
                id: i,
                header_bytes: 300,
            });
        }
        pipe.run(1_000_000);
        let evs = events(&mut pipe.a);
        for i in 1..=20 {
            assert!(complete_at(&evs, i).is_some(), "response {i} missing");
        }
        assert_eq!(pipe.b.requests_served(), 20);
    }

    #[test]
    #[should_panic(expected = "not in catalog")]
    fn unknown_request_panics() {
        let mut pipe = pair(catalog(&[]));
        pipe.a.connect(SimTime::ZERO);
        pipe.a.send_request(RequestMeta {
            id: 42,
            header_bytes: 100,
        });
        pipe.run(200_000);
    }
}
