//! Protocol-erased client connection.

use h3cdn_sim_core::SimTime;
use h3cdn_transport::duplex::Driveable;
use h3cdn_transport::{ConnId, WirePacket};

use crate::h1::H1Client;
use crate::h2::H2Client;
use crate::h3::H3Client;
use crate::types::{HttpEvent, HttpVersion, RequestMeta};

/// A client connection of any HTTP version, driven through
/// [`Driveable`] by the pool and browser layers.
#[derive(Debug)]
pub enum ClientConn {
    /// HTTP/1.1 over TLS/TCP.
    H1(H1Client),
    /// HTTP/2 over TLS/TCP.
    H2(H2Client),
    /// HTTP/3 over QUIC.
    H3(H3Client),
}

impl ClientConn {
    /// The connection's HTTP version.
    pub fn version(&self) -> HttpVersion {
        match self {
            ClientConn::H1(_) => HttpVersion::H1,
            ClientConn::H2(_) => HttpVersion::H2,
            ClientConn::H3(_) => HttpVersion::H3,
        }
    }

    /// The connection id.
    pub fn conn_id(&self) -> ConnId {
        match self {
            ClientConn::H1(c) => c.secure().conn_id(),
            ClientConn::H2(c) => c.secure().conn_id(),
            ClientConn::H3(c) => c.quic().conn_id(),
        }
    }

    /// Starts the handshake.
    pub fn connect(&mut self, now: SimTime) {
        match self {
            ClientConn::H1(c) => c.connect(now),
            ClientConn::H2(c) => c.connect(now),
            ClientConn::H3(c) => c.connect(now),
        }
    }

    /// Issues (or queues) a request.
    pub fn send_request(&mut self, req: RequestMeta) {
        match self {
            ClientConn::H1(c) => c.send_request(req),
            ClientConn::H2(c) => c.send_request(req),
            ClientConn::H3(c) => c.send_request(req),
        }
    }

    /// Total requests accepted by this connection.
    pub fn requests_sent(&self) -> u64 {
        match self {
            ClientConn::H1(c) => c.requests_sent() + c.queued_len() as u64,
            ClientConn::H2(c) => c.requests_sent(),
            ClientConn::H3(c) => c.requests_sent(),
        }
    }

    /// Whether the handshake used session resumption.
    pub fn was_resumed(&self) -> bool {
        match self {
            ClientConn::H1(c) => c.secure().was_resumed(),
            ClientConn::H2(c) => c.secure().was_resumed(),
            ClientConn::H3(c) => c.quic().was_resumed(),
        }
    }

    /// Whether request data was sent at 0-RTT.
    pub fn used_early_data(&self) -> bool {
        match self {
            ClientConn::H1(c) => c.secure().used_early_data(),
            ClientConn::H2(c) => c.secure().used_early_data(),
            ClientConn::H3(c) => c.quic().used_early_data(),
        }
    }

    /// When `connect` was called.
    pub fn connect_started_at(&self) -> Option<SimTime> {
        match self {
            ClientConn::H1(c) => c.secure().connect_started_at(),
            ClientConn::H2(c) => c.secure().connect_started_at(),
            ClientConn::H3(c) => c.quic().connect_started_at(),
        }
    }

    /// When the handshake completed.
    pub fn handshake_complete_at(&self) -> Option<SimTime> {
        match self {
            ClientConn::H1(c) => c.secure().handshake_complete_at(),
            ClientConn::H2(c) => c.secure().handshake_complete_at(),
            ClientConn::H3(c) => c.quic().handshake_complete_at(),
        }
    }

    /// When application data could first leave (the HAR `connect`
    /// endpoint; equals the connect start under 0-RTT).
    pub fn send_ready_at(&self) -> Option<SimTime> {
        match self {
            ClientConn::H1(c) => c.secure().send_ready_at(),
            ClientConn::H2(c) => c.secure().send_ready_at(),
            ClientConn::H3(c) => c.quic().send_ready_at(),
        }
    }

    /// Pops the next HTTP event.
    pub fn poll_event(&mut self) -> Option<HttpEvent> {
        match self {
            ClientConn::H1(c) => c.poll_event(),
            ClientConn::H2(c) => c.poll_event(),
            ClientConn::H3(c) => c.poll_event(),
        }
    }
}

impl Driveable for ClientConn {
    type Wire = WirePacket;

    fn on_packet(&mut self, pkt: WirePacket, now: SimTime) {
        match self {
            ClientConn::H1(c) => c.on_packet(pkt, now),
            ClientConn::H2(c) => c.on_packet(pkt, now),
            ClientConn::H3(c) => c.on_packet(pkt, now),
        }
    }

    fn poll_transmit(&mut self, now: SimTime) -> Option<WirePacket> {
        match self {
            ClientConn::H1(c) => c.poll_transmit(now),
            ClientConn::H2(c) => c.poll_transmit(now),
            ClientConn::H3(c) => c.poll_transmit(now),
        }
    }

    fn next_timeout(&self) -> Option<SimTime> {
        match self {
            ClientConn::H1(c) => c.next_timeout(),
            ClientConn::H2(c) => c.next_timeout(),
            ClientConn::H3(c) => c.next_timeout(),
        }
    }

    fn on_timeout(&mut self, now: SimTime) {
        match self {
            ClientConn::H1(c) => c.on_timeout(now),
            ClientConn::H2(c) => c.on_timeout(now),
            ClientConn::H3(c) => c.on_timeout(now),
        }
    }

    fn close_deadline(&self) -> Option<SimTime> {
        match self {
            ClientConn::H1(c) => c.close_deadline(),
            ClientConn::H2(c) => c.close_deadline(),
            ClientConn::H3(c) => c.close_deadline(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h3cdn_netsim::NodeId;
    use h3cdn_transport::quic::QuicConfig;
    use h3cdn_transport::tcp::TcpConfig;
    use h3cdn_transport::tls::TlsConfig;

    fn conn_id() -> ConnId {
        ConnId::new(NodeId::from_raw(0), NodeId::from_raw(1), 1)
    }

    #[test]
    fn version_dispatch() {
        let h1 = ClientConn::H1(H1Client::new(
            conn_id(),
            TcpConfig::default(),
            TlsConfig::default(),
        ));
        let h2 = ClientConn::H2(H2Client::new(
            conn_id(),
            TcpConfig::default(),
            TlsConfig::default(),
        ));
        let h3 = ClientConn::H3(H3Client::new(conn_id(), QuicConfig::default(), None, false));
        assert_eq!(h1.version(), HttpVersion::H1);
        assert_eq!(h2.version(), HttpVersion::H2);
        assert_eq!(h3.version(), HttpVersion::H3);
        assert_eq!(h1.conn_id(), conn_id());
        assert!(!h2.was_resumed());
        assert!(h3.connect_started_at().is_none());
    }

    #[test]
    fn queued_h1_requests_count_as_sent() {
        let mut h1 = ClientConn::H1(H1Client::new(
            conn_id(),
            TcpConfig::default(),
            TlsConfig::default(),
        ));
        h1.send_request(RequestMeta {
            id: 1,
            header_bytes: 100,
        });
        h1.send_request(RequestMeta {
            id: 2,
            header_bytes: 100,
        });
        assert_eq!(h1.requests_sent(), 2);
    }
}
