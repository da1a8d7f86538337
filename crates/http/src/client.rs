//! Protocol-erased client connection.

use h3cdn_sim_core::SimTime;
use h3cdn_transport::duplex::Driveable;
use h3cdn_transport::handshake::Handshake;
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

    /// The connection's handshake: resumption, 0-RTT and the timings
    /// the HAR `connect` phase is built from.
    pub fn handshake(&self) -> &Handshake {
        match self {
            ClientConn::H1(c) => c.secure().handshake(),
            ClientConn::H2(c) => c.secure().handshake(),
            ClientConn::H3(c) => c.quic().handshake(),
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
        assert!(!h2.handshake().was_resumed());
        assert!(h3.handshake().connect_started_at().is_none());
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
