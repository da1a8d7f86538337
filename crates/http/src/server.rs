//! Protocol-erased server connection.

use h3cdn_sim_core::SimTime;
use h3cdn_transport::duplex::Driveable;
use h3cdn_transport::{ConnId, WirePacket};

use crate::h2::TcpServer;
use crate::h3::QuicServer;

/// A server-side connection of either transport, driven through
/// [`Driveable`] by the server node.
#[derive(Debug)]
pub enum ServerConn {
    /// TLS/TCP side (serves both H1 and H2 clients).
    Tcp(TcpServer),
    /// QUIC side (serves H3 clients).
    Quic(QuicServer),
}

impl ServerConn {
    /// Requests fully answered on this connection.
    pub fn requests_served(&self) -> u64 {
        match self {
            ServerConn::Tcp(s) => s.requests_served(),
            ServerConn::Quic(s) => s.requests_served(),
        }
    }

    /// Whether the underlying transport has closed (lets an edge return
    /// this connection's resources to its admission budgets).
    pub fn is_closed(&self) -> bool {
        match self {
            ServerConn::Tcp(s) => s.is_closed(),
            ServerConn::Quic(s) => s.is_closed(),
        }
    }
}

impl Driveable for ServerConn {
    type Wire = WirePacket;

    fn on_packet(&mut self, pkt: WirePacket, now: SimTime) {
        match self {
            ServerConn::Tcp(s) => s.on_packet(pkt, now),
            ServerConn::Quic(s) => s.on_packet(pkt, now),
        }
    }

    fn poll_transmit(&mut self, now: SimTime) -> Option<WirePacket> {
        match self {
            ServerConn::Tcp(s) => s.poll_transmit(now),
            ServerConn::Quic(s) => s.poll_transmit(now),
        }
    }

    fn next_timeout(&self) -> Option<SimTime> {
        match self {
            ServerConn::Tcp(s) => s.next_timeout(),
            ServerConn::Quic(s) => s.next_timeout(),
        }
    }

    fn on_timeout(&mut self, now: SimTime) {
        match self {
            ServerConn::Tcp(s) => s.on_timeout(now),
            ServerConn::Quic(s) => s.on_timeout(now),
        }
    }

    fn close_deadline(&self) -> Option<SimTime> {
        match self {
            ServerConn::Tcp(s) => s.close_deadline(),
            ServerConn::Quic(s) => s.close_deadline(),
        }
    }
}

/// Builds the right [`ServerConn`] for an incoming packet's transport.
pub fn accept(
    pkt: &WirePacket,
    conn_id: ConnId,
    tcp_config: &h3cdn_transport::tcp::TcpConfig,
    quic_config: &h3cdn_transport::quic::QuicConfig,
    catalog: std::sync::Arc<crate::types::Catalog>,
    extra_processing: h3cdn_sim_core::SimDuration,
) -> ServerConn {
    match pkt {
        WirePacket::Tcp(_) => ServerConn::Tcp(TcpServer::new(
            conn_id,
            tcp_config.clone(),
            catalog,
            extra_processing,
        )),
        WirePacket::Quic(_) => ServerConn::Quic(QuicServer::new(
            conn_id,
            quic_config.clone(),
            catalog,
            extra_processing,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Catalog;
    use h3cdn_netsim::NodeId;
    use h3cdn_sim_core::SimDuration;
    use h3cdn_transport::quic::{QuicConfig, QuicPacket};
    use h3cdn_transport::tcp::{TcpConfig, TcpSegment};

    fn conn_id() -> ConnId {
        ConnId::new(NodeId::from_raw(0), NodeId::from_raw(1), 1)
    }

    #[test]
    fn accept_matches_transport() {
        let cat = Catalog::new().into_shared();
        let tcp_pkt = WirePacket::Tcp(TcpSegment {
            conn: conn_id(),
            from_client: true,
            syn: true,
            rst: false,
            ack_flag: false,
            seq: 0,
            len: 0,
            ack: 0,
            rwnd: 1,
            markers: vec![],
            sack: vec![],
        });
        let quic_pkt = WirePacket::Quic(QuicPacket {
            conn: conn_id(),
            from_client: true,
            pn: 0,
            frames: vec![],
        });
        let tcp_conn = accept(
            &tcp_pkt,
            conn_id(),
            &TcpConfig::default(),
            &QuicConfig::default(),
            cat.clone(),
            SimDuration::ZERO,
        );
        let quic_conn = accept(
            &quic_pkt,
            conn_id(),
            &TcpConfig::default(),
            &QuicConfig::default(),
            cat,
            SimDuration::ZERO,
        );
        assert!(matches!(tcp_conn, ServerConn::Tcp(_)));
        assert!(matches!(quic_conn, ServerConn::Quic(_)));
    }
}
