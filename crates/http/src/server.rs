//! Protocol-erased server connection, and the request processing both
//! servers share.

use std::collections::BTreeMap;
use std::sync::Arc;

use h3cdn_sim_core::{SimDuration, SimTime};
use h3cdn_transport::duplex::Driveable;
use h3cdn_transport::{ConnId, WirePacket};

use crate::h2::TcpServer;
use crate::h3::QuicServer;
use crate::types::{Catalog, ResponseSpec};

/// Requests a server is processing. Each is ready at its arrival plus
/// its catalog processing time plus the server's surcharge; requests
/// leave in (ready time, arrival) order. `T` is what the server needs
/// to answer one (the QUIC server's stream).
#[derive(Debug)]
pub(crate) struct Processing<T> {
    catalog: Arc<Catalog>,
    /// Extra processing added to every response (e.g. protocol surcharge).
    extra: SimDuration,
    /// Requests in processing, keyed by (ready time, arrival number).
    queue: BTreeMap<(SimTime, u64), (u64, ResponseSpec, T)>,
    arrivals: u64,
}

impl<T> Processing<T> {
    pub(crate) fn new(catalog: Arc<Catalog>, extra: SimDuration) -> Self {
        Processing {
            catalog,
            extra,
            queue: BTreeMap::new(),
            arrivals: 0,
        }
    }

    /// Starts processing request `id`, delivered at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the catalog.
    pub(crate) fn admit(&mut self, id: u64, at: SimTime, with: T) {
        let spec = self
            .catalog
            .get(id)
            .unwrap_or_else(|| panic!("request {id} not in catalog"));
        let ready = at + spec.processing + self.extra;
        self.queue.insert((ready, self.arrivals), (id, spec, with));
        self.arrivals += 1;
    }

    /// The next request ready by `now`, with its response.
    pub(crate) fn pop_ready(&mut self, now: SimTime) -> Option<(u64, ResponseSpec, T)> {
        let next = self.queue.first_entry()?;
        (next.key().0 <= now).then(|| next.remove())
    }

    /// When the next request becomes ready.
    pub(crate) fn next_ready(&self) -> Option<SimTime> {
        self.queue.first_key_value().map(|(&(ready, _), _)| ready)
    }
}

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
    catalog: Arc<Catalog>,
    extra_processing: SimDuration,
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
    use h3cdn_netsim::NodeId;
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
