//! The server side of a visit: one node per domain, accepting TCP and
//! QUIC connections and answering from its catalog.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use h3cdn_cdn::{Admission, EdgeState, EdgeStats, HandshakeKind};
use h3cdn_http::server::{accept, ServerConn};
use h3cdn_http::Catalog;
use h3cdn_netsim::NodeCtx;
use h3cdn_sim_core::units::ByteCount;
use h3cdn_sim_core::{SimDuration, SimTime};
use h3cdn_transport::duplex::Driveable;
use h3cdn_transport::quic::{Frame, QuicConfig, QuicPacket};
use h3cdn_transport::tcp::{TcpConfig, TcpSegment};
use h3cdn_transport::{ConnId, WirePacket};

use crate::host::{Deadlines, Tracked};

/// Stable key for one connection in the edge's admission ledger: the
/// client node and its ephemeral port (the server node is the edge).
fn admission_key(id: ConnId) -> u64 {
    ((id.client.index() as u64) << 32) | u64::from(id.port)
}

/// Synthesises the wire-level refusal for a shed handshake: QUIC
/// CONNECTION_REFUSED or a TCP RST, both header-only.
fn refusal_packet(kind: HandshakeKind, id: ConnId) -> WirePacket {
    match kind {
        HandshakeKind::Quic => WirePacket::Quic(QuicPacket {
            conn: id,
            from_client: false,
            pn: 0,
            frames: vec![Frame::ConnectionRefused],
        }),
        HandshakeKind::Tcp => WirePacket::Tcp(TcpSegment {
            conn: id,
            from_client: false,
            syn: false,
            rst: true,
            ack_flag: false,
            seq: 0,
            len: 0,
            ack: 0,
            rwnd: 0,
            markers: vec![],
            sack: vec![],
        }),
    }
}

/// A domain's server: accepts connections on demand, one [`ServerConn`]
/// per client connection, all sharing the domain's response catalog.
#[derive(Debug)]
pub(crate) struct ServerHost {
    catalog: Arc<Catalog>,
    tcp_config: TcpConfig,
    quic_config: QuicConfig,
    /// Surcharge applied to QUIC-served (H3) requests.
    h3_extra_processing: SimDuration,
    conns: BTreeMap<ConnId, Tracked<ServerConn>>,
    /// Connections with potentially-pending output (fed a packet or a
    /// fired timer since last drained). The pump polls exactly these.
    dirty: BTreeSet<ConnId>,
    /// Every connection's deadline, re-armed at the end of each pump.
    deadlines: Deadlines,
    /// Finite-resource admission controller. `None` models the
    /// infinitely provisioned edge of the client-side experiments —
    /// that path is bit-identical to the pre-edge server.
    edge: Option<EdgeState>,
    /// Connections whose resources have been returned to the edge.
    released: BTreeSet<ConnId>,
}

impl ServerHost {
    /// Creates a server for one domain.
    pub fn new(
        catalog: Arc<Catalog>,
        tcp_config: TcpConfig,
        quic_config: QuicConfig,
        h3_extra_processing: SimDuration,
    ) -> Self {
        ServerHost {
            catalog,
            tcp_config,
            quic_config,
            h3_extra_processing,
            conns: BTreeMap::new(),
            dirty: BTreeSet::new(),
            deadlines: Deadlines::default(),
            edge: None,
            released: BTreeSet::new(),
        }
    }

    /// Installs a finite-resource admission controller for this edge.
    pub fn set_edge(&mut self, edge: EdgeState) {
        self.edge = Some(edge);
    }

    /// The edge's admission/shedding counters (zeroes when the server
    /// runs without an admission controller).
    pub fn edge_stats(&self) -> EdgeStats {
        self.edge.as_ref().map(|e| *e.stats()).unwrap_or_default()
    }

    /// Handles an incoming packet, accepting a new connection when the
    /// id is unknown.
    pub fn on_packet(&mut self, pkt: WirePacket, ctx: &mut NodeCtx<'_, WirePacket>) {
        let id = pkt.conn_id();
        let now = ctx.now();
        if !self.conns.contains_key(&id) {
            let kind = match pkt {
                WirePacket::Quic(_) => HandshakeKind::Quic,
                WirePacket::Tcp(_) => HandshakeKind::Tcp,
            };
            // A ticket miss means the edge evicted this client's
            // server-side session state: early data must be rejected
            // (the client pays the 1-RTT downgrade). Hits — and the
            // edgeless path — keep the configured acceptance.
            let mut accept_early_data = self.quic_config.accept_early_data;
            if let Some(edge) = self.edge.as_mut() {
                let verdict = edge.admit(kind, admission_key(id), id.client.index() as u64, now);
                match verdict {
                    Admission::Refused { .. } => {
                        // Refuse explicitly instead of queueing forever:
                        // an immediate wire-level no (CONNECTION_REFUSED
                        // / RST) that the client's resilience stack can
                        // react to within one RTT. A retransmitted
                        // SYN/Initial re-runs admission, so refusals
                        // recover as budgets refill.
                        let refusal = refusal_packet(kind, id);
                        let size = ByteCount::new(refusal.wire_bytes());
                        ctx.send(id.client, refusal, size);
                        return;
                    }
                    Admission::Admitted { ticket_hit } => {
                        if kind == HandshakeKind::Quic && !ticket_hit {
                            accept_early_data = false;
                        }
                    }
                }
            }
            let extra = match pkt {
                WirePacket::Quic(_) => self.h3_extra_processing,
                WirePacket::Tcp(_) => SimDuration::ZERO,
            };
            let quic_config = QuicConfig {
                accept_early_data,
                ..self.quic_config.clone()
            };
            let conn = accept(
                &pkt,
                id,
                &self.tcp_config,
                &quic_config,
                Arc::clone(&self.catalog),
                extra,
            );
            self.conns.insert(id, Tracked::new(conn, ()));
        }
        self.conns
            .get_mut(&id)
            .expect("connection just ensured")
            .conn
            .on_packet(pkt, now);
        self.dirty.insert(id);
        self.pump(ctx);
    }

    /// Fires due timers across connections.
    pub fn on_wakeup(&mut self, ctx: &mut NodeCtx<'_, WirePacket>) {
        self.deadlines.fire_due(ctx.now(), &mut self.conns, |id| {
            self.dirty.insert(id);
        });
        self.pump(ctx);
    }

    /// Earliest timer across connections.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        self.deadlines.first()
    }

    fn pump(&mut self, ctx: &mut NodeCtx<'_, WirePacket>) {
        let now = ctx.now();
        // A cooked response whose ready time has passed is released by
        // `poll_transmit` regardless of which event woke the node, so
        // every conn at-or-past its deadline must be polled too, not
        // just the ones fed input by this event.
        self.dirty.extend(self.deadlines.due(now));
        while let Some(id) = self.dirty.pop_first() {
            let Some(st) = self.conns.get_mut(&id) else {
                continue;
            };
            while let Some(pkt) = st.conn.poll_transmit(now) {
                let size = ByteCount::new(pkt.wire_bytes());
                ctx.send(id.client, pkt, size);
            }
            if let Some(edge) = self.edge.as_mut() {
                if st.conn.is_closed() && self.released.insert(id) {
                    // Return the slot/memory to the admission budgets
                    // once per connection; later refusals recover
                    // immediately.
                    edge.release(admission_key(id));
                }
            }
            self.deadlines.rearm(id, st);
        }
    }
}
