//! The server side of a visit: one node per domain, accepting TCP and
//! QUIC connections and answering from its catalog.

use std::collections::btree_map::Entry;
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

use crate::host::{ConnSet, Deadlines, Tracked, TrackedConns};

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
    dirty: ConnSet,
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
            dirty: ConnSet::default(),
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

    /// Checks that this edge's admissions and releases balance: the
    /// released connections are exactly the closed ones, and the edge
    /// tracks exactly the connections held and not yet released. Holds
    /// whenever control is back with the engine, because a connection
    /// closes only inside a pump, which releases it. Servers without an
    /// edge pass trivially.
    ///
    /// # Panics
    ///
    /// Panics if either balance fails.
    #[cfg(debug_assertions)]
    pub fn check_edge_balance(&self) {
        let Some(edge) = &self.edge else {
            return;
        };
        let closed: BTreeSet<ConnId> = self
            .conns
            .iter()
            .filter(|(_, st)| st.conn.is_closed())
            .map(|(&id, _)| id)
            .collect();
        debug_assert_eq!(
            self.released, closed,
            "released connections must be exactly the closed ones"
        );
        debug_assert_eq!(
            edge.active_connections() as usize,
            self.conns.len() - self.released.len(),
            "the edge must track every admitted connection not yet released"
        );
    }

    /// Handles an incoming packet, accepting a new connection when the
    /// id is unknown.
    pub fn on_packet(&mut self, pkt: WirePacket, ctx: &mut NodeCtx<'_, WirePacket>) {
        let id = pkt.conn_id();
        let now = ctx.now();
        let st = match self.conns.entry(id) {
            Entry::Occupied(held) => held.into_mut(),
            Entry::Vacant(slot) => {
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
                    let verdict =
                        edge.admit(kind, admission_key(id), id.client.index() as u64, now);
                    match verdict {
                        Admission::Refused { .. } => {
                            // Refuse explicitly instead of queueing
                            // forever: an immediate wire-level no
                            // (CONNECTION_REFUSED / RST) that the client's
                            // resilience stack can react to within one
                            // RTT. A retransmitted SYN/Initial re-runs
                            // admission, so refusals recover as budgets
                            // refill.
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
                slot.insert(Tracked::new(conn, ()))
            }
        };
        st.conn.on_packet(pkt, now);
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
        for id in self.deadlines.due(now) {
            self.dirty.insert(id);
        }
        for id in self.dirty.drain() {
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

impl<C, X> TrackedConns<C, X> for BTreeMap<ConnId, Tracked<C, X>> {
    fn tracked_mut(&mut self, id: ConnId) -> Option<&mut Tracked<C, X>> {
        self.get_mut(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h3cdn_netsim::NodeId;
    use h3cdn_sim_core::SimRng;

    /// A connection whose next deadline the test sets by hand; firing
    /// it counts the call and leaves the deadline for the host to read.
    #[derive(Debug, Default)]
    struct Timer {
        next: Option<SimTime>,
        fired: u32,
    }

    impl Driveable for Timer {
        type Wire = ();
        fn on_packet(&mut self, (): (), _: SimTime) {}
        fn poll_transmit(&mut self, _: SimTime) -> Option<()> {
            None
        }
        fn next_timeout(&self) -> Option<SimTime> {
            self.next
        }
        fn on_timeout(&mut self, _: SimTime) {
            self.fired += 1;
        }
        fn close_deadline(&self) -> Option<SimTime> {
            None
        }
    }

    fn ms(v: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(v)
    }

    /// `host::Deadlines`, a sorted vector, is the
    /// `BTreeSet<(SimTime, ConnId)>` it replaced, over the server's own
    /// connection map, under random re-arms (moved, cleared, unchanged),
    /// fires, `due` queries and `first` reads: the same connections fire
    /// in the same order, `due` lists the same ids and `first` agrees.
    /// Deadlines fall on a 1 ms grid of 30 values, so ties between
    /// connections and deadlines exactly at `now` are common.
    #[test]
    fn deadlines_match_btreeset_model() {
        for seed in 0..200 {
            let mut rng = SimRng::seed_from(seed);
            let mut conns: BTreeMap<ConnId, Tracked<Timer>> = BTreeMap::new();
            // What the index holds for each connection, per the model.
            let mut armed: BTreeMap<ConnId, Option<SimTime>> = BTreeMap::new();
            for k in 0..1 + rng.next_below(12) {
                let id = ConnId::new(
                    NodeId::from_raw((k % 3) as u32),
                    NodeId::from_raw(3),
                    k as u32,
                );
                conns.insert(id, Tracked::new(Timer::default(), ()));
                armed.insert(id, None);
            }
            let ids: Vec<ConnId> = conns.keys().copied().collect();
            let mut deadlines = Deadlines::default();
            let mut model: BTreeSet<(SimTime, ConnId)> = BTreeSet::new();
            let mut now = 0;
            for step in 0..300 {
                let pick = ids.get(rng.next_below(ids.len() as u64) as usize);
                let (Some(&id), Some(&held)) = (pick, pick.and_then(|id| armed.get(id))) else {
                    break;
                };
                match rng.next_below(6) {
                    0..=2 => {
                        let Some(st) = conns.get_mut(&id) else { break };
                        let fresh = match rng.next_below(5) {
                            0 => None,
                            1 => st.conn.next,
                            _ => Some(ms(now + rng.next_below(30))),
                        };
                        st.conn.next = fresh;
                        deadlines.rearm(id, st);
                        if fresh != held {
                            if let Some(t) = held {
                                model.remove(&(t, id));
                            }
                            if let Some(t) = fresh {
                                model.insert((t, id));
                            }
                            armed.insert(id, fresh);
                        }
                    }
                    3 => {
                        now += rng.next_below(8);
                        let before: Vec<u32> = ids.iter().map(|id| conns[id].conn.fired).collect();
                        let mut fired = Vec::new();
                        deadlines.fire_due(ms(now), &mut conns, |id| fired.push(id));
                        let mut want = Vec::new();
                        while let Some(&(t, id)) = model.first() {
                            if t > ms(now) {
                                break;
                            }
                            model.pop_first();
                            armed.insert(id, None);
                            want.push(id);
                        }
                        assert_eq!(fired, want, "seed {seed} step {step}: fire order");
                        for (id, was) in ids.iter().zip(before) {
                            let calls = u32::from(want.contains(id));
                            assert_eq!(conns[id].conn.fired, was + calls, "on_timeout calls");
                        }
                    }
                    4 => {
                        let at = ms(now + rng.next_below(10));
                        let got: Vec<ConnId> = deadlines.due(at).collect();
                        let want: Vec<ConnId> = model
                            .iter()
                            .take_while(|&&(t, _)| t <= at)
                            .map(|&(_, id)| id)
                            .collect();
                        assert_eq!(got, want, "seed {seed} step {step}: due");
                    }
                    _ => {}
                }
                assert_eq!(
                    deadlines.first(),
                    model.first().map(|&(t, _)| t),
                    "seed {seed} step {step}: first"
                );
            }
        }
    }
}
