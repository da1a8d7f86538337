//! The node enum driven by the `h3cdn-netsim` engine, the
//! per-connection deadline index both of its hosts wake on, their dirty
//! sets, and the client's connection table.
//!
//! A host holds a handful of live deadlines (7.5 on average over a
//! campaign, 30 at most) and re-arms one after nearly every packet, so
//! `Deadlines` and `ConnSet` are sorted vectors searched by
//! bisection: a re-arm shifts a few pairs instead of walking and
//! rebalancing tree nodes.

use h3cdn_netsim::{Node, NodeCtx, TransportClass};
use h3cdn_sim_core::SimTime;
use h3cdn_transport::duplex::Driveable;
use h3cdn_transport::{ConnId, WirePacket};

use crate::client::ClientHost;
use crate::server::ServerHost;

/// Either side of a visit, as one engine node type. Both sides carry
/// substantial state, so both are boxed to keep the enum (and the
/// engine's node vector) small.
#[derive(Debug)]
pub(crate) enum SimHost {
    /// The browser.
    Client(Box<ClientHost>),
    /// One domain's server.
    Server(Box<ServerHost>),
}

impl Node for SimHost {
    type Packet = WirePacket;

    fn handle_packet(&mut self, packet: WirePacket, ctx: &mut NodeCtx<'_, WirePacket>) {
        match self {
            SimHost::Client(c) => c.on_packet(packet, ctx),
            SimHost::Server(s) => s.on_packet(packet, ctx),
        }
    }

    fn handle_wakeup(&mut self, ctx: &mut NodeCtx<'_, WirePacket>) {
        match self {
            SimHost::Client(c) => c.on_wakeup(ctx),
            SimHost::Server(s) => s.on_wakeup(ctx),
        }
    }

    fn next_wakeup(&self) -> Option<SimTime> {
        match self {
            SimHost::Client(c) => c.next_wakeup(),
            SimHost::Server(s) => s.next_wakeup(),
        }
    }

    fn classify(packet: &WirePacket) -> TransportClass {
        match packet {
            WirePacket::Quic(_) => TransportClass::Udp,
            WirePacket::Tcp(_) => TransportClass::Tcp,
        }
    }

    fn stall_detail(&self) -> Option<String> {
        match self {
            SimHost::Client(c) => c.stall_detail(),
            SimHost::Server(_) => None,
        }
    }
}

/// One connection a host drives, with the deadline its host's
/// [`Deadlines`] index holds for it kept alongside, so re-arming after a
/// pump reads the old deadline without a second map lookup.
#[derive(Debug)]
pub(crate) struct Tracked<C, X = ()> {
    /// The connection.
    pub conn: C,
    /// The host's own per-connection bookkeeping.
    pub info: X,
    armed: Option<SimTime>,
}

impl<C, X> Tracked<C, X> {
    /// A connection with no deadline indexed yet.
    pub fn new(conn: C, info: X) -> Self {
        Tracked {
            conn,
            info,
            armed: None,
        }
    }
}

/// A host's connections, found by id: the container
/// [`Deadlines::fire_due`] fires into.
pub(crate) trait TrackedConns<C, X> {
    /// The connection `id`, if the host holds it.
    fn tracked_mut(&mut self, id: ConnId) -> Option<&mut Tracked<C, X>>;
}

/// A client's connections in a dense table indexed by port: the client
/// hands out ports 1, 2, 3, ... and keeps every connection to the end of
/// its visit, so the connection on port `p` sits at index `p - 1`. A
/// lookup checks the whole [`ConnId`], not just its port.
#[derive(Debug)]
pub(crate) struct PortTable<C, X> {
    slots: Vec<(ConnId, Tracked<C, X>)>,
}

impl<C, X> Default for PortTable<C, X> {
    fn default() -> Self {
        PortTable { slots: Vec::new() }
    }
}

impl<C, X> PortTable<C, X> {
    /// The port the next connection must use.
    pub fn next_port(&self) -> u32 {
        u32::try_from(self.slots.len() + 1).unwrap_or(u32::MAX)
    }

    /// Adds the connection `id`, which must use [`Self::next_port`].
    pub fn push(&mut self, id: ConnId, st: Tracked<C, X>) {
        debug_assert_eq!(id.port, self.next_port(), "ports are handed out densely");
        self.slots.push((id, st));
    }

    /// Index of the slot holding connection `id`, if any.
    fn index(&self, id: ConnId) -> Option<usize> {
        let at = usize::try_from(id.port).ok()?.checked_sub(1)?;
        self.slots
            .get(at)
            .is_some_and(|(held, _)| *held == id)
            .then_some(at)
    }

    /// The connection `id`.
    pub fn get(&self, id: ConnId) -> Option<&Tracked<C, X>> {
        self.slots.get(self.index(id)?).map(|(_, st)| st)
    }

    /// The connection `id`, mutably.
    pub fn get_mut(&mut self, id: ConnId) -> Option<&mut Tracked<C, X>> {
        let at = self.index(id)?;
        self.slots.get_mut(at).map(|(_, st)| st)
    }
}

impl<C, X> TrackedConns<C, X> for PortTable<C, X> {
    fn tracked_mut(&mut self, id: ConnId) -> Option<&mut Tracked<C, X>> {
        self.get_mut(id)
    }
}

/// `(deadline, conn)` pairs mirroring each tracked connection's
/// `next_timeout()`, sorted by time, then by connection id. A host's
/// wakeup reads the first pair instead of scanning every connection.
#[derive(Debug, Default)]
pub(crate) struct Deadlines(Vec<(SimTime, ConnId)>);

impl Deadlines {
    /// The earliest indexed deadline.
    pub fn first(&self) -> Option<SimTime> {
        self.0.first().map(|&(t, _)| t)
    }

    /// Number of leading pairs due at `now`.
    fn due_len(&self, now: SimTime) -> usize {
        self.0.partition_point(|&(t, _)| t <= now)
    }

    /// Connections whose deadline is at or before `now`, by time, then
    /// by id.
    pub fn due(&self, now: SimTime) -> impl Iterator<Item = ConnId> + '_ {
        self.0.iter().take(self.due_len(now)).map(|&(_, id)| id)
    }

    /// Fires every connection due at `now`, by time, then by id, and
    /// reports each to `fired`. Each `on_timeout` only mutates its own
    /// connection, so this order is as good as a scan in id order.
    pub fn fire_due<C: Driveable, X>(
        &mut self,
        now: SimTime,
        conns: &mut impl TrackedConns<C, X>,
        mut fired: impl FnMut(ConnId),
    ) {
        let due = self.due_len(now);
        for (_, id) in self.0.drain(..due) {
            let Some(st) = conns.tracked_mut(id) else {
                continue;
            };
            st.armed = None;
            st.conn.on_timeout(now);
            fired(id);
        }
    }

    /// Re-mirrors `st`'s `next_timeout()` after the connection absorbed
    /// input or produced output.
    pub fn rearm<C: Driveable, X>(&mut self, id: ConnId, st: &mut Tracked<C, X>) {
        let fresh = st.conn.next_timeout();
        if fresh == st.armed {
            return;
        }
        if let Some(old) = st.armed.take() {
            if let Ok(at) = self.0.binary_search(&(old, id)) {
                self.0.remove(at);
            }
        }
        if let Some(t) = fresh {
            if let Err(at) = self.0.binary_search(&(t, id)) {
                self.0.insert(at, (t, id));
            }
        }
        st.armed = fresh;
    }
}

/// A set of connection ids, ascending: the connections a host's pump
/// must poll.
#[derive(Debug, Default)]
pub(crate) struct ConnSet(Vec<ConnId>);

impl ConnSet {
    /// Adds `id` unless it is already held.
    pub fn insert(&mut self, id: ConnId) {
        if let Err(at) = self.0.binary_search(&id) {
            self.0.insert(at, id);
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Removes and returns the smallest id above `after` (any id when
    /// `after` is `None`) for which `eligible` holds.
    pub fn take_next(
        &mut self,
        after: Option<ConnId>,
        mut eligible: impl FnMut(ConnId) -> bool,
    ) -> Option<ConnId> {
        let start = after.map_or(0, |c| self.0.partition_point(|&id| id <= c));
        let at = start + self.0.iter().skip(start).position(|&id| eligible(id))?;
        Some(self.0.remove(at))
    }

    /// Removes every id, handing them over ascending.
    pub fn drain(&mut self) -> impl Iterator<Item = ConnId> + '_ {
        self.0.drain(..)
    }
}
