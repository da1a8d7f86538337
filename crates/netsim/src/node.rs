//! The endpoint abstraction driven by the [`Engine`](crate::Engine).

use h3cdn_sim_core::units::ByteCount;
use h3cdn_sim_core::SimTime;

use crate::fault::TransportClass;

/// Identifies a node (protocol endpoint) inside one [`Network`](crate::Network).
///
/// Node ids are dense indices handed out by
/// [`Network::add_node`](crate::Network::add_node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Creates a node id from a raw index.
    ///
    /// Normally ids come from [`Network::add_node`](crate::Network::add_node);
    /// this constructor exists for tests and for re-hydrating recorded runs.
    pub fn from_raw(index: u32) -> Self {
        NodeId(index)
    }

    /// Returns the dense index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

/// A protocol endpoint attached to the simulated network.
///
/// Implementations are *sans-IO*: they never block and never read a clock.
/// The engine calls in with the current virtual time (via [`NodeCtx::now`])
/// and the node reacts by queueing sends on the context and by exposing its
/// next timer deadline through [`Node::next_wakeup`], which the engine
/// re-reads after every dispatch (the quinn "handshake the timer" pattern).
pub trait Node {
    /// The packet type this network carries.
    type Packet;

    /// Called when a packet addressed to this node survives the path loss
    /// process and finishes serialising through the ingress link.
    fn handle_packet(&mut self, packet: Self::Packet, ctx: &mut NodeCtx<'_, Self::Packet>);

    /// Called when the deadline previously returned by
    /// [`Node::next_wakeup`] is reached.
    fn handle_wakeup(&mut self, ctx: &mut NodeCtx<'_, Self::Packet>);

    /// The earliest instant at which this node needs
    /// [`Node::handle_wakeup`], or `None` when it is idle.
    fn next_wakeup(&self) -> Option<SimTime>;

    /// Classifies an outgoing packet for protocol-selective fault
    /// injection ([`crate::fault::FaultKind::UdpBlackhole`]). The default
    /// is [`TransportClass::Other`], which only protocol-blind faults
    /// affect; packet types that model real transports should override
    /// this (QUIC datagrams → `Udp`, TCP segments → `Tcp`).
    fn classify(packet: &Self::Packet) -> TransportClass {
        let _ = packet;
        TransportClass::Other
    }

    /// A human-readable description of why this node still has open work,
    /// or `None` when it is quiescent. The engine consults this when the
    /// event queue drains to distinguish a clean finish from an
    /// all-stalled deadlock (see
    /// [`Engine::run_until_checked`](crate::Engine::run_until_checked)); passive
    /// nodes (servers) should keep the default.
    fn stall_detail(&self) -> Option<String> {
        None
    }
}

/// Services available to a [`Node`] while it is being dispatched.
///
/// Sends are collected and routed by the engine after the handler returns,
/// which keeps dispatch free of re-entrancy.
#[derive(Debug)]
pub struct NodeCtx<'a, P> {
    now: SimTime,
    me: NodeId,
    sender: Option<NodeId>,
    outbox: &'a mut Vec<Outgoing<P>>,
}

#[derive(Debug)]
pub(crate) struct Outgoing<P> {
    pub dst: NodeId,
    pub packet: P,
    pub wire_size: ByteCount,
}

impl<'a, P> NodeCtx<'a, P> {
    pub(crate) fn new(
        now: SimTime,
        me: NodeId,
        sender: Option<NodeId>,
        outbox: &'a mut Vec<Outgoing<P>>,
    ) -> Self {
        NodeCtx {
            now,
            me,
            sender,
            outbox,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the node being dispatched.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// For packet dispatches, the node that sent the packet; `None` inside
    /// wakeups and injected sends.
    pub fn sender(&self) -> Option<NodeId> {
        self.sender
    }

    /// Queues `packet` for transmission to `dst`. `wire_size` is the
    /// serialised size used for transmission-delay and queue accounting.
    pub fn send(&mut self, dst: NodeId, packet: P, wire_size: ByteCount) {
        self.outbox.push(Outgoing {
            dst,
            packet,
            wire_size,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId(5);
        assert_eq!(id.index(), 5);
        assert_eq!(id.to_string(), "node#5");
    }

    #[test]
    fn ctx_collects_sends() {
        let mut outbox = Vec::new();
        let mut ctx: NodeCtx<'_, u8> =
            NodeCtx::new(SimTime::ZERO, NodeId(0), Some(NodeId(1)), &mut outbox);
        assert_eq!(ctx.me(), NodeId(0));
        assert_eq!(ctx.sender(), Some(NodeId(1)));
        ctx.send(NodeId(1), 9, ByteCount::new(50));
        ctx.send(NodeId(1), 10, ByteCount::new(60));
        assert_eq!(outbox.len(), 2);
        assert_eq!(outbox[0].packet, 9);
        assert_eq!(outbox[1].wire_size, ByteCount::new(60));
    }
}
