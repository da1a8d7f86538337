//! The node enum driven by the `h3cdn-netsim` engine.

use h3cdn_netsim::{Node, NodeCtx, TransportClass};
use h3cdn_sim_core::SimTime;
use h3cdn_transport::WirePacket;

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
