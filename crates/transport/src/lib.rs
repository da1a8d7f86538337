//! Sans-IO transport state machines for the `h3cdn` reproduction.
//!
//! Three protocol stacks from the paper's measurement are rebuilt here:
//!
//! * [`tcp`] — a segment-level TCP with a three-way handshake, cumulative
//!   acknowledgements, fast retransmit, RTO, and strictly in-order
//!   delivery. In-order delivery is the load-bearing property: one lost
//!   segment stalls *every* HTTP/2 stream multiplexed on the connection,
//!   which is the head-of-line blocking the paper's Fig. 9 quantifies.
//! * [`tls`] — a TLS session layer over TCP: it runs the [`handshake`]
//!   on the TCP byte stream once the 3-way handshake completes, and
//!   holds application data until the handshake lets it leave.
//! * [`quic`] — a QUIC connection that runs the same [`handshake`] on
//!   its CRYPTO stream from `connect` (1-RTT, 0-RTT on resumption),
//!   with independent ordered streams, ACK ranges, packet-number loss
//!   detection and PTO (RFC 9002's algorithm, simplified), and
//!   connection-level flow control.
//!
//! [`handshake::Handshake`] is the one TLS state machine: TLS 1.3 full
//! and PSK with 0-RTT accepted or refused, TLS 1.2 full and
//! abbreviated, as tagged messages that cross the simulated network,
//! plus the timing record the HAR reads. Both stacks also share the
//! [`cc`] congestion controllers (NewReno, Cubic and BBR) and the
//! [`rtt`] estimator, so H2-vs-H3 comparisons measure protocol
//! structure rather than tuning differences — mirroring the paper's
//! methodology.
//!
//! All state machines are *sans-IO*: they consume packets and timeouts,
//! and emit packets and events, with no clock or socket of their own.
//! Each is driven through one trait, [`duplex::Driveable`]
//! (`on_packet`, `poll_transmit`, `next_timeout`, `on_timeout`,
//! `close_deadline`), the same interface the HTTP layer implements on
//! top; [`duplex::Duplex`] drives any two of them over a scripted pipe.
//! The [`wire::WirePacket`] enum is the single packet type carried by
//! `h3cdn-netsim` nodes.

pub mod cc;
pub mod conn_id;
pub mod duplex;
pub mod handshake;
pub mod quic;
pub mod rtt;
mod seq_ring;
pub mod tcp;
pub mod tls;
pub mod wire;

pub use cc::{CcAlgorithm, CongestionController};
pub use conn_id::{ConnId, MsgTag};
pub use rtt::RttEstimator;
pub use wire::WirePacket;

/// Why a connection gave up and closed itself — the typed failure the
/// browser layer reacts to (fallback, retry, broken-QUIC marking) instead
/// of a connection that silently retries forever into a blackhole.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CloseReason {
    /// The handshake did not complete within the configured deadline
    /// (e.g. every handshake packet fell into a UDP blackhole).
    HandshakeTimeout,
    /// Nothing was received for the configured idle period while the
    /// connection still believed it had — or might get — work
    /// (RFC 9000 §10.1 semantics: retransmitting into a dead path does
    /// not postpone the deadline).
    IdleTimeout,
    /// The server explicitly refused the connection before accepting it
    /// (QUIC CONNECTION_REFUSED / TCP RST from an overloaded edge's
    /// admission controller). Unlike the timeouts, the failure is
    /// *immediate* — the client learns within one RTT and can fall back
    /// at once.
    Refused,
}

impl std::fmt::Display for CloseReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CloseReason::HandshakeTimeout => write!(f, "handshake-timeout"),
            CloseReason::IdleTimeout => write!(f, "idle-timeout"),
            CloseReason::Refused => write!(f, "refused"),
        }
    }
}
