//! A sans-IO QUIC connection (RFC 9000/9001/9002 behaviour, simplified
//! where the simplification provably does not affect the paper's
//! measurements).
//!
//! What matters for the reproduction, and is therefore modelled
//! faithfully:
//!
//! * **Combined transport+TLS handshake**: ClientInitial → server flight →
//!   client Finished, with the first application byte leaving at 1 RTT —
//!   versus 2–3 RTT for TCP+TLS. The messages of the shared
//!   [`Handshake`](crate::handshake::Handshake) travel on a reliable
//!   *crypto stream* using the same delivery machinery as data.
//! * **0-RTT resumption**: with a stored ticket, stream data departs with
//!   the ClientInitial. This is the mechanism behind the consecutive-visit
//!   gains of Fig. 8 / Table III.
//! * **Independent ordered streams**: a lost packet stalls only the
//!   streams whose frames it carried. Under loss, H3 pages with many CDN
//!   resources keep progressing where H2 stalls — Fig. 9's slope ordering.
//! * **ACK-range loss detection with packet and time thresholds, PTO**
//!   (RFC 9002 §6), driving the same congestion controllers as TCP.
//! * **Connection- and stream-level flow control** (`MAX_DATA`,
//!   `MAX_STREAM_DATA`).
//!
//! Simplifications: no connection migration, no stateless retry, and no
//! explicit key phases — none of which the paper's metrics are sensitive
//! to.
//!
//! Per-packet state is flat. Sent packets sit in a ring ordered by
//! packet number (`SeqRing`). Every application stream is client-opened
//! and bidirectional, so its id is a multiple of 4 and its state (both
//! halves, scheduling class, and the limit each side granted) sits at
//! index `id / 4` of one dense table; the crypto stream keeps its own
//! send and receive halves. The scheduler's per-packet priority, limit
//! and stream lookups are array reads.

mod connection;
mod streams;

pub use connection::{QuicConfig, QuicConnection, QuicEvent};

use crate::conn_id::{ConnId, MsgTag};

/// IP + UDP + QUIC short-header overhead per packet, in bytes.
pub(crate) const QUIC_PACKET_OVERHEAD: u64 = 42;

/// Maximum payload (frame bytes) per packet after path-MTU discovery —
/// production stacks (Chrome, quiche) settle near 1450-byte datagrams on
/// 1500-MTU paths, giving QUIC per-packet loss exposure comparable to
/// TCP's 1460-byte segments. Initial packets are padded to at least
/// 1200 bytes per RFC 9000 §14.1 (the ClientInitial's crypto flight
/// exceeds that on its own).
pub(crate) const MAX_PAYLOAD: u64 = 1410;

/// The reserved stream id carrying handshake (CRYPTO) data.
pub(crate) const CRYPTO_STREAM: u64 = u64::MAX;

/// A QUIC packet on the wire.
#[derive(Debug, Clone)]
pub struct QuicPacket {
    /// Connection this packet belongs to.
    pub conn: ConnId,
    /// `true` when sent by the client side.
    pub from_client: bool,
    /// Packet number (monotonic per direction).
    pub pn: u64,
    /// Frames carried.
    pub frames: Vec<Frame>,
}

impl QuicPacket {
    /// Serialised size on the wire.
    pub fn wire_bytes(&self) -> u64 {
        QUIC_PACKET_OVERHEAD + self.frames.iter().map(Frame::size).sum::<u64>()
    }

    /// Whether the packet elicits an acknowledgement (carries anything
    /// other than ACK frames).
    pub fn is_ack_eliciting(&self) -> bool {
        self.frames.iter().any(|f| !matches!(f, Frame::Ack { .. }))
    }
}

/// Frames carried by [`QuicPacket`]s.
#[derive(Debug, Clone)]
pub enum Frame {
    /// Ordered bytes of one stream (`CRYPTO_STREAM` carries the
    /// handshake).
    Stream {
        /// Stream id.
        id: u64,
        /// Offset of the first byte.
        offset: u64,
        /// Number of bytes.
        len: u64,
        /// Message boundaries ending within `(offset, offset+len]`.
        markers: Vec<(u64, MsgTag)>,
    },
    /// Acknowledgement of received packet-number ranges (inclusive),
    /// highest range first.
    Ack {
        /// Acknowledged `(low, high)` ranges, descending.
        ranges: Vec<(u64, u64)>,
    },
    /// Connection-level flow-control credit.
    MaxData {
        /// New connection receive limit in bytes.
        max: u64,
    },
    /// Stream-level flow-control credit.
    MaxStreamData {
        /// Stream id.
        id: u64,
        /// New per-stream receive limit in bytes.
        max: u64,
    },
    /// The server refused the connection during admission (RFC 9000
    /// §17.2.2's Retry/CLOSE with CONNECTION_REFUSED, collapsed to one
    /// frame): sent in response to a ClientInitial by an edge that is
    /// shedding load, closing the client side immediately.
    ConnectionRefused,
}

impl Frame {
    /// Serialised frame size in bytes.
    pub fn size(&self) -> u64 {
        match self {
            Frame::Stream { len, .. } => 12 + len,
            Frame::Ack { ranges } => 8 + 16 * ranges.len() as u64,
            Frame::MaxData { .. } => 9,
            Frame::MaxStreamData { .. } => 13,
            // Frame type + error code + empty reason phrase.
            Frame::ConnectionRefused => 11,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h3cdn_netsim::NodeId;

    #[test]
    fn packet_size_sums_frames() {
        let pkt = QuicPacket {
            conn: ConnId::new(NodeId::from_raw(0), NodeId::from_raw(1), 1),
            from_client: true,
            pn: 0,
            frames: vec![
                Frame::Stream {
                    id: 0,
                    offset: 0,
                    len: 100,
                    markers: vec![],
                },
                Frame::Ack {
                    ranges: vec![(0, 3)],
                },
            ],
        };
        assert_eq!(pkt.wire_bytes(), QUIC_PACKET_OVERHEAD + 112 + 24);
        assert!(pkt.is_ack_eliciting());
    }

    #[test]
    fn pure_ack_is_not_ack_eliciting() {
        let pkt = QuicPacket {
            conn: ConnId::new(NodeId::from_raw(0), NodeId::from_raw(1), 1),
            from_client: false,
            pn: 9,
            frames: vec![Frame::Ack {
                ranges: vec![(0, 9)],
            }],
        };
        assert!(!pkt.is_ack_eliciting());
    }
}
