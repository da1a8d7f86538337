//! Fixture: a TCP-style endpoint whose only route to a panic site
//! starts at its `Driveable` driving method. No engine, no queue and no
//! QUIC: if TCP's driving methods are not dispatch roots, the site is
//! unreachable and the gate stays silent.
//! This file is never compiled; it only feeds the scanner.

use std::collections::BTreeMap;

pub struct TcpConnection {
    in_flight: BTreeMap<u64, u64>,
    bytes_in_flight: u64,
}

impl Driveable for TcpConnection {
    type Wire = u64;

    fn on_packet(&mut self, ack: u64, now: u64) {
        self.process_ack(ack, now);
    }
}

impl TcpConnection {
    fn process_ack(&mut self, ack: u64, _now: u64) {
        // HIT hot-path-panic: reachable only via TcpConnection::on_packet.
        let len = self.in_flight.remove(&ack).expect("covered segment");
        self.bytes_in_flight -= len;
    }
}
