//! A minimal two-endpoint harness for exercising sans-IO state machines.
//!
//! [`Duplex`] shuttles wire items between two [`Driveable`] endpoints over
//! a fixed-latency pipe with optional scripted loss. It exists so unit and
//! integration tests (here, in `h3cdn-http`, and in downstream crates) can
//! drive a protocol pair to quiescence without standing up the full
//! `h3cdn-netsim` engine.

use h3cdn_sim_core::{EventQueue, SimDuration, SimTime};

/// The one interface that drives a sans-IO endpoint: packets and timer
/// expiries in, packets out. Every connection in the stack implements
/// it and nothing else drives one: the transports
/// ([`crate::tcp::TcpConnection`], [`crate::tls::SecureTcp`],
/// [`crate::quic::QuicConnection`]), the HTTP endpoints of `h3cdn-http`
/// (`H1Client`, `H2Client`, `H3Client`, `TcpServer`, `QuicServer`) and
/// its protocol-erased `ClientConn` and `ServerConn`. [`Duplex`] and the
/// browser hosts therefore drive TCP+TLS and QUIC by the same calls.
pub trait Driveable {
    /// The wire item exchanged between the two endpoints.
    type Wire;

    /// Feeds one received wire item.
    fn on_packet(&mut self, packet: Self::Wire, now: SimTime);

    /// Produces the next outgoing wire item, or `None` when idle. Call
    /// repeatedly until `None` after any input.
    fn poll_transmit(&mut self, now: SimTime) -> Option<Self::Wire>;

    /// Earliest pending timer deadline.
    fn next_timeout(&self) -> Option<SimTime>;

    /// Fires expired timers. Call when virtual time reaches
    /// [`Driveable::next_timeout`].
    fn on_timeout(&mut self, now: SimTime);

    /// Earliest *give-up* deadline — a timer that, when fired, only
    /// abandons the connection (handshake or idle timeout) rather than
    /// making forward progress. [`Duplex::run`] quiesces instead of
    /// chasing these; [`Duplex::run_to_close`] fires them too.
    fn close_deadline(&self) -> Option<SimTime>;
}

/// A deterministic, fixed-latency pipe between endpoints `A` and `B`.
///
/// Loss is scripted: `drop_a_to_b` / `drop_b_to_a` hold indices (per
/// direction, counted from 0) of wire items the pipe swallows. Scripted
/// loss keeps failure tests exact — "drop the 5th packet" — instead of
/// probabilistic.
#[derive(Debug)]
pub struct Duplex<A: Driveable, B: Driveable<Wire = A::Wire>> {
    /// Endpoint A (conventionally the client).
    pub a: A,
    /// Endpoint B (conventionally the server).
    pub b: B,
    latency: SimDuration,
    now: SimTime,
    queue: EventQueue<(bool, A::Wire)>, // (towards_a, item)
    sent_a: u64,
    sent_b: u64,
    drop_a_to_b: Vec<u64>,
    drop_b_to_a: Vec<u64>,
}

impl<A: Driveable, B: Driveable<Wire = A::Wire>> Duplex<A, B> {
    /// Creates a loss-free pipe with the given one-way latency.
    pub fn new(a: A, b: B, latency: SimDuration) -> Self {
        Duplex {
            a,
            b,
            latency,
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            sent_a: 0,
            sent_b: 0,
            drop_a_to_b: Vec::new(),
            drop_b_to_a: Vec::new(),
        }
    }

    /// Schedules the A→B items with these indices to be dropped.
    pub fn drop_a_to_b(mut self, indices: Vec<u64>) -> Self {
        self.drop_a_to_b = indices;
        self
    }

    /// Schedules the B→A items with these indices to be dropped.
    pub fn drop_b_to_a(mut self, indices: Vec<u64>) -> Self {
        self.drop_b_to_a = indices;
        self
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    fn pump(&mut self) {
        loop {
            let mut progressed = false;
            while let Some(item) = self.a.poll_transmit(self.now) {
                progressed = true;
                let idx = self.sent_a;
                self.sent_a += 1;
                if !self.drop_a_to_b.contains(&idx) {
                    self.queue.schedule(self.now + self.latency, (false, item));
                }
            }
            while let Some(item) = self.b.poll_transmit(self.now) {
                progressed = true;
                let idx = self.sent_b;
                self.sent_b += 1;
                if !self.drop_b_to_a.contains(&idx) {
                    self.queue.schedule(self.now + self.latency, (true, item));
                }
            }
            if !progressed {
                break;
            }
        }
    }

    /// Runs until both endpoints quiesce: no queued items, no transmits,
    /// and no timers other than give-up deadlines (handshake/idle
    /// abandonment — see [`Driveable::close_deadline`]). Stopping short
    /// of those keeps transfer tests exact while connections still carry
    /// their RFC 9000-style idle timers; use [`Duplex::run_to_close`] to
    /// drive the pair all the way through the give-up timers.
    ///
    /// # Panics
    ///
    /// Panics when the pair fails to quiesce within `max_steps` events.
    pub fn run(&mut self, max_steps: u64) {
        self.drive(max_steps, false);
    }

    /// Runs until both endpoints are fully inert, firing give-up timers
    /// (handshake/idle abandonment) too — the pair ends closed.
    ///
    /// # Panics
    ///
    /// Panics when the pair fails to quiesce within `max_steps` events.
    pub fn run_to_close(&mut self, max_steps: u64) {
        self.drive(max_steps, true);
    }

    fn drive(&mut self, max_steps: u64, chase_abandon: bool) {
        self.pump();
        for _ in 0..max_steps {
            if !chase_abandon
                && self.queue.peek_time().is_none()
                && self.a.next_timeout() == self.a.close_deadline()
                && self.b.next_timeout() == self.b.close_deadline()
            {
                return;
            }
            let next = [
                self.queue.peek_time(),
                self.a.next_timeout(),
                self.b.next_timeout(),
            ]
            .into_iter()
            .flatten()
            .min();
            let Some(next) = next else {
                return;
            };
            self.now = next;
            if self.queue.peek_time() == Some(next) {
                let (_, (towards_a, item)) = self.queue.pop().expect("peeked item");
                if towards_a {
                    self.a.on_packet(item, self.now);
                } else {
                    self.b.on_packet(item, self.now);
                }
            } else if self.a.next_timeout() == Some(next) {
                self.a.on_timeout(self.now);
            } else {
                self.b.on_timeout(self.now);
            }
            self.pump();
        }
        panic!("duplex did not quiesce within {max_steps} steps");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn_id::{ConnId, MsgTag};
    use crate::tcp::{TcpConfig, TcpConnection, TcpEvent};
    use h3cdn_netsim::NodeId;

    fn pair() -> (TcpConnection, TcpConnection) {
        let id = ConnId::new(NodeId::from_raw(0), NodeId::from_raw(1), 1);
        let cfg = TcpConfig {
            initial_rtt: SimDuration::from_millis(30),
            ..TcpConfig::default()
        };
        (
            TcpConnection::client(id, cfg.clone()),
            TcpConnection::server(id, cfg),
        )
    }

    #[test]
    fn duplex_drives_tcp_to_completion() {
        let (mut client, server) = pair();
        client.connect(SimTime::ZERO);
        client.write_message(10_000, MsgTag(5));
        let mut pipe = Duplex::new(client, server, SimDuration::from_millis(15));
        pipe.run(100_000);
        let mut delivered = false;
        while let Some(ev) = pipe.b.poll_event() {
            if matches!(ev, TcpEvent::Delivered { tag: MsgTag(5), .. }) {
                delivered = true;
            }
        }
        assert!(delivered);
    }

    #[test]
    fn scripted_loss_applies_per_direction() {
        let (mut client, server) = pair();
        client.connect(SimTime::ZERO);
        client.write_message(5_000, MsgTag(1));
        // Drop the client's first data segment (index 1; index 0 is SYN).
        let mut pipe =
            Duplex::new(client, server, SimDuration::from_millis(15)).drop_a_to_b(vec![1]);
        pipe.run(100_000);
        let mut delivered = false;
        while let Some(ev) = pipe.b.poll_event() {
            if matches!(ev, TcpEvent::Delivered { .. }) {
                delivered = true;
            }
        }
        assert!(delivered, "retransmission must recover scripted loss");
        assert!(pipe.a.retransmit_count() > 0);
    }
}
