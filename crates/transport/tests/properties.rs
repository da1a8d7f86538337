//! Property-based tests of the transport state machines: under arbitrary
//! workloads and arbitrary finite loss patterns, the reliability and
//! ordering invariants must hold.

use h3cdn_netsim::NodeId;
use h3cdn_sim_core::{SimDuration, SimTime};
use h3cdn_transport::cc::{CcAlgorithm, MIN_WINDOW};
use h3cdn_transport::duplex::{Driveable, Duplex};
use h3cdn_transport::quic::{QuicConfig, QuicConnection, QuicEvent};
use h3cdn_transport::tcp::{TcpConfig, TcpConnection, TcpEvent};
use h3cdn_transport::{ConnId, MsgTag, RttEstimator};
use proptest::prelude::*;

fn conn_id() -> ConnId {
    ConnId::new(NodeId::from_raw(0), NodeId::from_raw(1), 1)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    /// TCP delivers every message exactly once, in write order, for any
    /// message mix and any finite set of dropped packets.
    #[test]
    fn tcp_delivers_all_messages_in_order_under_loss(
        sizes in prop::collection::vec(1u64..60_000, 1..12),
        drops in prop::collection::vec(0u64..80, 0..12),
        rtt_ms in 10u64..120,
    ) {
        let cfg = TcpConfig {
            initial_rtt: SimDuration::from_millis(rtt_ms),
            ..TcpConfig::default()
        };
        let mut client = TcpConnection::client(conn_id(), cfg.clone());
        let server = TcpConnection::server(conn_id(), cfg);
        client.connect(SimTime::ZERO);
        for (i, &len) in sizes.iter().enumerate() {
            client.write_message(len, MsgTag(i as u64));
        }
        let mut pipe = Duplex::new(client, server, SimDuration::from_millis(rtt_ms / 2))
            .drop_a_to_b(drops.clone())
            .drop_b_to_a(drops.iter().map(|d| d.wrapping_add(3)).collect());
        pipe.run(2_000_000);
        let delivered: Vec<u64> = std::iter::from_fn(|| pipe.b.poll_event())
            .filter_map(|e| match e {
                TcpEvent::Delivered { tag, .. } => Some(tag.0),
                _ => None,
            })
            .collect();
        prop_assert_eq!(delivered, (0..sizes.len() as u64).collect::<Vec<_>>());
    }

    /// QUIC delivers every message exactly once, in per-stream write
    /// order, for any stream layout and any finite loss pattern.
    #[test]
    fn quic_delivers_all_streams_under_loss(
        stream_sizes in prop::collection::vec(
            prop::collection::vec(1u64..40_000, 1..4), 1..5),
        drops in prop::collection::vec(0u64..60, 0..10),
        rtt_ms in 10u64..120,
    ) {
        let cfg = QuicConfig {
            initial_rtt: SimDuration::from_millis(rtt_ms),
            ..QuicConfig::default()
        };
        let mut client = QuicConnection::client(conn_id(), cfg.clone(), None, false);
        let server = QuicConnection::server(conn_id(), cfg);
        let mut expected: Vec<Vec<u64>> = Vec::new();
        let mut tag = 0u64;
        for msgs in &stream_sizes {
            let stream = client.open_stream();
            let mut order = Vec::new();
            for &len in msgs {
                client.write_stream(stream, len, MsgTag(tag));
                order.push(tag);
                tag += 1;
            }
            expected.push(order);
        }
        client.connect(SimTime::ZERO);
        let mut pipe = Duplex::new(client, server, SimDuration::from_millis(rtt_ms / 2))
            .drop_a_to_b(drops.clone())
            .drop_b_to_a(drops.iter().map(|d| d.wrapping_add(1)).collect());
        pipe.run(2_000_000);
        let mut per_stream: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
        while let Some(ev) = pipe.b.poll_event() {
            if let QuicEvent::Delivered { stream, tag, .. } = ev {
                per_stream.entry(stream).or_default().push(tag.0);
            }
        }
        let got: Vec<Vec<u64>> = per_stream.into_values().collect();
        let mut want = expected;
        want.sort_by_key(|v| v[0]);
        let mut got_sorted = got;
        got_sorted.sort_by_key(|v| v[0]);
        prop_assert_eq!(got_sorted, want);
    }

    /// Congestion controllers never report a window below the floor, and
    /// in-flight accounting never underflows, under arbitrary event
    /// sequences.
    #[test]
    fn congestion_controllers_hold_invariants(
        algo in prop_oneof![Just(CcAlgorithm::NewReno), Just(CcAlgorithm::Cubic)],
        ops in prop::collection::vec(0u8..4, 1..200),
    ) {
        let mut cc = algo.build();
        let mut now_ms = 0u64;
        let mut outstanding: u64 = 0;
        for op in ops {
            now_ms += 7;
            let now = SimTime::ZERO + SimDuration::from_millis(now_ms);
            match op {
                0 => {
                    cc.on_packet_sent(1200, now);
                    outstanding += 1200;
                }
                1 if outstanding > 0 => {
                    cc.on_ack(1200.min(outstanding), now);
                    outstanding = outstanding.saturating_sub(1200);
                }
                2 => cc.on_congestion_event(now),
                _ => cc.on_timeout(now),
            }
            prop_assert!(cc.window() >= MIN_WINDOW, "window {}", cc.window());
            prop_assert!(cc.bytes_in_flight() <= outstanding + 1200);
        }
    }

    /// The RTT estimator's smoothed value stays within the sample range,
    /// and the RTO respects its floor.
    #[test]
    fn rtt_estimator_stays_in_sample_envelope(
        samples in prop::collection::vec(1u64..2_000, 1..100),
    ) {
        let mut est = RttEstimator::new(SimDuration::from_millis(333));
        for &s in &samples {
            est.on_sample(SimDuration::from_millis(s));
        }
        let lo = *samples.iter().min().expect("non-empty");
        let hi = *samples.iter().max().expect("non-empty");
        let srtt = est.smoothed().as_millis_f64();
        prop_assert!(srtt >= lo as f64 - 1e-9 && srtt <= hi as f64 + 1e-9,
            "srtt {srtt} outside [{lo}, {hi}]");
        prop_assert_eq!(est.min(), SimDuration::from_millis(lo));
        prop_assert!(est.rto() >= SimDuration::from_millis(200));
    }

    /// Handshakes complete under any finite loss prefix (both stacks).
    #[test]
    fn handshakes_survive_any_finite_loss_prefix(
        drop_count in 0u64..6,
        rtt_ms in 10u64..100,
        quic in proptest::bool::ANY,
    ) {
        let drops: Vec<u64> = (0..drop_count).collect();
        if quic {
            let cfg = QuicConfig {
                initial_rtt: SimDuration::from_millis(rtt_ms),
                ..QuicConfig::default()
            };
            let mut client = QuicConnection::client(conn_id(), cfg.clone(), None, false);
            client.connect(SimTime::ZERO);
            let server = QuicConnection::server(conn_id(), cfg);
            let mut pipe = Duplex::new(client, server, SimDuration::from_millis(rtt_ms / 2))
                .drop_a_to_b(drops.clone())
                .drop_b_to_a(drops);
            pipe.run(3_000_000);
            prop_assert!(pipe.a.handshake_complete_at().is_some());
            prop_assert!(pipe.b.handshake_complete_at().is_some());
        } else {
            let cfg = TcpConfig {
                initial_rtt: SimDuration::from_millis(rtt_ms),
                ..TcpConfig::default()
            };
            let mut client = TcpConnection::client(conn_id(), cfg.clone());
            client.connect(SimTime::ZERO);
            let server = TcpConnection::server(conn_id(), cfg);
            let mut pipe = Duplex::new(client, server, SimDuration::from_millis(rtt_ms / 2))
                .drop_a_to_b(drops.clone())
                .drop_b_to_a(drops);
            pipe.run(3_000_000);
            prop_assert!(pipe.a.is_established());
            prop_assert!(pipe.b.is_established());
        }
    }
}

/// Reordering tolerance: under heavy per-packet jitter (which netsim's
/// scripted Duplex cannot produce), both transports must still deliver
/// everything exactly once and in order, without retransmission storms.
#[test]
fn transports_tolerate_reordering_jitter() {
    use h3cdn_netsim::{Engine, Network, Node, NodeCtx, PathSpec};
    use h3cdn_sim_core::units::ByteCount;

    // A thin Node wrapper that drives one connection end. Test-local,
    // so the enum's footprint is irrelevant.
    #[allow(clippy::large_enum_variant)]
    enum End {
        Tcp(TcpConnection),
        Quic(QuicConnection),
    }
    struct Host {
        end: End,
        peer: h3cdn_netsim::NodeId,
        delivered: Vec<u64>,
        started: bool,
    }
    impl Host {
        fn pump(&mut self, ctx: &mut NodeCtx<'_, Wire>) {
            let now = ctx.now();
            loop {
                let (pkt, size): (Wire, u64) = match &mut self.end {
                    End::Tcp(c) => match c.poll_transmit(now) {
                        Some(s) => {
                            let b = s.wire_bytes();
                            (Wire::Tcp(s), b)
                        }
                        None => break,
                    },
                    End::Quic(c) => match c.poll_transmit(now) {
                        Some(p) => {
                            let b = p.wire_bytes();
                            (Wire::Quic(p), b)
                        }
                        None => break,
                    },
                };
                ctx.send(self.peer, pkt, ByteCount::new(size));
            }
            match &mut self.end {
                End::Tcp(c) => {
                    while let Some(ev) = c.poll_event() {
                        if let TcpEvent::Delivered { tag, .. } = ev {
                            self.delivered.push(tag.0);
                        }
                    }
                }
                End::Quic(c) => {
                    while let Some(ev) = c.poll_event() {
                        if let QuicEvent::Delivered { tag, .. } = ev {
                            self.delivered.push(tag.0);
                        }
                    }
                }
            }
        }
    }
    #[derive(Debug)]
    enum Wire {
        Tcp(h3cdn_transport::tcp::TcpSegment),
        Quic(h3cdn_transport::quic::QuicPacket),
    }
    impl Node for Host {
        type Packet = Wire;
        fn handle_packet(&mut self, packet: Wire, ctx: &mut NodeCtx<'_, Wire>) {
            let now = ctx.now();
            match (&mut self.end, packet) {
                (End::Tcp(c), Wire::Tcp(s)) => c.on_packet(s, now),
                (End::Quic(c), Wire::Quic(p)) => c.on_packet(p, now),
                _ => unreachable!("mixed transports"),
            }
            self.pump(ctx);
        }
        fn handle_wakeup(&mut self, ctx: &mut NodeCtx<'_, Wire>) {
            self.started = true;
            let now = ctx.now();
            match &mut self.end {
                End::Tcp(c) => c.on_timeout(now),
                End::Quic(c) => c.on_timeout(now),
            }
            self.pump(ctx);
        }
        fn next_wakeup(&self) -> Option<SimTime> {
            if !self.started {
                // Initial pump: flush whatever connect() queued.
                return Some(SimTime::ZERO);
            }
            match &self.end {
                End::Tcp(c) => c.next_timeout(),
                End::Quic(c) => c.next_timeout(),
            }
        }
    }
    impl std::fmt::Debug for Host {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "Host")
        }
    }

    for quic in [false, true] {
        let mut net = Network::new(9);
        let a = net.add_node();
        let b = net.add_node();
        // 5 ms jitter on a 10 ms path: heavy reordering.
        let spec =
            PathSpec::with_delay(SimDuration::from_millis(10)).jitter(SimDuration::from_millis(5));
        net.set_path_symmetric(a, b, spec);
        let n_msgs = 30u64;
        let (end_a, end_b) = if quic {
            let cfg = h3cdn_transport::quic::QuicConfig {
                initial_rtt: SimDuration::from_millis(20),
                ..Default::default()
            };
            let mut c = QuicConnection::client(conn_id(), cfg.clone(), None, false);
            let s = c.open_stream();
            for i in 0..n_msgs {
                c.write_stream(s, 5_000, MsgTag(i));
            }
            c.connect(SimTime::ZERO);
            (
                End::Quic(c),
                End::Quic(QuicConnection::server(conn_id(), cfg)),
            )
        } else {
            let cfg = TcpConfig {
                initial_rtt: SimDuration::from_millis(20),
                ..Default::default()
            };
            let mut c = TcpConnection::client(conn_id(), cfg.clone());
            for i in 0..n_msgs {
                c.write_message(5_000, MsgTag(i));
            }
            c.connect(SimTime::ZERO);
            (End::Tcp(c), End::Tcp(TcpConnection::server(conn_id(), cfg)))
        };
        let hosts = vec![
            Host {
                end: end_a,
                peer: b,
                delivered: vec![],
                started: false,
            },
            Host {
                end: end_b,
                peer: a,
                delivered: vec![],
                started: false,
            },
        ];
        let mut engine = Engine::new(net, hosts);
        engine
            .run_until_checked(SimTime::ZERO + SimDuration::from_secs(60))
            .expect("the transfer neither spins nor deadlocks");
        let (_, hosts) = engine.into_parts();
        assert_eq!(
            hosts[1].delivered,
            (0..n_msgs).collect::<Vec<_>>(),
            "{} must deliver all messages in order under reordering",
            if quic { "QUIC" } else { "TCP" }
        );
        // Reordering alone must not look like loss: a handful of spurious
        // retransmissions at most.
        let rtx = match &hosts[0].end {
            End::Tcp(c) => c.retransmit_count(),
            End::Quic(c) => c.retransmit_count(),
        };
        assert!(
            rtx <= n_msgs,
            "reordering storm: {rtx} retransmissions for {n_msgs} messages"
        );
    }
}
