//! Isolated benches of the layers a visit hides from outside: the
//! event queue, netsim routing, TCP/TLS, QUIC and H2/H3 framing.
//!
//! Every traced run drives them with the same fixed inputs, sized to
//! the campaign's traffic: transfers of 1 MiB (a page's order of
//! magnitude), a 16-domain fabric (the typical domains per page) and
//! 1200-byte packets. Each bench repeats its work and reports the
//! median per-unit cost in host time; the counts it returns are exact.

use std::time::Instant;

use h3cdn::http::h2::{H2Client, TcpServer};
use h3cdn::http::h3::{H3Client, QuicServer};
use h3cdn::http::{Catalog, RequestMeta, ResponseSpec};
use h3cdn::netsim::{Network, NodeId, PathSpec};
use h3cdn::sim_core::units::ByteCount;
use h3cdn::sim_core::{EventQueue, SimDuration, SimRng, SimTime};
use h3cdn::transport::duplex::{Driveable, Duplex};
use h3cdn::transport::quic::{QuicConfig, QuicConnection, QuicEvent};
use h3cdn::transport::tcp::{TcpConfig, TcpConnection, TcpEvent};
use h3cdn::transport::tls::{SecureTcp, TlsConfig};
use h3cdn::transport::{ConnId, MsgTag};
use h3cdn::VisitConfig;

use crate::workloads::median;
use crate::Metric;

/// Bytes per transfer of the transport and HTTP benches.
const TRANSFER_BYTES: u64 = 1 << 20;
/// One-way latency of the transport pipes (a 40 ms RTT).
const PIPE_LATENCY: SimDuration = SimDuration::from_millis(20);
/// Scripted loss of the lossy transfers: every 25th packet of the
/// sender's first 400.
const LOSSY_EVERY: u64 = 25;
/// Upper bound on pipe events per transfer.
const MAX_STEPS: u64 = 50_000_000;

/// Pending-event depth of the shallow queue bench (a solo visit).
const QUEUE_DEPTH_SHALLOW: usize = 32;
/// Pending-event depth of the deep queue bench (a six-client swarm).
const QUEUE_DEPTH_DEEP: usize = 192;
/// Hold-model operations per queue measurement.
const QUEUE_OPS: usize = 1_000_000;

/// Server nodes of the routing fabric.
const ROUTE_DOMAINS: usize = 16;
/// Packets routed per routing measurement.
const ROUTE_PACKETS: usize = 400_000;

/// Repetitions of every bench; the median is reported.
const REPS: usize = 5;

fn conn_id() -> ConnId {
    ConnId::new(NodeId::from_raw(0), NodeId::from_raw(1), 1)
}

fn tcp_config() -> TcpConfig {
    TcpConfig {
        initial_rtt: PIPE_LATENCY * 2,
        ..TcpConfig::default()
    }
}

fn quic_config() -> QuicConfig {
    QuicConfig {
        initial_rtt: PIPE_LATENCY * 2,
        ..QuicConfig::default()
    }
}

/// Median of `REPS` runs of `f`, in host nanoseconds, with the last
/// run's result.
fn median_ns<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        let t = Instant::now();
        last = Some(std::hint::black_box(f()));
        times.push(t.elapsed().as_nanos() as f64);
    }
    (median(&times), last.expect("REPS > 0"))
}

/// The scripted drop list of a lossy transfer.
fn lossy_indices() -> Vec<u64> {
    (1..=400 / LOSSY_EVERY).map(|k| k * LOSSY_EVERY).collect()
}

/// Drives a pipe to quiescence and returns it.
fn drive<A, B>(mut pipe: Duplex<A, B>) -> Duplex<A, B>
where
    A: Driveable,
    B: Driveable<Wire = A::Wire>,
{
    pipe.run(MAX_STEPS);
    pipe
}

/// One raw TCP transfer of `TRANSFER_BYTES` client to server; returns
/// the sender's retransmissions, or `None` if the message never arrived.
fn tcp_transfer(drops: Vec<u64>) -> Option<u64> {
    let mut client = TcpConnection::client(conn_id(), tcp_config());
    client.connect(SimTime::ZERO);
    client.write_message(TRANSFER_BYTES, MsgTag(1));
    let server = TcpConnection::server(conn_id(), tcp_config());
    let mut pipe = drive(Duplex::new(client, server, PIPE_LATENCY).drop_a_to_b(drops));
    let delivered = std::iter::from_fn(|| pipe.b.poll_event())
        .any(|e| matches!(e, TcpEvent::Delivered { tag: MsgTag(1), .. }));
    delivered.then(|| pipe.a.retransmit_count())
}

/// One raw QUIC transfer of `TRANSFER_BYTES` client to server; returns
/// the sender's retransmissions, or `None` if the message never arrived.
fn quic_transfer(drops: Vec<u64>) -> Option<u64> {
    let mut client = QuicConnection::client(conn_id(), quic_config(), None, false);
    client.connect(SimTime::ZERO);
    let stream = client.open_stream();
    client.write_stream(stream, TRANSFER_BYTES, MsgTag(1));
    let server = QuicConnection::server(conn_id(), quic_config());
    let mut pipe = drive(Duplex::new(client, server, PIPE_LATENCY).drop_a_to_b(drops));
    let delivered = std::iter::from_fn(|| pipe.b.poll_event())
        .any(|e| matches!(e, QuicEvent::Delivered { tag: MsgTag(1), .. }));
    delivered.then(|| pipe.a.retransmit_count())
}

/// Eight 128 KiB responses: `TRANSFER_BYTES` of body in total.
fn catalog() -> std::sync::Arc<Catalog> {
    let mut cat = Catalog::new();
    for id in 1..=8 {
        cat.register(
            id,
            ResponseSpec {
                header_bytes: 250,
                body_bytes: TRANSFER_BYTES / 8,
                processing: SimDuration::ZERO,
                priority: h3cdn::http::types::priority::NORMAL,
            },
        );
    }
    cat.into_shared()
}

fn requests() -> impl Iterator<Item = RequestMeta> {
    (1..=8).map(|id| RequestMeta {
        id,
        header_bytes: 300,
    })
}

/// Eight H2 requests over TLS/TCP; returns the responses served.
fn h2_fetch() -> u64 {
    let mut client = H2Client::new(conn_id(), tcp_config(), TlsConfig::default());
    client.connect(SimTime::ZERO);
    for r in requests() {
        client.send_request(r);
    }
    let server = TcpServer::new(conn_id(), tcp_config(), catalog(), SimDuration::ZERO);
    drive(Duplex::new(client, server, PIPE_LATENCY))
        .b
        .requests_served()
}

/// Eight H3 requests over QUIC; returns the responses served.
fn h3_fetch() -> u64 {
    let mut client = H3Client::new(conn_id(), quic_config(), None, false);
    client.connect(SimTime::ZERO);
    for r in requests() {
        client.send_request(r);
    }
    let server = QuicServer::new(conn_id(), quic_config(), catalog(), SimDuration::ZERO);
    drive(Duplex::new(client, server, PIPE_LATENCY))
        .b
        .requests_served()
}

/// Handshakes per handshake measurement.
const HANDSHAKES: u32 = 200;

fn tls_handshakes() -> bool {
    (0..HANDSHAKES).all(|_| {
        let mut client = SecureTcp::client(conn_id(), tcp_config(), TlsConfig::default());
        client.connect(SimTime::ZERO);
        let server = SecureTcp::server(conn_id(), tcp_config());
        drive(Duplex::new(client, server, PIPE_LATENCY))
            .a
            .handshake_complete_at()
            .is_some()
    })
}

fn quic_handshakes() -> bool {
    (0..HANDSHAKES).all(|_| {
        let mut client = QuicConnection::client(conn_id(), quic_config(), None, false);
        client.connect(SimTime::ZERO);
        let server = QuicConnection::server(conn_id(), quic_config());
        drive(Duplex::new(client, server, PIPE_LATENCY))
            .a
            .handshake_complete_at()
            .is_some()
    })
}

/// Hold model at a fixed pending depth: each operation pops the
/// earliest event and schedules one a pseudo-random delay later.
/// Returns the sum of popped payloads (so nothing is optimised away).
fn queue_hold(depth: usize, delays: &[SimDuration]) -> u64 {
    let mut q: EventQueue<u64> = EventQueue::with_capacity(depth);
    for (i, &d) in delays.iter().take(depth).enumerate() {
        q.schedule(SimTime::ZERO + d, i as u64);
    }
    let mut sum = 0u64;
    for (i, &d) in delays.iter().cycle().take(QUEUE_OPS).enumerate() {
        let Some((now, v)) = q.pop() else {
            break;
        };
        sum = sum.wrapping_add(v);
        q.schedule(now + d, i as u64);
    }
    sum
}

/// Routes `ROUTE_PACKETS` alternating request and response packets
/// over a client-plus-`ROUTE_DOMAINS` fabric shaped like a visit's;
/// returns the packets delivered.
fn route_packets() -> u64 {
    let visit = VisitConfig::default();
    let mut net = Network::new(7);
    let client = net.add_node();
    net.set_ingress_link(client, visit.downlink, visit.queue);
    net.set_egress_link(client, visit.uplink, visit.queue);
    let servers: Vec<NodeId> = (0..ROUTE_DOMAINS)
        .map(|i| {
            let node = net.add_node();
            let half_rtt = SimDuration::from_millis(5 + 3 * i as u64);
            net.set_path_symmetric(client, node, PathSpec::with_delay(half_rtt));
            node
        })
        .collect();
    let mut now = SimTime::ZERO;
    let mut delivered = 0u64;
    for i in 0..ROUTE_PACKETS {
        let server = servers[i % ROUTE_DOMAINS];
        let (src, dst, size) = if i % 4 == 0 {
            (client, server, 120)
        } else {
            (server, client, 1200)
        };
        if net.route(src, dst, ByteCount::new(size), now).is_some() {
            delivered += 1;
        }
        now += SimDuration::from_micros(250);
    }
    delivered
}

/// Runs every isolated bench; returns its metrics (per-unit host
/// times and exact counts).
pub(crate) fn measure() -> Vec<Metric> {
    let mb = TRANSFER_BYTES as f64 / f64::from(1 << 20);
    let ms_per_mb = |ns: f64| ns / 1e6 / mb;

    let (tcp, tcp_clean) = median_ns(|| tcp_transfer(Vec::new()));
    let (tcp_lossy, tcp_rtx) = median_ns(|| tcp_transfer(lossy_indices()));
    let (quic, quic_clean) = median_ns(|| quic_transfer(Vec::new()));
    let (quic_lossy, quic_rtx) = median_ns(|| quic_transfer(lossy_indices()));
    let (tls_hs, tls_ok) = median_ns(tls_handshakes);
    let (quic_hs, quic_ok) = median_ns(quic_handshakes);
    let (h2, h2_served) = median_ns(h2_fetch);
    let (h3, h3_served) = median_ns(h3_fetch);
    assert!(
        tcp_clean.is_some() && quic_clean.is_some() && tls_ok && quic_ok,
        "isolated transport benches must deliver every transfer and handshake"
    );
    let (Some(tcp_rtx), Some(quic_rtx)) = (tcp_rtx, quic_rtx) else {
        panic!("lossy transfers must recover every scripted loss");
    };
    assert!(
        h2_served == 8 && h3_served == 8,
        "isolated HTTP benches must serve every response"
    );

    let mut rng = SimRng::seed_from(11);
    let delays: Vec<SimDuration> = (0..4096)
        .map(|_| SimDuration::from_micros(1 + rng.next_below(50_000)))
        .collect();
    let (shallow, _) = median_ns(|| queue_hold(QUEUE_DEPTH_SHALLOW, &delays));
    let (deep, _) = median_ns(|| queue_hold(QUEUE_DEPTH_DEEP, &delays));
    let (route, delivered) = median_ns(route_packets);
    eprintln!("perfbench: isolated routing delivered {delivered} of {ROUTE_PACKETS} packets");

    let handshakes = f64::from(HANDSHAKES);
    vec![
        Metric::new(
            "sim_core.queue_ns_per_op.shallow",
            shallow / QUEUE_OPS as f64,
            "ns",
        ),
        Metric::new(
            "sim_core.queue_ns_per_op.deep",
            deep / QUEUE_OPS as f64,
            "ns",
        ),
        Metric::new(
            "netsim.route_ns_per_packet",
            route / ROUTE_PACKETS as f64,
            "ns",
        ),
        Metric::new("transport.tcp_ms_per_mb", ms_per_mb(tcp), "ms/MB"),
        Metric::new(
            "transport.tcp_ms_per_mb.lossy",
            ms_per_mb(tcp_lossy),
            "ms/MB",
        ),
        Metric::new("transport.quic_ms_per_mb", ms_per_mb(quic), "ms/MB"),
        Metric::new(
            "transport.quic_ms_per_mb.lossy",
            ms_per_mb(quic_lossy),
            "ms/MB",
        ),
        Metric::new("transport.tcp_retransmits", tcp_rtx as f64, "count"),
        Metric::new("transport.quic_retransmits", quic_rtx as f64, "count"),
        Metric::new(
            "transport.handshake_us.tls",
            tls_hs / 1e3 / handshakes,
            "us",
        ),
        Metric::new(
            "transport.handshake_us.quic",
            quic_hs / 1e3 / handshakes,
            "us",
        ),
        // HTTP self time: the framing stack minus the bare transport
        // moving the same bytes.
        Metric::new("http.h2_ms_per_mb", ms_per_mb(h2) - ms_per_mb(tcp), "ms/MB"),
        Metric::new(
            "http.h3_ms_per_mb",
            ms_per_mb(h3) - ms_per_mb(quic),
            "ms/MB",
        ),
    ]
}
