//! The visit fabric: one or many simulated browsers against shared,
//! optionally finite edges.
//!
//! This module is the only place a page's network, paths, catalogs,
//! hosts and engine are assembled. It drives `clients` browsers —
//! staggered arrivals, one visit each of the same page — against
//! **one** [`crate::server::ServerHost`] per domain, optionally
//! governed by a finite-resource [`EdgeState`] admission controller.
//! That is where fallback storms live: an edge past its handshake-CPU
//! or connection budget refuses new QUIC handshakes, every refused
//! client marks the domain QUIC-broken and stampedes onto TCP, and the
//! edge either absorbs the cheap handshakes or sheds those too.
//!
//! A solo [`crate::try_visit_page`] is the one-client case: no stagger,
//! no edge, and client 0 starts from the caller's ticket store and
//! broken-QUIC memory. Every client-side result built on it is
//! therefore the control row of every swarm sweep, bit for bit.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use h3cdn_cdn::{edge, EdgeConfig, EdgeConfigError, EdgeState, EdgeStats};
use h3cdn_har::HarPage;
use h3cdn_http::{Catalog, ResponseSpec};
use h3cdn_netsim::{Engine, LossModel, Network, PathSpec, StallReport};
use h3cdn_sim_core::{SimDuration, SimTime};
use h3cdn_transport::quic::QuicConfig;
use h3cdn_transport::tcp::TcpConfig;
use h3cdn_transport::tls::TicketStore;
use h3cdn_web::{DomainTable, Webpage};

use crate::client::{ClientHost, DomainInfo};
use crate::config::VisitConfig;
use crate::host::SimHost;
use crate::resilience::{BrokenQuicCache, ResilienceStats};
use crate::server::ServerHost;
use crate::visit::{
    build_plan, domain_dns_delay, domain_rtt, domain_tls12, priority_of, vantage_index, VisitStats,
    VISIT_DEADLINE,
};

/// How a swarm run is shaped on top of its per-client [`VisitConfig`].
#[derive(Debug, Clone)]
pub struct SwarmConfig {
    /// Number of concurrent browsers.
    pub clients: usize,
    /// Gap between consecutive client arrivals (`SimDuration::ZERO`
    /// means a thundering herd at t = 0).
    pub arrival_spacing: SimDuration,
    /// Finite-resource budgets applied to every domain's edge; `None`
    /// models the infinitely provisioned edges of the solo visit path.
    pub edge: Option<EdgeConfig>,
}

impl Default for SwarmConfig {
    fn default() -> Self {
        SwarmConfig {
            clients: 1,
            arrival_spacing: SimDuration::ZERO,
            edge: None,
        }
    }
}

/// One browser's fate in the swarm.
#[derive(Debug)]
pub struct ClientOutcome {
    /// Whether the client finished its page.
    pub completed: bool,
    /// Page load time measured from this client's *arrival* (not t = 0),
    /// so staggered clients compare like-for-like; `None` when stranded.
    pub plt_ms: Option<f64>,
    /// Resources still outstanding when the run ended.
    pub pending_requests: usize,
    /// Fallback/retry counters.
    pub resilience: ResilienceStats,
    /// This client's broken-QUIC memory after the run (edge refusals
    /// mark domains broken exactly like path faults do).
    pub broken_quic: BrokenQuicCache,
    /// The recorded page; `None` when stranded.
    pub har: Option<HarPage>,
    /// This client's ticket store after the run (feed it to the next
    /// visit for consecutive browsing); `None` when stranded.
    pub tickets: Option<TicketStore>,
}

/// The whole swarm's result.
#[derive(Debug)]
pub struct SwarmOutcome {
    /// Per-client outcomes, in arrival order.
    pub clients: Vec<ClientOutcome>,
    /// Per-domain edge counters, in deterministic domain order (empty
    /// when the swarm ran without admission control).
    pub edges: Vec<(String, EdgeStats)>,
    /// Network-level statistics of the whole run.
    pub stats: VisitStats,
    /// The engine's stall diagnosis when the run ended with open work
    /// and nothing left to rescue it, or ran out of event budget.
    pub stall: Option<StallReport>,
}

impl SwarmOutcome {
    /// Clients that finished their page.
    pub fn completed(&self) -> usize {
        self.clients.iter().filter(|c| c.completed).count()
    }

    /// Edge counters summed across domains.
    pub fn edge_totals(&self) -> EdgeStats {
        let mut total = EdgeStats::default();
        for (_, s) in &self.edges {
            total.absorb(s);
        }
        total
    }
}

/// Drives `swarm.clients` browsers through one visit of `page` each,
/// sharing one server (and optionally one finite edge) per domain.
///
/// # Errors
///
/// Returns the [`EdgeConfigError`] of an invalid edge budget before any
/// simulation runs.
///
/// # Panics
///
/// Panics if `swarm.clients` is zero or the page has no resources.
pub fn run_swarm(
    page: &Webpage,
    domains: &DomainTable,
    cfg: &VisitConfig,
    swarm: &SwarmConfig,
) -> Result<SwarmOutcome, EdgeConfigError> {
    assert!(swarm.clients > 0, "a swarm needs at least one client");
    let edge = swarm.edge.clone().map(EdgeState::new).transpose()?;
    Ok(run_fabric(
        page,
        domains,
        cfg,
        swarm.clients,
        swarm.arrival_spacing,
        edge.as_ref(),
        (TicketStore::new(), BrokenQuicCache::new()),
    ))
}

/// Builds the fabric for `page` and runs it: `clients` browsers arriving
/// `arrival_spacing` apart, one server per domain, each server behind a
/// copy of `edge` when one is given. Client 0 starts from `client0`'s
/// ticket store and broken-QUIC memory (what a solo visit carries in);
/// later clients start empty. A stall (stranded clients) is an outcome,
/// not an error — overload sweeps measure exactly that.
pub(crate) fn run_fabric(
    page: &Webpage,
    domains: &DomainTable,
    cfg: &VisitConfig,
    clients: usize,
    arrival_spacing: SimDuration,
    edge: Option<&EdgeState>,
    client0: (TicketStore, BrokenQuicCache),
) -> SwarmOutcome {
    // 1. The page's distinct domains, deterministically ordered.
    let used: BTreeSet<h3cdn_web::DomainId> = page.resources.iter().map(|r| r.domain).collect();

    // 2. Network fabric: client nodes first, then one server node per
    //    domain.
    let net_seed = cfg
        .jitter_salt
        .wrapping_mul(31)
        .wrapping_add(page.site as u64)
        .wrapping_add(vantage_index(cfg.vantage) << 32);
    let mut net = Network::new(net_seed);
    let mut client_nodes = Vec::with_capacity(clients);
    for _ in 0..clients {
        let node = net.add_node();
        net.set_ingress_link(node, cfg.downlink, cfg.queue);
        net.set_egress_link(node, cfg.uplink, cfg.queue);
        client_nodes.push(node);
    }
    let loss = LossModel::iid_percent(cfg.loss_percent + cfg.baseline_loss_percent);
    // The same trace phase drives every client↔edge path: it is the
    // client's access network that roams/oscillates, not each path
    // independently.
    let dynamics_trace = cfg.path_dynamics.map(|p| p.trace(net_seed));
    let mut info_of: HashMap<h3cdn_web::DomainId, DomainInfo> = HashMap::new();
    for &d in &used {
        let node = net.add_node();
        let rtt = domain_rtt(domains, d, cfg.vantage, cfg.jitter_salt);
        for &client_node in &client_nodes {
            net.set_path_symmetric(client_node, node, PathSpec::with_delay(rtt / 2).loss(loss));
            if let Some(spec) = &cfg.faults {
                if spec.selects(d.0, cfg.jitter_salt) {
                    net.set_fault_plan_symmetric(client_node, node, spec.plan.clone());
                }
            }
            if let Some(trace) = &dynamics_trace {
                net.set_path_dynamics_symmetric(client_node, node, trace.clone(), cfg.queue);
            }
        }
        info_of.insert(
            d,
            DomainInfo {
                name: domains.name(d).to_string(),
                node,
                rtt,
                tls12: domain_tls12(domains, d, cfg.jitter_salt),
                dns_delay: domain_dns_delay(domains, d, cfg.jitter_salt),
                provider: domains.provider(d),
            },
        );
    }

    // 3. Catalogs, shared across every client of a domain's server.
    //    Cold caches pay an origin fetch per CDN resource.
    let origin_rtt = domain_rtt(domains, page.origin_domain, cfg.vantage, cfg.jitter_salt);
    let mut catalogs: BTreeMap<h3cdn_web::DomainId, Catalog> = BTreeMap::new();
    for r in &page.resources {
        let mut processing = SimDuration::from_nanos(r.processing_us * 1_000);
        if cfg.cold_cache && r.hosting.is_cdn() {
            processing += edge::miss_penalty(origin_rtt);
        }
        catalogs.entry(r.domain).or_default().register(
            r.id,
            ResponseSpec {
                header_bytes: r.response_header_bytes,
                body_bytes: r.body_bytes,
                processing,
                priority: priority_of(r.kind),
            },
        );
    }

    // 4. Hosts, index-aligned with node creation order: clients first.
    let mut hosts: Vec<SimHost> = Vec::with_capacity(clients + used.len());
    let mut arrivals = Vec::with_capacity(clients);
    let mut carried = Some(client0);
    for (i, &client_node) in client_nodes.iter().enumerate() {
        // Client 0 (the solo visit's client) uses the page's own HAR
        // seed; later clients fork their own fingerprint streams.
        let har_seed = (net_seed ^ 0x4841_5221) ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // The last client takes the domain table itself, not a copy.
        let info = if i + 1 == clients {
            std::mem::take(&mut info_of)
        } else {
            info_of.clone()
        };
        let (tickets, broken_quic) = carried.take().unwrap_or_default();
        let mut client = ClientHost::with_alt_svc(
            client_node,
            cfg.mode,
            cfg.cc,
            build_plan(page),
            info,
            tickets,
            har_seed,
            cfg.alt_svc_discovery,
        );
        client.set_h3_fallback(cfg.h3_fallback);
        client.set_broken_quic(broken_quic);
        let start = SimTime::ZERO + arrival_spacing * (i as u64);
        client.set_start_at(start);
        arrivals.push(start);
        hosts.push(SimHost::Client(Box::new(client)));
    }
    for &d in &used {
        let rtt = domain_rtt(domains, d, cfg.vantage, cfg.jitter_salt);
        let tcp = TcpConfig {
            initial_rtt: rtt,
            cc: cfg.cc,
            ..TcpConfig::default()
        };
        let quic = QuicConfig {
            initial_rtt: rtt,
            cc: cfg.cc,
            ..QuicConfig::default()
        };
        let mut server = ServerHost::new(
            catalogs.remove(&d).unwrap_or_default().into_shared(),
            tcp,
            quic,
            cfg.h3_extra_processing,
        );
        if let Some(edge) = edge {
            server.set_edge(edge.clone());
        }
        hosts.push(SimHost::Server(Box::new(server)));
    }

    // 5. Run to quiescence.
    let deadline = SimTime::ZERO + arrival_spacing * (clients as u64 - 1) + VISIT_DEADLINE;
    let mut engine = Engine::new(net, hosts);
    if let Some(budget) = cfg.max_sim_events {
        engine.set_event_budget(budget);
    }
    let stall = engine.run_until_checked(deadline).err();
    let sim_events = engine.events_dispatched();
    let (net, hosts) = engine.into_parts();
    let stats = VisitStats {
        packets_delivered: net.delivered(),
        packets_lost: net.lost(),
        packets_fault_dropped: net.fault_dropped(),
        packets_dynamics_dropped: net.dynamics_dropped(),
        queue: net.queue_stats(),
        sim_events,
    };

    // Partition back out by variant: node order is clients first, then
    // servers, and a match is total — no positional unwrapping needed.
    let mut client_hosts = Vec::with_capacity(clients);
    let mut server_hosts = Vec::with_capacity(used.len());
    for host in hosts {
        match host {
            SimHost::Client(c) => client_hosts.push(c),
            SimHost::Server(s) => server_hosts.push(s),
        }
    }
    let mut outcomes = Vec::with_capacity(clients);
    for (client, start) in client_hosts.into_iter().zip(&arrivals) {
        let resilience = client.resilience();
        let broken_quic = client.broken_quic().clone();
        let pending = client.pending_requests();
        if client.is_done() {
            let (har, tickets) = client.into_har(page.site, cfg.vantage.name());
            outcomes.push(ClientOutcome {
                completed: true,
                plt_ms: Some(har.plt_ms - start.as_millis_f64()),
                pending_requests: 0,
                resilience,
                broken_quic,
                har: Some(har),
                tickets: Some(tickets),
            });
        } else {
            outcomes.push(ClientOutcome {
                completed: false,
                plt_ms: None,
                pending_requests: pending,
                resilience,
                broken_quic,
                har: None,
                tickets: None,
            });
        }
    }
    let edges = if edge.is_some() {
        server_hosts
            .iter()
            .zip(&used)
            .map(|(server, &d)| (domains.name(d).to_string(), server.edge_stats()))
            .collect()
    } else {
        Vec::new()
    };
    SwarmOutcome {
        clients: outcomes,
        edges,
        stats,
        stall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FaultSpec, ProtocolMode};
    use crate::visit::try_visit_page;
    use h3cdn_netsim::FaultPlan;
    use h3cdn_web::{generate, WorkloadSpec};

    fn small_corpus() -> h3cdn_web::Corpus {
        generate(&WorkloadSpec::default().with_pages(6).with_seed(42))
    }

    fn h3_rich_page(corpus: &h3cdn_web::Corpus) -> &Webpage {
        corpus
            .pages
            .iter()
            .find(|p| p.h3_enabled_cdn_count() > 0)
            .expect("an H3-capable page exists")
    }

    /// A budget small enough that a thundering herd trips it but a lone
    /// client sails through.
    fn starved_edge() -> EdgeConfig {
        EdgeConfig {
            cpu_tokens_per_sec: 40,
            cpu_token_burst: 80,
            tcp_handshake_tokens: 1,
            quic_handshake_tokens: 40,
            ..EdgeConfig::default()
        }
    }

    #[test]
    fn solo_swarm_is_bit_identical_to_visit_page() {
        let corpus = small_corpus();
        for mode in [ProtocolMode::H2Only, ProtocolMode::H3Enabled] {
            let cfg = VisitConfig::default().with_mode(mode);
            let solo = try_visit_page(
                &corpus.pages[0],
                &corpus.domains,
                &cfg,
                TicketStore::new(),
                BrokenQuicCache::new(),
            )
            .expect("the solo visit completes");
            let swarm = run_swarm(
                &corpus.pages[0],
                &corpus.domains,
                &cfg,
                &SwarmConfig::default(),
            )
            .expect("default swarm config is valid");
            assert_eq!(swarm.clients.len(), 1);
            let har = swarm.clients[0].har.as_ref().expect("completed");
            assert_eq!(har.plt_ms.to_bits(), solo.har.plt_ms.to_bits());
            assert_eq!(har.entries.len(), solo.har.entries.len());
            for (a, b) in har.entries.iter().zip(&solo.har.entries) {
                assert_eq!(a.timing.connect_ms.to_bits(), b.timing.connect_ms.to_bits());
                assert_eq!(a.timing.wait_ms.to_bits(), b.timing.wait_ms.to_bits());
                assert_eq!(a.timing.receive_ms.to_bits(), b.timing.receive_ms.to_bits());
                assert_eq!(a.protocol, b.protocol);
            }
            assert_eq!(swarm.stats, solo.stats);
            assert_eq!(swarm.edge_totals(), EdgeStats::default());
        }
    }

    #[test]
    fn swarm_is_deterministic() {
        let corpus = small_corpus();
        let cfg = VisitConfig::default().with_h3_fallback(true);
        let shape = SwarmConfig {
            clients: 4,
            arrival_spacing: SimDuration::from_millis(20),
            edge: Some(starved_edge()),
        };
        let a = run_swarm(h3_rich_page(&corpus), &corpus.domains, &cfg, &shape).unwrap();
        let b = run_swarm(h3_rich_page(&corpus), &corpus.domains, &cfg, &shape).unwrap();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.edge_totals(), b.edge_totals());
        for (ca, cb) in a.clients.iter().zip(&b.clients) {
            assert_eq!(ca.completed, cb.completed);
            assert_eq!(
                ca.plt_ms.map(f64::to_bits),
                cb.plt_ms.map(f64::to_bits),
                "per-client PLT must replay bitwise"
            );
        }
    }

    #[test]
    fn ample_edge_admits_every_client() {
        let corpus = small_corpus();
        let cfg = VisitConfig::default();
        let shape = SwarmConfig {
            clients: 3,
            arrival_spacing: SimDuration::from_millis(50),
            edge: Some(EdgeConfig::default()),
        };
        let out = run_swarm(h3_rich_page(&corpus), &corpus.domains, &cfg, &shape).unwrap();
        assert_eq!(out.completed(), 3);
        let totals = out.edge_totals();
        assert_eq!(totals.refused(), 0);
        assert!(totals.admitted() > 0);
    }

    #[test]
    fn overloaded_edge_sheds_quic_and_fallback_rescues() {
        let corpus = small_corpus();
        let page = h3_rich_page(&corpus);
        let shape = SwarmConfig {
            clients: 6,
            arrival_spacing: SimDuration::ZERO, // thundering herd
            edge: Some(starved_edge()),
        };
        // Without fallback the refused QUIC handshakes strand requests.
        let rigid = run_swarm(page, &corpus.domains, &VisitConfig::default(), &shape).unwrap();
        let rigid_totals = rigid.edge_totals();
        assert!(
            rigid_totals.refused_quic > 0,
            "the starved edge must shed QUIC handshakes"
        );
        assert!(
            rigid.completed() < shape.clients,
            "refusals without fallback must strand some clients"
        );
        // With fallback every client completes over TCP: a fallback
        // storm, visible as h3_fallbacks across the swarm.
        let graceful = run_swarm(
            page,
            &corpus.domains,
            &VisitConfig::default().with_h3_fallback(true),
            &shape,
        )
        .unwrap();
        assert_eq!(graceful.completed(), shape.clients, "fallback rescues all");
        let graceful_totals = graceful.edge_totals();
        assert!(graceful_totals.refused_quic > 0);
        let storms: u64 = graceful
            .clients
            .iter()
            .map(|c| c.resilience.h3_fallbacks)
            .sum();
        assert!(storms > 0, "refusals must drive H3→H2 fallbacks");
    }

    #[test]
    fn edge_refusals_compose_with_fault_plans() {
        // A UDP blackhole *and* a starved edge: QUIC dies twice over,
        // fallback still lands every page on TCP.
        let corpus = small_corpus();
        let page = h3_rich_page(&corpus);
        let cfg = VisitConfig::default()
            .with_faults(FaultSpec::everywhere(FaultPlan::udp_blackhole_always()))
            .with_h3_fallback(true);
        let shape = SwarmConfig {
            clients: 4,
            arrival_spacing: SimDuration::ZERO,
            edge: Some(starved_edge()),
        };
        let out = run_swarm(page, &corpus.domains, &cfg, &shape).unwrap();
        assert_eq!(out.completed(), shape.clients);
        assert!(out.stats.packets_fault_dropped > 0);
        for c in &out.clients {
            let har = c.har.as_ref().expect("completed");
            assert_eq!(har.entries_with_protocol("h3").count(), 0);
        }
    }

    #[test]
    fn tcp_refusals_redial_with_backoff_until_edge_recovers() {
        // An edge whose handshake-CPU bucket admits roughly one TCP
        // handshake per second: the herd's later connections are
        // RST-refused, walk the deterministic 250 ms-doubling backoff,
        // and land as the bucket refills. Everyone completes — late.
        let corpus = small_corpus();
        let cfg = VisitConfig::default()
            .with_mode(ProtocolMode::H2Only)
            .with_h3_fallback(true);
        let shape = SwarmConfig {
            clients: 3,
            arrival_spacing: SimDuration::ZERO,
            edge: Some(EdgeConfig {
                cpu_tokens_per_sec: 10,
                cpu_token_burst: 10,
                tcp_handshake_tokens: 10,
                quic_handshake_tokens: 10,
                ..EdgeConfig::default()
            }),
        };
        let out = run_swarm(&corpus.pages[0], &corpus.domains, &cfg, &shape).unwrap();
        assert_eq!(out.completed(), shape.clients, "backoff must recover all");
        let totals = out.edge_totals();
        assert!(totals.refused_tcp > 0, "the starved bucket must refuse");
        assert!(totals.shed_cpu > 0);
        let retries: u64 = out.clients.iter().map(|c| c.resilience.conn_retries).sum();
        assert!(retries > 0, "refused clients must walk the backoff");
        // The refused clients pay the backoff in their PLT: the swarm's
        // slowest client is well behind a lone client on the same page.
        let solo = try_visit_page(
            &corpus.pages[0],
            &corpus.domains,
            &cfg,
            TicketStore::new(),
            BrokenQuicCache::new(),
        )
        .expect("the solo visit completes");
        let worst = out
            .clients
            .iter()
            .filter_map(|c| c.plt_ms)
            .fold(0.0f64, f64::max);
        assert!(
            worst > solo.har.plt_ms + 200.0,
            "backoff delay must show in PLT: {worst:.1} vs {:.1}",
            solo.har.plt_ms
        );
    }

    #[test]
    fn refusal_marks_broken_quic_and_ttl_expiry_restores_h3() {
        // Edge refusals feed the same broken-QUIC memory as path
        // faults: within the TTL the client refuses to try H3 again;
        // once it expires (and the edge has recovered), H3 returns.
        let corpus = small_corpus();
        let page = h3_rich_page(&corpus);
        let cfg = VisitConfig::default().with_h3_fallback(true);
        let shape = SwarmConfig {
            clients: 6,
            arrival_spacing: SimDuration::ZERO,
            edge: Some(starved_edge()),
        };
        let out = run_swarm(page, &corpus.domains, &cfg, &shape).unwrap();
        let stormed = out
            .clients
            .iter()
            .find(|c| c.resilience.h3_fallbacks > 0)
            .expect("some client fell back");
        let mut carried = stormed.broken_quic.clone();
        assert!(
            !carried.is_empty(),
            "a refused client must remember the domain as QUIC-broken"
        );

        // Within the TTL the carried memory suppresses H3 even though
        // the next visit's edge is healthy (solo path, no admission).
        let second = try_visit_page(
            page,
            &corpus.domains,
            &cfg,
            TicketStore::new(),
            carried.clone(),
        )
        .expect("clean solo visit completes");
        assert_eq!(second.har.entries_with_protocol("h3").count(), 0);

        // The TTL runs out: the recovered edge gets H3 traffic again.
        carried.advance(crate::resilience::BROKEN_QUIC_TTL);
        assert!(carried.is_empty());
        let third = try_visit_page(page, &corpus.domains, &cfg, TicketStore::new(), carried)
            .expect("clean solo visit completes");
        assert!(
            third.har.entries_with_protocol("h3").count() > 0,
            "expired memory must allow the H3 retry"
        );
    }

    #[test]
    fn invalid_edge_budget_is_a_typed_error() {
        let corpus = small_corpus();
        let shape = SwarmConfig {
            clients: 1,
            arrival_spacing: SimDuration::ZERO,
            edge: Some(EdgeConfig {
                max_connections: 0,
                ..EdgeConfig::default()
            }),
        };
        let err = run_swarm(
            &corpus.pages[0],
            &corpus.domains,
            &VisitConfig::default(),
            &shape,
        )
        .expect_err("zero connections must be rejected");
        assert_eq!(err, EdgeConfigError::ZeroConnections);
    }
}
