//! One page visit (or a consecutive sequence): the one-client case of
//! the [`crate::swarm`] fabric.

use h3cdn_cdn::Vantage;
use h3cdn_har::HarPage;
use h3cdn_netsim::QueueStats;
use h3cdn_sim_core::{SimDuration, SimRng};
use h3cdn_transport::tls::TicketStore;
use h3cdn_web::{DomainId, DomainTable, Webpage};

use crate::client::PlannedRequest;
use crate::config::VisitConfig;
use crate::resilience::{BrokenQuicCache, ResilienceStats};
use crate::swarm::{run_fabric, ClientOutcome, SwarmOutcome};

/// Result of one visit.
#[derive(Debug)]
pub struct VisitOutcome {
    /// The recorded HAR page.
    pub har: HarPage,
    /// The ticket store after the visit (feed it to the next visit for
    /// consecutive browsing).
    pub tickets: TicketStore,
    /// Network-level statistics of the visit.
    pub stats: VisitStats,
    /// How hard the browser had to fight (fallbacks, re-dials).
    pub resilience: ResilienceStats,
    /// The broken-QUIC memory after the visit (feed it to the next visit
    /// alongside the tickets; see [`BrokenQuicCache::advance`]).
    pub broken_quic: BrokenQuicCache,
}

/// A visit the browser could not finish: some responses stayed stranded
/// (connections dead, no fallback path) or the simulated deadline hit.
#[derive(Debug)]
pub struct AbortedVisit {
    /// The page that failed.
    pub site: usize,
    /// Resources still outstanding when the visit gave up.
    pub pending_requests: usize,
    /// Resources that did complete.
    pub completed_requests: usize,
    /// Network-level statistics up to the abort.
    pub stats: VisitStats,
    /// Fallback/retry counters up to the abort.
    pub resilience: ResilienceStats,
    /// The broken-QUIC memory at the abort.
    pub broken_quic: BrokenQuicCache,
    /// The engine's stall diagnosis, when it produced one.
    pub stall: Option<String>,
}

impl std::fmt::Display for AbortedVisit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "page {} aborted: {} of {} resources pending",
            self.site,
            self.pending_requests,
            self.pending_requests + self.completed_requests
        )?;
        if let Some(stall) = &self.stall {
            write!(f, " ({stall})")?;
        }
        Ok(())
    }
}

impl std::error::Error for AbortedVisit {}

/// Packet-level statistics for one visit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VisitStats {
    /// Packets delivered end-to-end.
    pub packets_delivered: u64,
    /// Packets lost (random loss or queue drop).
    pub packets_lost: u64,
    /// Packets consumed by injected faults (blackouts, UDP blackholes,
    /// loss bursts, collapsed-link overflows).
    pub packets_fault_dropped: u64,
    /// Packets dropped by continuous path dynamics (trace-driven loss or
    /// dynamic-bottleneck queue overflow/AQM); zero when
    /// [`VisitConfig::path_dynamics`] is `None`.
    pub packets_dynamics_dropped: u64,
    /// Aggregate queue statistics across every serialiser in the fabric
    /// (access links, path bottlenecks, dynamic bottlenecks): transmit,
    /// drop and sojourn-time counters for the bufferbloat analysis.
    pub queue: QueueStats,
    /// Simulator events dispatched by the engine during the visit
    /// (arrivals + wakeups). Deterministic: `tests/event_counts.rs`
    /// pins its sum over a fixed workload.
    pub sim_events: u64,
}

/// Wall-clock cap per visit; hitting it means the simulation wedged.
pub(crate) const VISIT_DEADLINE: SimDuration = SimDuration::from_secs(300);

pub(crate) fn vantage_index(v: Vantage) -> u64 {
    match v {
        Vantage::Utah => 1,
        Vantage::Wisconsin => 2,
        Vantage::Clemson => 3,
    }
}

/// Stable per-domain RTT for this vantage: edge RTT with path jitter for
/// CDN domains, a sampled origin distance otherwise. Equal salts give
/// equal paths, so H2/H3 visits compare like-for-like.
pub(crate) fn domain_rtt(
    domains: &DomainTable,
    domain: DomainId,
    vantage: Vantage,
    salt: u64,
) -> SimDuration {
    let mut rng = SimRng::seed_from(salt)
        .fork(domain.0.wrapping_mul(0x9E37_79B9))
        .fork(vantage_index(vantage));
    match domains.provider(domain) {
        Some(p) => Vantage::jitter(vantage.edge_rtt(p), &mut rng),
        None => vantage.sample_origin_rtt(&mut rng),
    }
}

/// Stable per-domain DNS resolver round trip: popular shared domains sit
/// in nearby resolver caches (fast), the long tail needs recursive
/// resolution (slower).
pub(crate) fn domain_dns_delay(domains: &DomainTable, domain: DomainId, salt: u64) -> SimDuration {
    let mut rng = SimRng::seed_from(salt ^ 0x0D25_D25D).fork(domain.0);
    let (lo, hi) = if domains.is_shared(domain) {
        (4.0, 12.0)
    } else {
        (8.0, 25.0)
    };
    SimDuration::from_millis_f64(rng.range_f64(lo, hi))
}

/// Stable per-domain TLS version (a property of the server deployment,
/// so independent of vantage and protocol mode).
pub(crate) fn domain_tls12(domains: &DomainTable, domain: DomainId, salt: u64) -> bool {
    let mut rng = SimRng::seed_from(salt ^ 0x7154_1243).fork(domain.0);
    let share = match domains.provider(domain) {
        Some(p) => {
            h3cdn_cdn::ProviderRegistry::paper_calibrated()
                .profile(p)
                .tls12_share
        }
        // H3-reachable sites run modern stacks: own origins are TLS 1.3.
        None if !domains.is_service(domain) => 0.0,
        None => h3cdn_cdn::provider::non_cdn::TLS12_SHARE,
    };
    rng.bernoulli(share)
}

/// Runs one visit of `page` from `cfg.vantage` in `cfg.mode`, starting
/// from the given ticket store and broken-QUIC memory (pass
/// [`TicketStore::new`] and [`BrokenQuicCache::new`] for an isolated
/// measurement).
///
/// # Errors
///
/// A wedged or stranded visit is a *measurement outcome*
/// ([`AbortedVisit`]), not a bug: fault-injection experiments expect
/// pages to fail.
pub fn try_visit_page(
    page: &Webpage,
    domains: &DomainTable,
    cfg: &VisitConfig,
    tickets: TicketStore,
    broken_quic: BrokenQuicCache,
) -> Result<VisitOutcome, Box<AbortedVisit>> {
    let SwarmOutcome {
        clients,
        stats,
        stall,
        ..
    } = run_fabric(
        page,
        domains,
        cfg,
        1,
        SimDuration::ZERO,
        None,
        (tickets, broken_quic),
    );
    let stall = stall.map(|report| report.to_string());
    match clients.into_iter().next() {
        Some(ClientOutcome {
            har: Some(har),
            tickets: Some(tickets),
            resilience,
            broken_quic,
            ..
        }) if stall.is_none() => Ok(VisitOutcome {
            har,
            tickets,
            stats,
            resilience,
            broken_quic,
        }),
        // A stall, a stranded client, or (never in practice: the fabric
        // returns one outcome per client) no client at all, which reads
        // as nothing loaded.
        client => {
            let requests = page.resources.len();
            let pending = client.as_ref().map_or(requests, |c| c.pending_requests);
            let (resilience, broken_quic) = client
                .map(|c| (c.resilience, c.broken_quic))
                .unwrap_or_default();
            Err(Box::new(AbortedVisit {
                site: page.site,
                pending_requests: pending,
                completed_requests: requests - pending,
                stats,
                resilience,
                broken_quic,
                stall,
            }))
        }
    }
}

/// Visits pages in order, carrying the ticket store forward — the
/// paper's §VI-D consecutive-browsing methodology (connections torn
/// down, caches cleared, session state kept). The crash-safe runner's
/// entry point for consecutive passes.
///
/// # Errors
///
/// The first page that wedges or strands aborts the pass; its
/// [`AbortedVisit`] reports *which* page in the sequence failed.
pub fn try_visit_consecutively(
    pages: &[&Webpage],
    domains: &DomainTable,
    cfg: &VisitConfig,
    mut tickets: TicketStore,
) -> Result<(Vec<HarPage>, TicketStore), Box<AbortedVisit>> {
    let mut hars = Vec::with_capacity(pages.len());
    for page in pages {
        let outcome = try_visit_page(page, domains, cfg, tickets, BrokenQuicCache::new())?;
        tickets = outcome.tickets;
        hars.push(outcome.har);
    }
    Ok((hars, tickets))
}

/// Chrome-style priority classes per resource kind: render-blocking
/// content first, late visual content last.
pub(crate) fn priority_of(kind: h3cdn_web::ResourceKind) -> u8 {
    use h3cdn_http::types::priority;
    use h3cdn_web::ResourceKind;
    match kind {
        ResourceKind::Html
        | ResourceKind::Script
        | ResourceKind::Stylesheet
        | ResourceKind::Font => priority::HIGH,
        ResourceKind::Other => priority::NORMAL,
        ResourceKind::Image | ResourceKind::Media => priority::LOW,
    }
}

pub(crate) fn build_plan(page: &Webpage) -> Vec<PlannedRequest> {
    let mut plan: Vec<PlannedRequest> = page
        .resources
        .iter()
        .map(|r| PlannedRequest {
            resource: r.clone(),
            children: Vec::new(),
        })
        .collect();
    for (idx, r) in page.resources.iter().enumerate() {
        if let Some(parent) = r.parent {
            plan[parent].children.push(idx);
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FaultSpec, ProtocolMode};
    use crate::resilience::BROKEN_QUIC_TTL;
    use h3cdn_netsim::FaultPlan;
    use h3cdn_sim_core::SimTime;
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

    /// An isolated visit that must complete.
    fn completed_visit(page: &Webpage, domains: &DomainTable, cfg: &VisitConfig) -> VisitOutcome {
        try_visit_page(
            page,
            domains,
            cfg,
            TicketStore::new(),
            BrokenQuicCache::new(),
        )
        .expect("the visit completes")
    }

    fn visit(corpus: &h3cdn_web::Corpus, site: usize, mode: ProtocolMode) -> HarPage {
        let cfg = VisitConfig::default().with_mode(mode);
        completed_visit(&corpus.pages[site], &corpus.domains, &cfg).har
    }

    #[test]
    fn both_modes_complete_and_pair_up() {
        let corpus = small_corpus();
        let h2 = visit(&corpus, 0, ProtocolMode::H2Only);
        let h3 = visit(&corpus, 0, ProtocolMode::H3Enabled);
        assert_eq!(h2.entries.len(), corpus.pages[0].request_count());
        assert_eq!(h2.entries.len(), h3.entries.len());
        assert!(h2.plt_ms > 0.0 && h3.plt_ms > 0.0);
        // Every entry must have sane phases.
        for e in h2.entries.iter().chain(&h3.entries) {
            assert!(e.timing.connect_ms >= 0.0);
            assert!(e.timing.wait_ms >= 0.0);
            assert!(e.timing.receive_ms >= 0.0);
            assert!(e.finished_ms() <= h2.plt_ms.max(h3.plt_ms) + 1e-6);
        }
    }

    #[test]
    fn visits_are_deterministic() {
        let corpus = small_corpus();
        let a = visit(&corpus, 1, ProtocolMode::H3Enabled);
        let b = visit(&corpus, 1, ProtocolMode::H3Enabled);
        assert_eq!(a.plt_ms, b.plt_ms);
        for (ea, eb) in a.entries.iter().zip(&b.entries) {
            assert_eq!(ea.timing.connect_ms, eb.timing.connect_ms);
            assert_eq!(ea.timing.receive_ms, eb.timing.receive_ms);
        }
    }

    #[test]
    fn h3_mode_uses_h3_exactly_for_h3_capable_resources() {
        let corpus = small_corpus();
        let page = &corpus.pages[0];
        let har = visit(&corpus, 0, ProtocolMode::H3Enabled);
        let expected: usize = page
            .resources
            .iter()
            .filter(|r| r.hosting.h3_available())
            .count();
        assert_eq!(har.entries_with_protocol("h3").count(), expected);
        // And the H2-only run never uses H3.
        let h2 = visit(&corpus, 0, ProtocolMode::H2Only);
        assert_eq!(h2.entries_with_protocol("h3").count(), 0);
    }

    #[test]
    fn mean_plt_reduction_is_positive() {
        let corpus = small_corpus();
        let mut total = 0.0;
        for site in 0..corpus.pages.len() {
            let h2 = visit(&corpus, site, ProtocolMode::H2Only);
            let h3 = visit(&corpus, site, ProtocolMode::H3Enabled);
            total += h2.plt_ms - h3.plt_ms;
        }
        let mean = total / corpus.pages.len() as f64;
        assert!(mean > 0.0, "H3 must reduce PLT on average, got {mean:.2}ms");
    }

    #[test]
    fn connections_are_reused_within_a_page() {
        let corpus = small_corpus();
        let har = visit(&corpus, 0, ProtocolMode::H2Only);
        assert!(
            har.reused_connection_count() > har.entries.len() / 2,
            "most entries should reuse pooled connections: {} of {}",
            har.reused_connection_count(),
            har.entries.len()
        );
    }

    #[test]
    fn h2_mode_reuses_more_than_h3_mode() {
        // Partial per-resource H3 availability splits domains across two
        // connections in H3 mode — Fig. 7a's reuse gap.
        let corpus = small_corpus();
        let mut h2_total = 0usize;
        let mut h3_total = 0usize;
        for site in 0..corpus.pages.len() {
            h2_total += visit(&corpus, site, ProtocolMode::H2Only).reused_connection_count();
            h3_total += visit(&corpus, site, ProtocolMode::H3Enabled).reused_connection_count();
        }
        assert!(
            h2_total > h3_total,
            "H2 mode must reuse more: {h2_total} vs {h3_total}"
        );
    }

    #[test]
    fn consecutive_visits_resume_sessions() {
        let corpus = small_corpus();
        let cfg = VisitConfig::default();
        let pages: Vec<&Webpage> = corpus.pages.iter().take(3).collect();
        let (hars, tickets) =
            try_visit_consecutively(&pages, &corpus.domains, &cfg, TicketStore::new())
                .expect("the pass completes");
        // First page: no prior tickets, nothing resumed.
        assert_eq!(hars[0].resumed_connection_count(), 0);
        // Later pages share CDN domains with earlier ones → resumption.
        let later: usize = hars[1..]
            .iter()
            .map(HarPage::resumed_connection_count)
            .sum();
        assert!(later > 0, "shared providers must trigger resumption");
        assert!(!tickets.is_empty());
    }

    #[test]
    fn loss_increases_plt() {
        let corpus = small_corpus();
        let page = &corpus.pages[2];
        let clean = completed_visit(
            page,
            &corpus.domains,
            &VisitConfig::default().with_mode(ProtocolMode::H2Only),
        )
        .har;
        let lossy = completed_visit(
            page,
            &corpus.domains,
            &VisitConfig::default()
                .with_mode(ProtocolMode::H2Only)
                .with_loss_percent(2.0),
        )
        .har;
        assert!(
            lossy.plt_ms > clean.plt_ms,
            "2% loss must slow the page: {} vs {}",
            clean.plt_ms,
            lossy.plt_ms
        );
    }

    #[test]
    fn cdn_entries_are_classified_by_locedge() {
        let corpus = small_corpus();
        let page = &corpus.pages[0];
        let har = visit(&corpus, 0, ProtocolMode::H3Enabled);
        let classified = har.entries.iter().filter(|e| e.provider.is_some()).count();
        let cdn = page.cdn_resources().count();
        assert_eq!(classified, cdn, "every CDN entry classified, no origin");
    }

    #[test]
    fn connection_pools_respect_protocol_rules() {
        let corpus = small_corpus();
        // H2/H3 use exactly one connection per (domain, version); H1-only
        // domains are capped at six parallel connections.
        for site in 0..corpus.pages.len() {
            let har = visit(&corpus, site, ProtocolMode::H3Enabled);
            let mut conns_per: std::collections::BTreeMap<
                (String, String),
                std::collections::BTreeSet<u64>,
            > = Default::default();
            for e in &har.entries {
                conns_per
                    .entry((e.domain.clone(), e.protocol.clone()))
                    .or_default()
                    .insert(e.connection);
            }
            for ((domain, protocol), conns) in &conns_per {
                match protocol.as_str() {
                    "h2" | "h3" => assert_eq!(
                        conns.len(),
                        1,
                        "{domain} {protocol}: multiplexed protocols pool one connection"
                    ),
                    _ => assert!(
                        conns.len() <= 6,
                        "{domain}: H1 pool capped at six, got {}",
                        conns.len()
                    ),
                }
            }
        }
    }

    #[test]
    fn alt_svc_discovery_starts_domains_on_h2() {
        let corpus = small_corpus();
        // Pick a page with H3-capable CDN domains.
        let page = corpus
            .pages
            .iter()
            .find(|p| p.h3_enabled_cdn_count() > 3)
            .expect("an H3-rich page exists");
        let cfg = VisitConfig {
            alt_svc_discovery: true,
            ..VisitConfig::default()
        };
        let har = completed_visit(page, &corpus.domains, &cfg).har;
        // Per H3-capable domain: the earliest-dispatched entry went H2
        // (discovery), and H3 appears only after it.
        let mut h3_started = std::collections::BTreeMap::new();
        let mut h2_first = std::collections::BTreeMap::new();
        for e in &har.entries {
            if e.protocol == "h3" {
                let t = h3_started.entry(e.domain.clone()).or_insert(e.started_ms);
                *t = t.min(e.started_ms);
            }
        }
        for e in &har.entries {
            if e.protocol == "h2" && h3_started.contains_key(&e.domain) {
                let t = h2_first.entry(e.domain.clone()).or_insert(e.started_ms);
                *t = t.min(e.started_ms);
            }
        }
        assert!(!h3_started.is_empty(), "discovery still reaches H3");
        for (domain, h3_t) in &h3_started {
            let h2_t = h2_first
                .get(domain)
                .unwrap_or_else(|| panic!("{domain} has no discovery H2 request"));
            assert!(h2_t < h3_t, "{domain}: H2 discovery must precede H3");
        }
        // And the warm-cache default uses H3 immediately (more H3 entries).
        let warm = completed_visit(page, &corpus.domains, &VisitConfig::default()).har;
        assert!(
            warm.entries_with_protocol("h3").count() > har.entries_with_protocol("h3").count(),
            "cold discovery must cost some H3 requests"
        );
    }

    #[test]
    fn enabling_fallback_on_clean_paths_is_bit_identical() {
        // The fallback machinery must be pure insurance: with healthy
        // paths the QUIC-vs-TCP race never fires (a clean handshake is
        // one RTT, the race waits five), so every number matches the
        // pre-fallback stack exactly.
        let corpus = small_corpus();
        let page = &corpus.pages[0];
        let base = completed_visit(page, &corpus.domains, &VisitConfig::default());
        let with_fb = completed_visit(
            page,
            &corpus.domains,
            &VisitConfig::default().with_h3_fallback(true),
        );
        assert_eq!(base.har.plt_ms, with_fb.har.plt_ms);
        assert_eq!(base.stats, with_fb.stats);
        assert_eq!(with_fb.resilience.h3_fallbacks, 0);
        assert_eq!(with_fb.resilience.conn_retries, 0);
        assert!(with_fb.broken_quic.is_empty());
        for (a, b) in base.har.entries.iter().zip(&with_fb.har.entries) {
            assert_eq!(a.timing.connect_ms, b.timing.connect_ms);
            assert_eq!(a.timing.wait_ms, b.timing.wait_ms);
            assert_eq!(a.timing.receive_ms, b.timing.receive_ms);
        }
    }

    #[test]
    fn udp_blackhole_strands_h3_without_fallback() {
        // The paper's failure mode: QUIC silently blocked, no graceful
        // degradation -> the visit cannot finish.
        let corpus = small_corpus();
        let page = h3_rich_page(&corpus);
        let cfg = VisitConfig::default()
            .with_faults(FaultSpec::everywhere(FaultPlan::udp_blackhole_always()));
        let aborted = try_visit_page(
            page,
            &corpus.domains,
            &cfg,
            TicketStore::new(),
            BrokenQuicCache::new(),
        )
        .expect_err("H3 requests into a UDP blackhole must strand");
        assert!(aborted.pending_requests > 0);
        assert_eq!(
            aborted.pending_requests + aborted.completed_requests,
            page.request_count()
        );
        assert!(aborted.stats.packets_fault_dropped > 0);
        assert!(
            aborted.to_string().contains("resources pending"),
            "diagnosis names the stranded work: {aborted}"
        );
    }

    #[test]
    fn udp_blackhole_with_fallback_completes_over_h2() {
        // Chrome-style graceful degradation: the blackholed QUIC
        // connections lose their races, the domains are remembered as
        // broken, and every request lands over TCP.
        let corpus = small_corpus();
        let page = h3_rich_page(&corpus);
        let cfg = VisitConfig::default()
            .with_faults(FaultSpec::everywhere(FaultPlan::udp_blackhole_always()))
            .with_h3_fallback(true);
        let outcome = try_visit_page(
            page,
            &corpus.domains,
            &cfg,
            TicketStore::new(),
            BrokenQuicCache::new(),
        )
        .expect("fallback must rescue the page");
        assert_eq!(outcome.har.entries.len(), page.request_count());
        assert_eq!(outcome.har.entries_with_protocol("h3").count(), 0);
        assert!(outcome.resilience.h3_fallbacks > 0);
        assert!(outcome.resilience.fallback_wait > SimDuration::ZERO);
        assert!(!outcome.broken_quic.is_empty());
        assert!(outcome.stats.packets_fault_dropped > 0);

        // The rescue is not free: the same page in plain H2 mode (which
        // never touches UDP) is faster and never hits the fault.
        let h2_cfg = VisitConfig::default()
            .with_mode(ProtocolMode::H2Only)
            .with_faults(FaultSpec::everywhere(FaultPlan::udp_blackhole_always()));
        let h2 = completed_visit(page, &corpus.domains, &h2_cfg);
        assert_eq!(h2.stats.packets_fault_dropped, 0);
        assert!(
            outcome.har.plt_ms > h2.har.plt_ms,
            "time-to-fallback penalty must show: {} vs {}",
            outcome.har.plt_ms,
            h2.har.plt_ms
        );
    }

    #[test]
    fn broken_quic_memory_carries_across_visits_and_expires() {
        let corpus = small_corpus();
        let page = h3_rich_page(&corpus);
        // Visit 1: blackholed, fallback on -> domains remembered broken.
        let faulted = VisitConfig::default()
            .with_faults(FaultSpec::everywhere(FaultPlan::udp_blackhole_always()))
            .with_h3_fallback(true);
        let first = try_visit_page(
            page,
            &corpus.domains,
            &faulted,
            TicketStore::new(),
            BrokenQuicCache::new(),
        )
        .expect("fallback completes the faulted visit");
        let mut carried = first.broken_quic;
        assert!(!carried.is_empty());

        // Visit 2: the fault is gone, but within the TTL the browser
        // still refuses QUIC for the remembered domains.
        let clean = VisitConfig::default().with_h3_fallback(true);
        let second = try_visit_page(
            page,
            &corpus.domains,
            &clean,
            TicketStore::new(),
            carried.clone(),
        )
        .expect("clean visit completes");
        assert_eq!(
            second.har.entries_with_protocol("h3").count(),
            0,
            "broken-QUIC memory must suppress H3 within its TTL"
        );

        // The TTL runs out between visits: H3 is back on the menu.
        carried.advance(BROKEN_QUIC_TTL);
        assert!(carried.is_empty());
        let third = try_visit_page(page, &corpus.domains, &clean, TicketStore::new(), carried)
            .expect("clean visit completes");
        assert!(
            third.har.entries_with_protocol("h3").count() > 0,
            "expired entries re-enable H3"
        );
    }

    #[test]
    fn alt_svc_discovery_composes_with_fallback() {
        // Cold Alt-Svc cache + blackholed QUIC: discovery sends the
        // first request per domain over H2, the learned H3 attempts then
        // fail and fall back -- the page still completes with no H3.
        let corpus = small_corpus();
        let page = h3_rich_page(&corpus);
        let cfg = VisitConfig {
            alt_svc_discovery: true,
            ..VisitConfig::default()
                .with_faults(FaultSpec::everywhere(FaultPlan::udp_blackhole_always()))
                .with_h3_fallback(true)
        };
        let outcome = try_visit_page(
            page,
            &corpus.domains,
            &cfg,
            TicketStore::new(),
            BrokenQuicCache::new(),
        )
        .expect("discovery + fallback must still finish the page");
        assert_eq!(outcome.har.entries.len(), page.request_count());
        assert_eq!(outcome.har.entries_with_protocol("h3").count(), 0);
    }

    #[test]
    fn mid_visit_blackout_recovers_with_fallback() {
        // A scheduled full blackout early in the visit: both stacks see
        // it, and the fallback machinery re-dials TCP connections that
        // died while it lasted.
        let corpus = small_corpus();
        let page = h3_rich_page(&corpus);
        let plan = FaultPlan::new()
            .blackout(
                SimTime::ZERO + SimDuration::from_millis(50),
                SimTime::ZERO + SimDuration::from_millis(1500),
            )
            .unwrap();
        let cfg = VisitConfig::default()
            .with_faults(FaultSpec::everywhere(plan))
            .with_h3_fallback(true);
        let outcome = try_visit_page(
            page,
            &corpus.domains,
            &cfg,
            TicketStore::new(),
            BrokenQuicCache::new(),
        )
        .expect("the blackout ends; the visit must recover");
        assert_eq!(outcome.har.entries.len(), page.request_count());
        assert!(outcome.stats.packets_fault_dropped > 0);
    }

    #[test]
    fn dns_is_paid_once_per_domain() {
        let corpus = small_corpus();
        let page = &corpus.pages[0];
        let har = completed_visit(page, &corpus.domains, &VisitConfig::default()).har;
        // Per domain, exactly the entries dispatched before resolution
        // completes carry dns time; at least the first one does.
        let mut per_domain: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
        for e in &har.entries {
            per_domain
                .entry(e.domain.as_str())
                .or_default()
                .push(e.timing.dns_ms);
        }
        for (domain, dns) in &per_domain {
            assert!(
                dns.iter().any(|&d| d > 0.0),
                "first contact with {domain} must resolve"
            );
        }
    }

    #[test]
    fn cold_cache_slows_the_visit() {
        let corpus = small_corpus();
        let page = &corpus.pages[3];
        // Loss-free so the comparison is purely the cache state (under
        // baseline loss the two runs see different loss draws).
        let warm_cfg = VisitConfig {
            baseline_loss_percent: 0.0,
            ..VisitConfig::default()
        };
        let cold_cfg = VisitConfig {
            cold_cache: true,
            baseline_loss_percent: 0.0,
            ..VisitConfig::default()
        };
        let warm = completed_visit(page, &corpus.domains, &warm_cfg).har;
        let cold = completed_visit(page, &corpus.domains, &cold_cfg).har;
        // Every CDN entry pays the origin fetch in its wait phase; the
        // page-level PLT may or may not move (the critical path can be an
        // origin chain, which caches don't touch).
        let wait_sum =
            |har: &HarPage| -> f64 { har.entries.iter().map(|e| e.timing.wait_ms).sum() };
        assert!(
            wait_sum(&cold) > wait_sum(&warm) + 100.0,
            "cold-edge waits must grow: {} vs {}",
            wait_sum(&warm),
            wait_sum(&cold)
        );
        // No assertion on PLT: with contention, slowing individual
        // responses can *reschedule* the page such that the final entry
        // lands earlier — max-completion is not monotone in per-request
        // delay.
    }

    #[test]
    fn path_dynamics_visits_complete_and_are_deterministic() {
        use h3cdn_netsim::DynamicsProfile;
        let corpus = small_corpus();
        let page = h3_rich_page(&corpus);
        for profile in DynamicsProfile::ALL {
            let cfg = VisitConfig::default().with_path_dynamics(Some(profile));
            let a = completed_visit(page, &corpus.domains, &cfg);
            let b = completed_visit(page, &corpus.domains, &cfg);
            assert_eq!(
                a.har.entries.len(),
                page.request_count(),
                "{profile}: the page must complete under dynamics"
            );
            assert_eq!(a.har.plt_ms, b.har.plt_ms, "{profile}");
            assert_eq!(a.stats, b.stats, "{profile}: stats must replay bitwise");
            assert!(
                a.stats.queue.transmitted > 0,
                "{profile}: dynamic bottlenecks must carry traffic"
            );
            // The dynamic bottleneck slows the page relative to the
            // static gigabit fabric.
            let static_plt = completed_visit(page, &corpus.domains, &VisitConfig::default())
                .har
                .plt_ms;
            assert!(
                a.har.plt_ms > static_plt,
                "{profile}: dynamics must cost time ({static_plt:.1}ms vs {:.1}ms)",
                a.har.plt_ms
            );
        }
    }

    #[test]
    fn no_dynamics_means_no_dynamics_drops() {
        let corpus = small_corpus();
        let stats =
            completed_visit(&corpus.pages[0], &corpus.domains, &VisitConfig::default()).stats;
        assert_eq!(stats.packets_dynamics_dropped, 0);
    }

    /// A page heavy enough (≈2.1 MB over ~95 requests) that slow-start
    /// overshoot builds a real standing queue in the oscillating
    /// bottleneck's buffer — the light `small_corpus` pages finish
    /// before any queue forms and every CC/discipline ties exactly.
    fn heavy_corpus() -> h3cdn_web::Corpus {
        generate(&WorkloadSpec::default().with_pages(8).with_seed(42))
    }

    #[test]
    fn bbr_carries_less_standing_queue_than_cubic() {
        use h3cdn_netsim::DynamicsProfile;
        use h3cdn_transport::CcAlgorithm;
        // Deep tail-drop buffers on an oscillating 40↔4 Mbps bottleneck:
        // Cubic fills the buffer until loss, BBR models the pipe. The
        // bufferbloat gap shows up as mean queue sojourn.
        let corpus = heavy_corpus();
        let page = &corpus.pages[6];
        let base =
            VisitConfig::default().with_path_dynamics(Some(DynamicsProfile::OscillatingBottleneck));
        let cubic = completed_visit(page, &corpus.domains, &base).stats;
        let bbr_cfg = VisitConfig {
            cc: CcAlgorithm::Bbr,
            ..base
        };
        let bbr = completed_visit(page, &corpus.domains, &bbr_cfg).stats;
        assert!(
            bbr.queue.mean_sojourn_ms() < cubic.queue.mean_sojourn_ms(),
            "BBR must queue less than Cubic: {:.2}ms vs {:.2}ms",
            bbr.queue.mean_sojourn_ms(),
            cubic.queue.mean_sojourn_ms()
        );
    }

    #[test]
    fn codel_bounds_sojourn_below_deep_droptail() {
        use h3cdn_netsim::{DynamicsProfile, QueueDiscipline};
        let corpus = heavy_corpus();
        let page = &corpus.pages[6];
        let base =
            VisitConfig::default().with_path_dynamics(Some(DynamicsProfile::OscillatingBottleneck));
        let tail = completed_visit(page, &corpus.domains, &base).stats;
        let codel_cfg = base.with_queue(QueueDiscipline::CoDel);
        let codel = completed_visit(page, &corpus.domains, &codel_cfg).stats;
        assert!(
            codel.queue.mean_sojourn_ms() < tail.queue.mean_sojourn_ms(),
            "CoDel must bound sojourn: {:.2}ms vs droptail {:.2}ms",
            codel.queue.mean_sojourn_ms(),
            tail.queue.mean_sojourn_ms()
        );
        assert!(
            codel.queue.aqm_dropped > 0,
            "CoDel must have engaged on the standing queue"
        );
    }
}
