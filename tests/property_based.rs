//! Property-based tests over the full stack: random workload scales,
//! seeds, vantages and loss rates must never break the invariants the
//! analysis relies on.

use h3cdn::browser::{try_visit_page, BrokenQuicCache, ProtocolMode, VisitConfig, VisitOutcome};
use h3cdn::transport::tls::TicketStore;
use h3cdn::web::{generate, DomainTable, Webpage, WorkloadSpec};
use h3cdn::Vantage;
use proptest::prelude::*;

/// A visit that must complete: loss and vantage never strand a page.
fn visit(
    page: &Webpage,
    domains: &DomainTable,
    cfg: &VisitConfig,
    tickets: TicketStore,
) -> VisitOutcome {
    try_visit_page(page, domains, cfg, tickets, BrokenQuicCache::new())
        .expect("the visit completes")
}

fn vantage_strategy() -> impl Strategy<Value = Vantage> {
    prop_oneof![
        Just(Vantage::Utah),
        Just(Vantage::Wisconsin),
        Just(Vantage::Clemson),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case simulates full page loads
        ..ProptestConfig::default()
    })]

    #[test]
    fn corpus_marginals_hold_for_any_seed(seed in 0u64..10_000) {
        let corpus = generate(&WorkloadSpec::default().with_pages(24).with_seed(seed));
        prop_assert_eq!(corpus.pages.len(), 24);
        for page in &corpus.pages {
            prop_assert!(page.request_count() >= 20);
            prop_assert!(page.request_count() <= 400);
            // Root is always the origin document.
            prop_assert_eq!(page.resources[0].depth, 0);
            prop_assert!(page.resources[0].hosting.h3_available(),
                "H3-reachable site list: origins support H3");
            // Discovery DAG is well-formed.
            for r in page.resources.iter().skip(1) {
                let parent = r.parent.expect("sub-resources have parents");
                prop_assert!(parent < page.resources.len());
                prop_assert_eq!(page.resources[parent].depth + 1, r.depth);
            }
        }
    }

    #[test]
    fn any_page_completes_under_any_conditions(
        seed in 0u64..1_000,
        site in 0usize..6,
        vantage in vantage_strategy(),
        loss_decipercent in 0u32..20, // 0.0 .. 2.0 %
        h3 in proptest::bool::ANY,
    ) {
        let corpus = generate(&WorkloadSpec::default().with_pages(6).with_seed(seed));
        let mut cfg = VisitConfig::default()
            .with_mode(if h3 { ProtocolMode::H3Enabled } else { ProtocolMode::H2Only })
            .with_vantage(vantage)
            .with_loss_percent(loss_decipercent as f64 / 10.0);
        // Exact-loss accounting below requires disabling the natural
        // baseline loss the default config models.
        cfg.baseline_loss_percent = 0.0;
        let out = visit(&corpus.pages[site], &corpus.domains, &cfg, TicketStore::new());
        // The visit finished and yields a structurally complete HAR.
        prop_assert_eq!(out.har.entries.len(), corpus.pages[site].request_count());
        prop_assert!(out.har.plt_ms > 0.0);
        for e in &out.har.entries {
            prop_assert!(e.timing.total_ms() >= 0.0);
            prop_assert!(e.finished_ms() <= out.har.plt_ms + 0.5);
        }
        // Loss shows up in the packet stats exactly when configured.
        if loss_decipercent == 0 {
            prop_assert_eq!(out.stats.packets_lost, 0);
        }
    }

    #[test]
    fn ticket_state_only_grows_resumption(
        seed in 0u64..1_000,
    ) {
        let corpus = generate(&WorkloadSpec::default().with_pages(4).with_seed(seed));
        let cfg = VisitConfig::default();
        // Pass 1 populates tickets; pass 2 over the same pages must resume
        // at least one connection on every page (shared domains recur).
        let mut tickets = TicketStore::new();
        for page in &corpus.pages {
            tickets = visit(page, &corpus.domains, &cfg, tickets).tickets;
        }
        for page in &corpus.pages {
            let out = visit(page, &corpus.domains, &cfg, tickets);
            tickets = out.tickets;
            prop_assert!(
                out.har.resumed_connection_count() > 0,
                "revisited page {} resumed nothing",
                page.site
            );
        }
    }
}
