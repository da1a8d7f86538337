//! Cross-crate integration: corpus → browser → HAR → analysis, end to
//! end, with the invariants that hold across layer boundaries.

use h3cdn::har::HarPage;
use h3cdn::{CampaignConfig, MeasurementCampaign, ProtocolMode, Vantage};

fn campaign(pages: usize, seed: u64) -> MeasurementCampaign {
    MeasurementCampaign::new(CampaignConfig::small(pages, seed))
}

#[test]
fn har_entries_account_for_every_corpus_resource() {
    let c = campaign(5, 1);
    for site in 0..5 {
        let page = &c.corpus().pages[site];
        let har = c.visit(site, Vantage::Utah, ProtocolMode::H3Enabled);
        assert_eq!(har.entries.len(), page.request_count());
        // Entry ids are exactly the resource ids, each exactly once.
        let mut ids: Vec<u64> = har.entries.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        let mut expect: Vec<u64> = page.resources.iter().map(|r| r.id).collect();
        expect.sort_unstable();
        assert_eq!(ids, expect);
        // Body bytes survive the round trip.
        let har_bytes: u64 = har.entries.iter().map(|e| e.body_bytes).sum();
        assert_eq!(har_bytes, page.total_bytes());
    }
}

#[test]
fn plt_equals_last_entry_finish() {
    let c = campaign(4, 2);
    for site in 0..4 {
        for mode in [ProtocolMode::H2Only, ProtocolMode::H3Enabled] {
            let har = c.visit(site, Vantage::Clemson, mode);
            assert!(
                (har.plt_ms - har.last_finish_ms()).abs() < 0.5,
                "onLoad is all-resources-complete: plt {} vs last finish {}",
                har.plt_ms,
                har.last_finish_ms()
            );
        }
    }
}

#[test]
fn locedge_classification_matches_corpus_hosting() {
    let c = campaign(5, 3);
    for site in 0..5 {
        let page = &c.corpus().pages[site];
        let har = c.visit(site, Vantage::Utah, ProtocolMode::H2Only);
        let by_id: std::collections::HashMap<u64, &h3cdn::web::Resource> =
            page.resources.iter().map(|r| (r.id, r)).collect();
        for e in &har.entries {
            let resource = by_id[&e.id];
            match resource.hosting.provider() {
                Some(p) => assert_eq!(
                    e.provider.as_deref(),
                    Some(p.name()),
                    "LocEdge must recover the hosting provider for {}",
                    e.domain
                ),
                None => assert!(e.provider.is_none(), "origin misclassified: {}", e.domain),
            }
        }
    }
}

#[test]
fn identical_campaigns_are_bit_identical() {
    let a = campaign(4, 9).visit(2, Vantage::Wisconsin, ProtocolMode::H3Enabled);
    let b = campaign(4, 9).visit(2, Vantage::Wisconsin, ProtocolMode::H3Enabled);
    let ja = serde_json::to_string(&a).expect("serializes");
    let jb = serde_json::to_string(&b).expect("serializes");
    assert_eq!(ja, jb, "separately built campaigns must replay identically");
}

#[test]
fn different_vantages_give_different_timings_same_structure() {
    let c = campaign(3, 4);
    let utah = c.visit(0, Vantage::Utah, ProtocolMode::H2Only);
    let clemson = c.visit(0, Vantage::Clemson, ProtocolMode::H2Only);
    assert_eq!(utah.entries.len(), clemson.entries.len());
    assert_ne!(utah.plt_ms, clemson.plt_ms, "paths differ per vantage");
    // Protocol choices are a corpus property, not a vantage property.
    for (a, b) in utah.entries.iter().zip(&clemson.entries) {
        assert_eq!(a.protocol, b.protocol);
    }
}

#[test]
fn h2_mode_uses_no_quic_anywhere() {
    let c = campaign(4, 5);
    for site in 0..4 {
        let har = c.visit(site, Vantage::Utah, ProtocolMode::H2Only);
        assert_eq!(har.entries_with_protocol("h3").count(), 0);
    }
}

#[test]
fn timing_phases_are_sane_across_the_corpus() {
    let c = campaign(5, 6);
    for site in 0..5 {
        for mode in [ProtocolMode::H2Only, ProtocolMode::H3Enabled] {
            let har: HarPage = c.visit(site, Vantage::Utah, mode);
            for e in &har.entries {
                assert!(e.timing.connect_ms >= 0.0);
                assert!(e.timing.blocked_ms >= 0.0);
                assert!(
                    e.timing.wait_ms >= 0.0,
                    "wait {} on {}",
                    e.timing.wait_ms,
                    e.url
                );
                assert!(e.timing.receive_ms >= 0.0);
                assert!(e.started_ms >= 0.0);
                assert!(e.finished_ms() <= har.plt_ms + 0.5);
                // Only connection creators report connect time.
                assert!(
                    !(e.timing.connect_ms > 0.0 && e.timing.blocked_ms > 0.0),
                    "an entry either created its connection or waited for one"
                );
            }
        }
    }
}

#[test]
fn experiment_pipeline_runs_on_shared_comparisons() {
    let c = campaign(8, 7);
    let cmps: Vec<_> = (0..8).map(|s| c.compare_page(s, Vantage::Utah)).collect();
    let fig6 = h3cdn_experiments::fig6::run(&cmps);
    let fig7 = h3cdn_experiments::fig7::run(&cmps);
    assert_eq!(fig6.groups.iter().map(|g| g.pages).sum::<usize>(), 8);
    assert_eq!(fig7.bins.iter().map(|b| b.pages).sum::<usize>(), 8);
    // Displays never panic and carry the headline labels.
    assert!(fig6.to_string().contains("Fig. 6(a)"));
    assert!(fig7.to_string().contains("Fig. 7(a/b)"));
}

/// Connection reuse, the mechanism behind Fig. 7, on the 5-page corpus
/// of `tests/event_counts.rs` at zero loss: every request to one domain
/// over H2, and every one over H3, shares a single connection, and no
/// domain opens more than the browser's six HTTP/1.1 connections.
#[test]
fn pooling_never_opens_a_second_multiplexed_connection_to_a_domain() {
    use h3cdn::browser::{try_visit_page, BrokenQuicCache};
    use h3cdn::transport::tls::TicketStore;
    use h3cdn::web::{generate, WorkloadSpec};
    use std::collections::{BTreeMap, BTreeSet};

    let corpus = generate(&WorkloadSpec::default().with_pages(5).with_seed(0xBE_AC4));
    // Multiplexed (domain, protocol) groups that carried two or more
    // requests: the ones a per-request connection would split.
    let mut shared = BTreeMap::<String, usize>::new();
    for mode in [ProtocolMode::H2Only, ProtocolMode::H3Enabled] {
        let cfg = h3cdn::VisitConfig {
            loss_percent: 0.0,
            baseline_loss_percent: 0.0,
            ..h3cdn::VisitConfig::default().with_mode(mode)
        };
        for page in &corpus.pages {
            let har = try_visit_page(
                page,
                &corpus.domains,
                &cfg,
                TicketStore::new(),
                BrokenQuicCache::new(),
            )
            .expect("zero-loss visits complete")
            .har;
            let mut conns = BTreeMap::<(&str, &str), (BTreeSet<u64>, usize)>::new();
            for e in &har.entries {
                let group = conns.entry((&e.domain, &e.protocol)).or_default();
                group.0.insert(e.connection);
                group.1 += 1;
            }
            for ((domain, protocol), (ids, requests)) in conns {
                match protocol {
                    "h2" | "h3" => {
                        assert_eq!(
                            ids.len(),
                            1,
                            "{mode:?} site {}: {requests} {protocol} requests to {domain} \
                             spread over connections {ids:?}",
                            page.site
                        );
                        if requests > 1 {
                            *shared.entry(protocol.to_owned()).or_default() += 1;
                        }
                    }
                    "http/1.1" => assert!(
                        ids.len() <= 6,
                        "{mode:?} site {}: {domain} holds {} HTTP/1.1 connections",
                        page.site,
                        ids.len()
                    ),
                    other => panic!("unknown protocol {other}"),
                }
            }
        }
    }
    for protocol in ["h2", "h3"] {
        assert!(
            shared.get(protocol).is_some_and(|&n| n > 0),
            "no {protocol} connection carried two requests: {shared:?}"
        );
    }
}
