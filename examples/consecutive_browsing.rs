//! Consecutive browsing: shared CDN providers let later pages resume TLS
//! sessions (0-RTT for H3), the paper's §VI-D scenario.
//!
//! ```text
//! cargo run --release --example consecutive_browsing
//! ```

use h3cdn::browser::{
    try_visit_consecutively, try_visit_page, BrokenQuicCache, ProtocolMode, VisitConfig,
};
use h3cdn::transport::tls::TicketStore;
use h3cdn::web::{generate, Webpage, WorkloadSpec};

fn main() {
    let corpus = generate(&WorkloadSpec::default().with_pages(8).with_seed(7));
    let pages: Vec<&Webpage> = corpus.pages.iter().collect();

    // Browse the eight pages in order with H3 enabled, carrying the
    // session-ticket store across visits (connections themselves are torn
    // down between pages, exactly as in the paper).
    let cfg = VisitConfig::default().with_mode(ProtocolMode::H3Enabled);
    let (with_state, _) =
        try_visit_consecutively(&pages, &corpus.domains, &cfg, TicketStore::new())
            .expect("clean pages complete");

    // Contrast: the same pages visited in isolation (state cleared).
    let isolated_plt = |page: &Webpage| {
        try_visit_page(
            page,
            &corpus.domains,
            &cfg,
            TicketStore::new(),
            BrokenQuicCache::new(),
        )
        .expect("clean pages complete")
        .har
        .plt_ms
    };
    println!(
        "{:<6} {:>10} {:>12} {:>14} {:>12}",
        "page", "providers", "isolated", "consecutive", "resumed"
    );
    for (i, page) in corpus.pages.iter().enumerate() {
        println!(
            "{:<6} {:>10} {:>10.1}ms {:>12.1}ms {:>12}",
            i,
            page.providers_used().len(),
            isolated_plt(page),
            with_state[i].plt_ms,
            with_state[i].resumed_connection_count(),
        );
    }
    let saved: f64 = corpus
        .pages
        .iter()
        .enumerate()
        .skip(1)
        .map(|(i, page)| isolated_plt(page) - with_state[i].plt_ms)
        .sum::<f64>()
        / (corpus.pages.len() - 1) as f64;
    println!("\nmean PLT saved by resumption on pages 1..: {saved:.1} ms");
}
