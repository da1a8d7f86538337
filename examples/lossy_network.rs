//! Loss sweep: how H3's stream multiplexing mitigates head-of-line
//! blocking as the path loss rate rises (the paper's Fig. 9 scenario,
//! `tc`-style).
//!
//! ```text
//! cargo run --release --example lossy_network
//! ```

use h3cdn::browser::{try_visit_page, BrokenQuicCache, ProtocolMode, VisitConfig};
use h3cdn::transport::tls::TicketStore;
use h3cdn::web::{generate, WorkloadSpec};

fn main() {
    let corpus = generate(&WorkloadSpec::default().with_pages(6).with_seed(77));

    println!(
        "{:<8} {:>12} {:>12} {:>14}",
        "loss %", "H2 PLT", "H3 PLT", "reduction"
    );
    for loss in [0.0, 0.5, 1.0, 2.0] {
        let mut h2_total = 0.0;
        let mut h3_total = 0.0;
        let plt = |page, mode| {
            let cfg = VisitConfig::default()
                .with_mode(mode)
                .with_loss_percent(loss);
            try_visit_page(
                page,
                &corpus.domains,
                &cfg,
                TicketStore::new(),
                BrokenQuicCache::new(),
            )
            .expect("lossy pages still complete")
            .har
            .plt_ms
        };
        for page in &corpus.pages {
            h2_total += plt(page, ProtocolMode::H2Only);
            h3_total += plt(page, ProtocolMode::H3Enabled);
        }
        let n = corpus.pages.len() as f64;
        println!(
            "{:<8} {:>10.1}ms {:>10.1}ms {:>12.1}ms",
            loss,
            h2_total / n,
            h3_total / n,
            (h2_total - h3_total) / n
        );
    }
    println!("\nH3's advantage grows with loss: one lost TCP segment stalls every");
    println!("H2 stream, while a lost QUIC packet stalls only the streams it carried.");
}
