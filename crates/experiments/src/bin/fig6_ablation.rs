//! Fig. 6(a) ablation: warm vs cold Alt-Svc cache.
//!
//! With a warm cache (the default; the paper's measured second visit),
//! H3-capable domains speak H3 from the first request. With a cold cache
//! (Chrome discovery), every H3 domain's first request goes over H2 —
//! the cost scales with the number of H3-enabled domains, which is what
//! could bend the High group down in Fig. 6(a).

use h3cdn::{PageComparison, VisitConfig};
use h3cdn_experiments::fig6;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Ablation {
    warm: fig6::Fig6,
    cold_alt_svc: fig6::Fig6,
}

impl std::fmt::Display for Ablation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "--- warm Alt-Svc cache (paper's measured visit) ---")?;
        writeln!(f, "{}", self.warm)?;
        writeln!(f, "--- cold Alt-Svc cache (Chrome discovery) ---")?;
        writeln!(f, "{}", self.cold_alt_svc)
    }
}

fn main() {
    let opts = h3cdn_experiments::parse_args_with(std::env::args().skip(1), "", 80);
    let campaign = h3cdn_experiments::campaign_named(&opts, "fig6_ablation");
    let run = |alt_svc: bool| -> fig6::Fig6 {
        let mut base = VisitConfig::default().with_vantage(opts.vantage);
        base.alt_svc_discovery = alt_svc;
        // One parallel, order-stable batch per cache state.
        let specs = (0..campaign.corpus().pages.len())
            .map(|site| (site as u32, site, base.clone()))
            .collect();
        let cmps: Vec<PageComparison> = campaign
            .compare_batch(specs)
            .into_iter()
            .map(|(_, cmp)| cmp)
            .collect();
        fig6::run(&cmps)
    };
    let ablation = Ablation {
        warm: run(false),
        cold_alt_svc: run(true),
    };
    h3cdn_experiments::emit(&opts, &ablation);
    h3cdn_experiments::report_quarantine(&campaign);
}
