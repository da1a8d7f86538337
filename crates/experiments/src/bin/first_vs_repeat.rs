//! First vs Repeat visit modes (Saverimoutou et al., cited by the paper):
//! a *First* visit hits cold edge caches, a cold Alt-Svc cache and no
//! session tickets; a *Repeat* visit has everything warm. Prints mean PLT
//! per protocol per mode and the H3 reduction in each.

use h3cdn::browser::ProtocolMode;
use h3cdn::JobMeta;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct ModeRow {
    mode: &'static str,
    mean_plt_h2_ms: f64,
    mean_plt_h3_ms: f64,
    mean_reduction_ms: f64,
}

#[derive(Debug, Serialize)]
struct FirstVsRepeat {
    rows: Vec<ModeRow>,
}

impl std::fmt::Display for FirstVsRepeat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "First vs Repeat visit modes")?;
        writeln!(
            f,
            "{:<8} {:>12} {:>12} {:>12}",
            "mode", "H2 PLT", "H3 PLT", "reduction"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<8} {:>10.1}ms {:>10.1}ms {:>10.1}ms",
                r.mode, r.mean_plt_h2_ms, r.mean_plt_h3_ms, r.mean_reduction_ms
            )?;
        }
        Ok(())
    }
}

fn main() {
    // Four visits per page: keep the default run brisk.
    let opts = h3cdn_experiments::parse_args_with(std::env::args().skip(1), "", 60);
    let campaign = h3cdn_experiments::campaign_named(&opts, "first_vs_repeat");
    let config = campaign.config();
    let vantage = opts.vantage.name().to_lowercase();
    let repro = format!(
        "cargo run -q -p h3cdn-experiments --bin first_vs_repeat -- \
         --pages {} --seed {} --vantage {vantage}",
        config.workload.num_pages, config.workload.seed
    );
    let modes = [("First", true), ("Repeat", false)];

    // The full `mode × page × protocol` grid as keyed jobs on the
    // campaign's execution layer; keys `(mode, site, protocol)` make
    // the merge mode-major, with the two sides of a page adjacent.
    let campaign = &campaign;
    let mut jobs = Vec::new();
    for (mi, &(mode, cold)) in modes.iter().enumerate() {
        for site in 0..campaign.corpus().pages.len() {
            for (variant, proto) in [
                (0u32, ProtocolMode::H2Only),
                (1u32, ProtocolMode::H3Enabled),
            ] {
                let mut cfg = config
                    .visit
                    .clone()
                    .with_mode(proto)
                    .with_vantage(opts.vantage);
                cfg.cold_cache = cold;
                cfg.alt_svc_discovery = cold;
                let meta = JobMeta {
                    label: format!("{mode} visit site {site} {proto} @ {vantage}"),
                    repro: campaign.chaos_repro(site, repro.clone()),
                };
                jobs.push(((mi as u32, site as u32, variant), meta, move || {
                    campaign.visit_with(site, &cfg).plt_ms
                }));
            }
        }
    }
    let plts = campaign.run_durable("first-vs-repeat", jobs);

    let rows = modes
        .iter()
        .enumerate()
        .map(|(mi, &(mode, _))| {
            // A quarantined side drops the page from this mode, as
            // `compare_batch` drops a half-measured pair.
            let pairs: Vec<(f64, f64)> = plts
                .chunks_exact(2)
                .filter(|pair| pair[0].0 .0 == mi as u32)
                .filter_map(|pair| Some((pair[0].1?, pair[1].1?)))
                .collect();
            let n = pairs.len() as f64;
            let h2_total: f64 = pairs.iter().map(|p| p.0).sum();
            let h3_total: f64 = pairs.iter().map(|p| p.1).sum();
            ModeRow {
                mode,
                mean_plt_h2_ms: h2_total / n,
                mean_plt_h3_ms: h3_total / n,
                mean_reduction_ms: (h2_total - h3_total) / n,
            }
        })
        .collect();
    h3cdn_experiments::emit(&opts, &FirstVsRepeat { rows });
    h3cdn_experiments::report_quarantine(campaign);
}
