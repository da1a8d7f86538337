//! Cross-vantage consistency (the paper's §III-B multi-probe design):
//! mean PLT reduction per vantage, showing results do not hinge on one
//! observation point.

use h3cdn::Vantage;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct VantageRow {
    vantage: String,
    pages: usize,
    mean_plt_reduction_ms: f64,
    positive_share: f64,
}

#[derive(Debug, Serialize)]
struct Vantages {
    rows: Vec<VantageRow>,
}

impl std::fmt::Display for Vantages {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Per-vantage consistency of the H3 PLT reduction")?;
        writeln!(
            f,
            "{:<12} {:>6} {:>16} {:>16}",
            "vantage", "pages", "mean reduction", "positive pages"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<12} {:>6} {:>14.1}ms {:>15.0}%",
                r.vantage,
                r.pages,
                r.mean_plt_reduction_ms,
                r.positive_share * 100.0
            )?;
        }
        Ok(())
    }
}

fn main() {
    let opts = h3cdn_experiments::parse_args_with(std::env::args().skip(1), "", 80);
    let campaign = h3cdn_experiments::campaign_named(&opts, "vantages");
    let rows = Vantage::ALL
        .into_iter()
        .map(|v| {
            // One parallel, order-stable batch per vantage.
            let reductions: Vec<f64> = campaign
                .compare_vantage(v)
                .iter()
                .map(|cmp| cmp.plt_reduction_ms)
                .collect();
            VantageRow {
                vantage: v.name().to_string(),
                pages: reductions.len(),
                mean_plt_reduction_ms: reductions.iter().sum::<f64>() / reductions.len() as f64,
                positive_share: reductions.iter().filter(|&&r| r > 0.0).count() as f64
                    / reductions.len() as f64,
            }
        })
        .collect();
    h3cdn_experiments::emit(&opts, &Vantages { rows });
    h3cdn_experiments::report_quarantine(&campaign);
}
