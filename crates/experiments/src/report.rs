//! One-shot campaign report: every artifact, rendered as a single
//! markdown document, plus CSV exports of the figure series for
//! plotting.

use std::fmt::Write as _;

use h3cdn_cdn::Vantage;

use h3cdn::MeasurementCampaign;

/// Options for [`generate_report`].
#[derive(Debug, Clone)]
pub struct ReportOptions {
    /// Vantage for single-vantage artifacts.
    pub vantage: Vantage,
    /// Loss percentages for the Fig. 9 sweep.
    pub loss_percents: Vec<f64>,
    /// Repeats per loss rate (jitter-salt pooling).
    pub fig9_repeats: u64,
    /// Warm-up pages excluded from consecutive-visit statistics.
    pub warmup: usize,
}

impl Default for ReportOptions {
    fn default() -> Self {
        ReportOptions {
            vantage: Vantage::Utah,
            loss_percents: vec![0.0, 0.5, 1.0],
            fig9_repeats: 3,
            warmup: 10,
        }
    }
}

/// Runs every experiment and renders one markdown report.
///
/// This is the expensive all-in-one entry point (the `report` binary);
/// for individual artifacts use the individual figure/table modules of this crate
/// directly. The shared Fig. 6/7 dataset is measured first (itself a
/// parallel batch), then every section renders as a keyed job on the
/// campaign's [runner](h3cdn::runner) — the key-ordered merge keeps the
/// document layout byte-identical for any worker count.
pub fn generate_report(campaign: &MeasurementCampaign, opts: &ReportOptions) -> String {
    let mut out = String::new();
    let corpus = campaign.corpus();
    let _ = writeln!(out, "# h3cdn campaign report\n");
    let _ = writeln!(
        out,
        "- corpus: **{} pages**, {} requests, seed {}",
        corpus.pages.len(),
        corpus.total_requests(),
        corpus.spec.seed
    );
    let _ = writeln!(
        out,
        "- vantages: {} (paired Fig. 6/7 data uses {})",
        opts.vantage,
        campaign
            .vantages()
            .iter()
            .map(|v| v.name())
            .collect::<Vec<_>>()
            .join("/")
    );
    let _ = writeln!(out, "- CDN share: {:.1} %\n", corpus.cdn_fraction() * 100.0);

    // The Fig. 6/7 dataset is shared, so measure it up front (itself a
    // parallel batch on the campaign's runner).
    let comparisons = campaign.compare_all();

    type Section<'a> = (&'static str, Box<dyn FnOnce() -> String + Send + 'a>);
    let sections: Vec<Section<'_>> = vec![
        ("Table I", Box::new(|| crate::table1::run().to_string())),
        (
            "Table II",
            Box::new(|| crate::table2::run(campaign, opts.vantage).to_string()),
        ),
        (
            "Fig. 2",
            Box::new(|| crate::fig2::run(campaign, opts.vantage).to_string()),
        ),
        (
            "Fig. 3",
            Box::new(|| crate::fig3::run(campaign).to_string()),
        ),
        (
            "Fig. 4",
            Box::new(|| crate::fig4::run(campaign).to_string()),
        ),
        (
            "Fig. 5",
            Box::new(|| crate::fig5::run(campaign).to_string()),
        ),
        (
            "Fig. 6",
            Box::new(|| crate::fig6::run(&comparisons).to_string()),
        ),
        (
            "Fig. 7",
            Box::new(|| crate::fig7::run(&comparisons).to_string()),
        ),
        (
            "Fig. 8",
            Box::new(|| crate::fig8::run(campaign, opts.vantage, opts.warmup).to_string()),
        ),
        (
            "Table III",
            Box::new(|| crate::table3::run(campaign, opts.vantage, opts.warmup).to_string()),
        ),
        (
            "Fig. 9",
            Box::new(|| {
                crate::fig9::run_with_repeats(
                    campaign,
                    opts.vantage,
                    &opts.loss_percents,
                    opts.fig9_repeats,
                )
                .to_string()
            }),
        ),
    ];
    let jobs = sections
        .into_iter()
        .enumerate()
        .map(|(i, (title, body))| ((i as u32, 0u32, 0u32), move || (title, body())))
        .collect();
    for (_, (title, body)) in h3cdn::run_keyed(campaign.runner(), jobs) {
        let _ = writeln!(out, "## {title}\n\n```text\n{body}```\n");
    }
    out
}

/// Renders `(x, y)` series as a two-column CSV with a header row.
pub(crate) fn series_csv(header: (&str, &str), points: &[(f64, f64)]) -> String {
    let mut out = format!("{},{}\n", header.0, header.1);
    for (x, y) in points {
        let _ = writeln!(out, "{x},{y}");
    }
    out
}

/// CSV exports of the plot-ready series for each figure: name → CSV
/// body. Covers Fig. 3 (CCDF), Fig. 5 (per-giant CCDFs), Fig. 6(b)
/// (three reduction CDFs), and Fig. 9 (per-loss scatter).
pub fn figure_csvs(campaign: &MeasurementCampaign, opts: &ReportOptions) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let fig3 = crate::fig3::run(campaign);
    out.push((
        "fig3_ccdf.csv".to_string(),
        series_csv(("cdn_percent", "ccdf"), &fig3.points),
    ));
    let fig5 = crate::fig5::run(campaign);
    for s in &fig5.series {
        out.push((
            format!("fig5_{}.csv", s.provider.to_lowercase().replace('.', "_")),
            series_csv(("resources", "ccdf"), &s.points),
        ));
    }
    let comparisons = campaign.compare_all();
    let fig6 = crate::fig6::run(&comparisons);
    out.push((
        "fig6b_connect_cdf.csv".to_string(),
        series_csv(("connect_reduction_ms", "cdf"), &fig6.connect_cdf),
    ));
    out.push((
        "fig6b_wait_cdf.csv".to_string(),
        series_csv(("wait_reduction_ms", "cdf"), &fig6.wait_cdf),
    ));
    out.push((
        "fig6b_receive_cdf.csv".to_string(),
        series_csv(("receive_reduction_ms", "cdf"), &fig6.receive_cdf),
    ));
    let fig9 = crate::fig9::run_with_repeats(
        campaign,
        opts.vantage,
        &opts.loss_percents,
        opts.fig9_repeats,
    );
    for s in &fig9.series {
        out.push((
            format!("fig9_loss_{}.csv", s.loss_percent),
            series_csv(("cdn_resources", "plt_reduction_ms"), &s.points),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use h3cdn::CampaignConfig;

    fn small_opts() -> ReportOptions {
        ReportOptions {
            loss_percents: vec![0.0],
            fig9_repeats: 1,
            warmup: 1,
            ..ReportOptions::default()
        }
    }

    #[test]
    fn report_contains_every_section() {
        let campaign = MeasurementCampaign::new(CampaignConfig::small(6, 12));
        let report = generate_report(&campaign, &small_opts());
        for section in [
            "# h3cdn campaign report",
            "## Table I",
            "## Table II",
            "## Fig. 2",
            "## Fig. 3",
            "## Fig. 4",
            "## Fig. 5",
            "## Fig. 6",
            "## Fig. 7",
            "## Fig. 8",
            "## Table III",
            "## Fig. 9",
        ] {
            assert!(report.contains(section), "missing section {section}");
        }
        assert!(report.contains("6 pages"));
    }

    #[test]
    fn csv_export_is_parseable() {
        let campaign = MeasurementCampaign::new(CampaignConfig::small(5, 13));
        let csvs = figure_csvs(&campaign, &small_opts());
        assert!(csvs.iter().any(|(name, _)| name == "fig3_ccdf.csv"));
        assert!(csvs.iter().any(|(name, _)| name.starts_with("fig9_loss_")));
        for (name, body) in &csvs {
            let mut lines = body.lines();
            let header = lines.next().unwrap_or_else(|| panic!("{name} empty"));
            assert_eq!(header.split(',').count(), 2, "{name} header");
            for line in lines {
                assert_eq!(line.split(',').count(), 2, "{name}: bad row {line}");
                for field in line.split(',') {
                    field
                        .parse::<f64>()
                        .unwrap_or_else(|_| panic!("{name}: non-numeric field {field}"));
                }
            }
        }
    }

    #[test]
    fn series_csv_format() {
        let csv = series_csv(("x", "y"), &[(1.0, 2.5), (3.0, 4.0)]);
        assert_eq!(csv, "x,y\n1,2.5\n3,4\n");
    }
}
