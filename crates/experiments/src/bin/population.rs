//! Runs the population-scale composition campaign: Fig. 2–4's
//! statistics over a seeded synthetic Internet of 10⁵–10⁶ pages,
//! generated and aggregated in constant memory through the streaming
//! runner (see `h3cdn_experiments::population`).
//!
//! Extra flags on top of the common set:
//!
//! ```text
//! --smoke      drop the default scale to 10 000 pages and verify the
//!              distribution-shape invariants (CI gate): the CDN-share
//!              CCDF must be monotone with ≈ 75 % of pages above 50 %,
//!              ≈ 94.8 % of pages must use ≥ 2 providers with every
//!              top-4 provider on > 50 % of pages, Google + Cloudflare
//!              must dominate H3-reachable requests, and the request /
//!              size tails must fit their calibrated exponents.
//! --window N   streaming-window size: completed-but-undelivered
//!              records the runner may buffer (default 256). Affects
//!              memory and scheduling only, never the output.
//! ```
//!
//! Without an explicit `--pages`, the campaign runs 100 000 pages
//! (10 000 under `--smoke`). With `--run-id`/`--resume` the sink
//! journals every record into sharded binary shards under
//! `results/.runs/<id>/shards/`, and a resumed run merge-joins them
//! with the freshly generated remainder — bit-identical to an
//! uninterrupted run at any `--jobs`.

use h3cdn_experiments::{population, usage_error};
use h3cdn_web::PopulationSpec;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    args.retain(|a| a != "--smoke");
    let window = extract_window(&mut args).unwrap_or(population::DEFAULT_WINDOW);
    let opts = h3cdn_experiments::parse_args_with(
        args.into_iter(),
        "--smoke   --window N   ",
        if smoke { 10_000 } else { 100_000 },
    );
    let spec = PopulationSpec::default()
        .with_seed(opts.seed)
        .with_pages(opts.pages as u64);
    let run_dir = h3cdn_experiments::prepare_run_dir(&opts, "population");
    let (summary, stats) = population::run(&spec, &opts.runner(), window, run_dir.as_ref());
    h3cdn_experiments::emit(&opts, &summary);
    eprintln!(
        "population: {} fresh job(s), {} resumed, peak {} record(s) buffered (window {})",
        stats.total,
        spec.num_pages - stats.total as u64,
        stats.peak_buffered,
        window
    );
    if smoke {
        check_invariants(&summary, &stats, &spec, window);
        eprintln!("population smoke OK");
    }
}

/// Pulls `--window N` out of the raw argument list (it is not part of
/// the common flag set); a missing, malformed or zero `N` is a usage
/// error.
fn extract_window(args: &mut Vec<String>) -> Option<usize> {
    let at = args.iter().position(|a| a == "--window")?;
    let value = args
        .get(at + 1)
        .and_then(|v| v.parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or_else(|| usage_error("--window expects a positive integer"));
    args.drain(at..=at + 1);
    Some(value)
}

/// The distribution-shape invariants the CI smoke run enforces — the
/// synthetic Internet must keep reproducing the paper's Fig. 2–4 (and
/// §VI-E's size profile) at population scale.
///
/// # Panics
///
/// Panics (failing the CI step) when a shape drifts out of its band.
fn check_invariants(
    s: &population::PopulationSummary,
    stats: &h3cdn::StreamStats,
    spec: &PopulationSpec,
    window: usize,
) {
    assert_eq!(s.pages, spec.num_pages, "pages lost in aggregation");
    assert!(
        stats.peak_buffered <= window,
        "streaming runner buffered {} > window {window}",
        stats.peak_buffered
    );
    // Fig. 3: monotone CCDF with ~75 % of pages above 50 % CDN share.
    for pair in s.share_ccdf.windows(2) {
        assert!(
            pair[1].1 <= pair[0].1 + 1e-12,
            "CDN-share CCDF must be monotone non-increasing"
        );
    }
    let at_half = s.share_ccdf[10].1;
    assert!(
        (at_half - 0.75).abs() < 0.05,
        "CCDF@0.5 = {at_half}, want ≈ 0.75 (Fig. 3)"
    );
    // Fig. 4: sharing degrees.
    assert!(
        (s.multi_provider_share - 0.948).abs() < 0.04,
        "multi-provider share = {}, want ≈ 0.948 (Fig. 4b)",
        s.multi_provider_share
    );
    assert!(
        s.top4_min_page_share > 0.5,
        "every top-4 provider must appear on > 50 % of pages (Fig. 4a)"
    );
    // Fig. 2: Google and Cloudflare dominate H3-reachable requests.
    let h3_share = |name: &str| {
        s.providers
            .iter()
            .find(|r| r.provider == name)
            .map_or(f64::NAN, |r| r.h3_request_share)
    };
    let (google, cloudflare) = (h3_share("Google"), h3_share("Cloudflare"));
    assert!(
        google > 0.37 && google < 0.58,
        "Google H3-request share = {google}, want ≈ 0.47 (Fig. 2)"
    );
    assert!(
        cloudflare > 0.37 && cloudflare < 0.58,
        "Cloudflare H3-request share = {cloudflare}, want ≈ 0.46 (Fig. 2)"
    );
    assert!(
        google + cloudflare > 0.85,
        "Google + Cloudflare must dominate H3-reachable requests (Fig. 2)"
    );
    // Body and tails of the calibrated composition distributions.
    assert!(
        (s.mean_requests_per_page - 110.0).abs() < 0.15 * 110.0,
        "mean requests/page = {}, want ≈ 110",
        s.mean_requests_per_page
    );
    assert!(
        (s.request_tail_alpha - 1.22).abs() < 0.3,
        "request-count tail α = {}, want ≈ 1.22",
        s.request_tail_alpha
    );
    assert!(
        s.size_p75_bytes > 12_000.0 && s.size_p75_bytes < 30_000.0,
        "size P75 = {} B, want ≈ 20 KB (§VI-E)",
        s.size_p75_bytes
    );
    assert!(
        s.size_tail_alpha > 0.15 && s.size_tail_alpha < 0.45,
        "size tail α = {}, want the truncated-Pareto band",
        s.size_tail_alpha
    );
}
