//! Population-scale campaign: Fig. 2–4's composition statistics at
//! 10⁵–10⁶ pages instead of the paper's 325.
//!
//! The paper's crawl-scale figures (provider market share, CDN-share
//! CCDF, sharing degrees) are ratios — they stabilise long before 325
//! pages but their *tails* (the heaviest pages, the rarest provider
//! mixes) only populate at crawl scales the original measurement could
//! not afford. This module runs the seeded synthetic generator
//! ([`h3cdn_web::population`]) over a whole synthetic Internet while
//! holding memory to O(streaming window), not O(pages):
//!
//! * workers generate [`PageRecord`]s through the constant-memory
//!   streaming runner ([`h3cdn::run_keyed_streaming`]), which delivers
//!   results to the sink in site order while buffering at most
//!   `window` completed records;
//! * the sink folds every record into a `PopulationAggregator` —
//!   rolling moments ([`Welford`]) and fixed-grid [`QuantileSketch`]es,
//!   all O(1) per record — and, when the run is checkpointed, appends
//!   the record to a sharded binary journal
//!   ([`h3cdn::ShardedJournal`]) for crash-safe resume;
//! * on `--resume`, journaled records are decoded once and merge-joined
//!   (by site index) with the freshly generated remainder, so the
//!   aggregate is bit-identical to an uninterrupted run.
//!
//! The emitted [`PopulationSummary`] is a pure function of the
//! [`PopulationSpec`] — independent of worker count, window size and
//! resume splits — which is exactly what the CI smoke gate compares.

use std::collections::BTreeMap;

use h3cdn::persist::RunDir;
use h3cdn::{run_keyed_streaming, RunnerConfig, ShardedJournal, StreamStats};
use h3cdn_analysis::{linear_fit, QuantileSketch, Welford};
use h3cdn_cdn::Provider;
use h3cdn_web::population::{SIZE_HIST_BUCKETS_PER_OCTAVE, SIZE_HIST_MAX_EXP, SIZE_HIST_MIN_EXP};
use h3cdn_web::{page_record, PageRecord, PopulationSpec};
use serde::Serialize;

/// Default streaming window: completed-but-undelivered records the
/// runner may buffer. 256 records ≈ 93 KiB — comfortably constant.
pub const DEFAULT_WINDOW: usize = 256;

/// Request-count sketch grid: `[2^4, 2^13)` covers the spec's
/// 30..4000 bounded-Pareto range with 4 buckets per octave.
const COUNT_SKETCH_MIN_EXP: i32 = 4;
/// One-past-highest octave of the request-count grid.
const COUNT_SKETCH_MAX_EXP: i32 = 13;

/// CDN-share CCDF grid: thresholds `k/20` for `k = 0..=20` (Fig. 3's
/// x-axis at 5 % resolution).
const SHARE_GRID: usize = 21;

/// Fit band for the request-count tail exponent (log-log CCDF slope),
/// chosen inside the bounded-Pareto body where truncation bias is
/// small.
const COUNT_TAIL_BAND: (f64, f64) = (60.0, 500.0);
/// Fit band for the resource-size tail exponent.
const SIZE_TAIL_BAND: (f64, f64) = (1024.0, 512.0 * 1024.0);

/// Rolling, O(1)-per-record fold of a page-record stream. Everything
/// the population figures need, nothing proportional to the number of
/// pages.
#[derive(Debug, Clone)]
pub(crate) struct PopulationAggregator {
    pages: u64,
    requests: u64,
    cdn_requests: u64,
    h3_cdn_requests: u64,
    cdn_bytes: u64,
    request_counts: Welford,
    cdn_fractions: Welford,
    count_sketch: QuantileSketch,
    size_sketch: QuantileSketch,
    share_ccdf: [u64; SHARE_GRID],
    provider_pages: [u64; 8],
    cdn_by_provider: [u64; 8],
    h3_by_provider: [u64; 8],
    degree_hist: [u64; 9],
}

impl Default for PopulationAggregator {
    fn default() -> Self {
        Self::new()
    }
}

impl PopulationAggregator {
    /// An empty aggregator on the fixed grids.
    #[must_use]
    pub(crate) fn new() -> Self {
        PopulationAggregator {
            pages: 0,
            requests: 0,
            cdn_requests: 0,
            h3_cdn_requests: 0,
            cdn_bytes: 0,
            request_counts: Welford::new(),
            cdn_fractions: Welford::new(),
            count_sketch: QuantileSketch::new(COUNT_SKETCH_MIN_EXP, COUNT_SKETCH_MAX_EXP, 4),
            // The size grid mirrors `PageRecord::size_bucket` exactly, so
            // per-page histograms merge bucket-for-bucket (pinned by test).
            size_sketch: QuantileSketch::new(
                SIZE_HIST_MIN_EXP,
                SIZE_HIST_MAX_EXP,
                SIZE_HIST_BUCKETS_PER_OCTAVE,
            ),
            share_ccdf: [0; SHARE_GRID],
            provider_pages: [0; 8],
            cdn_by_provider: [0; 8],
            h3_by_provider: [0; 8],
            degree_hist: [0; 9],
        }
    }

    /// Folds one record. Order-insensitive: any permutation of the
    /// same records gives the same aggregate.
    pub(crate) fn absorb(&mut self, r: &PageRecord) {
        self.pages += 1;
        self.requests += u64::from(r.requests);
        self.cdn_requests += u64::from(r.cdn_requests);
        self.h3_cdn_requests += u64::from(r.h3_cdn_requests);
        self.cdn_bytes += r.cdn_bytes;
        self.request_counts.push(f64::from(r.requests));
        let frac = r.cdn_fraction();
        self.cdn_fractions.push(frac);
        self.count_sketch.push(f64::from(r.requests));
        for (i, &c) in r.size_hist.iter().enumerate() {
            if c > 0 {
                self.size_sketch.add_bucket(i, u64::from(c));
            }
        }
        for (k, above) in self.share_ccdf.iter_mut().enumerate() {
            if frac > k as f64 / 20.0 {
                *above += 1;
            }
        }
        self.degree_hist[r.provider_count().min(8) as usize] += 1;
        for i in 0..8 {
            if r.provider_mask & (1 << i) != 0 {
                self.provider_pages[i] += 1;
            }
            self.cdn_by_provider[i] += u64::from(r.cdn_by_provider[i]);
            self.h3_by_provider[i] += u64::from(r.h3_by_provider[i]);
        }
    }

    /// Finalises the aggregate into the serialisable summary.
    #[must_use]
    pub(crate) fn summary(&self, spec: &PopulationSpec) -> PopulationSummary {
        let pages = self.pages.max(1) as f64;
        let providers = Provider::ALL
            .iter()
            .enumerate()
            .map(|(i, p)| ProviderRow {
                provider: p.name().to_owned(),
                pages: self.provider_pages[i],
                page_share: self.provider_pages[i] as f64 / pages,
                cdn_requests: self.cdn_by_provider[i],
                h3_requests: self.h3_by_provider[i],
                h3_request_share: self.h3_by_provider[i] as f64
                    / self.h3_cdn_requests.max(1) as f64,
            })
            .collect::<Vec<_>>();
        let mut shares: Vec<f64> = providers.iter().map(|r| r.page_share).collect();
        shares.sort_by(|a, b| b.total_cmp(a));
        let top4_min_page_share = shares.get(3).copied().unwrap_or(f64::NAN);
        let multi = self.degree_hist.iter().skip(2).sum::<u64>();
        PopulationSummary {
            pages: self.pages,
            seed: spec.seed,
            requests: self.requests,
            cdn_requests: self.cdn_requests,
            h3_cdn_requests: self.h3_cdn_requests,
            cdn_bytes: self.cdn_bytes,
            mean_requests_per_page: self.request_counts.mean(),
            stddev_requests_per_page: self.request_counts.stddev(),
            request_count_p50: self.count_sketch.quantile(0.5),
            request_count_p90: self.count_sketch.quantile(0.9),
            request_tail_alpha: tail_alpha(&self.count_sketch, COUNT_TAIL_BAND),
            size_p50_bytes: self.size_sketch.quantile(0.5),
            size_p75_bytes: self.size_sketch.quantile(0.75),
            size_tail_alpha: tail_alpha(&self.size_sketch, SIZE_TAIL_BAND),
            mean_cdn_fraction: self.cdn_fractions.mean(),
            share_ccdf: self
                .share_ccdf
                .iter()
                .enumerate()
                .map(|(k, &above)| (k as f64 / 20.0, above as f64 / pages))
                .collect(),
            multi_provider_share: multi as f64 / pages,
            top4_min_page_share,
            degree_hist: self.degree_hist.to_vec(),
            providers,
        }
    }
}

/// The emitted result: Fig. 2–4's statistics plus the tail diagnostics
/// the generator's calibration is judged by. A pure function of the
/// [`PopulationSpec`] — never of worker count, window or resume split.
#[derive(Debug, Clone, Serialize)]
pub struct PopulationSummary {
    /// Pages aggregated.
    pub pages: u64,
    /// Population seed.
    pub seed: u64,
    /// Total requests across all pages.
    pub requests: u64,
    /// Requests served by CDNs.
    pub cdn_requests: u64,
    /// CDN requests reachable over H3.
    pub h3_cdn_requests: u64,
    /// Total bytes across CDN requests.
    pub cdn_bytes: u64,
    /// Mean requests per page (paper: ≈ 111).
    pub mean_requests_per_page: f64,
    /// Standard deviation of requests per page.
    pub stddev_requests_per_page: f64,
    /// Median requests per page (sketch grid midpoint).
    pub request_count_p50: f64,
    /// 90th-percentile requests per page.
    pub request_count_p90: f64,
    /// Fitted request-count tail exponent (log-log CCDF slope, negated).
    pub request_tail_alpha: f64,
    /// Median CDN resource size, bytes.
    pub size_p50_bytes: f64,
    /// 75th-percentile CDN resource size (paper §VI-E: ≈ 20 KB).
    pub size_p75_bytes: f64,
    /// Fitted resource-size tail exponent.
    pub size_tail_alpha: f64,
    /// Mean per-page CDN share of requests.
    pub mean_cdn_fraction: f64,
    /// Fig. 3: `(threshold, fraction of pages with CDN share > threshold)`
    /// on the 5 %-step grid.
    pub share_ccdf: Vec<(f64, f64)>,
    /// Fig. 4b: fraction of pages using ≥ 2 providers (paper: 94.8 %).
    pub multi_provider_share: f64,
    /// Fig. 4a: appearance probability of the 4th-most-common provider
    /// (paper: every top-4 provider appears on > 50 % of pages).
    pub top4_min_page_share: f64,
    /// Pages by provider degree (index = distinct providers, 0..=8).
    pub degree_hist: Vec<u64>,
    /// Per-provider rows, `Provider::ALL` order.
    pub providers: Vec<ProviderRow>,
}

/// One provider's population-wide totals (Fig. 2 / Fig. 4a).
#[derive(Debug, Clone, Serialize)]
pub struct ProviderRow {
    /// Provider name.
    pub provider: String,
    /// Pages the provider serves ≥ 1 request on.
    pub pages: u64,
    /// Fraction of all pages (Fig. 4a's appearance probability).
    pub page_share: f64,
    /// CDN requests served.
    pub cdn_requests: u64,
    /// H3-reachable CDN requests served.
    pub h3_requests: u64,
    /// Share of all H3-reachable CDN requests (Fig. 2's bars).
    pub h3_request_share: f64,
}

impl std::fmt::Display for PopulationSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "population: {} pages (seed {:#x}), {} requests, {:.1} % CDN, \
             {:.1} % of CDN requests H3-reachable",
            self.pages,
            self.seed,
            self.requests,
            100.0 * self.cdn_requests as f64 / self.requests.max(1) as f64,
            100.0 * self.h3_cdn_requests as f64 / self.cdn_requests.max(1) as f64,
        )?;
        writeln!(
            f,
            "requests/page: mean {:.1} (sd {:.1}), p50 {:.0}, p90 {:.0}, tail α ≈ {:.2}",
            self.mean_requests_per_page,
            self.stddev_requests_per_page,
            self.request_count_p50,
            self.request_count_p90,
            self.request_tail_alpha,
        )?;
        writeln!(
            f,
            "cdn resource size: p50 {:.0} B, p75 {:.0} B, tail α ≈ {:.2}",
            self.size_p50_bytes, self.size_p75_bytes, self.size_tail_alpha,
        )?;
        let at_half = self
            .share_ccdf
            .iter()
            .find(|(t, _)| (*t - 0.5).abs() < 1e-9)
            .map_or(f64::NAN, |&(_, v)| v);
        writeln!(
            f,
            "pages with > 50 % CDN share: {:.1} %   multi-provider pages: {:.1} %   \
             top-4 appearance floor: {:.1} %",
            100.0 * at_half,
            100.0 * self.multi_provider_share,
            100.0 * self.top4_min_page_share,
        )?;
        writeln!(
            f,
            "{:<12} {:>10} {:>7} {:>12} {:>12} {:>8}",
            "provider", "pages", "page%", "cdn req", "h3 req", "h3%"
        )?;
        for row in &self.providers {
            writeln!(
                f,
                "{:<12} {:>10} {:>6.1}% {:>12} {:>12} {:>7.1}%",
                row.provider,
                row.pages,
                100.0 * row.page_share,
                row.cdn_requests,
                row.h3_requests,
                100.0 * row.h3_request_share,
            )?;
        }
        Ok(())
    }
}

/// Fits the tail exponent `α` of a sketched distribution: the negated
/// slope of `log10(CCDF)` against `log10(x)` over the bucket
/// low-edges inside `band`. `NaN` when fewer than two populated
/// buckets fall in the band.
fn tail_alpha(sketch: &QuantileSketch, band: (f64, f64)) -> f64 {
    let pts: Vec<(f64, f64)> = sketch
        .ccdf_points()
        .into_iter()
        .filter(|&(x, c)| x >= band.0 && x <= band.1 && c > 0.0)
        .collect();
    if pts.len() < 2 {
        return f64::NAN;
    }
    let xs: Vec<f64> = pts.iter().map(|p| p.0.log10()).collect();
    let ys: Vec<f64> = pts.iter().map(|p| p.1.log10()).collect();
    -linear_fit(&xs, &ys).slope
}

/// Journaled records of a previous run, decoded and keyed by site.
/// Undecodable or out-of-range payloads are dropped (→ re-executed).
fn load_resumed(run: &RunDir, spec: &PopulationSpec) -> BTreeMap<u64, PageRecord> {
    let raw = match ShardedJournal::load(&run.shards_dir()) {
        Ok(raw) => raw,
        Err(e) => {
            eprintln!("h3cdn population: shard journal unreadable ({e}); running from scratch");
            return BTreeMap::new();
        }
    };
    raw.into_iter()
        .filter(|(site, bytes)| *site < spec.num_pages && bytes.len() == PageRecord::ENCODED_LEN)
        .filter_map(|(site, bytes)| {
            let r = PageRecord::decode(&bytes)?;
            (r.site == site).then_some((site, r))
        })
        .collect()
}

/// Runs the population campaign: journaled records are merge-joined by
/// site with freshly generated ones, every record flows through the
/// aggregator exactly once, and (under a checkpointed run) every fresh
/// record is journaled from the in-order sink.
///
/// Returns the summary plus the streaming stats; the stats are
/// scheduling diagnostics (fresh-job count, peak buffered) and *not*
/// part of the deterministic output.
pub fn run(
    spec: &PopulationSpec,
    runner: &RunnerConfig,
    window: usize,
    run_dir: Option<&RunDir>,
) -> (PopulationSummary, StreamStats) {
    spec.validate().expect("population spec validates");
    let resumed = run_dir.map_or_else(BTreeMap::new, |run| load_resumed(run, spec));
    if !resumed.is_empty() {
        eprintln!(
            "h3cdn population: {} page record(s) loaded from shard journal",
            resumed.len()
        );
    }
    let journal = run_dir.and_then(|run| match ShardedJournal::open(&run.shards_dir()) {
        Ok(j) => Some(j),
        Err(e) => {
            eprintln!("h3cdn population: shard journal unavailable ({e}); running unjournaled");
            None
        }
    });

    let mut jobs: Vec<(u64, _)> = Vec::new();
    {
        let mut resumed_sites = resumed.keys().copied().peekable();
        for site in 0..spec.num_pages {
            if resumed_sites.peek() == Some(&site) {
                resumed_sites.next();
                continue;
            }
            jobs.push((site, move || page_record(spec, site)));
        }
    }

    let mut agg = PopulationAggregator::new();
    let mut pending = resumed.into_iter().peekable();
    let stats = run_keyed_streaming(runner, jobs, window, |site, record: PageRecord| {
        // Merge-join: journaled records with a smaller site index come
        // first, keeping the fold in global site order.
        while pending.peek().is_some_and(|&(s, _)| s < site) {
            let (_, r) = pending.next().expect("peeked");
            agg.absorb(&r);
        }
        if let Some(j) = &journal {
            if let Err(e) = j.append(site, &record.encode()) {
                eprintln!("h3cdn population: journal append failed for site {site}: {e}");
            }
        }
        agg.absorb(&record);
    });
    for (_, r) in pending {
        agg.absorb(&r);
    }
    if let Some(j) = &journal {
        if let Err(e) = j.finish() {
            eprintln!("h3cdn population: journal finish failed: {e}");
        }
    }
    (agg.summary(spec), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn small_spec() -> PopulationSpec {
        PopulationSpec::default().with_pages(300).with_seed(77)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("h3cdn-population-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    /// The per-page histogram grid and the population sketch grid must
    /// agree bucket for bucket, or `absorb` mis-bins every size.
    #[test]
    fn page_histogram_grid_matches_sketch_grid() {
        let sketch = QuantileSketch::new(
            SIZE_HIST_MIN_EXP,
            SIZE_HIST_MAX_EXP,
            SIZE_HIST_BUCKETS_PER_OCTAVE,
        );
        assert_eq!(
            sketch.num_buckets(),
            h3cdn_web::population::SIZE_HIST_BUCKETS
        );
        for bytes in [
            1u64,
            63,
            64,
            65,
            120,
            1024,
            19_999,
            65_536,
            4_999_999,
            1 << 40,
        ] {
            assert_eq!(
                Some(PageRecord::size_bucket(bytes)),
                sketch.bucket_index(bytes as f64),
                "grid mismatch at {bytes} bytes"
            );
        }
    }

    #[test]
    fn aggregate_is_a_pure_fold_of_the_records() {
        let spec = small_spec();
        let mut forward = PopulationAggregator::new();
        let mut backward = PopulationAggregator::new();
        for site in 0..spec.num_pages {
            forward.absorb(&page_record(&spec, site));
        }
        for site in (0..spec.num_pages).rev() {
            backward.absorb(&page_record(&spec, site));
        }
        let (a, b) = (forward.summary(&spec), backward.summary(&spec));
        assert_eq!(a.pages, spec.num_pages);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.share_ccdf, b.share_ccdf);
        assert_eq!(a.degree_hist, b.degree_hist);
        assert!((a.mean_requests_per_page - b.mean_requests_per_page).abs() < 1e-9);
    }

    #[test]
    fn streaming_run_matches_direct_fold_at_any_worker_count() {
        let spec = small_spec();
        let mut direct = PopulationAggregator::new();
        for site in 0..spec.num_pages {
            direct.absorb(&page_record(&spec, site));
        }
        let want = serde_json::to_string(&direct.summary(&spec)).expect("serialises");
        for jobs in [1, 4] {
            let runner = RunnerConfig::default().with_jobs(jobs).with_quiet(true);
            let (summary, stats) = run(&spec, &runner, 16, None);
            assert_eq!(
                serde_json::to_string(&summary).expect("serialises"),
                want,
                "jobs={jobs} diverged from the direct fold"
            );
            assert_eq!(stats.total as u64, spec.num_pages);
            assert!(stats.peak_buffered <= 16);
        }
    }

    /// Resume is bit-identical: journal half the records, then let the
    /// run merge-join them with the freshly generated other half.
    #[test]
    fn resumed_records_merge_join_bit_identically() {
        let spec = small_spec();
        let runner = RunnerConfig::default().with_jobs(2).with_quiet(true);
        let (clean, _) = run(&spec, &runner, 16, None);
        let want = serde_json::to_string(&clean).expect("serialises");

        let root = temp_dir("resume");
        let run_dir = RunDir::at(root.clone());
        let journal = ShardedJournal::open(&run_dir.shards_dir()).expect("journal opens");
        for site in (0..spec.num_pages).filter(|s| s % 3 == 0) {
            journal
                .append(site, &page_record(&spec, site).encode())
                .expect("append");
        }
        journal.finish().expect("finish");

        let (resumed, stats) = run(&spec, &runner, 16, Some(&run_dir));
        assert_eq!(serde_json::to_string(&resumed).expect("serialises"), want);
        assert_eq!(
            stats.total as u64,
            spec.num_pages - spec.num_pages.div_ceil(3)
        );

        // And the journal now holds every record, so a second resume
        // re-executes nothing.
        let (again, stats) = run(&spec, &runner, 16, Some(&run_dir));
        assert_eq!(serde_json::to_string(&again).expect("serialises"), want);
        assert_eq!(stats.total, 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn summary_shapes_track_the_paper_at_modest_scale() {
        let spec = PopulationSpec::default().with_pages(4000);
        let runner = RunnerConfig::default().with_jobs(0).with_quiet(true);
        let (s, _) = run(&spec, &runner, DEFAULT_WINDOW, None);
        let at_half = s.share_ccdf[10].1;
        assert!((at_half - 0.75).abs() < 0.05, "CCDF@0.5 = {at_half}");
        assert!(
            (s.multi_provider_share - 0.948).abs() < 0.04,
            "multi-provider share = {}",
            s.multi_provider_share
        );
        assert!(s.top4_min_page_share > 0.5);
        assert!(
            (s.mean_requests_per_page - 110.0).abs() < 0.15 * 110.0,
            "mean requests/page = {}",
            s.mean_requests_per_page
        );
        assert!(s.size_p75_bytes > 12_000.0 && s.size_p75_bytes < 30_000.0);
        assert!((s.request_tail_alpha - 1.22).abs() < 0.3);
        // CCDF grid is monotone non-increasing.
        for pair in s.share_ccdf.windows(2) {
            assert!(pair[1].1 <= pair[0].1 + 1e-12);
        }
    }
}
