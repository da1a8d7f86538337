//! The measurement campaign: corpus + visit machinery + pairing.
//!
//! All visit entry points funnel into one internal page-visit path and,
//! for anything that measures more than a single page, into the
//! deterministic parallel [`runner`](crate::runner): paired visits are
//! submitted as keyed jobs `(vantage, site, variant)` where `variant`
//! is the protocol side (0 = H2, 1 = H3), executed on a scoped worker
//! pool, and merged in key order — so every campaign API returns
//! bit-identical results for any worker count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use h3cdn_browser::{
    try_visit_consecutively, try_visit_page, AbortedVisit, BrokenQuicCache, ProtocolMode,
    VisitConfig,
};
use h3cdn_cdn::Vantage;
use h3cdn_har::{entry_reductions, plt_reduction_ms, HarPage, PageComparison};
use h3cdn_transport::tls::TicketStore;
use h3cdn_web::{generate, Corpus, Webpage, WorkloadSpec};

use serde::{Deserialize, Serialize};

use crate::persist::fnv1a64;
use crate::runner::durable::{
    run_keyed_durable, DurableContext, DurableReport, JobFailure, JobMeta, STALLED_PREFIX,
};
use crate::runner::{run_keyed, RunnerConfig};

/// Configuration of one campaign (corpus + probing setup).
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Workload specification (pages, sizes, calibration).
    pub workload: WorkloadSpec,
    /// Vantage points to probe from (the paper uses all three).
    pub vantages: Vec<Vantage>,
    /// Base visit configuration; experiments override mode/loss per run.
    pub visit: VisitConfig,
    /// Parallel execution settings for multi-visit APIs. Results are
    /// bit-identical for every worker count; this only changes speed.
    pub runner: RunnerConfig,
    /// Crash-safe execution: panic isolation, quarantine on the first
    /// panic, and (when the context carries a checkpoint directory)
    /// journal/resume. `None` (the default) runs on the plain
    /// deterministic pool — a panicking visit is then re-raised on the
    /// caller's thread and aborts the run, at any worker count.
    pub durable: Option<DurableContext>,
    /// Chaos hook: deliberately panic any visit of this site (set from
    /// `H3CDN_PANIC_SITE` by the experiment binaries). Exists to prove
    /// the quarantine path end-to-end; `None` in every real campaign.
    pub inject_panic_site: Option<usize>,
}

impl Default for CampaignConfig {
    /// Paper-scale: 325 pages, three vantages, runner from environment.
    fn default() -> Self {
        CampaignConfig {
            workload: WorkloadSpec::default(),
            vantages: Vantage::ALL.to_vec(),
            visit: VisitConfig::default(),
            runner: RunnerConfig::from_env(),
            durable: None,
            inject_panic_site: None,
        }
    }
}

impl CampaignConfig {
    /// A scaled-down campaign (one vantage) for tests, examples and
    /// benches.
    pub fn small(pages: usize, seed: u64) -> Self {
        CampaignConfig {
            workload: WorkloadSpec::default().with_pages(pages).with_seed(seed),
            vantages: vec![Vantage::Utah],
            visit: VisitConfig::default(),
            runner: RunnerConfig::from_env(),
            durable: None,
            inject_panic_site: None,
        }
    }

    /// Returns a copy using the given runner configuration.
    pub fn with_runner(mut self, runner: RunnerConfig) -> Self {
        self.runner = runner;
        self
    }

    /// Returns a copy with crash-safe execution configured (`None`
    /// reverts to the plain pool).
    pub fn with_durable(mut self, durable: Option<DurableContext>) -> Self {
        self.durable = durable;
        self
    }

    /// Returns a copy with the chaos hook armed for `site`.
    pub fn with_inject_panic_site(mut self, site: Option<usize>) -> Self {
        self.inject_panic_site = site;
        self
    }
}

/// A campaign: the corpus plus everything needed to measure it.
///
/// All visit methods are pure functions of the campaign configuration —
/// identical campaigns produce identical HARs, regardless of the
/// configured worker count.
#[derive(Debug)]
pub struct MeasurementCampaign {
    config: CampaignConfig,
    corpus: Corpus,
    /// Quarantined jobs accumulated across durable batches of this
    /// campaign (empty unless `config.durable` is set and jobs failed).
    quarantine: Mutex<Vec<JobFailure>>,
    /// Jobs loaded from the checkpoint journal instead of executed.
    resumed: AtomicUsize,
}

impl MeasurementCampaign {
    /// Generates the corpus and readies the campaign.
    pub fn new(config: CampaignConfig) -> Self {
        let corpus = generate(&config.workload);
        MeasurementCampaign {
            config,
            corpus,
            quarantine: Mutex::new(Vec::new()),
            resumed: AtomicUsize::new(0),
        }
    }

    /// The generated corpus.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// The campaign configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// The configured vantages.
    pub fn vantages(&self) -> &[Vantage] {
        &self.config.vantages
    }

    /// The runner configuration multi-visit APIs execute under.
    pub fn runner(&self) -> &RunnerConfig {
        &self.config.runner
    }

    /// Quarantined jobs accumulated so far, draining the sink. Callers
    /// that run under a durable context should report these alongside
    /// their results — the campaign completed *without* them.
    pub fn take_quarantine(&self) -> Vec<JobFailure> {
        std::mem::take(
            &mut *self
                .quarantine
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    /// Number of jobs loaded from the checkpoint journal instead of
    /// executed (0 unless resuming).
    pub fn resumed_jobs(&self) -> usize {
        self.resumed.load(Ordering::Relaxed)
    }

    /// The chaos hook: panics deliberately when `site` is the site
    /// [`CampaignConfig::inject_panic_site`] arms, and does nothing
    /// otherwise. Every page load a campaign job performs calls this
    /// first — the campaign's own visit path and the experiment sweeps
    /// that load pages themselves.
    pub fn fire_chaos_hook(&self, site: usize) {
        if self.config.inject_panic_site == Some(site) {
            std::panic::panic_any(format!(
                "deliberately injected panic at site {site} (H3CDN_PANIC_SITE chaos hook)"
            ));
        }
    }

    /// `repro` prefixed with `H3CDN_PANIC_SITE=N` when the chaos hook is
    /// armed at `site`, so replaying a job quarantined by the hook
    /// re-arms it.
    pub fn chaos_repro(&self, site: usize, repro: String) -> String {
        if self.config.inject_panic_site == Some(site) {
            format!("H3CDN_PANIC_SITE={site} {repro}")
        } else {
            repro
        }
    }

    /// The single internal visit path every public entry point funnels
    /// through: one isolated page load (fresh ticket store) under an
    /// explicit config.
    ///
    /// Aborted visits surface as `String`-payload panics (stall-backed
    /// ones carry [`STALLED_PREFIX`]); under a durable context the
    /// runner's `catch_unwind` shell converts them into typed
    /// [`JobFailure`]s, otherwise they abort the process exactly as an
    /// aborted visit did before the durable runner existed.
    fn page_visit(&self, site: usize, cfg: &VisitConfig) -> HarPage {
        self.fire_chaos_hook(site);
        match try_visit_page(
            &self.corpus.pages[site],
            &self.corpus.domains,
            cfg,
            TicketStore::new(),
            BrokenQuicCache::new(),
        ) {
            Ok(outcome) => outcome.har,
            Err(aborted) => abort_to_panic(&aborted),
        }
    }

    /// Per-visit job metadata: a stable human label plus the minimal
    /// deterministic repro command line recorded on failure.
    fn visit_meta(&self, site: usize, cfg: &VisitConfig) -> JobMeta {
        let w = &self.config.workload;
        let mode = cfg.mode.label();
        let vantage = cfg.vantage.name().to_lowercase();
        let cfg_hash = fnv1a64(format!("{cfg:?}").as_bytes());
        let repro = format!(
            "cargo run -q -p h3cdn-experiments --bin visit_one -- \
             --pages {} --seed {} --site {site} --vantage {vantage} --mode {mode}",
            w.num_pages, w.seed
        );
        JobMeta {
            label: format!("site {site} {mode} @ {vantage} cfg={cfg_hash:016x}"),
            repro: self.chaos_repro(site, repro),
        }
    }

    /// Metadata for one consecutive pass.
    fn pass_meta(&self, vantage: Vantage, mode: ProtocolMode) -> JobMeta {
        let w = &self.config.workload;
        JobMeta {
            label: format!(
                "consecutive pass {} @ {}",
                mode.label(),
                vantage.name().to_lowercase()
            ),
            repro: format!(
                "cargo run -q -p h3cdn-experiments --bin table3 -- --pages {} --seed {}",
                w.num_pages, w.seed
            ),
        }
    }

    /// Executes a batch of keyed jobs on the configured execution
    /// layer: the plain deterministic pool when `config.durable` is
    /// `None` (every result `Some`, a panic aborts the process), the
    /// crash-safe runner otherwise (quarantined jobs come back `None`
    /// and land in the campaign's quarantine sink; journal hits are
    /// counted in [`resumed_jobs`](Self::resumed_jobs)).
    ///
    /// The journal section is `prefix` plus a content hash over every
    /// job's metadata, so distinct batches never share journal entries
    /// even within one run.
    pub fn run_durable<K, T, F>(
        &self,
        prefix: &str,
        jobs: Vec<(K, JobMeta, F)>,
    ) -> Vec<(K, Option<T>)>
    where
        K: Ord + Send,
        T: Send + Serialize + Deserialize,
        F: FnOnce() -> T + Send,
    {
        let Some(ctx) = &self.config.durable else {
            let plain: Vec<(K, F)> = jobs.into_iter().map(|(k, _, f)| (k, f)).collect();
            return run_keyed(&self.config.runner, plain)
                .into_iter()
                .map(|(k, v)| (k, Some(v)))
                .collect();
        };
        let mut ident = String::new();
        for (_, meta, _) in &jobs {
            ident.push_str(&meta.label);
            ident.push('\u{1f}');
            ident.push_str(&meta.repro);
            ident.push('\n');
        }
        let section = format!("{prefix}-{:016x}", fnv1a64(ident.as_bytes()));
        let DurableReport {
            results,
            failures,
            resumed,
        } = run_keyed_durable(&self.config.runner, ctx, &section, jobs);
        self.resumed.fetch_add(resumed, Ordering::Relaxed);
        if !failures.is_empty() {
            self.quarantine
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .extend(failures);
        }
        results
    }

    /// Single visits of every page from one vantage under one mode, in
    /// corpus order, executed as keyed jobs on the configured execution
    /// layer (parallel, order-stable, durable when configured). Under a
    /// durable context a quarantined visit is dropped from the output
    /// (reported via [`take_quarantine`](Self::take_quarantine)) — so
    /// single-pass experiments degrade to "all pages but the poisoned
    /// ones" instead of aborting.
    pub fn visit_all(&self, vantage: Vantage, mode: ProtocolMode) -> Vec<(usize, HarPage)> {
        let base = self
            .config
            .visit
            .clone()
            .with_vantage(vantage)
            .with_mode(mode);
        let jobs: Vec<_> = (0..self.corpus.pages.len())
            .map(|site| {
                let cfg = base.clone();
                let meta = self.visit_meta(site, &cfg);
                ((site as u32, 0u32, 0u32), meta, move || {
                    self.page_visit(site, &cfg)
                })
            })
            .collect();
        self.run_durable("visits", jobs)
            .into_iter()
            .filter_map(|((site, _, _), har)| Some((site as usize, har?)))
            .collect()
    }

    /// Visits one page once, isolated (no prior session state).
    pub fn visit(&self, site: usize, vantage: Vantage, mode: ProtocolMode) -> HarPage {
        let cfg = self
            .config
            .visit
            .clone()
            .with_mode(mode)
            .with_vantage(vantage);
        self.page_visit(site, &cfg)
    }

    /// Visits one page with an explicit visit config (loss sweeps etc.).
    pub fn visit_with(&self, site: usize, cfg: &VisitConfig) -> HarPage {
        self.page_visit(site, cfg)
    }

    /// The paper's paired measurement of one page from one vantage: an
    /// H2 visit and an H3 visit over identical paths, reduced to a
    /// [`PageComparison`].
    pub fn compare_page(&self, site: usize, vantage: Vantage) -> PageComparison {
        let base = self.config.visit.clone().with_vantage(vantage);
        self.compare_page_with(site, &base)
    }

    /// Paired measurement under an explicit base config (the mode field
    /// is overridden per side).
    pub fn compare_page_with(&self, site: usize, base: &VisitConfig) -> PageComparison {
        let h2 = self.page_visit(site, &base.clone().with_mode(ProtocolMode::H2Only));
        let h3 = self.page_visit(site, &base.clone().with_mode(ProtocolMode::H3Enabled));
        self.build_comparison(&self.corpus.pages[site], &h2, &h3)
    }

    /// Runs a batch of paired H2/H3 measurements on the configured
    /// runner and returns them keyed, in ascending key order.
    ///
    /// Each spec `(key, site, base_config)` expands into two jobs —
    /// `(key, site, 0)` for the H2 side and `(key, site, 1)` for the H3
    /// side — so the pool load-balances at visit granularity. The merge
    /// pairs the sides back up and reduces them with
    /// [`build_comparison`](Self::build_comparison). Output is
    /// bit-identical for every worker count.
    ///
    /// Under a durable context a page whose *either* side is
    /// quarantined is dropped from the output (and reported via
    /// [`take_quarantine`](Self::take_quarantine)); without one, a
    /// failing visit panics as before.
    pub fn compare_batch<K>(&self, specs: Vec<(K, usize, VisitConfig)>) -> Vec<(K, PageComparison)>
    where
        K: Ord + Clone + Send,
    {
        let mut jobs = Vec::with_capacity(specs.len() * 2);
        for (key, site, base) in specs {
            for (variant, mode) in [
                (0u32, ProtocolMode::H2Only),
                (1u32, ProtocolMode::H3Enabled),
            ] {
                let cfg = base.clone().with_mode(mode);
                let meta = self.visit_meta(site, &cfg);
                let key = key.clone();
                jobs.push(((key, site, variant), meta, move || {
                    self.page_visit(site, &cfg)
                }));
            }
        }
        let sides = self.run_durable("pairs", jobs);
        sides
            .chunks_exact(2)
            .filter_map(|pair| {
                let ((key, site, _), h2) = &pair[0];
                let (_, h3) = &pair[1];
                match (h2, h3) {
                    (Some(h2), Some(h3)) => Some((
                        key.clone(),
                        self.build_comparison(&self.corpus.pages[*site], h2, h3),
                    )),
                    // A quarantined side drops the whole pair: a
                    // half-measured page is not a comparison.
                    _ => None,
                }
            })
            .collect()
    }

    /// Paired measurements of every page from one vantage, in corpus
    /// order (parallel, order-stable).
    pub fn compare_vantage(&self, vantage: Vantage) -> Vec<PageComparison> {
        let base = self.config.visit.clone().with_vantage(vantage);
        let specs = (0..self.corpus.pages.len())
            .map(|site| (site as u32, site, base.clone()))
            .collect();
        self.compare_batch(specs)
            .into_iter()
            .map(|(_, cmp)| cmp)
            .collect()
    }

    /// Paired measurements of every page from every configured vantage
    /// (the full Fig. 6/7 dataset), vantage-major in configuration
    /// order, sites ascending — identical to the serial double loop.
    pub fn compare_all(&self) -> Vec<PageComparison> {
        let mut specs = Vec::new();
        for (vi, &v) in self.config.vantages.iter().enumerate() {
            let base = self.config.visit.clone().with_vantage(v);
            for site in 0..self.corpus.pages.len() {
                specs.push(((vi as u32, site as u32), site, base.clone()));
            }
        }
        self.compare_batch(specs)
            .into_iter()
            .map(|(_, cmp)| cmp)
            .collect()
    }

    /// One consecutive pass (session state carried across pages) under
    /// an explicit mode. An aborted page surfaces as a `String`-payload
    /// panic, same contract as [`page_visit`](Self::page_visit).
    fn consecutive_visit(&self, vantage: Vantage, mode: ProtocolMode) -> Vec<HarPage> {
        let pages: Vec<&Webpage> = self.corpus.pages.iter().collect();
        let cfg = self
            .config
            .visit
            .clone()
            .with_vantage(vantage)
            .with_mode(mode);
        match try_visit_consecutively(&pages, &self.corpus.domains, &cfg, TicketStore::new()) {
            Ok((hars, _)) => hars,
            Err(aborted) => abort_to_panic(&aborted),
        }
    }

    /// Consecutive visits (§VI-D): pages in corpus order, session state
    /// carried across pages, one pass per protocol mode. The two passes
    /// run as parallel jobs. Returns `(h2_pages, h3_pages)`
    /// index-aligned with the corpus. Under a durable context a
    /// quarantined pass comes back empty (and is reported via
    /// [`take_quarantine`](Self::take_quarantine)).
    pub fn consecutive_pass(&self, vantage: Vantage) -> (Vec<HarPage>, Vec<HarPage>) {
        let jobs: Vec<_> = [
            (0u32, ProtocolMode::H2Only),
            (1u32, ProtocolMode::H3Enabled),
        ]
        .into_iter()
        .map(|(variant, mode)| {
            (
                (0u32, 0u32, variant),
                self.pass_meta(vantage, mode),
                move || self.consecutive_visit(vantage, mode),
            )
        })
        .collect();
        let mut out = self
            .run_durable("consecutive", jobs)
            .into_iter()
            .map(|(_, pass)| pass.unwrap_or_default());
        let h2 = out.next().unwrap_or_default();
        let h3 = out.next().unwrap_or_default();
        (h2, h3)
    }

    /// [`consecutive_pass`](Self::consecutive_pass) from every
    /// configured vantage, all passes pooled as parallel jobs. Returns
    /// `(vantage, h2_pages, h3_pages)` in configuration order
    /// (quarantined passes empty, as in `consecutive_pass`).
    pub fn consecutive_all(&self) -> Vec<(Vantage, Vec<HarPage>, Vec<HarPage>)> {
        let mut jobs = Vec::with_capacity(self.config.vantages.len() * 2);
        for (vi, &v) in self.config.vantages.iter().enumerate() {
            for (variant, mode) in [
                (0u32, ProtocolMode::H2Only),
                (1u32, ProtocolMode::H3Enabled),
            ] {
                jobs.push((
                    (vi as u32, 0u32, variant),
                    self.pass_meta(v, mode),
                    move || self.consecutive_visit(v, mode),
                ));
            }
        }
        let out = self.run_durable("consecutive-all", jobs);
        let mut passes = out.into_iter().map(|(_, pass)| pass.unwrap_or_default());
        self.config
            .vantages
            .iter()
            .map(|&v| {
                let h2 = passes.next().unwrap_or_default();
                let h3 = passes.next().unwrap_or_default();
                (v, h2, h3)
            })
            .collect()
    }

    /// Builds the [`PageComparison`] for a paired pair of HARs.
    pub fn build_comparison(&self, page: &Webpage, h2: &HarPage, h3: &HarPage) -> PageComparison {
        PageComparison {
            site: page.site,
            vantage: h2.vantage.clone(),
            plt_reduction_ms: plt_reduction_ms(h2, h3),
            reused_h2: h2.reused_connection_count(),
            reused_h3: h3.reused_connection_count(),
            resumed_h3: h3.resumed_connection_count(),
            h3_enabled_cdn: page.h3_enabled_cdn_count(),
            cdn_resources: page.cdn_resources().count(),
            providers_used: page.providers_used().len(),
            entries: entry_reductions(h2, h3),
        }
    }
}

/// Converts an [`AbortedVisit`] into the `String`-payload panic the
/// durable runner classifies: stall-backed aborts (engine budget /
/// wedged event loop) carry [`STALLED_PREFIX`], stranded-but-live
/// aborts a plain `aborted visit:` message. Without a durable context
/// the panic propagates and aborts the process, preserving the
/// behavior from before the durable runner existed.
fn abort_to_panic(aborted: &AbortedVisit) -> ! {
    let msg = if aborted.stall.is_some() {
        format!("{STALLED_PREFIX}{aborted}")
    } else {
        format!("aborted visit: {aborted}")
    };
    std::panic::panic_any(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn campaign() -> MeasurementCampaign {
        MeasurementCampaign::new(CampaignConfig::small(4, 11))
    }

    #[test]
    fn comparison_has_full_pairing() {
        let c = campaign();
        let cmp = c.compare_page(0, Vantage::Utah);
        assert_eq!(cmp.entries.len(), c.corpus().pages[0].request_count());
        assert_eq!(cmp.site, 0);
        assert_eq!(
            cmp.cdn_resources,
            c.corpus().pages[0].cdn_resources().count()
        );
    }

    #[test]
    fn compare_all_covers_pages_times_vantages() {
        let mut cfg = CampaignConfig::small(3, 5);
        cfg.vantages = vec![Vantage::Utah, Vantage::Clemson];
        let c = MeasurementCampaign::new(cfg);
        assert_eq!(c.compare_all().len(), 6);
    }

    #[test]
    fn visits_are_reproducible() {
        let c = campaign();
        let a = c.visit(1, Vantage::Utah, ProtocolMode::H3Enabled);
        let b = c.visit(1, Vantage::Utah, ProtocolMode::H3Enabled);
        assert_eq!(a.plt_ms, b.plt_ms);
    }

    #[test]
    fn consecutive_pass_resumes_later_pages() {
        let c = campaign();
        let (_, h3) = c.consecutive_pass(Vantage::Utah);
        let resumed: usize = h3.iter().map(HarPage::resumed_connection_count).sum();
        assert!(resumed > 0);
    }

    #[test]
    fn compare_vantage_matches_per_page_calls() {
        let c = campaign();
        let batch = c.compare_vantage(Vantage::Utah);
        assert_eq!(batch.len(), 4);
        for (site, cmp) in batch.iter().enumerate() {
            let single = c.compare_page(site, Vantage::Utah);
            assert_eq!(cmp.plt_reduction_ms, single.plt_reduction_ms, "site {site}");
            assert_eq!(cmp.site, single.site);
        }
    }

    #[test]
    fn compare_all_is_worker_count_invariant() {
        let mut cfg = CampaignConfig::small(3, 5);
        cfg.vantages = vec![Vantage::Utah, Vantage::Wisconsin];
        let serial = MeasurementCampaign::new(cfg.clone().with_runner(RunnerConfig::serial()));
        let parallel =
            MeasurementCampaign::new(cfg.with_runner(RunnerConfig::default().with_jobs(8)));
        let a = serial.compare_all();
        let b = parallel.compare_all();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.site, y.site);
            assert_eq!(x.vantage, y.vantage);
            assert_eq!(x.plt_reduction_ms.to_bits(), y.plt_reduction_ms.to_bits());
            assert_eq!(x.entries.len(), y.entries.len());
        }
    }

    #[test]
    fn consecutive_all_matches_single_vantage_pass() {
        let c = campaign();
        let all = c.consecutive_all();
        assert_eq!(all.len(), 1);
        let (v, h2, h3) = &all[0];
        assert_eq!(*v, Vantage::Utah);
        let (sh2, sh3) = c.consecutive_pass(Vantage::Utah);
        assert_eq!(h2.len(), sh2.len());
        assert_eq!(h3.len(), sh3.len());
        for (a, b) in h3.iter().zip(&sh3) {
            assert_eq!(a.plt_ms.to_bits(), b.plt_ms.to_bits());
        }
    }
}
