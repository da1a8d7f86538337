//! The four workloads as the untraced run measures them: set-up, the
//! timed phase, the resume, and the output checks.
//!
//! Every workload follows the same shape:
//!
//! 1. set-up, repeated `Sizes::setups` times (`setup_s` is the median
//!    of their normalised times): input generation, run-directory
//!    preparation and an untimed warm-up;
//! 2. the timed phase: rounds of the workload until `--seconds` have
//!    passed (at least [`MIN_ROUNDS`]), each round's output checked
//!    before the next starts. A round runs as the same sequence of short
//!    slices every time; `visits_per_sec` is a round's visits over the
//!    median normalised round time (see [`Rounds`]);
//! 3. the resume, repeated and sliced the same way (`resume_s` is the
//!    median normalised resume time): the output reproduced from the
//!    last round's journal, byte-identical to the fresh output;
//! 4. a self-consistency check: the round's work in whole-workload calls
//!    on [`CHECK_WORKERS`] workers gives the same output as the sliced
//!    round on [`WORKERS`].
//!
//! Every time is normalised to the reference host speed by the
//! calibration kernel run around it (see `calib`).
//!
//! `campaign` and `swarm` run in memory and journal after their timed
//! phase: `swarm` through the sweep's own durable path, `campaign`
//! into a results journal (one JSON record per output row in a
//! `ShardedJournal`) from which its resume rebuilds the output.
//! `journaled` and `population` journal inside the timed phase through
//! the library's own durable paths.

use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;

use h3cdn::browser::run_swarm;
use h3cdn::har::{HarPage, PageComparison};
use h3cdn::persist::{Fingerprint, Manifest, RunDir, MANIFEST_VERSION};
use h3cdn::runner::durable::DurableContext;
use h3cdn::web::{generate, PageRecord, PopulationSpec, Webpage};
use h3cdn::{
    CampaignConfig, MeasurementCampaign, ProtocolMode, RunnerConfig, ShardedJournal, Vantage,
    VisitConfig, WorkloadSpec,
};
use h3cdn_experiments::edge_overload::{
    self, ArrivalRate, EdgeCapacity, OverloadScenario, OverloadSweep,
};
use h3cdn_experiments::{fig6, fig7, population};

use crate::calib;
use crate::check::{json, Checks, Fnv};
use crate::{Args, Metric, Outcome, Sizes, Workload, CHECK_WORKERS, WORKERS};

pub(crate) fn run(args: &Args) -> Outcome {
    let sizes = args.scale.sizes();
    let mut checks = Checks::default();
    let m = match args.workload {
        Workload::Campaign => campaign(args, &sizes, &mut checks),
        Workload::Swarm => swarm(args, &sizes, &mut checks),
        Workload::Journaled => journaled(args, &sizes, &mut checks),
        Workload::Population => population(args, &sizes, &mut checks),
    };
    let _ = fs::remove_dir_all(&args.scratch);
    Outcome {
        checks,
        metrics: vec![
            Metric::new("visits_per_sec", m.visits_per_sec, "visits/s"),
            Metric::new("resume_s", m.resume_s, "s"),
            Metric::new(
                "journal_bytes_per_visit",
                m.journal_bytes_per_visit,
                "B/visit",
            ),
            Metric::new("peak_rss_mb", m.peak_rss_mb, "MiB"),
            Metric::new("setup_s", m.setup_s, "s"),
        ],
    }
}

/// The end-to-end figures of one workload.
#[derive(Debug, Default)]
struct Measured {
    visits_per_sec: f64,
    resume_s: f64,
    journal_bytes_per_visit: f64,
    peak_rss_mb: f64,
    setup_s: f64,
}

/// The process's peak resident set so far (`VmHWM`), in MiB; NaN (which
/// fails the run) where the kernel does not report it. Read after the
/// resume and before the self-consistency check, whose wider worker
/// pool is not the workload's.
fn peak_rss_so_far() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let kib = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            kib.trim().trim_end_matches("kB").trim().parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

// ---------------------------------------------------------------------------
// Shared helpers (also used by the traced run).

pub(crate) fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median of `xs` (mean of the middle two for an even count).
pub(crate) fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Runs `f` `n` times, returning the median of its normalised times and
/// the last result.
fn median_timed<T>(n: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    while times.len() < n.max(1) {
        let (out, t) = calib::around(&mut f);
        last = Some(out);
        times.push(t.normalised());
    }
    (median(&times), last.expect("ran at least once"))
}

/// Times `f`, returning its result and the seconds it took.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, secs_since(t))
}

/// The normalised times of a workload's rounds.
///
/// A round runs as the same sequence of slices every time, each tens to
/// a few hundred milliseconds of work. The calibration kernel runs
/// around every slice, so each round's wall time comes with the host's
/// speed measured during it. A round's normalised time is its wall time
/// times `calib::REFERENCE_SECS` over the kernel's mean time in that
/// round; the reported time is the median over rounds.
#[derive(Debug, Default)]
pub(crate) struct Rounds {
    /// Per finished round: wall and normalised seconds.
    done: Vec<(f64, f64)>,
    /// The open round's slices and kernel runs.
    open: Option<calib::Timed>,
}

impl Rounds {
    /// Starts a round, closing the previous one.
    pub(crate) fn round(&mut self) {
        self.close();
        self.open = Some(calib::Timed::default());
    }

    fn close(&mut self) {
        if let Some(t) = self.open.take() {
            if t.secs > 0.0 {
                self.done.push((t.secs, t.normalised()));
            }
        }
    }

    /// Runs the round's next slice between kernel runs.
    pub(crate) fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (out, t) = calib::around(f);
        self.open.get_or_insert_with(calib::Timed::default).add(t);
        out
    }

    /// The median normalised round time, logged beside the wall times.
    fn finish(&mut self, what: &str) -> f64 {
        self.close();
        let wall: Vec<f64> = self.done.iter().map(|r| r.0).collect();
        let norm: Vec<f64> = self.done.iter().map(|r| r.1).collect();
        let min = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
        let speed: Vec<f64> = self.done.iter().map(|r| r.1 / r.0).collect();
        eprintln!(
            "perfbench: {what}: {} round(s); wall s min {:.4} median {:.4}; \
             normalised s min {:.4} median {:.4}; host speed median {:.3}",
            norm.len(),
            min(&wall),
            median(&wall),
            min(&norm),
            median(&norm),
            median(&speed)
        );
        median(&norm)
    }
}

/// Rounds every timed phase runs at least, however long they take.
const MIN_ROUNDS: usize = 2;

/// Minimum wall time spent on resumes.
const RESUME_SECS: f64 = 2.0;

/// Runs `round` until `secs` have passed and it ran at least `min`
/// times.
fn repeat_for(secs: f64, min: usize, mut round: impl FnMut()) {
    let start = Instant::now();
    let mut n = 0;
    while n < min.max(1) || secs_since(start) < secs {
        round();
        n += 1;
    }
}

/// Per-page means of what drives a visit's cost: requests, body bytes,
/// requests squared (the per-job journal parse grows with its square)
/// and H3-reachable requests.
fn profile(pages: &[Webpage]) -> [f64; 4] {
    let mut sums = [0.0; 4];
    for page in pages {
        let requests = page.request_count() as f64;
        sums[0] += requests;
        sums[1] += page
            .resources
            .iter()
            .map(|r| r.body_bytes as f64)
            .sum::<f64>();
        sums[2] += requests * requests;
        sums[3] += page
            .resources
            .iter()
            .filter(|r| r.hosting.h3_available())
            .count() as f64;
    }
    sums.map(|s| s / pages.len().max(1) as f64)
}

/// Allowed relative deviation per profile entry, as weights of one
/// distance: body bytes are the heaviest-tailed and matter least.
const PROFILE_SCALE: [f64; 4] = [1.0, 2.0, 1.0, 1.0];

/// Pages and seed of the reference corpus whose profile every workload
/// corpus is matched to.
const REFERENCE_PAGES: usize = 2000;
const REFERENCE_SEED: u64 = 0x5EED;

/// The corpus seed a workload uses for benchmark seed `seed`: of
/// `candidates` seed-derived corpora of `pages` pages, the one whose
/// profile is closest to the reference corpus's. Page weights are
/// heavy-tailed, so unconditioned small corpora differ in size by tens
/// of percent from seed to seed; matching the profile fixes the input
/// size and leaves the seed to choose the content. The work is the same
/// for every seed.
pub(crate) fn corpus_seed(seed: u64, pages: usize, candidates: u64) -> u64 {
    let spec = |pages: usize, seed: u64| WorkloadSpec::default().with_pages(pages).with_seed(seed);
    let reference = profile(&generate(&spec(REFERENCE_PAGES, REFERENCE_SEED)).pages);
    let mut best = (f64::INFINITY, seed);
    for j in 0..candidates {
        let s = splitmix64(seed ^ j.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let p = profile(&generate(&spec(pages, s)).pages);
        let distance = (0..PROFILE_SCALE.len())
            .map(|i| (p[i] / reference[i] - 1.0).abs() / PROFILE_SCALE[i])
            .fold(0.0, f64::max);
        if distance < best.0 {
            best = (distance, s);
        }
    }
    best.1
}

/// Candidate corpora a workload of `pages` pages chooses among: about
/// 10,000 generated pages, so the choice costs the same at every size.
pub(crate) fn candidates(pages: usize) -> u64 {
    (10_240 / pages.max(1) as u64).clamp(8, 512)
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A campaign over `pages` corpus pages of corpus seed `seed` from
/// `vantages` on `jobs` workers, with no durable layer.
pub(crate) fn campaign_config(
    pages: usize,
    seed: u64,
    jobs: usize,
    vantages: Vec<Vantage>,
) -> CampaignConfig {
    CampaignConfig {
        workload: WorkloadSpec::default().with_pages(pages).with_seed(seed),
        vantages,
        visit: VisitConfig::default(),
        runner: runner(jobs),
        durable: None,
        inject_panic_site: None,
    }
}

/// The manifest every benchmark run directory carries: constant, so
/// the journal's bytes depend on the workload alone.
pub(crate) fn manifest(workload: Workload, seed: u64, size: u64) -> Manifest {
    Manifest {
        version: MANIFEST_VERSION,
        run_id: workload.name().to_owned(),
        fingerprint: Fingerprint {
            seed,
            scenario: format!("perfbench {} size={size}", workload.name()),
            git_hash: "perfbench".to_owned(),
            args: Vec::new(),
        },
        argv: vec!["perfbench".to_owned()],
    }
}

/// A freshly prepared (emptied) run directory at `root`.
pub(crate) fn fresh_run_dir(root: &Path, manifest: &Manifest) -> io::Result<RunDir> {
    if root.exists() {
        fs::remove_dir_all(root)?;
    }
    let run = RunDir::at(root.to_path_buf());
    run.prepare(manifest, false)?;
    Ok(run)
}

/// The run directory at `root`, prepared to resume: its manifest must
/// match `manifest`, or the journal is gone and that is a mismatch.
fn resume_run_dir(root: &Path, manifest: &Manifest, checks: &mut Checks) -> RunDir {
    let run = RunDir::at(root.to_path_buf());
    match run.prepare(manifest, true) {
        Ok(true) => {}
        Ok(false) => checks.mismatch(format!("{}: no journal to resume", root.display())),
        Err(e) => die("run directory", &e),
    }
    run
}

/// Total bytes of the regular files under `dir`.
pub(crate) fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// Number of regular files under `dir`.
fn file_count(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => file_count(&e.path()),
            Ok(t) if t.is_file() => 1,
            _ => 0,
        })
        .sum()
}

/// Writes `records` as a fresh sharded journal under `dir`.
pub(crate) fn write_results(dir: &Path, records: &[String]) -> io::Result<()> {
    if dir.exists() {
        fs::remove_dir_all(dir)?;
    }
    let journal = ShardedJournal::open(dir)?;
    for (seq, r) in records.iter().enumerate() {
        journal.append(seq as u64, r.as_bytes())?;
    }
    journal.finish()
}

/// Loads the records of a results journal, in sequence order.
pub(crate) fn load_results(dir: &Path) -> io::Result<Vec<String>> {
    ShardedJournal::load(dir)?
        .into_values()
        .map(|bytes| String::from_utf8(bytes).map_err(|e| io::Error::other(e.to_string())))
        .collect()
}

fn die(what: &str, e: &dyn std::fmt::Display) -> ! {
    eprintln!("perfbench: {what}: {e}");
    std::process::exit(1)
}

/// Paired-visit specs of every page of `c` from every vantage, keyed and
/// ordered like `compare_all`, cut into slices of `pages` sites.
fn pair_slices(
    c: &MeasurementCampaign,
    pages: usize,
) -> Vec<Vec<((u32, u32), usize, VisitConfig)>> {
    let sites: Vec<usize> = (0..c.corpus().pages.len()).collect();
    let mut slices = Vec::new();
    for (vi, &v) in c.vantages().iter().enumerate() {
        let base = c.config().visit.clone().with_vantage(v);
        for chunk in sites.chunks(pages.max(1)) {
            let specs = chunk
                .iter()
                .map(|&site| ((vi as u32, site as u32), site, base.clone()))
                .collect();
            slices.push(specs);
        }
    }
    slices
}

/// `compare_all`'s output, one timed `compare_batch` per slice.
fn sliced_pairs(c: &MeasurementCampaign, pages: usize, rounds: &mut Rounds) -> Vec<PageComparison> {
    let mut out = Vec::new();
    for specs in pair_slices(c, pages) {
        let pairs = rounds.time(|| c.compare_batch(specs));
        out.extend(pairs.into_iter().map(|(_, cmp)| cmp));
    }
    out
}

// ---------------------------------------------------------------------------
// campaign

/// Sites per `compare_batch` slice of a campaign round.
const CAMPAIGN_SLICE_PAGES: usize = 4;

/// Results-journal records per decode slice of a campaign resume.
const DECODE_SLICE_RECORDS: usize = 12;

/// What one campaign round produces.
pub(crate) struct CampaignResult {
    pub(crate) comparisons: Vec<PageComparison>,
    /// PLTs of the consecutive passes: per vantage, H2 then H3.
    pub(crate) pass_plts: Vec<Vec<f64>>,
    pub(crate) fig6: fig6::Fig6,
    pub(crate) fig7: fig7::Fig7,
}

impl CampaignResult {
    pub(crate) fn new(comparisons: Vec<PageComparison>, pass_plts: Vec<Vec<f64>>) -> Self {
        let fig6 = fig6::run(&comparisons);
        let fig7 = fig7::run(&comparisons);
        CampaignResult {
            comparisons,
            pass_plts,
            fig6,
            fig7,
        }
    }

    pub(crate) fn visits(&self) -> u64 {
        2 * self.comparisons.len() as u64
            + self.pass_plts.iter().map(|p| p.len() as u64).sum::<u64>()
    }

    /// The checked output: Fig. 6/7, every pair's PLT reduction and
    /// every consecutive-pass PLT.
    pub(crate) fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.bytes(json(&self.fig6).as_bytes());
        h.bytes(json(&self.fig7).as_bytes());
        for c in &self.comparisons {
            h.u64(c.site as u64).f64(c.plt_reduction_ms);
        }
        for pass in &self.pass_plts {
            h.u64(pass.len() as u64);
            for &plt in pass {
                h.f64(plt);
            }
        }
        h.finish()
    }

    /// One JSON record per comparison, then one per pass.
    fn records(&self) -> Vec<String> {
        self.comparisons
            .iter()
            .map(json)
            .chain(self.pass_plts.iter().map(json))
            .collect()
    }
}

fn plts(pass: &[HarPage]) -> Vec<f64> {
    pass.iter().map(|h| h.plt_ms).collect()
}

/// The whole campaign in three calls: `compare_all`, `consecutive_all`
/// and the Fig. 6/7 reducers.
pub(crate) fn campaign_cycle(c: &MeasurementCampaign) -> CampaignResult {
    let comparisons = c.compare_all();
    let passes = c
        .consecutive_all()
        .iter()
        .flat_map(|(_, h2, h3)| [plts(h2), plts(h3)])
        .collect();
    CampaignResult::new(comparisons, passes)
}

/// One campaign round, the same output as [`campaign_cycle`]:
/// `compare_all`'s pairs as `compare_batch` slices, one
/// `consecutive_pass` per vantage, then the Fig. 6/7 reducers.
fn campaign_round(c: &MeasurementCampaign, rounds: &mut Rounds) -> CampaignResult {
    rounds.round();
    let comparisons = sliced_pairs(c, CAMPAIGN_SLICE_PAGES, rounds);
    let mut passes = Vec::new();
    for &v in c.vantages() {
        let (h2, h3) = rounds.time(|| c.consecutive_pass(v));
        passes.push(plts(&h2));
        passes.push(plts(&h3));
    }
    rounds.time(|| CampaignResult::new(comparisons, passes))
}

fn campaign(args: &Args, sizes: &Sizes, checks: &mut Checks) -> Measured {
    let pages = sizes.campaign_pages;
    let vantages = Vantage::ALL.len();
    let (setup_s, c) = median_timed(sizes.setups, || {
        let corpus = corpus_seed(args.seed, pages, candidates(pages));
        let c = MeasurementCampaign::new(campaign_config(
            pages,
            corpus,
            WORKERS,
            Vantage::ALL.to_vec(),
        ));
        let _ = c.compare_batch(warmup_specs(&c, sizes.warmup));
        c
    });

    let expected = (4 * pages * vantages) as u64;
    let mut rounds = Rounds::default();
    let mut first_digest = None;
    let mut last = None;
    repeat_for(args.seconds, MIN_ROUNDS, || {
        // Only the last round's output is journaled: free the previous
        // one first, so peak memory is one round's.
        last = None;
        let out = campaign_round(&c, &mut rounds);
        checks.attempt(expected);
        checks.fail(
            expected.saturating_sub(out.visits()),
            "campaign visits missing",
        );
        let digest = out.digest();
        match first_digest {
            None => {
                checks.pinned(Workload::Campaign, args.scale, args.seed, "output", digest);
                first_digest = Some(digest);
            }
            Some(first) => checks.equal("campaign round digest", digest, first),
        }
        last = Some(out);
    });
    let round_s = rounds.finish("campaign");
    let last = last.expect("one round ran");
    let visits_per_sec = last.visits() as f64 / round_s;

    // The results journal and its resume: load, decode in slices, and
    // rebuild the figures.
    let dir = args.scratch.join("campaign-results");
    let records = last.records();
    write_results(&dir, &records).unwrap_or_else(|e| die("results journal", &e));
    let journal_bytes_per_visit = dir_bytes(&dir) as f64 / last.visits() as f64;
    let want = last.digest();
    let n_cmp = last.comparisons.len();
    let mut resume = Rounds::default();
    repeat_for(RESUME_SECS, sizes.resumes, || {
        resume.round();
        checks.attempt(records.len() as u64);
        let loaded = resume
            .time(|| load_results(&dir))
            .unwrap_or_else(|e| die("results journal", &e));
        checks.fail(
            records.len().saturating_sub(loaded.len()) as u64,
            "results records missing",
        );
        let (cmp_records, pass_records) = loaded.split_at(n_cmp.min(loaded.len()));
        let mut comparisons: Vec<PageComparison> = Vec::with_capacity(n_cmp);
        for chunk in cmp_records.chunks(DECODE_SLICE_RECORDS) {
            resume.time(|| {
                comparisons.extend(chunk.iter().filter_map(|r| serde_json::from_str(r).ok()));
            });
        }
        let resumed = resume.time(|| {
            let passes = pass_records
                .iter()
                .filter_map(|r| serde_json::from_str(r).ok())
                .collect();
            CampaignResult::new(comparisons, passes)
        });
        checks.equal("campaign resumed digest", resumed.digest(), want);
    });
    let resume_s = resume.finish("campaign resume");

    let peak_rss_mb = peak_rss_so_far();

    // The whole campaign in whole-workload calls on more workers must
    // give the sliced round's output.
    let wide = MeasurementCampaign::new(c.config().clone().with_runner(runner(CHECK_WORKERS)));
    checks.equal(
        "campaign whole-call digest",
        campaign_cycle(&wide).digest(),
        want,
    );

    Measured {
        visits_per_sec,
        resume_s,
        peak_rss_mb,
        journal_bytes_per_visit,
        setup_s,
    }
}

/// Paired visits of the first `pages` sites from every vantage.
fn warmup_specs(c: &MeasurementCampaign, pages: usize) -> Vec<((u32, u32), usize, VisitConfig)> {
    let mut specs = Vec::new();
    for (vi, &v) in c.vantages().iter().enumerate() {
        for site in 0..pages.min(c.corpus().pages.len()) {
            let base = c.config().visit.clone().with_vantage(v);
            specs.push(((vi as u32, site as u32), site, base));
        }
    }
    specs
}

// ---------------------------------------------------------------------------
// swarm

/// Client visits a sweep should complete: every scenario × arm × page ×
/// client.
pub(crate) fn swarm_expected_visits(scenarios: &[OverloadScenario], pages: usize) -> u64 {
    scenarios
        .iter()
        .map(|s| (3 * pages * s.clients) as u64)
        .sum()
}

pub(crate) fn swarm_visits(sweep: &OverloadSweep) -> u64 {
    sweep
        .rows
        .iter()
        .map(|r| (r.pages * r.clients_per_page) as u64)
        .sum()
}

/// The untimed swarm warm-up: starved-herd swarms on the first pages.
fn swarm_warmup(c: &MeasurementCampaign, pages: usize) {
    let sc = OverloadScenario::swarm(EdgeCapacity::Starved, ArrivalRate::Herd, false);
    let shape = h3cdn::browser::SwarmConfig {
        clients: sc.clients,
        arrival_spacing: sc.arrival_spacing,
        edge: sc.edge.clone(),
    };
    let cfg = c
        .config()
        .visit
        .clone()
        .with_mode(ProtocolMode::H3Enabled)
        .with_h3_fallback(true);
    for page in c.corpus().pages.iter().take(pages) {
        let _ = run_swarm(page, &c.corpus().domains, &cfg, &shape);
    }
}

/// The sweep over `scenarios`, one timed `edge_overload::run` per
/// scenario: the rows of one sweep over all of them.
fn sliced_sweep(
    c: &MeasurementCampaign,
    scenarios: &[OverloadScenario],
    rounds: &mut Rounds,
) -> OverloadSweep {
    let mut rows = Vec::new();
    for sc in scenarios {
        let part = rounds.time(|| edge_overload::run(c, Vantage::Utah, std::slice::from_ref(sc)));
        rows.extend(part.rows);
    }
    OverloadSweep { rows }
}

fn swarm(args: &Args, sizes: &Sizes, checks: &mut Checks) -> Measured {
    let pages = sizes.swarm_pages;
    let (setup_s, c) = median_timed(sizes.setups, || {
        let corpus = corpus_seed(args.seed, pages, candidates(pages));
        let c =
            MeasurementCampaign::new(campaign_config(pages, corpus, WORKERS, vec![Vantage::Utah]));
        swarm_warmup(&c, sizes.warmup);
        c
    });
    let scenarios = edge_overload::default_scenarios();
    let expected = swarm_expected_visits(&scenarios, pages);

    let mut rounds = Rounds::default();
    let mut first_digest = None;
    let mut last = None;
    repeat_for(args.seconds, MIN_ROUNDS, || {
        rounds.round();
        let sweep = sliced_sweep(&c, &scenarios, &mut rounds);
        let visits = swarm_visits(&sweep);
        checks.attempt(expected);
        checks.fail(
            expected.saturating_sub(visits),
            "swarm client visits missing",
        );
        let digest = Fnv::new().bytes(json(&sweep).as_bytes()).finish();
        match first_digest {
            None => {
                let stranded: usize = sweep.rows.iter().map(|r| r.stranded_clients).sum();
                eprintln!("perfbench: swarm stranded clients {stranded}");
                checks.pinned(Workload::Swarm, args.scale, args.seed, "output", digest);
                first_digest = Some(digest);
            }
            Some(first) => checks.equal("swarm round digest", digest, first),
        }
        last = Some(sweep);
    });
    let round_s = rounds.finish("swarm");
    let last = last.expect("one round ran");
    let visits_per_sec = swarm_visits(&last) as f64 / round_s;

    // The sweep's own durable path is its journal: one more sweep that
    // checkpoints every swarm to a run directory, then resumes that load
    // every job and recompute none.
    let root = args.scratch.join("swarm-run");
    let corpus = c.config().workload.seed;
    let m = manifest(Workload::Swarm, corpus, pages as u64);
    let durable = |run: RunDir| {
        let ctx = DurableContext::new(corpus).with_checkpoint(run);
        MeasurementCampaign::new(c.config().clone().with_durable(Some(ctx)))
    };
    let want = json(&last);
    let jobs = (scenarios.len() * 3 * pages) as u64;
    let journaled = durable(fresh_run_dir(&root, &m).unwrap_or_else(|e| die("run directory", &e)));
    let fresh = sliced_sweep(&journaled, &scenarios, &mut Rounds::default());
    checks.attempt(jobs);
    checks.fail(
        journaled.take_quarantine().len() as u64,
        "swarm jobs quarantined",
    );
    checks.equal("swarm journaled sweep", json(&fresh), want.clone());
    let journal_bytes_per_visit = dir_bytes(&root) as f64 / swarm_visits(&last) as f64;
    let mut resume = Rounds::default();
    repeat_for(RESUME_SECS, sizes.resumes, || {
        resume.round();
        checks.attempt(jobs);
        let c = resume.time(|| durable(resume_run_dir(&root, &m, checks)));
        let sweep = sliced_sweep(&c, &scenarios, &mut resume);
        checks.fail(
            jobs.saturating_sub(c.resumed_jobs() as u64),
            "swarm jobs recomputed on resume",
        );
        checks.equal("swarm resumed sweep", json(&sweep), want.clone());
    });
    let resume_s = resume.finish("swarm resume");

    let peak_rss_mb = peak_rss_so_far();

    // The whole sweep in one call on more workers must give the sliced
    // rounds' rows.
    let wide = MeasurementCampaign::new(c.config().clone().with_runner(runner(CHECK_WORKERS)));
    let whole = edge_overload::run(&wide, Vantage::Utah, &scenarios);
    checks.equal("swarm whole-call sweep", json(&whole), want);

    Measured {
        visits_per_sec,
        resume_s,
        peak_rss_mb,
        journal_bytes_per_visit,
        setup_s,
    }
}

// ---------------------------------------------------------------------------
// journaled

/// Sites per `compare_batch` slice of a journaled round or resume.
const JOURNALED_SLICE_PAGES: usize = 2;

/// A one-vantage campaign that checkpoints every job to `run`.
fn journaled_campaign(pages: usize, seed: u64, jobs: usize, run: RunDir) -> MeasurementCampaign {
    let ctx = DurableContext::new(seed).with_checkpoint(run);
    MeasurementCampaign::new(
        campaign_config(pages, seed, jobs, vec![Vantage::Utah]).with_durable(Some(ctx)),
    )
}

/// The checked output of `journaled`: the comparisons' JSON and the
/// bytes of the per-job journal entries.
pub(crate) fn journaled_digest(comparisons_json: &str, root: &Path) -> u64 {
    Fnv::new()
        .bytes(comparisons_json.as_bytes())
        .u64(dir_bytes(&root.join("jobs")))
        .finish()
}

/// One fresh journaled campaign into `root` in a single
/// `compare_vantage` call: returns the comparisons and the jobs
/// quarantined.
pub(crate) fn journaled_fresh(
    root: &Path,
    pages: usize,
    seed: u64,
    jobs: usize,
) -> (Vec<PageComparison>, usize) {
    let m = manifest(Workload::Journaled, seed, pages as u64);
    let run = fresh_run_dir(root, &m).unwrap_or_else(|e| die("run directory", &e));
    let c = journaled_campaign(pages, seed, jobs, run);
    let out = c.compare_vantage(Vantage::Utah);
    (out, c.take_quarantine().len())
}

/// One journaled round into `root`: the run directory prepared, then
/// `compare_vantage`'s pairs as `compare_batch` slices. Returns the
/// comparisons and the jobs quarantined.
fn journaled_round(
    root: &Path,
    pages: usize,
    seed: u64,
    rounds: &mut Rounds,
) -> (Vec<PageComparison>, usize) {
    rounds.round();
    let m = manifest(Workload::Journaled, seed, pages as u64);
    let c = rounds.time(|| {
        let run = fresh_run_dir(root, &m).unwrap_or_else(|e| die("run directory", &e));
        journaled_campaign(pages, seed, WORKERS, run)
    });
    let out = sliced_pairs(&c, JOURNALED_SLICE_PAGES, rounds);
    (out, c.take_quarantine().len())
}

fn journaled(args: &Args, sizes: &Sizes, checks: &mut Checks) -> Measured {
    let pages = sizes.journaled_pages;
    let jobs_per_round = 2 * pages as u64;
    let warm_root = args.scratch.join("journaled-warmup");
    let (setup_s, corpus) = median_timed(sizes.setups, || {
        let corpus = corpus_seed(args.seed, pages, candidates(pages));
        let _ = journaled_fresh(&warm_root, sizes.warmup, corpus, WORKERS);
        corpus
    });
    let _ = fs::remove_dir_all(&warm_root);

    let root = args.scratch.join("journaled-run");
    let mut rounds = Rounds::default();
    let mut first: Option<u64> = None;
    let mut last_json = String::new();
    let mut journal_bytes = 0u64;
    let mut visits = 0u64;
    repeat_for(args.seconds, MIN_ROUNDS, || {
        let (out, quarantined) = journaled_round(&root, pages, corpus, &mut rounds);
        checks.attempt(jobs_per_round);
        checks.fail(quarantined as u64, "journaled jobs quarantined");
        checks.fail(
            jobs_per_round.saturating_sub(2 * out.len() as u64),
            "journaled visits missing",
        );
        checks.fail(
            jobs_per_round.saturating_sub(file_count(&root.join("jobs"))),
            "journal entries missing",
        );
        let out_json = json(&out);
        let bytes = dir_bytes(&root);
        let digest = journaled_digest(&out_json, &root);
        match first {
            None => {
                eprintln!("perfbench: journaled journal bytes {bytes}");
                checks.pinned(Workload::Journaled, args.scale, args.seed, "output", digest);
                first = Some(digest);
            }
            Some(want) => checks.equal("journaled round digest", digest, want),
        }
        journal_bytes = bytes;
        visits = 2 * out.len() as u64;
        last_json = out_json;
    });
    let round_s = rounds.finish("journaled");
    let visits_per_sec = visits as f64 / round_s;

    // Resume the complete journal: every job loads, none recomputes.
    let m = manifest(Workload::Journaled, corpus, pages as u64);
    let mut resume = Rounds::default();
    repeat_for(RESUME_SECS, sizes.resumes, || {
        resume.round();
        checks.attempt(jobs_per_round);
        let c = resume.time(|| {
            let run = resume_run_dir(&root, &m, checks);
            journaled_campaign(pages, corpus, WORKERS, run)
        });
        let out = sliced_pairs(&c, JOURNALED_SLICE_PAGES, &mut resume);
        checks.fail(
            jobs_per_round.saturating_sub(c.resumed_jobs() as u64),
            "journaled jobs recomputed on resume",
        );
        checks.equal("journaled resumed output", json(&out), last_json.clone());
    });
    let resume_s = resume.finish("journaled resume");

    let peak_rss_mb = peak_rss_so_far();

    // One `compare_vantage` on more workers must write the same journal
    // bytes and output.
    let wide_root = args.scratch.join("journaled-wide");
    let (out, _) = journaled_fresh(&wide_root, pages, corpus, CHECK_WORKERS);
    checks.equal("journaled whole-call output", json(&out), last_json);
    checks.equal(
        "journaled whole-call journal bytes",
        dir_bytes(&wide_root),
        journal_bytes,
    );

    Measured {
        visits_per_sec,
        resume_s,
        peak_rss_mb,
        journal_bytes_per_visit: journal_bytes as f64 / jobs_per_round as f64,
        setup_s,
    }
}

// ---------------------------------------------------------------------------
// population

pub(crate) fn population_spec(records: u64, seed: u64) -> PopulationSpec {
    PopulationSpec::default()
        .with_pages(records)
        .with_seed(seed)
}

pub(crate) fn runner(jobs: usize) -> RunnerConfig {
    RunnerConfig::default().with_jobs(jobs).with_quiet(true)
}

/// Bytes one journaled page record takes: record header plus payload.
pub(crate) const SHARD_RECORD_BYTES: u64 = 20 + PageRecord::ENCODED_LEN as u64;

fn population(args: &Args, sizes: &Sizes, checks: &mut Checks) -> Measured {
    let n = sizes.population_records;
    let window = population::DEFAULT_WINDOW;
    let warm_root = args.scratch.join("population-warmup");
    let root = args.scratch.join("population-run");
    let m = manifest(Workload::Population, args.seed, n);
    let (setup_s, spec) = median_timed(sizes.setups, || {
        let spec = population_spec(n, args.seed);
        spec.validate()
            .unwrap_or_else(|e| die("population spec", &e));
        let warm_spec = population_spec(5000 * sizes.warmup as u64, args.seed);
        let warm = fresh_run_dir(&warm_root, &m).unwrap_or_else(|e| die("run directory", &e));
        let _ = population::run(&warm_spec, &runner(WORKERS), window, Some(&warm));
        spec
    });
    let _ = fs::remove_dir_all(&warm_root);

    // A round is one slice: the streaming run cannot be cut without
    // changing its output.
    let mut rounds = Rounds::default();
    let mut first: Option<u64> = None;
    let mut fresh_json = String::new();
    let mut journal_bytes = 0u64;
    repeat_for(args.seconds, MIN_ROUNDS, || {
        rounds.round();
        let (summary, _) = rounds.time(|| {
            let run = fresh_run_dir(&root, &m).unwrap_or_else(|e| die("run directory", &e));
            population::run(&spec, &runner(WORKERS), window, Some(&run))
        });
        checks.attempt(n);
        checks.fail(
            n.saturating_sub(summary.pages),
            "records missing from the aggregate",
        );
        let shard_bytes = dir_bytes(&root.join("shards"));
        checks.fail(
            n.saturating_sub(shard_bytes / SHARD_RECORD_BYTES),
            "records missing from the journal",
        );
        let out_json = json(&summary);
        let bytes = dir_bytes(&root);
        let digest = Fnv::new().bytes(out_json.as_bytes()).u64(bytes).finish();
        match first {
            None => {
                eprintln!("perfbench: population journal bytes {bytes}");
                checks.pinned(
                    Workload::Population,
                    args.scale,
                    args.seed,
                    "output",
                    digest,
                );
                first = Some(digest);
            }
            Some(want) => checks.equal("population round digest", digest, want),
        }
        journal_bytes = bytes;
        fresh_json = out_json;
    });
    let round_s = rounds.finish("population");
    let visits_per_sec = n as f64 / round_s;

    // Resume the complete journal: every record loads, none regenerates.
    let mut resume = Rounds::default();
    repeat_for(RESUME_SECS, sizes.resumes, || {
        resume.round();
        checks.attempt(n);
        let run = RunDir::at(root.clone());
        let (summary, stats) =
            resume.time(|| population::run(&spec, &runner(WORKERS), window, Some(&run)));
        checks.fail(stats.total as u64, "records regenerated on resume");
        checks.equal(
            "population resumed summary",
            json(&summary),
            fresh_json.clone(),
        );
    });
    let resume_s = resume.finish("population resume");

    let peak_rss_mb = peak_rss_so_far();

    // More workers must give the same summary (on a tenth of the records).
    let small = population_spec((n / 10).max(1), args.seed);
    let (one, _) = population::run(&small, &runner(WORKERS), window, None);
    let (wide, _) = population::run(&small, &runner(CHECK_WORKERS), window, None);
    checks.equal("population wide summary", json(&wide), json(&one));

    Measured {
        visits_per_sec,
        resume_s,
        peak_rss_mb,
        journal_bytes_per_visit: journal_bytes as f64 / n as f64,
        setup_s,
    }
}
