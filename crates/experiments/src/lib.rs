//! Shared scaffolding for the experiment binaries.
//!
//! Every binary regenerates one table or figure of the paper. All accept
//! the same flags:
//!
//! ```text
//! --pages N      corpus size (default 325, the paper's scale; binaries
//!                that visit each page many times default lower, and an
//!                explicit value always wins)
//! --seed S       corpus seed (default: the paper-calibrated default)
//! --vantage V    Utah | Wisconsin | Clemson (default Utah; experiments
//!                that average across vantages take all three regardless)
//! --json         emit the result as JSON instead of the formatted table
//! --jobs N       worker threads for the parallel runner (default: the
//!                H3CDN_JOBS env var, else all cores; results are
//!                bit-identical for every worker count)
//! --progress     print jobs-done/throughput counters to stderr
//!                (equivalent to H3CDN_PROGRESS=1)
//! --run-id ID    checkpoint this run under results/.runs/ID (journal
//!                every completed job via write-temp-fsync-rename)
//! --resume       load journaled jobs of a matching previous run
//!                instead of re-executing them (implies a default
//!                --run-id derived from the experiment name, corpus
//!                size and seed); output is bit-identical to an
//!                uninterrupted run at any --jobs
//! --results-dir D  root for results and checkpoints (default results)
//! --max-sim-events N   deterministic per-visit sim-event watchdog
//!                (changes results for budget-exceeding visits, so it
//!                is part of the resume fingerprint)
//! --help         print the flags and exit 0
//! ```
//!
//! A malformed command line prints one line to stderr and exits 2.
//!
//! Every binary runs its campaign under the crash-safe execution layer
//! (panic isolation: a panicking job is quarantined on its first run);
//! checkpointing to disk only happens with `--run-id`/`--resume`. The
//! `H3CDN_PANIC_SITE=N` environment variable arms a chaos hook that
//! deliberately panics every page load of site `N`, the campaign's
//! visits and every job of the resilience sweeps alike — the
//! end-to-end proof of the quarantine path (see the `visit_one` binary
//! for replaying quarantined visits; a sweep job's repro reruns the
//! sweep).
//!
//! The figure/table regenerators themselves live here too, one module
//! per artifact of the paper's evaluation: each consumes a
//! [`MeasurementCampaign`], runs exactly
//! the analysis the paper describes, and returns a serialisable result
//! whose `Display` prints the same rows/series the paper reports.
//! EXPERIMENTS.md records paper-vs-measured for each. They sit in this
//! crate — not `h3cdn` — because they are experiment-layer code: they
//! consume `h3cdn-analysis`, which the layer map places above the
//! campaign core (see DESIGN.md "Correctness policy & static
//! analysis"). The three resilience sweeps (`fault_matrix`,
//! `path_dynamics`, `edge_overload`) are scenario types on one
//! scenario × arm engine, [`sweep`].

pub mod edge_overload;
pub mod fault_matrix;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod path_dynamics;
pub mod population;
pub mod sensitivity;
pub mod sweep;
pub mod table1;
pub mod table2;
pub mod table3;

use std::num::{NonZeroU64, NonZeroUsize};
use std::path::Path;

use h3cdn::persist::{workspace_git_hash, Fingerprint, Manifest, RunDir, MANIFEST_VERSION};
use h3cdn::runner::durable::DurableContext;
use h3cdn::{CampaignConfig, MeasurementCampaign, RunnerConfig, Vantage, WorkloadSpec};

/// Parsed common flags.
#[derive(Debug, Clone)]
pub struct Options {
    /// Corpus size.
    pub pages: usize,
    /// Corpus seed.
    pub seed: u64,
    /// Vantage for single-vantage experiments.
    pub vantage: Vantage,
    /// Emit JSON instead of the formatted table.
    pub json: bool,
    /// Worker threads (`0` = auto: `H3CDN_JOBS` env var, else all cores).
    pub jobs: usize,
    /// Print progress/throughput counters to stderr.
    pub progress: bool,
    /// Resume from a matching checkpoint instead of re-executing.
    pub resume: bool,
    /// Checkpoint run id (`None` = no checkpointing unless `--resume`
    /// derives a default id).
    pub run_id: Option<String>,
    /// Root directory for results and checkpoints.
    pub results_dir: String,
    /// Optional deterministic per-visit sim-event watchdog.
    pub max_sim_events: Option<u64>,
    /// The full flag list as parsed (provenance; recorded in the
    /// checkpoint manifest but *not* fingerprinted).
    pub argv: Vec<String>,
}

/// The paper's corpus size, the default `--pages`.
pub const PAPER_PAGES: usize = 325;

impl Default for Options {
    fn default() -> Self {
        let env = RunnerConfig::from_env();
        Options {
            pages: PAPER_PAGES,
            seed: WorkloadSpec::default().seed,
            vantage: Vantage::Utah,
            json: false,
            jobs: env.jobs,
            progress: !env.quiet,
            resume: false,
            run_id: None,
            results_dir: "results".to_owned(),
            max_sim_events: None,
            argv: Vec::new(),
        }
    }
}

impl Options {
    /// The runner configuration these options resolve to.
    pub fn runner(&self) -> RunnerConfig {
        RunnerConfig::from_env()
            .with_jobs(self.jobs)
            .with_quiet(!self.progress)
    }

    /// The run id checkpointing resolves to for `experiment`: the
    /// explicit `--run-id`, else (under `--resume`) a deterministic
    /// default derived from the experiment identity.
    pub fn effective_run_id(&self, experiment: &str) -> Option<String> {
        if let Some(id) = &self.run_id {
            return Some(id.clone());
        }
        self.resume
            .then(|| format!("{experiment}-p{}-s{}", self.pages, self.seed))
    }

    /// The canonical *semantic* argument list — every resolved setting
    /// that can change results, rendered in a fixed order and spelling.
    /// Scheduling and IO flags (`--jobs`, `--progress`, `--resume`,
    /// `--run-id`, `--results-dir`, `--json`) are deliberately
    /// excluded: a checkpoint taken at one worker count must resume at
    /// any other.
    pub fn fingerprint_args(&self) -> Vec<String> {
        let mut a = vec![
            "--pages".to_owned(),
            self.pages.to_string(),
            "--seed".to_owned(),
            self.seed.to_string(),
            "--vantage".to_owned(),
            self.vantage.name().to_lowercase(),
        ];
        if let Some(budget) = self.max_sim_events {
            a.push("--max-sim-events".to_owned());
            a.push(budget.to_string());
        }
        a
    }
}

/// The common flags, as `--help` lists them.
const COMMON_FLAGS: &str = "--pages N   --seed S   --vantage Utah|Wisconsin|Clemson   \
     --json   --jobs N   --progress   --resume   --run-id ID   --results-dir D   \
     --max-sim-events N";

/// A command line an experiment binary will not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ArgsError {
    /// `--help` or `-h`: print the usage and exit 0.
    Help,
    /// A malformed flag or value, as a one-line message.
    Invalid(String),
}

/// Parses `std::env::args`-style flags; without `--pages` the corpus
/// has `default_pages` pages.
///
/// # Errors
///
/// [`ArgsError::Help`] on `--help`/`-h`; [`ArgsError::Invalid`] on an
/// unknown flag or a missing or malformed value.
pub(crate) fn try_parse_args(
    mut args: impl Iterator<Item = String>,
    default_pages: usize,
) -> Result<Options, ArgsError> {
    fn value<T: std::str::FromStr>(
        opts: &mut Options,
        args: &mut dyn Iterator<Item = String>,
        expects: &str,
    ) -> Result<T, ArgsError> {
        let v = args.next();
        if let Some(v) = &v {
            opts.argv.push(v.clone());
        }
        v.and_then(|v| v.parse().ok())
            .ok_or_else(|| ArgsError::Invalid(expects.to_owned()))
    }
    let mut opts = Options {
        pages: default_pages,
        ..Options::default()
    };
    while let Some(arg) = args.next() {
        opts.argv.push(arg.clone());
        match arg.as_str() {
            "--pages" => {
                let pages: NonZeroUsize =
                    value(&mut opts, &mut args, "--pages expects a positive integer")?;
                opts.pages = pages.get();
            }
            "--seed" => opts.seed = value(&mut opts, &mut args, "--seed expects an integer")?,
            "--vantage" => {
                let v: String = value(&mut opts, &mut args, "--vantage expects a name")?;
                opts.vantage = match v.to_ascii_lowercase().as_str() {
                    "utah" => Vantage::Utah,
                    "wisconsin" => Vantage::Wisconsin,
                    "clemson" => Vantage::Clemson,
                    other => {
                        return Err(ArgsError::Invalid(format!(
                            "unknown vantage {other:?} (Utah|Wisconsin|Clemson)"
                        )))
                    }
                };
            }
            "--json" => opts.json = true,
            "--jobs" => {
                opts.jobs = value(
                    &mut opts,
                    &mut args,
                    "--jobs expects a non-negative integer",
                )?;
            }
            "--progress" => opts.progress = true,
            "--resume" => opts.resume = true,
            "--run-id" => {
                opts.run_id = Some(value(
                    &mut opts,
                    &mut args,
                    "--run-id expects an identifier",
                )?);
            }
            "--results-dir" => {
                opts.results_dir =
                    value(&mut opts, &mut args, "--results-dir expects a directory")?;
            }
            "--max-sim-events" => {
                let budget: NonZeroU64 = value(
                    &mut opts,
                    &mut args,
                    "--max-sim-events expects a positive integer",
                )?;
                opts.max_sim_events = Some(budget.get());
            }
            "--help" | "-h" => return Err(ArgsError::Help),
            other => {
                return Err(ArgsError::Invalid(format!(
                    "unknown flag {other:?}; try --help"
                )))
            }
        }
    }
    Ok(opts)
}

/// Parses the common flags the way a CLI should: `--help` prints
/// `own_flags` (the binary's extra flags, if any) and the common flags,
/// then exits 0; a malformed command line is a [`usage_error`]. Without
/// `--pages` the corpus has `default_pages` pages.
pub fn parse_args_with(
    args: impl Iterator<Item = String>,
    own_flags: &str,
    default_pages: usize,
) -> Options {
    match try_parse_args(args, default_pages) {
        Ok(opts) => opts,
        Err(ArgsError::Help) => {
            println!("flags: {own_flags}{COMMON_FLAGS}");
            std::process::exit(0);
        }
        Err(ArgsError::Invalid(msg)) => usage_error(&msg),
    }
}

/// [`parse_args_with`] for a binary that takes only the common flags
/// and defaults to the paper's scale.
pub fn parse_args(args: impl Iterator<Item = String>) -> Options {
    parse_args_with(args, "", PAPER_PAGES)
}

/// Prints `msg` as one line on stderr and exits 2, the usage-error
/// status.
pub fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Builds the campaign for the parsed options (corpus scale, seed and
/// parallel-runner settings) *without* the crash-safe layer — the
/// plain pool the repro binaries use when a panic should stay a panic
/// (see the `visit_one` quarantine-replay binary).
pub fn campaign(opts: &Options) -> MeasurementCampaign {
    MeasurementCampaign::new(base_config(opts).with_inject_panic_site(panic_site_from_env()))
}

/// Builds the campaign for an experiment binary, running under the
/// crash-safe execution layer: per-visit panic isolation and
/// quarantine always; checkpoint/resume journaling under
/// `results_dir/.runs/<run-id>/` when `--run-id` or `--resume` is
/// given. `experiment` names the binary — it feeds the resume
/// fingerprint (so a `fig6` checkpoint can never leak into `fig9`) and
/// the default run id.
pub fn campaign_named(opts: &Options, experiment: &str) -> MeasurementCampaign {
    let mut ctx = DurableContext::new(opts.seed);
    if let Some(run) = prepare_run_dir(opts, experiment) {
        ctx = ctx.with_checkpoint(run);
    }
    let config = base_config(opts)
        .with_durable(Some(ctx))
        .with_inject_panic_site(panic_site_from_env());
    MeasurementCampaign::new(config)
}

/// Resolves and prepares the checkpoint directory an experiment binary
/// runs under — the same fingerprint/wipe/resume semantics
/// [`campaign_named`] applies, exposed for binaries (the
/// population-scale runner) that journal through their own layer
/// instead of the per-visit durable context. `None` when the options
/// request no checkpointing, or when the directory is unusable (the
/// run proceeds without journaling either way).
pub fn prepare_run_dir(opts: &Options, experiment: &str) -> Option<RunDir> {
    let run_id = opts.effective_run_id(experiment)?;
    let run = RunDir::open(Path::new(&opts.results_dir), &run_id);
    let manifest = Manifest {
        version: MANIFEST_VERSION,
        run_id: run_id.clone(),
        fingerprint: Fingerprint {
            seed: opts.seed,
            scenario: experiment.to_owned(),
            git_hash: workspace_git_hash(),
            args: opts.fingerprint_args(),
        },
        argv: opts.argv.clone(),
    };
    match run.prepare(&manifest, opts.resume) {
        Ok(kept) => {
            if opts.resume && !kept {
                eprintln!(
                    "h3cdn: checkpoint '{run_id}' has a stale fingerprint; \
                     journal cleared, running from scratch"
                );
            } else if opts.resume {
                eprintln!("h3cdn: resuming run '{run_id}'");
            }
            Some(run)
        }
        Err(e) => {
            eprintln!(
                "h3cdn: checkpoint dir for '{run_id}' unavailable ({e}); \
                 running without journaling"
            );
            None
        }
    }
}

/// Every table and figure of the paper in paper order, as the
/// `repro_all` binary prints them: the corpus header, Tables I–II,
/// Figs. 2–7, Fig. 8 and Table III after a warm-up of one page in 30,
/// and the Fig. 9 loss sweep pooled over 6 jitter repeats. Artifacts
/// are measured in that order; single-vantage ones use `vantage`.
pub fn repro_all(campaign: &MeasurementCampaign, vantage: Vantage) -> String {
    let corpus = campaign.corpus();
    let warmup = (corpus.pages.len() / 30).max(1);
    let mut out = format!(
        "=== corpus: {} pages, {} requests, seed {} ===\n\n",
        corpus.pages.len(),
        corpus.total_requests(),
        corpus.spec.seed
    );
    let mut push = |artifact: String| {
        out.push_str(&artifact);
        out.push('\n');
    };
    push(table1::run().to_string());
    push(table2::run(campaign, vantage).to_string());
    push(fig2::run(campaign, vantage).to_string());
    push(fig3::run(campaign).to_string());
    push(fig4::run(campaign).to_string());
    push(fig5::run(campaign).to_string());
    let comparisons = campaign.compare_all();
    push(fig6::run(&comparisons).to_string());
    push(fig7::run(&comparisons).to_string());
    push(fig8::run(campaign, vantage, warmup).to_string());
    push(table3::run(campaign, vantage, warmup).to_string());
    push(fig9::run_with_repeats(campaign, vantage, &[0.0, 0.5, 1.0], 6).to_string());
    out
}

/// Prints the quarantine summary for a finished campaign (stderr) so
/// binaries end with an explicit account of pages that did *not* make
/// it into the tables, and how to replay them.
pub fn report_quarantine(campaign: &MeasurementCampaign) {
    let failures = campaign.take_quarantine();
    if campaign.resumed_jobs() > 0 {
        eprintln!(
            "h3cdn: {} job(s) loaded from checkpoint journal",
            campaign.resumed_jobs()
        );
    }
    if failures.is_empty() {
        return;
    }
    eprintln!(
        "h3cdn: campaign finished with {} quarantined job(s):",
        failures.len()
    );
    for f in &failures {
        eprintln!("  - {}: {}\n    repro: {}", f.label, f.error, f.repro);
    }
}

fn base_config(opts: &Options) -> CampaignConfig {
    let mut config = CampaignConfig {
        workload: WorkloadSpec::default()
            .with_pages(opts.pages)
            .with_seed(opts.seed),
        runner: opts.runner(),
        ..CampaignConfig::default()
    };
    config.visit = config.visit.with_max_sim_events(opts.max_sim_events);
    config
}

/// The chaos hook: `H3CDN_PANIC_SITE=N` makes every visit of site `N`
/// panic deliberately, proving the quarantine path end-to-end.
fn panic_site_from_env() -> Option<usize> {
    std::env::var("H3CDN_PANIC_SITE")
        .ok()
        .and_then(|v| v.trim().parse().ok())
}

/// Prints a result either as its Display table or as JSON.
pub fn emit<T: std::fmt::Display + serde::Serialize>(opts: &Options, value: &T) {
    if opts.json {
        println!(
            "{}",
            serde_json::to_string_pretty(value).expect("experiment results serialise")
        );
    } else {
        println!("{value}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Options {
        parse_with_default(s, PAPER_PAGES)
    }

    fn parse_with_default(s: &[&str], default_pages: usize) -> Options {
        try_parse_args(
            s.iter().map(std::string::ToString::to_string),
            default_pages,
        )
        .expect("the command line parses")
    }

    #[test]
    fn defaults_are_paper_scale() {
        let o = parse(&[]);
        assert_eq!(o.pages, 325);
        assert!(!o.json);
    }

    #[test]
    fn explicit_pages_beat_the_binary_default() {
        assert_eq!(parse_with_default(&[], 40).pages, 40);
        assert_eq!(parse_with_default(&["--pages", "325"], 40).pages, 325);
    }

    #[test]
    fn flags_parse() {
        let o = parse(&[
            "--pages",
            "20",
            "--seed",
            "9",
            "--vantage",
            "clemson",
            "--json",
        ]);
        assert_eq!(o.pages, 20);
        assert_eq!(o.seed, 9);
        assert_eq!(o.vantage, Vantage::Clemson);
        assert!(o.json);
    }

    fn parse_err(s: &[&str]) -> ArgsError {
        try_parse_args(s.iter().map(std::string::ToString::to_string), PAPER_PAGES)
            .expect_err("the command line is rejected")
    }

    #[test]
    fn unknown_flag_rejected() {
        assert_eq!(
            parse_err(&["--bogus"]),
            ArgsError::Invalid("unknown flag \"--bogus\"; try --help".to_owned())
        );
    }

    #[test]
    fn missing_or_malformed_values_rejected() {
        for (args, want) in [
            (&["--pages"][..], "--pages expects a positive integer"),
            (
                &["--pages", "many"][..],
                "--pages expects a positive integer",
            ),
            (&["--pages", "0"][..], "--pages expects a positive integer"),
            (
                &["--max-sim-events", "0"][..],
                "--max-sim-events expects a positive integer",
            ),
            (
                &["--jobs", "-1"][..],
                "--jobs expects a non-negative integer",
            ),
            (&["--vantage"][..], "--vantage expects a name"),
        ] {
            assert_eq!(
                parse_err(args),
                ArgsError::Invalid(want.to_owned()),
                "{args:?}"
            );
        }
        assert!(matches!(
            parse_err(&["--vantage", "mars"]),
            ArgsError::Invalid(msg) if msg.contains("unknown vantage")
        ));
    }

    #[test]
    fn help_is_not_an_error_message() {
        assert_eq!(parse_err(&["--pages", "3", "--help"]), ArgsError::Help);
        assert_eq!(parse_err(&["-h"]), ArgsError::Help);
    }

    #[test]
    fn jobs_and_progress_flags_reach_the_runner() {
        let o = parse(&["--jobs", "3", "--progress"]);
        assert_eq!(o.jobs, 3);
        assert!(o.progress);
        let r = o.runner();
        assert_eq!(r.effective_jobs(), 3);
        assert!(!r.quiet);
        let c = campaign(&parse(&["--pages", "2", "--jobs", "3"]));
        assert_eq!(c.runner().effective_jobs(), 3);
    }

    #[test]
    fn campaign_builds_at_requested_scale() {
        let o = parse(&["--pages", "3"]);
        let c = campaign(&o);
        assert_eq!(c.corpus().pages.len(), 3);
    }

    #[test]
    fn emit_json_serialises_results() {
        // Any experiment result must survive the JSON path the --json
        // flag uses.
        let t = crate::table1::run();
        let json = serde_json::to_string_pretty(&t).expect("serialises");
        let back: serde_json::Value = serde_json::from_str(&json).expect("parses");
        assert_eq!(back["rows"].as_array().expect("rows").len(), 6);
    }
}
