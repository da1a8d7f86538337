//! `perfbench` — the h3cdn benchmark binary.
//!
//! One invocation runs one workload in its own process:
//!
//! ```text
//! perfbench --workload campaign|swarm|journaled|population
//!           --seed N --seconds S --trace 0|1 --scratch DIR
//!           [--scale full|tiny] [--trace-out DIR]
//! ```
//!
//! With `--trace 0` it sets the workload up, measures it for `--seconds`,
//! resumes it from its journal and prints the end-to-end metrics. With
//! `--trace 1` it drives the same workload through each layer's public
//! functions under spans and prints the per-layer metrics. Either way
//! every output is checked first, and the last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! Everything else goes to standard error. `perfbench/run.py` builds this
//! binary and runs it.

mod calib;
mod check;
mod layers;
mod trace;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// The seed whose outputs are pinned by digest.
pub(crate) const DEFAULT_SEED: u64 = 1;

/// Worker threads of every runner a workload times. One worker leaves
/// the second CPU of the 2-CPU machines the benchmark was sized on to
/// everything else, and makes a slice's time one thread's time.
pub(crate) const WORKERS: usize = 1;

/// Worker threads of the self-consistency checks: the output must not
/// depend on the worker count.
pub(crate) const CHECK_WORKERS: usize = 2;

/// The four benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Workload {
    Campaign,
    Swarm,
    Journaled,
    Population,
}

impl Workload {
    pub(crate) const ALL: [Workload; 4] = [
        Workload::Campaign,
        Workload::Swarm,
        Workload::Journaled,
        Workload::Population,
    ];

    pub(crate) fn name(self) -> &'static str {
        match self {
            Workload::Campaign => "campaign",
            Workload::Swarm => "swarm",
            Workload::Journaled => "journaled",
            Workload::Population => "population",
        }
    }
}

/// Input scale: `full` is the benchmark, `tiny` the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Scale {
    Full,
    Tiny,
}

/// Input sizes of every workload at one scale.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sizes {
    /// Corpus pages of `campaign`, visited from all three vantages.
    pub(crate) campaign_pages: usize,
    /// Corpus pages of `swarm`, each loaded by every scenario and arm.
    pub(crate) swarm_pages: usize,
    /// Corpus pages of `journaled`, paired H2/H3 from one vantage.
    pub(crate) journaled_pages: usize,
    /// Page records of `population`.
    pub(crate) population_records: u64,
    /// Pages (or, for `population`, 5,000s of records) of the
    /// untimed warm-up inside each set-up.
    pub(crate) warmup: usize,
    /// Set-ups per run; `setup_s` is the median of their normalised
    /// times.
    pub(crate) setups: usize,
    /// Resumes per run, at least; `resume_s` is the median of their
    /// normalised times.
    pub(crate) resumes: usize,
}

impl Scale {
    pub(crate) fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }

    pub(crate) fn sizes(self) -> Sizes {
        match self {
            Scale::Full => Sizes {
                campaign_pages: 64,
                swarm_pages: 32,
                journaled_pages: 40,
                population_records: 100_000,
                warmup: 4,
                setups: 5,
                resumes: 3,
            },
            Scale::Tiny => Sizes {
                campaign_pages: 3,
                swarm_pages: 2,
                journaled_pages: 2,
                population_records: 2_000,
                warmup: 1,
                setups: 2,
                resumes: 2,
            },
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub(crate) struct Args {
    pub(crate) workload: Workload,
    pub(crate) seed: u64,
    pub(crate) seconds: f64,
    pub(crate) trace: bool,
    pub(crate) scale: Scale,
    /// Directory for run directories (removed at the end).
    pub(crate) scratch: PathBuf,
    /// Directory the traced run writes its spans and summary to.
    pub(crate) trace_out: Option<PathBuf>,
}

/// One metric of the result line.
#[derive(Debug, Clone)]
pub(crate) struct Metric {
    pub(crate) name: String,
    pub(crate) value: f64,
    pub(crate) unit: &'static str,
}

impl Metric {
    pub(crate) fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one run reports.
#[derive(Debug)]
pub(crate) struct Outcome {
    pub(crate) checks: check::Checks,
    pub(crate) metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line. A non-finite metric makes the run incorrect and
    /// is written as 0 so the line stays valid JSON.
    fn to_json(&self) -> String {
        let mut correct = self.checks.correct();
        let mut fields = Vec::with_capacity(self.metrics.len());
        for m in &self.metrics {
            let value = if m.value.is_finite() {
                m.value
            } else {
                eprintln!("perfbench: metric {} is not finite", m.name);
                correct = false;
                0.0
            };
            fields.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.attempted.max(1),
            self.checks.failed,
            fields.join(", ")
        )
    }
}

const USAGE: &str = "usage: perfbench --workload campaign|swarm|journaled|population \
                     --seed N --seconds S --trace 0|1 --scratch DIR \
                     [--scale full|tiny] [--trace-out DIR]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut scale = Scale::Full;
    let mut scratch = None;
    let mut trace_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} expects a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(bad)?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && f64::is_finite(seconds)) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(bad()),
                };
            }
            "--scratch" => scratch = Some(PathBuf::from(value)),
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
        seed,
        seconds,
        trace,
        scale,
        scratch: scratch.ok_or_else(|| format!("--scratch is required\n{USAGE}"))?,
        trace_out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        eprintln!("perfbench: cannot create {}: {e}", args.scratch.display());
        return ExitCode::FAILURE;
    }
    let outcome = if args.trace {
        traced::run(&args)
    } else {
        workloads::run(&args)
    };
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
