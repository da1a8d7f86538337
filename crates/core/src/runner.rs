//! Deterministic parallel job executor for measurement campaigns.
//!
//! Every paired H2/H3 visit in this reproduction is a pure function of
//! `(WorkloadSpec, seed, vantage, VisitConfig)`, which makes campaigns
//! embarrassingly parallel. This module models campaign work as *keyed
//! jobs* — a totally ordered `JobKey` plus a closure producing a
//! result — executes them on the one worker pool,
//! [`streaming::run_keyed_streaming`], and merges results **in key
//! order**, so the output of every campaign API is bit-identical to the
//! serial path regardless of worker count.
//!
//! Worker count resolution, in priority order:
//!
//! 1. an explicit [`RunnerConfig::with_jobs`] / `--jobs` CLI flag,
//! 2. the `H3CDN_JOBS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! Long sweeps get lightweight observability: with
//! [`RunnerConfig::quiet`](RunnerConfig) unset (`--progress` /
//! `H3CDN_PROGRESS=1`), the pool prints jobs-done and throughput
//! counters to stderr. Progress output never touches stdout, so
//! rendered artifacts stay byte-stable either way.

pub mod durable;
pub mod streaming;

use std::sync::Once;
use std::time::Instant;

use streaming::run_keyed_streaming;

/// Key identifying one campaign job: `(vantage, site, variant)`.
///
/// `variant` distinguishes sub-measurements of the same page — the
/// protocol side of a paired visit, a sweep setting, a repeat index.
/// The lexicographic tuple `Ord` is the runner's merge order.
#[cfg(test)]
pub(crate) type JobKey = (u32, u32, u32);

/// Configuration of the parallel runner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunnerConfig {
    /// Worker threads; `0` means auto-detect (`H3CDN_JOBS` env var if
    /// set, otherwise [`std::thread::available_parallelism`]).
    pub jobs: usize,
    /// Suppress progress/throughput counters (the default; campaigns
    /// enable them via `--progress` or `H3CDN_PROGRESS=1`).
    pub quiet: bool,
}

impl Default for RunnerConfig {
    /// Auto worker count, quiet.
    fn default() -> Self {
        RunnerConfig {
            jobs: 0,
            quiet: true,
        }
    }
}

impl RunnerConfig {
    /// Strictly serial execution (one worker, in-thread).
    pub fn serial() -> Self {
        RunnerConfig {
            jobs: 1,
            quiet: true,
        }
    }

    /// Returns a copy pinned to `jobs` workers (`0` = auto).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Returns a copy with progress counters switched on or off.
    pub fn with_quiet(mut self, quiet: bool) -> Self {
        self.quiet = quiet;
        self
    }

    /// Resolves `jobs`/`quiet` from the environment: `H3CDN_JOBS` for
    /// the worker count, `H3CDN_PROGRESS=1` to enable counters.
    pub fn from_env() -> Self {
        let jobs = jobs_from_env();
        let quiet = !matches!(
            // h3cdn-lint: allow(env-read)
            std::env::var("H3CDN_PROGRESS").as_deref(),
            Ok("1") | Ok("true")
        );
        RunnerConfig { jobs, quiet }
    }

    /// The concrete worker count this configuration resolves to.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs > 0 {
            return self.jobs;
        }
        let jobs = jobs_from_env();
        if jobs > 0 {
            return jobs;
        }
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }
}

/// Parses an `H3CDN_JOBS` value: a non-negative integer worker count
/// (`0` = auto-detect). Whitespace is trimmed; an empty string counts
/// as unset. Anything else is an error naming the offending value.
fn parse_jobs(raw: &str) -> Result<usize, String> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(0);
    }
    trimmed
        .parse::<usize>()
        .map_err(|_| format!("invalid H3CDN_JOBS value {raw:?} (expected a non-negative integer)"))
}

/// Reads `H3CDN_JOBS`, returning `0` (auto) when unset. A value that
/// fails to parse — `H3CDN_JOBS=fuor` — used to degrade silently to
/// auto-detect; now it warns on stderr (once per process) and then
/// falls back, so a typo leaves a visible signal without aborting a
/// long campaign.
fn jobs_from_env() -> usize {
    // Worker count changes scheduling only, never results (the merge is
    // key-ordered). h3cdn-lint: allow(env-read)
    let Ok(raw) = std::env::var("H3CDN_JOBS") else {
        return 0;
    };
    match parse_jobs(&raw) {
        Ok(jobs) => jobs,
        Err(msg) => {
            static WARN_ONCE: Once = Once::new();
            WARN_ONCE.call_once(|| {
                eprintln!("h3cdn runner: {msg}; using auto-detect");
            });
            0
        }
    }
}

/// Runs keyed jobs on the worker pool and returns `(key, result)`
/// pairs sorted by key.
///
/// This is [`run_keyed_streaming`] with a sink that collects into a
/// `Vec` and a window as large as the job set, so no worker ever waits
/// on the merge. **Merge order is total and stable**: results come
/// back in ascending key order, with equal keys kept in submission
/// order. With pure job closures the output is therefore identical for
/// any worker count, including `1` (which runs inline without
/// spawning).
///
/// # Panics
///
/// Re-raises the first panicking job's panic, in key order, on the
/// caller's thread.
pub fn run_keyed<K, T, F>(config: &RunnerConfig, jobs: Vec<(K, F)>) -> Vec<(K, T)>
where
    K: Ord + Send,
    T: Send,
    F: FnOnce() -> T + Send,
{
    let mut out = Vec::with_capacity(jobs.len());
    let window = jobs.len().max(1);
    run_keyed_streaming(config, jobs, window, |k, v| out.push((k, v)));
    out
}

/// The `--progress` counters on stderr: a jobs-done line every tenth
/// of a batch, and a throughput line for the whole batch at its end.
struct Progress {
    total: usize,
    workers: usize,
    done: usize,
    started: Instant,
}

impl Progress {
    /// Counters for a batch, or `None` when the runner is quiet.
    fn start(config: &RunnerConfig, total: usize, workers: usize) -> Option<Self> {
        (!config.quiet).then(|| Progress {
            total,
            workers,
            done: 0,
            // Wall-clock is used for the jobs/s progress lines on
            // stderr only; it never feeds into simulated time or
            // results. h3cdn-lint: allow(wall-clock)
            started: Instant::now(),
        })
    }

    /// Counts one delivered result.
    fn tick(&mut self) {
        self.done += 1;
        let secs = self.started.elapsed().as_secs_f64().max(1e-9);
        let rate = self.done as f64 / secs;
        if self.done == self.total {
            eprintln!(
                "h3cdn runner: {} jobs on {} worker(s) in {secs:.2}s ({rate:.1} jobs/s)",
                self.total, self.workers
            );
        } else if self.done.is_multiple_of((self.total / 10).max(1)) {
            eprintln!(
                "h3cdn runner: {}/{} jobs done ({rate:.1} jobs/s)",
                self.done, self.total
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity_jobs(keys: &[JobKey]) -> Vec<(JobKey, impl FnOnce() -> JobKey + Send)> {
        keys.iter().map(|&k| (k, move || k)).collect()
    }

    #[test]
    fn results_come_back_in_key_order() {
        let keys = [(2, 0, 1), (0, 5, 0), (1, 1, 1), (0, 0, 0), (2, 0, 0)];
        for jobs in [1, 2, 8] {
            let cfg = RunnerConfig::default().with_jobs(jobs);
            let out = run_keyed(&cfg, identity_jobs(&keys));
            let got: Vec<JobKey> = out.iter().map(|(k, _)| *k).collect();
            let mut want = keys.to_vec();
            want.sort_unstable();
            assert_eq!(got, want, "jobs={jobs}");
            for (k, v) in out {
                assert_eq!(k, v);
            }
        }
    }

    #[test]
    fn equal_keys_keep_submission_order() {
        // Jobs with the same key carry distinct payloads; the stable
        // sort must keep them in submission order under any worker
        // count.
        for jobs in [1, 4] {
            let cfg = RunnerConfig::default().with_jobs(jobs);
            let submitted: Vec<((u32, u32, u32), _)> =
                (0..16u32).map(|i| ((0, 0, 0), move || i)).collect();
            let out: Vec<u32> = run_keyed(&cfg, submitted)
                .into_iter()
                .map(|(_, v)| v)
                .collect();
            assert_eq!(out, (0..16).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_single_job_sets_work() {
        let cfg = RunnerConfig::default().with_jobs(8);
        let empty: Vec<(JobKey, fn() -> u32)> = Vec::new();
        assert!(run_keyed(&cfg, empty).is_empty());
        let one = vec![((1, 2, 3), || 42u32)];
        assert_eq!(run_keyed(&cfg, one), vec![((1, 2, 3), 42)]);
    }

    #[test]
    fn worker_count_exceeding_jobs_is_fine() {
        let cfg = RunnerConfig::default().with_jobs(64);
        let out = run_keyed(&cfg, identity_jobs(&[(0, 0, 0), (0, 1, 0)]));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn serial_config_is_one_worker() {
        assert_eq!(RunnerConfig::serial().effective_jobs(), 1);
        assert!(RunnerConfig::serial().quiet);
    }

    #[test]
    fn explicit_jobs_override_everything() {
        assert_eq!(RunnerConfig::default().with_jobs(5).effective_jobs(), 5);
    }

    #[test]
    fn auto_jobs_resolve_to_at_least_one() {
        assert!(RunnerConfig::default().effective_jobs() >= 1);
    }

    #[test]
    fn parse_jobs_accepts_integers_and_rejects_garbage() {
        // Tested via the pure parser rather than the env var to avoid
        // process-global races with parallel tests.
        assert_eq!(parse_jobs("4"), Ok(4));
        assert_eq!(parse_jobs(" 2 "), Ok(2));
        assert_eq!(parse_jobs("0"), Ok(0));
        assert_eq!(parse_jobs(""), Ok(0));
        assert_eq!(parse_jobs("   "), Ok(0));
        let err = parse_jobs("fuor").unwrap_err();
        assert!(err.contains("fuor"), "error names the value: {err}");
        assert!(parse_jobs("-1").is_err());
        assert!(parse_jobs("4.5").is_err());
    }
}
