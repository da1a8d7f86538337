//! Crash-safe execution on top of the deterministic runner:
//! checkpoint/resume, per-job panic isolation, quarantine, and the
//! sim-event watchdog.
//!
//! [`run_keyed_durable`] has the same merge contract as
//! [`run_keyed`](crate::runner::run_keyed) — jobs are stably sorted by
//! key before execution and merged in key order, so output is
//! bit-identical for every worker count — plus three durability
//! layers:
//!
//! 1. **Checkpoint/resume.** With a [`RunDir`] attached, every
//!    completed job is journaled immediately (write-temp-fsync-rename,
//!    content-hashed) under a *section* derived from the job set. On a
//!    resume, journal entries that deserialize and verify are loaded
//!    instead of re-executed. Because jobs are identified by their
//!    ordinal in the sorted order and the section hash covers every
//!    job's identity, a journal entry can only ever be replayed into
//!    the exact job that produced it.
//! 2. **Panic isolation + quarantine.** Each job runs once under
//!    [`std::panic::catch_unwind`]; a panic becomes a typed
//!    [`JobFailure`] instead of taking down the worker pool. The
//!    failure lands in `quarantine.json` and the merge reports it
//!    instead of aborting the campaign. A panicking job is never
//!    re-run: it is a pure function of its inputs, so a second run
//!    would only panic again.
//! 3. **Watchdog.** The one watchdog is the deterministic sim-event
//!    budget (`VisitConfig::max_sim_events` → the engine's
//!    `StallReport`), which reaches this layer as a stalled-visit
//!    panic and is quarantined as a stalled [`JobFailure`].
//!
//! The `AssertUnwindSafe` boundary is sound here because job closures
//! are pure functions of captured immutable state: a panicking job
//! abandons all of its partial state, and nothing else observes it.

use std::panic::{self, AssertUnwindSafe};

use serde::{Deserialize, Serialize};

use crate::persist::RunDir;
use crate::runner::{run_keyed, RunnerConfig};

/// Prefix campaigns put on stalled-visit panic payloads so the durable
/// layer can mark the resulting [`JobFailure`] as stall-backed.
pub(crate) const STALLED_PREFIX: &str = "stalled visit: ";

/// One quarantined job: everything needed to understand and replay the
/// failure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobFailure {
    /// Journal section the job belonged to.
    pub section: String,
    /// Ordinal of the job in the section's sorted key order.
    pub seq: u64,
    /// Human-readable job identity (site, mode, vantage, config hash).
    pub label: String,
    /// The panic message (or watchdog diagnosis).
    pub error: String,
    /// Whether the failure is stall-backed (sim-event budget exhausted
    /// / all-stalled engine) rather than a plain panic.
    pub stalled: bool,
    /// The seed of the run the job failed in.
    pub run_seed: u64,
    /// A minimal deterministic repro command line for this job.
    pub repro: String,
}

/// Per-job metadata carried next to the closure: a human label and the
/// deterministic repro command recorded on failure. Both feed the
/// section hash, so they must uniquely identify the job's inputs.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct JobMeta {
    /// Human-readable job identity.
    pub label: String,
    /// Minimal repro command line.
    pub repro: String,
}

/// Shared durability settings for a run.
#[derive(Debug, Clone)]
pub struct DurableContext {
    /// Seed of the run (conventionally the campaign seed), recorded in
    /// every [`JobFailure`].
    pub run_seed: u64,
    /// Checkpoint directory; `None` keeps isolation and quarantine but
    /// journals nothing.
    pub checkpoint: Option<RunDir>,
}

impl DurableContext {
    /// Isolation and quarantine, no checkpointing.
    pub fn new(run_seed: u64) -> Self {
        DurableContext {
            run_seed,
            checkpoint: None,
        }
    }

    /// Returns a copy journaling to (and resuming from) `run`.
    pub fn with_checkpoint(mut self, run: RunDir) -> Self {
        self.checkpoint = Some(run);
        self
    }
}

/// The outcome of a durable batch.
#[derive(Debug)]
pub(crate) struct DurableReport<K, T> {
    /// Every job in ascending key order; `None` marks a quarantined
    /// job (its [`JobFailure`] is in `failures`).
    pub results: Vec<(K, Option<T>)>,
    /// Quarantined jobs, in ascending `seq` order.
    pub failures: Vec<JobFailure>,
    /// Jobs loaded from the checkpoint journal instead of executed.
    pub resumed: usize,
}

/// Runs keyed jobs crash-safely: stable key-sorted order, per-job
/// panic isolation, optional journaling and resume, quarantine on the
/// first panic. See the module docs for the guarantees.
///
/// `section` names the journal namespace; callers derive it from a
/// content hash of the job set so distinct batches never share
/// entries. Results come back in ascending key order with quarantined
/// jobs as `None` — with no failures the `Some` sequence is
/// bit-identical to [`run_keyed`](crate::runner::run_keyed) over the
/// same jobs at any worker count.
pub(crate) fn run_keyed_durable<K, T, F>(
    config: &RunnerConfig,
    ctx: &DurableContext,
    section: &str,
    mut jobs: Vec<(K, JobMeta, F)>,
) -> DurableReport<K, T>
where
    K: Ord + Send,
    T: Send + Serialize + Deserialize,
    F: FnOnce() -> T + Send,
{
    // Same stable pre-sort as `run_keyed`: the sorted ordinal is the
    // job's durable identity (`seq`).
    jobs.sort_by(|a, b| a.0.cmp(&b.0));
    let total = jobs.len();

    let mut keys: Vec<K> = Vec::with_capacity(total);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(total);
    let mut pending: Vec<(usize, (JobMeta, F))> = Vec::new();
    let mut resumed = 0usize;

    for (seq, (key, meta, job)) in jobs.into_iter().enumerate() {
        keys.push(key);
        let loaded = ctx
            .checkpoint
            .as_ref()
            .and_then(|run| run.load_job(section, seq))
            .and_then(|bytes| String::from_utf8(bytes).ok())
            .and_then(|text| serde_json::from_str::<T>(&text).ok());
        if loaded.is_some() {
            resumed += 1;
            slots.push(loaded);
        } else {
            slots.push(None);
            pending.push((seq, (meta, job)));
        }
    }

    // Execute the pending jobs on the pool, each wrapped in the
    // isolation/journal shell. Keys are the seqs, so the merge hands
    // results back in seq order.
    let wrapped: Vec<(usize, _)> = pending
        .into_iter()
        .map(|(seq, (meta, job))| {
            (seq, move || {
                let outcome = run_isolated(ctx, section, seq, &meta, job);
                if let (Ok(value), Some(run)) = (&outcome, &ctx.checkpoint) {
                    journal(run, section, seq, value);
                }
                outcome
            })
        })
        .collect();
    let executed = run_keyed(config, wrapped);

    let mut failures: Vec<JobFailure> = Vec::new();
    for (seq, outcome) in executed {
        match outcome {
            Ok(value) => {
                if let Some(slot) = slots.get_mut(seq) {
                    *slot = Some(value);
                }
            }
            Err(failure) => failures.push(*failure),
        }
    }

    if let Some(run) = &ctx.checkpoint {
        merge_quarantine(run, section, &failures);
    }
    if !failures.is_empty() {
        eprintln!(
            "h3cdn runner: {} of {total} job(s) quarantined in section {section}:",
            failures.len()
        );
        for f in &failures {
            eprintln!("  - {}: {} (repro: {})", f.label, f.error, f.repro);
        }
    }

    DurableReport {
        results: keys.into_iter().zip(slots).collect(),
        failures,
        resumed,
    }
}

/// One job's isolation shell: a single run under `catch_unwind`.
fn run_isolated<T>(
    ctx: &DurableContext,
    section: &str,
    seq: usize,
    meta: &JobMeta,
    job: impl FnOnce() -> T,
) -> Result<T, Box<JobFailure>> {
    // Boxed so the hot `Result` stays pointer-sized on the Ok path.
    let failure = |error: String| {
        Box::new(JobFailure {
            section: section.to_owned(),
            seq: seq as u64,
            label: meta.label.clone(),
            stalled: error.starts_with(STALLED_PREFIX),
            error,
            run_seed: ctx.run_seed,
            repro: meta.repro.clone(),
        })
    };
    panic::catch_unwind(AssertUnwindSafe(job))
        .map_err(|payload| failure(panic_message(payload.as_ref())))
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Journals one completed job; journal I/O errors are reported but
/// never fail the job (the in-memory result is still returned).
fn journal<T: Serialize>(run: &RunDir, section: &str, seq: usize, value: &T) {
    match serde_json::to_string(value) {
        Ok(json) => {
            if let Err(e) = run.store_job(section, seq, json.as_bytes()) {
                eprintln!("h3cdn runner: journal write failed for {section}/{seq}: {e}");
            }
        }
        Err(e) => eprintln!("h3cdn runner: journal serialize failed for {section}/{seq}: {e}"),
    }
}

/// The quarantine file shape.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct QuarantineFile {
    /// All quarantined jobs of the run, sorted by `(section, seq)`.
    failures: Vec<JobFailure>,
}

/// Rewrites `quarantine.json`: existing entries of *other* sections
/// are kept, this section's entries are replaced with `fresh`.
///
/// Entries are keyed by `(section, seq)`, so a job that fails again on
/// a resumed run *replaces* its previous record instead of appending a
/// duplicate — the file stays bounded by the number of distinct failing
/// jobs no matter how often a run is resumed (and a pre-existing file
/// with duplicates is collapsed on the next merge).
///
/// The file is only written when the merge changes it: a batch with no
/// failures on a run without a quarantine file writes nothing, and an
/// unchanged list is not rewritten (each atomic write costs two fsyncs).
fn merge_quarantine(run: &RunDir, section: &str, fresh: &[JobFailure]) {
    let on_disk = run.read_quarantine();
    let mut by_key: std::collections::BTreeMap<(String, u64), JobFailure> = on_disk
        .as_deref()
        .and_then(|text| serde_json::from_str::<QuarantineFile>(text).ok())
        .map(|q| q.failures)
        .unwrap_or_default()
        .into_iter()
        .map(|f| ((f.section.clone(), f.seq), f))
        .collect();
    by_key.retain(|(s, _), _| s != section);
    for f in fresh {
        by_key.insert((f.section.clone(), f.seq), f.clone());
    }
    // BTreeMap iteration is already the (section, seq) sort order.
    let file = QuarantineFile {
        failures: by_key.into_values().collect(),
    };
    if on_disk.is_none() && file.failures.is_empty() {
        return;
    }
    match serde_json::to_string_pretty(&file) {
        Ok(json) if on_disk.as_deref() == Some(json.as_str()) => {}
        Ok(json) => {
            if let Err(e) = run.write_quarantine(&json) {
                eprintln!("h3cdn runner: quarantine write failed: {e}");
            }
        }
        Err(e) => eprintln!("h3cdn runner: quarantine serialize failed: {e}"),
    }
}

/// Parses a run's `quarantine.json` into failures (empty when absent
/// or unreadable).
#[cfg(test)]
pub(crate) fn read_quarantine(run: &RunDir) -> Vec<JobFailure> {
    run.read_quarantine()
        .and_then(|text| serde_json::from_str::<QuarantineFile>(&text).ok())
        .map(|q| q.failures)
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    use crate::persist::{Fingerprint, Manifest, MANIFEST_VERSION};

    fn tmp_run(tag: &str) -> RunDir {
        let tmp = std::env::temp_dir(); // test scratch only; h3cdn-lint: allow(env-read)
        let root: PathBuf = tmp.join(format!("h3cdn-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let run = RunDir::at(root);
        let manifest = Manifest {
            version: MANIFEST_VERSION,
            run_id: tag.to_owned(),
            fingerprint: Fingerprint {
                seed: 1,
                scenario: tag.to_owned(),
                git_hash: "t".to_owned(),
                args: Vec::new(),
            },
            argv: Vec::new(),
        };
        run.prepare(&manifest, false).expect("prepare");
        run
    }

    fn meta(i: u32) -> JobMeta {
        JobMeta {
            label: format!("job {i}"),
            repro: format!("repro {i}"),
        }
    }

    #[test]
    fn clean_jobs_match_run_keyed_bitwise() {
        let ctx = DurableContext::new(9);
        for jobs in [1usize, 4] {
            let cfg = RunnerConfig::default().with_jobs(jobs);
            let batch: Vec<((u32, u32, u32), JobMeta, _)> = (0..10u32)
                .map(|i| ((0, i, 0), meta(i), move || f64::from(i) * 1.5))
                .collect();
            let report = run_keyed_durable(&cfg, &ctx, "s", batch);
            assert_eq!(report.failures.len(), 0);
            assert_eq!(report.resumed, 0);
            let values: Vec<f64> = report.results.into_iter().filter_map(|(_, v)| v).collect();
            let want: Vec<f64> = (0..10u32).map(|i| f64::from(i) * 1.5).collect();
            assert_eq!(values, want, "jobs={jobs}");
        }
    }

    #[test]
    fn panicking_job_runs_once_then_is_quarantined() {
        for jobs in [1usize, 2] {
            let runs = AtomicUsize::new(0);
            let ctx = DurableContext::new(77);
            let cfg = RunnerConfig::default().with_jobs(jobs);
            let batch = vec![((0u32, 0u32, 0u32), meta(0), {
                let runs = &runs;
                move || -> u32 {
                    runs.fetch_add(1, Ordering::Relaxed);
                    panic!("boom at job 0");
                }
            })];
            let report = run_keyed_durable(&cfg, &ctx, "panics", batch);
            assert_eq!(runs.load(Ordering::Relaxed), 1, "run exactly once");
            assert_eq!(report.failures.len(), 1);
            let f = &report.failures[0];
            assert!(f.error.contains("boom at job 0"));
            assert!(!f.stalled);
            assert_eq!(f.run_seed, 77);
            assert_eq!(f.repro, "repro 0");
            assert_eq!(report.results.len(), 1);
            assert!(report.results[0].1.is_none());
        }
    }

    #[test]
    fn checkpoint_resume_skips_completed_jobs() {
        let run = tmp_run("resume");
        let ctx = DurableContext::new(3).with_checkpoint(run.clone());
        let cfg = RunnerConfig::serial();
        let calls = AtomicUsize::new(0);
        #[allow(clippy::type_complexity)]
        fn make_batch(
            calls: &AtomicUsize,
        ) -> Vec<((u32, u32, u32), JobMeta, impl FnOnce() -> u64 + Send + '_)> {
            (0..6u32)
                .map(move |i| {
                    ((0, i, 0), meta(i), move || {
                        calls.fetch_add(1, Ordering::Relaxed);
                        u64::from(i) * 7
                    })
                })
                .collect()
        }
        let first = run_keyed_durable(&cfg, &ctx, "sec", make_batch(&calls));
        assert_eq!(calls.load(Ordering::Relaxed), 6);
        assert_eq!(first.resumed, 0);

        // Simulate an interruption after 2 of 6 jobs: drop the rest.
        for seq in 2..6usize {
            let _ = std::fs::remove_file(run.job_path("sec", seq));
        }
        calls.store(0, Ordering::Relaxed);
        let second = run_keyed_durable(&cfg, &ctx, "sec", make_batch(&calls));
        assert_eq!(second.resumed, 2, "two journal entries reused");
        assert_eq!(calls.load(Ordering::Relaxed), 4, "four re-executed");
        let a: Vec<u64> = first.results.into_iter().filter_map(|(_, v)| v).collect();
        let b: Vec<u64> = second.results.into_iter().filter_map(|(_, v)| v).collect();
        assert_eq!(a, b, "resumed output identical");
        let _ = std::fs::remove_dir_all(run.root());
    }

    #[test]
    fn quarantine_file_accumulates_across_sections() {
        let run = tmp_run("quar");
        let ctx = DurableContext::new(1).with_checkpoint(run.clone());
        let cfg = RunnerConfig::serial();
        let bad = |name: &'static str| {
            vec![((0u32, 0u32, 0u32), meta(0), move || -> u32 {
                panic!("fail in {name}")
            })]
        };
        let _ = run_keyed_durable(&cfg, &ctx, "alpha", bad("alpha"));
        let _ = run_keyed_durable(&cfg, &ctx, "beta", bad("beta"));
        let all = read_quarantine(&run);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].section, "alpha");
        assert_eq!(all[1].section, "beta");
        // Re-quarantining the same job on repeated resumes must not
        // accumulate duplicates: (section, seq) keys the entry.
        let _ = run_keyed_durable(&cfg, &ctx, "alpha", bad("alpha"));
        let _ = run_keyed_durable(&cfg, &ctx, "alpha", bad("alpha"));
        let all = read_quarantine(&run);
        assert_eq!(all.len(), 2, "three alpha failures collapse to one");
        assert_eq!(all[0].section, "alpha");
        assert_eq!(all[1].section, "beta");
        // A pre-existing file carrying duplicates (written before the
        // dedupe landed) is collapsed by the next merge of any section.
        let mut seeded = read_quarantine(&run);
        let dup = seeded[1].clone();
        seeded.push(dup);
        let json =
            serde_json::to_string_pretty(&QuarantineFile { failures: seeded }).expect("serialize");
        run.write_quarantine(&json).expect("seed duplicates");
        assert_eq!(read_quarantine(&run).len(), 3, "duplicate seeded");
        let _ = run_keyed_durable(&cfg, &ctx, "gamma", bad("gamma"));
        let all = read_quarantine(&run);
        assert_eq!(all.len(), 3, "alpha, beta (deduped), gamma");
        assert_eq!(all[0].section, "alpha");
        assert_eq!(all[1].section, "beta");
        assert_eq!(all[2].section, "gamma");
        // Re-running a section with no failures clears its entries.
        let good = vec![((0u32, 0u32, 0u32), meta(0), move || 5u32)];
        let _ = run_keyed_durable(&cfg, &ctx, "alpha", good);
        let all = read_quarantine(&run);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].section, "beta");
        assert_eq!(all[1].section, "gamma");
        let _ = std::fs::remove_dir_all(run.root());
    }

    #[test]
    fn clean_batches_leave_the_quarantine_file_alone() {
        let run = tmp_run("clean");
        let ctx = DurableContext::new(1).with_checkpoint(run.clone());
        let cfg = RunnerConfig::serial();
        let good = || vec![((0u32, 0u32, 0u32), meta(0), move || 5u32)];
        let _ = run_keyed_durable(&cfg, &ctx, "clean", good());
        assert!(
            !run.quarantine_path().exists(),
            "a clean batch on a fresh run writes no quarantine.json"
        );
        let bad = vec![((0u32, 0u32, 0u32), meta(0), move || -> u32 {
            panic!("fail")
        })];
        let _ = run_keyed_durable(&cfg, &ctx, "bad", bad);
        assert_eq!(read_quarantine(&run).len(), 1);
        // A clean batch of another section leaves the list unchanged, so
        // the file is not replaced: a hard link taken before still
        // shares its contents (an atomic rewrite would split them).
        let link = run.root().join("quarantine.link");
        std::fs::hard_link(run.quarantine_path(), &link).expect("hard link");
        let _ = run_keyed_durable(&cfg, &ctx, "clean", good());
        let shared = std::fs::OpenOptions::new()
            .append(true)
            .open(&link)
            .and_then(|mut f| std::io::Write::write_all(&mut f, b"\n"))
            .and_then(|()| std::fs::read_to_string(run.quarantine_path()))
            .expect("append through the link");
        assert!(
            shared.ends_with('\n'),
            "unchanged quarantine.json rewritten"
        );
        let _ = std::fs::remove_dir_all(run.root());
    }
}
