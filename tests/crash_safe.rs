//! Crash-safety of the durable campaign layer, end to end.
//!
//! The contract under test: a campaign interrupted after *any* K of N
//! jobs and resumed — at any worker count — produces serialized output
//! byte-identical to an uninterrupted run; a configuration change
//! (stale fingerprint) wipes the journal and re-executes everything;
//! and a deterministically panicking page is quarantined with a usable
//! repro command while every other page completes.

use std::path::PathBuf;

use h3cdn::persist::{fnv1a64, Fingerprint, Manifest, RunDir, MANIFEST_VERSION};
use h3cdn::runner::durable::DurableContext;
use h3cdn::{CampaignConfig, MeasurementCampaign, RunnerConfig, Vantage};

const PAGES: usize = 3;
const SEED: u64 = 11;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "h3cdn-crash-safe-{tag}-{}-{:x}",
        std::process::id(),
        fnv1a64(tag.as_bytes())
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn manifest(seed: u64) -> Manifest {
    Manifest {
        version: MANIFEST_VERSION,
        run_id: "crash-safe-test".to_owned(),
        fingerprint: Fingerprint {
            seed,
            scenario: "crash_safe".to_owned(),
            git_hash: "test".to_owned(),
            args: vec!["--pages".to_owned(), PAGES.to_string()],
        },
        argv: Vec::new(),
    }
}

/// A small one-vantage campaign with the durable layer attached.
fn durable_campaign(jobs: usize, run: &RunDir) -> MeasurementCampaign {
    let cfg = CampaignConfig::small(PAGES, SEED)
        .with_runner(RunnerConfig::default().with_jobs(jobs))
        .with_durable(Some(DurableContext::new(SEED).with_checkpoint(run.clone())));
    MeasurementCampaign::new(cfg)
}

/// The serialized bytes of the campaign's full paired measurement.
fn measure(c: &MeasurementCampaign) -> String {
    serde_json::to_string(&c.compare_vantage(Vantage::Utah)).expect("serialises")
}

/// All journal entry paths under a run, sorted.
fn journal_files(run: &RunDir) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![run.root().join("jobs")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "job") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

#[test]
fn resume_after_any_interruption_point_is_bit_identical() {
    // Uninterrupted ground truth, no durable layer at all.
    let plain = MeasurementCampaign::new(CampaignConfig::small(PAGES, SEED));
    let want = measure(&plain);

    let root = scratch("kofn");
    let run = RunDir::at(root.clone());

    // One full durable run to populate the journal.
    run.prepare(&manifest(SEED), false).expect("prepare");
    let full = durable_campaign(2, &run);
    assert_eq!(measure(&full), want, "durable layer is transparent");
    assert!(full.take_quarantine().is_empty());
    let files = journal_files(&run);
    let n = files.len();
    assert_eq!(n, 2 * PAGES, "one journal entry per visit side");

    // Interrupt after K of N jobs (K = 0 — killed before any journal
    // write — and K = N-1 — killed one job before the finish line),
    // then resume at 1 and 4 workers. Output must be byte-identical.
    for kept in [0, n - 1] {
        for jobs in [1usize, 4] {
            run.prepare(&manifest(SEED), false).expect("reset");
            let seed_run = durable_campaign(2, &run);
            let _ = measure(&seed_run);
            let files = journal_files(&run);
            assert_eq!(files.len(), n);
            for dropped in &files[kept..] {
                std::fs::remove_file(dropped).expect("simulate interruption");
            }

            let kept_on_resume = run.prepare(&manifest(SEED), true).expect("resume prepare");
            assert!(kept_on_resume, "matching fingerprint keeps the journal");
            let resumed = durable_campaign(jobs, &run);
            assert_eq!(
                measure(&resumed),
                want,
                "resume after {kept}/{n} jobs at --jobs {jobs}"
            );
            assert_eq!(resumed.resumed_jobs(), kept, "journal hits counted");
            assert!(resumed.take_quarantine().is_empty());
            // The journal is complete again after the resumed run.
            assert_eq!(journal_files(&run).len(), n);
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn stale_fingerprint_forces_a_full_rerun() {
    let root = scratch("stale");
    let run = RunDir::at(root.clone());

    run.prepare(&manifest(SEED), false).expect("prepare");
    let first = durable_campaign(2, &run);
    let _ = measure(&first);
    assert_eq!(journal_files(&run).len(), 2 * PAGES);

    // Same run id, different seed in the fingerprint: the journal must
    // be wiped even under --resume, and nothing may be loaded from it.
    let kept = run.prepare(&manifest(SEED + 1), true).expect("prepare");
    assert!(!kept, "stale fingerprint must not keep the journal");
    assert!(
        journal_files(&run).is_empty(),
        "stale journal wiped before the rerun"
    );
    let rerun = durable_campaign(2, &run);
    let _ = measure(&rerun);
    assert_eq!(rerun.resumed_jobs(), 0, "nothing resumed across configs");
    assert_eq!(journal_files(&run).len(), 2 * PAGES);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn injected_panic_is_quarantined_while_the_rest_completes() {
    let panic_site = 1usize;
    let build = || {
        let cfg = CampaignConfig::small(PAGES, SEED)
            .with_runner(RunnerConfig::default().with_jobs(2))
            .with_durable(Some(DurableContext::new(SEED)))
            .with_inject_panic_site(Some(panic_site));
        MeasurementCampaign::new(cfg)
    };

    let c = build();
    let results = c.compare_vantage(Vantage::Utah);
    // The poisoned page is dropped whole; every other page completes.
    assert_eq!(results.len(), PAGES - 1);
    assert!(results.iter().all(|r| r.site != panic_site));

    let failures = c.take_quarantine();
    assert_eq!(failures.len(), 2, "both protocol sides quarantined");
    for f in &failures {
        assert!(!f.stalled);
        assert!(
            f.error.contains("deliberately injected panic"),
            "{}",
            f.error
        );
        // The repro command replays exactly this visit, chaos hook armed.
        assert!(f.repro.contains("--bin visit_one"), "{}", f.repro);
        assert!(f.repro.contains(&format!("--site {panic_site}")));
        assert!(f.repro.contains(&format!("--seed {SEED}")));
        assert!(f.repro.contains(&format!("H3CDN_PANIC_SITE={panic_site}")));
    }

    // The failure set itself is deterministic: a second identical
    // campaign quarantines the same jobs with the same errors.
    let again = build();
    let _ = again.compare_vantage(Vantage::Utah);
    let failures2 = again.take_quarantine();
    assert_eq!(failures.len(), failures2.len());
    for (a, b) in failures.iter().zip(&failures2) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.seq, b.seq);
        assert_eq!(a.error, b.error);
    }
}
