//! Determinism of the parallel campaign runner.
//!
//! The headline guarantee of `h3cdn::runner`: every campaign API is a
//! pure function of its configuration, and its output — down to the
//! serialized bytes — does not depend on the worker count. These tests
//! pin that guarantee on the real measurement pipeline (compare_all,
//! the Fig. 9 loss sweep, every artifact `repro_all` prints) and on
//! the runner's merge order itself via a property test.

use h3cdn::{run_keyed, CampaignConfig, MeasurementCampaign, RunnerConfig, Vantage};
use h3cdn_experiments::fig9;
use proptest::prelude::*;

/// A small two-vantage campaign pinned to `jobs` workers.
fn campaign(jobs: usize) -> MeasurementCampaign {
    let mut cfg = CampaignConfig::small(4, 21);
    cfg.vantages = vec![Vantage::Utah, Vantage::Clemson];
    cfg.runner = RunnerConfig::default().with_jobs(jobs);
    MeasurementCampaign::new(cfg)
}

#[test]
fn compare_all_json_is_byte_identical_across_worker_counts() {
    let serial = serde_json::to_string(&campaign(1).compare_all()).expect("serialises");
    for jobs in [2, 8] {
        let parallel = serde_json::to_string(&campaign(jobs).compare_all()).expect("serialises");
        assert_eq!(serial, parallel, "jobs={jobs}");
    }
    assert!(serial.contains("plt_reduction_ms"));
}

#[test]
fn fig9_sweep_json_is_byte_identical_across_worker_counts() {
    let run = |jobs| {
        let c = campaign(jobs);
        let fig = fig9::run_with_repeats(&c, Vantage::Utah, &[0.0, 1.0], 2);
        serde_json::to_string(&fig).expect("serialises")
    };
    let serial = run(1);
    let parallel = run(8);
    assert_eq!(serial, parallel);
    assert!(serial.contains("loss_percent"));
}

#[test]
fn full_report_is_byte_identical_across_worker_counts() {
    // Every artifact `repro_all` prints, Table II through Fig. 9.
    let serial = h3cdn_experiments::repro_all(&campaign(1), Vantage::Utah);
    let parallel = h3cdn_experiments::repro_all(&campaign(8), Vantage::Utah);
    assert_eq!(serial, parallel);
    assert!(serial.contains("=== corpus: 4 pages"));
}

#[test]
fn h3cdn_jobs_env_var_does_not_change_results() {
    // `H3CDN_JOBS` may only change the worker count, never the bytes.
    let baseline = serde_json::to_string(&campaign(1).compare_all()).expect("serialises");
    std::env::set_var("H3CDN_JOBS", "8");
    let mut cfg = CampaignConfig::small(4, 21);
    cfg.vantages = vec![Vantage::Utah, Vantage::Clemson];
    cfg.runner = RunnerConfig::from_env();
    assert_eq!(cfg.runner.effective_jobs(), 8);
    let under_env =
        serde_json::to_string(&MeasurementCampaign::new(cfg).compare_all()).expect("serialises");
    std::env::remove_var("H3CDN_JOBS");
    assert_eq!(baseline, under_env);
}

proptest! {
    /// The runner's merge order is total and stable: for any multiset of
    /// job keys, results come back sorted by key with equal keys in
    /// submission order — identically for every worker count.
    #[test]
    fn merge_order_is_total_and_stable(
        keys in prop::collection::vec((0u32..4, 0u32..4, 0u32..4), 0..48),
        jobs in 1usize..9,
    ) {
        // Payload = submission index, so stability is observable even
        // for duplicate keys.
        let submitted: Vec<_> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, move || i))
            .collect();
        let got = run_keyed(&RunnerConfig::default().with_jobs(jobs), submitted);

        // Expected: stable sort of (key, submission index) by key.
        let mut want: Vec<_> = keys.iter().copied().enumerate().map(|(i, k)| (k, i)).collect();
        want.sort_by_key(|&(k, _)| k);
        prop_assert_eq!(&got, &want);

        // Totality: keys ascending; stability: ties ascending by index.
        for pair in got.windows(2) {
            prop_assert!(pair[0].0 <= pair[1].0);
            if pair[0].0 == pair[1].0 {
                prop_assert!(pair[0].1 < pair[1].1);
            }
        }
    }
}
