//! Runs the fault matrix: scheduled path impairments (UDP blackholes,
//! blackouts) crossed with {h2, h3, h3+fallback} browser arms.
//!
//! Extra flag on top of the common set:
//!
//! ```text
//! --smoke   cap the corpus at 6 pages and verify the graceful-
//!           degradation invariants (CI gate): under a 100% UDP
//!           blackhole the fallback arm must complete every page with a
//!           nonzero time-to-fallback penalty, while the no-fallback H3
//!           arm must strand.
//! ```

use h3cdn_experiments::fault_matrix;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    args.retain(|a| a != "--smoke");
    let mut opts = h3cdn_experiments::parse_args_with(args.into_iter(), "--smoke   ");
    if smoke {
        opts.pages = opts.pages.min(6);
    }
    let campaign = h3cdn_experiments::campaign_named(&opts, "fault_matrix");
    let scenarios = fault_matrix::default_scenarios();
    let matrix = fault_matrix::run(&campaign, opts.vantage, &scenarios);
    h3cdn_experiments::emit(&opts, &matrix);
    if smoke {
        check_invariants(&matrix);
        eprintln!("fault_matrix smoke OK");
    }
    h3cdn_experiments::report_quarantine(&campaign);
}

/// The acceptance invariants the CI smoke run enforces.
///
/// # Panics
///
/// Panics (failing the CI step) when graceful degradation regresses.
fn check_invariants(matrix: &fault_matrix::FaultMatrix) {
    let cell = |scenario: &str, arm: &str| {
        matrix
            .cell(scenario, arm)
            .unwrap_or_else(|| panic!("matrix misses cell ({scenario}, {arm})"))
    };
    // Control row: nothing aborts, nothing falls back.
    for arm in ["h2", "h3", "h3+fallback"] {
        let c = cell("none", arm);
        assert_eq!(c.aborted, 0, "fault-free {arm} must complete all pages");
        assert_eq!(c.h3_fallbacks, 0, "fault-free {arm} must not fall back");
    }
    // Total UDP blackhole: H2 untouched; H3 strands without fallback;
    // with fallback every page completes, at a nonzero penalty.
    let h2 = cell("udp-blackhole 100%", "h2");
    assert_eq!(h2.aborted, 0, "TCP must ignore a UDP blackhole");
    let h3 = cell("udp-blackhole 100%", "h3");
    assert!(h3.aborted > 0, "blackholed H3 without fallback must strand");
    let fb = cell("udp-blackhole 100%", "h3+fallback");
    assert_eq!(fb.aborted, 0, "fallback must complete every page");
    assert!(fb.h3_fallbacks > 0, "fallbacks must be counted");
    assert!(
        fb.mean_fallback_wait_ms > 0.0,
        "time-to-fallback penalty must be nonzero"
    );
}
