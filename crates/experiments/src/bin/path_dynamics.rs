//! Runs the path-dynamics resilience sweep: continuous link variation
//! (handover, Wi-Fi roam, oscillating bottleneck) crossed with
//! {cubic, bbr} congestion control, {droptail-deep, droptail-shallow,
//! codel} queue disciplines and {h2, h3, h3+fallback} browser arms.
//!
//! Extra flag on top of the common set:
//!
//! ```text
//! --smoke   cap the corpus at 4 pages, run the smoke scenario subset
//!           and verify the resilience invariants (CI gate): BBR must
//!           carry less standing queue than Cubic in the deep-buffered
//!           oscillating bottleneck, the fallback arm must complete
//!           every page on the handover trace, and the static control
//!           must reproduce the plain campaign visit paths bit for bit.
//! ```

use h3cdn_experiments::path_dynamics;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    args.retain(|a| a != "--smoke");
    let mut opts = h3cdn_experiments::parse_args_with(args.into_iter(), "--smoke   ");
    if smoke {
        opts.pages = opts.pages.min(4);
    }
    let campaign = h3cdn_experiments::campaign_named(&opts, "path_dynamics");
    let scenarios = if smoke {
        path_dynamics::smoke_scenarios()
    } else {
        path_dynamics::default_scenarios()
    };
    let sweep = path_dynamics::run(&campaign, opts.vantage, &scenarios);
    h3cdn_experiments::emit(&opts, &sweep);
    if smoke {
        check_invariants(&sweep, &campaign, opts.vantage);
        eprintln!("path_dynamics smoke OK");
    }
    h3cdn_experiments::report_quarantine(&campaign);
}

/// The acceptance invariants the CI smoke run enforces.
///
/// # Panics
///
/// Panics (failing the CI step) when the resilience story regresses.
fn check_invariants(
    sweep: &path_dynamics::DynamicsSweep,
    campaign: &h3cdn::MeasurementCampaign,
    vantage: h3cdn::Vantage,
) {
    let cell = |scenario: &str, arm: &str| {
        sweep
            .cell(scenario, arm)
            .unwrap_or_else(|| panic!("sweep misses cell ({scenario}, {arm})"))
    };
    // Bufferbloat: BBR's model keeps the deep oscillating-bottleneck
    // buffer emptier than Cubic's fill-until-loss probing.
    let cubic = cell("oscillate/cubic/droptail-deep", "h3");
    let bbr = cell("oscillate/bbr/droptail-deep", "h3");
    assert!(
        bbr.median_sojourn_ms < cubic.median_sojourn_ms,
        "BBR must carry less standing queue than Cubic: {:.3}ms vs {:.3}ms",
        bbr.median_sojourn_ms,
        cubic.median_sojourn_ms
    );
    // Resilience: the handover trace must not strand a fallback-armed
    // browser.
    let fb = cell("handover/cubic/droptail-deep", "h3+fallback");
    assert_eq!(
        fb.aborted, 0,
        "fallback must complete every page across handovers"
    );
    // Control fidelity: the static row is bit-identical to the plain
    // campaign visit paths (same fabric, no dynamics state installed).
    for (arm, mode) in [
        ("h2", h3cdn::ProtocolMode::H2Only),
        ("h3", h3cdn::ProtocolMode::H3Enabled),
    ] {
        let c = cell("static/cubic/droptail-deep", arm);
        assert_eq!(c.aborted, 0, "static {arm} must complete all pages");
        for (site, plt) in c.plts_ms.iter().enumerate() {
            let want = campaign.visit(site, vantage, mode).plt_ms;
            assert_eq!(
                plt.to_bits(),
                want.to_bits(),
                "static {arm} site {site} must match the campaign visit"
            );
        }
    }
}
