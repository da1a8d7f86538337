//! Sweeps each calibration knob and prints how the headline metric (mean
//! PLT reduction) responds — the robustness companion to EXPERIMENTS.md.

use h3cdn_experiments::sensitivity::{run_sensitivity, Knob};

fn main() {
    // 4 knobs × settings × paired visits: keep the default run brisk.
    let opts = h3cdn_experiments::parse_args_with(std::env::args().skip(1), "", 40);
    let campaign = h3cdn_experiments::campaign_named(&opts, "sensitivity");
    for knob in [
        Knob::H3ExtraProcessingMs,
        Knob::BaselineLossPercent,
        Knob::AccessRateMbps,
        Knob::CongestionControl,
    ] {
        let s = run_sensitivity(&campaign, opts.vantage, knob, &knob.default_sweep());
        h3cdn_experiments::emit(&opts, &s);
    }
    h3cdn_experiments::report_quarantine(&campaign);
}
