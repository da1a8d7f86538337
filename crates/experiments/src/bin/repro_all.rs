//! Regenerates every table and figure in one run, printing each artifact
//! in paper order. `--pages` scales the corpus (default 325).

fn main() {
    let opts = h3cdn_experiments::parse_args(std::env::args().skip(1));
    let campaign = h3cdn_experiments::campaign_named(&opts, "repro_all");
    print!("{}", h3cdn_experiments::repro_all(&campaign, opts.vantage));
    h3cdn_experiments::report_quarantine(&campaign);
}
