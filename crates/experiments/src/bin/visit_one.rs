//! Replays a single page visit outside the crash-safe layer.
//!
//! This is the repro command the quarantine records point at: it takes
//! the common corpus flags plus
//!
//! ```text
//! --site N      corpus index of the page to visit (required)
//! --mode h2|h3  protocol side to replay (default h3)
//! ```
//!
//! and runs exactly the internal visit path the campaign used — same
//! corpus seed, same vantage profile, same visit config — on the
//! *plain* pool. A visit that was quarantined because it panicked or
//! stalled will therefore panic right here, in the foreground, with
//! the full payload and backtrace (`RUST_BACKTRACE=1`). A visit that
//! completes prints its one-line summary instead, proving the
//! quarantine was environmental rather than deterministic.

use h3cdn::ProtocolMode;
use h3cdn_experiments::usage_error;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut site: Option<usize> = None;
    let mut mode = ProtocolMode::H3Enabled;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--site" => {
                let v = args.get(i + 1).map(String::as_str).unwrap_or_default();
                site = Some(v.parse().unwrap_or_else(|_| {
                    usage_error(&format!("--site expects a corpus index, got {v:?}"))
                }));
                args.drain(i..i + 2);
            }
            "--mode" => {
                let v = args.get(i + 1).map(String::as_str).unwrap_or_default();
                mode = match v {
                    "h2" => ProtocolMode::H2Only,
                    "h3" => ProtocolMode::H3Enabled,
                    other => usage_error(&format!("--mode expects h2|h3, got {other:?}")),
                };
                args.drain(i..i + 2);
            }
            _ => i += 1,
        }
    }
    let opts = h3cdn_experiments::parse_args_with(
        args.into_iter(),
        "--site N   --mode h2|h3   ",
        h3cdn_experiments::PAPER_PAGES,
    );
    let Some(site) = site else {
        usage_error("visit_one needs --site N (see --help)")
    };
    // Plain pool on purpose: a deterministic failure must panic here,
    // visibly, instead of being quarantined a second time.
    let campaign = h3cdn_experiments::campaign(&opts);
    let pages = campaign.corpus().pages.len();
    if site >= pages {
        usage_error(&format!(
            "--site {site} is out of range for a {pages}-page corpus"
        ));
    }
    let har = campaign.visit(site, opts.vantage, mode);
    println!(
        "site {site} {} @ {}: plt {:.1} ms, {} entries, {} reused conn, {} resumed conn",
        mode.label(),
        opts.vantage.name(),
        har.plt_ms,
        har.entries.len(),
        har.reused_connection_count(),
        har.resumed_connection_count(),
    );
}
