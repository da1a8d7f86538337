//! Runs the edge-overload sweep: concurrent browser swarms against
//! stateful, finite edges — {ample, starved} capacity × {herd, paced}
//! arrivals × {h2, h3, h3+fallback} browser arms, plus a UDP-blackhole
//! composition scenario.
//!
//! Extra flag on top of the common set:
//!
//! ```text
//! --smoke   cap the corpus at 4 pages, run the smoke scenario subset
//!           and verify the overload invariants (CI gate): the starved
//!           herd must shed QUIC and strand the fallback-less h3 arm,
//!           the fallback arm must complete every client over TCP with
//!           a visible fallback storm, the ample edge must refuse
//!           nobody, and the control row must reproduce the plain
//!           campaign visit paths bit for bit.
//! ```

use h3cdn_experiments::edge_overload;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    args.retain(|a| a != "--smoke");
    let mut opts = h3cdn_experiments::parse_args_with(args.into_iter(), "--smoke   ");
    if smoke {
        opts.pages = opts.pages.min(4);
    }
    let campaign = h3cdn_experiments::campaign_named(&opts, "edge_overload");
    let scenarios = if smoke {
        edge_overload::smoke_scenarios()
    } else {
        edge_overload::default_scenarios()
    };
    let sweep = edge_overload::run(&campaign, opts.vantage, &scenarios);
    h3cdn_experiments::emit(&opts, &sweep);
    if smoke {
        check_invariants(&sweep, &campaign, opts.vantage);
        eprintln!("edge_overload smoke OK");
    }
    h3cdn_experiments::report_quarantine(&campaign);
}

/// The acceptance invariants the CI smoke run enforces.
///
/// # Panics
///
/// Panics (failing the CI step) when the overload story regresses.
fn check_invariants(
    sweep: &edge_overload::OverloadSweep,
    campaign: &h3cdn::MeasurementCampaign,
    vantage: h3cdn::Vantage,
) {
    let cell = |scenario: &str, arm: &str| {
        sweep
            .cell(scenario, arm)
            .unwrap_or_else(|| panic!("sweep misses cell ({scenario}, {arm})"))
    };
    // Overload: the starved herd must shed QUIC handshakes, and
    // without fallback machinery those refusals strand clients.
    let rigid = cell("starved/herd", "h3");
    assert!(
        rigid.edge.refused_quic > 0,
        "the starved edge must refuse QUIC handshakes"
    );
    assert!(
        rigid.stranded_clients > 0,
        "refusals without fallback must strand clients"
    );
    // Graceful degradation: the fallback arm turns the same refusals
    // into an H3→H2 storm and completes every client.
    let graceful = cell("starved/herd", "h3+fallback");
    assert_eq!(
        graceful.stranded_clients, 0,
        "fallback must complete every client under overload"
    );
    assert!(
        graceful.edge.refused_quic > 0,
        "the graceful arm must still see refusals"
    );
    assert!(
        graceful.h3_fallbacks > 0,
        "refusals must drive a visible fallback storm"
    );
    // Composition: a UDP blackhole on top of the starved edge must not
    // strand the fallback arm either.
    let faulted = cell("starved/herd/blackhole", "h3+fallback");
    assert_eq!(
        faulted.stranded_clients, 0,
        "fallback must survive refusals composed with path faults"
    );
    // No spurious refusals: the amply provisioned edge admits the same
    // herd without shedding anything.
    let ample = cell("ample/herd", "h3");
    assert_eq!(ample.stranded_clients, 0, "the ample herd must complete");
    assert_eq!(ample.edge.refused(), 0, "the ample edge must refuse nobody");
    assert!(ample.edge.admitted() > 0);
    // Control fidelity: the solo row is bit-identical to the plain
    // campaign visit paths (same fabric, no admission control).
    for (arm, mode) in [
        ("h2", h3cdn::ProtocolMode::H2Only),
        ("h3", h3cdn::ProtocolMode::H3Enabled),
    ] {
        let c = cell("control/solo", arm);
        assert_eq!(c.stranded_clients, 0, "control {arm} must complete");
        for (site, plt) in c.plts_ms.iter().enumerate() {
            let want = campaign.visit(site, vantage, mode).plt_ms;
            assert_eq!(
                plt.to_bits(),
                want.to_bits(),
                "control {arm} site {site} must match the campaign visit"
            );
        }
    }
}
