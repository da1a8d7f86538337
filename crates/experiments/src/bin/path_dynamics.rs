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

fn main() {
    h3cdn_experiments::path_dynamics::main();
}
