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

fn main() {
    h3cdn_experiments::edge_overload::main();
}
