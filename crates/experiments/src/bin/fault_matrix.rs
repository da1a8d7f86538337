//! Runs the fault matrix: scheduled path impairments (UDP blackholes,
//! blackouts) crossed with {h2, h3, h3+fallback} browser arms.
//!
//! Extra flag on top of the common set:
//!
//! ```text
//! --smoke   cap the corpus at 6 pages and verify the graceful-
//!           degradation invariants (CI gate): under a 100% UDP
//!           blackhole the fallback arm must complete every page with a
//!           nonzero time-to-fallback penalty, the no-fallback H3 arm
//!           must strand, and the fault-free control must reproduce the
//!           plain campaign visit paths bit for bit.
//! ```

fn main() {
    h3cdn_experiments::fault_matrix::main();
}
