//! Seeded, deterministic fault injection for directed paths.
//!
//! Real CDN measurement campaigns run over an Internet that misbehaves in
//! ways the steady-state loss models in [`crate::loss`] do not capture:
//! access links flap, edges die, and — crucially for an HTTP/3 study —
//! middleboxes silently blackhole UDP while letting TCP through, which is
//! exactly the failure mode behind browsers' H3→H2 fallback machinery
//! (the adoption-vs-usage gap in *Measuring HTTP/3*). A [`FaultPlan`]
//! attaches a schedule of such impairments to one directed path:
//!
//! * `FaultKind::Blackout` — the link is dead; every packet sent during
//!   the window is dropped regardless of protocol.
//! * `FaultKind::UdpBlackhole` — protocol-selective: packets classified
//!   [`TransportClass::Udp`] (QUIC) are dropped, TCP passes. Models a
//!   QUIC-hostile middlebox or an enterprise firewall's default-deny UDP.
//! * `FaultKind::LossBurst` — a transient loss storm: an extra
//!   independent Bernoulli drop with probability `p` on top of the path's
//!   configured [`LossModel`](crate::LossModel), only inside the window.
//! * `FaultKind::RateCollapse` — the path's capacity collapses to a
//!   trickle for the window (an overloaded edge or a rain-faded last
//!   mile), modelled as an extra shallow-buffered `Serializer`.
//!
//! Every decision is deterministic: windows are fixed instants, and the
//! only randomness (the loss-burst coin) comes from a [`SimRng`] stream
//! forked per window off the owning [`Network`](crate::Network)'s seed, so
//! equal seeds replay drop-for-drop identically.

use h3cdn_sim_core::units::{ByteCount, DataRate};
use h3cdn_sim_core::{SimRng, SimTime};

use crate::link::Serializer;

/// Queue depth of the temporary bottleneck a [`FaultKind::RateCollapse`]
/// window imposes. Deliberately shallow (a few dozen full-size packets):
/// a collapsed link drops, it does not buffer-bloat.
const COLLAPSE_QUEUE_CAPACITY: ByteCount = ByteCount::new(64 * 1500);

/// Coarse transport classification of a packet, used by
/// protocol-selective faults (`FaultKind::UdpBlackhole`).
///
/// The engine obtains this from [`Node::classify`](crate::Node::classify);
/// packet types that do not override it are [`TransportClass::Other`],
/// which only protocol-blind faults (blackout, loss burst, rate collapse)
/// affect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportClass {
    /// A UDP datagram (QUIC).
    Udp,
    /// A TCP segment.
    Tcp,
    /// Anything else (test packets, abstract messages).
    Other,
}

/// One kind of scheduled impairment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum FaultKind {
    /// Drop every packet: the link is down.
    Blackout,
    /// Drop every [`TransportClass::Udp`] packet; everything else passes.
    UdpBlackhole,
    /// Extra IID loss with probability `p` per packet inside the window.
    LossBurst {
        /// Per-packet drop probability in `[0, 1]`.
        p: f64,
    },
    /// The path's usable rate collapses to `rate` inside the window.
    RateCollapse {
        /// The collapsed bottleneck rate.
        rate: DataRate,
    },
}

/// One scheduled impairment window: `kind` is active for packets offered
/// in `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FaultWindow {
    /// First instant (inclusive) the fault applies.
    pub from: SimTime,
    /// First instant (exclusive) the fault no longer applies.
    pub until: SimTime,
    /// What the fault does.
    pub kind: FaultKind,
}

impl FaultWindow {
    /// Whether the window covers packets offered at `at`.
    pub fn active_at(&self, at: SimTime) -> bool {
        self.from <= at && at < self.until
    }
}

/// Why a fault window is malformed.
///
/// Builder validation returns these instead of panicking so a malformed
/// scenario config surfaces as a quarantinable job error rather than
/// aborting a whole campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultPlanError {
    /// The window's `until` precedes its `from`.
    InvertedWindow {
        /// Requested start of the window.
        from: SimTime,
        /// Requested end of the window.
        until: SimTime,
    },
    /// A loss-burst probability is outside `[0, 1]` (or not finite).
    LossProbabilityOutOfRange {
        /// The rejected probability.
        p: f64,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::InvertedWindow { from, until } => write!(
                f,
                "fault window ends before it starts ({} ns > {} ns)",
                from.as_nanos(),
                until.as_nanos()
            ),
            FaultPlanError::LossProbabilityOutOfRange { p } => {
                write!(f, "loss-burst p out of range: {p}")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A schedule of impairments for one directed path. Attach with
/// [`Network::set_fault_plan`](crate::Network::set_fault_plan).
///
/// Windows may overlap; each active window is applied in insertion order
/// (drops short-circuit, rate collapses compose by delaying the packet).
/// Builders validate their windows and return [`FaultPlanError`] on
/// malformed input instead of panicking.
///
/// # Example
///
/// ```
/// use h3cdn_netsim::fault::{FaultPlan, FaultPlanError};
/// use h3cdn_sim_core::{SimDuration, SimTime};
///
/// # fn main() -> Result<(), FaultPlanError> {
/// let t = |s| SimTime::ZERO + SimDuration::from_secs(s);
/// let plan = FaultPlan::new()
///     .udp_blackhole(SimTime::ZERO, SimTime::MAX)? // QUIC-hostile middlebox
///     .blackout(t(2), t(3))?; // plus a 1 s total outage
/// assert!(plan != FaultPlan::new());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Validates and adds an arbitrary window (builder style).
    pub(crate) fn window(
        self,
        from: SimTime,
        until: SimTime,
        kind: FaultKind,
    ) -> Result<Self, FaultPlanError> {
        if from > until {
            return Err(FaultPlanError::InvertedWindow { from, until });
        }
        if let FaultKind::LossBurst { p } = kind {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(FaultPlanError::LossProbabilityOutOfRange { p });
            }
        }
        Ok(self.push_window(from, until, kind))
    }

    /// Appends a window known to be valid (internal use only).
    fn push_window(mut self, from: SimTime, until: SimTime, kind: FaultKind) -> Self {
        self.windows.push(FaultWindow { from, until, kind });
        self
    }

    /// Adds a full blackout window (builder style).
    pub fn blackout(self, from: SimTime, until: SimTime) -> Result<Self, FaultPlanError> {
        self.window(from, until, FaultKind::Blackout)
    }

    /// Adds a UDP-blackhole window (builder style).
    pub fn udp_blackhole(self, from: SimTime, until: SimTime) -> Result<Self, FaultPlanError> {
        self.window(from, until, FaultKind::UdpBlackhole)
    }

    /// A permanent UDP blackhole: the canonical QUIC-hostile middlebox.
    pub fn udp_blackhole_always() -> Self {
        FaultPlan::new().push_window(SimTime::ZERO, SimTime::MAX, FaultKind::UdpBlackhole)
    }

    /// Adds a loss-burst window (builder style); `p` must lie in
    /// `[0, 1]`.
    pub fn loss_burst(self, from: SimTime, until: SimTime, p: f64) -> Result<Self, FaultPlanError> {
        self.window(from, until, FaultKind::LossBurst { p })
    }

    /// Adds a rate-collapse window (builder style).
    pub fn rate_collapse(
        self,
        from: SimTime,
        until: SimTime,
        rate: DataRate,
    ) -> Result<Self, FaultPlanError> {
        self.window(from, until, FaultKind::RateCollapse { rate })
    }

    /// Whether the plan schedules no impairments at all.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }
}

/// The verdict a fault plan renders on one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultOutcome {
    /// The packet survives; it proceeds at the (possibly delayed) time.
    Deliver(SimTime),
    /// The packet is consumed by a fault.
    Drop,
}

/// Runtime state of a [`FaultPlan`] on one directed path: the plan's
/// windows armed with their per-window random streams and collapse
/// queues.
#[derive(Debug)]
pub(crate) struct FaultState {
    windows: Vec<ArmedWindow>,
}

#[derive(Debug)]
struct ArmedWindow {
    window: FaultWindow,
    kind: ArmedKind,
}

#[derive(Debug)]
enum ArmedKind {
    Blackout,
    UdpBlackhole,
    LossBurst { p: f64, rng: SimRng },
    RateCollapse { queue: Serializer },
}

impl FaultState {
    /// Arms `plan` with deterministic per-window streams forked off
    /// `rng` (one fork per window index, so editing one window never
    /// reshuffles another's draws).
    pub(crate) fn new(plan: FaultPlan, rng: &SimRng) -> Self {
        let windows = plan
            .windows
            .into_iter()
            .enumerate()
            .map(|(i, window)| {
                let kind = match window.kind {
                    FaultKind::Blackout => ArmedKind::Blackout,
                    FaultKind::UdpBlackhole => ArmedKind::UdpBlackhole,
                    FaultKind::LossBurst { p } => ArmedKind::LossBurst {
                        p,
                        rng: rng.fork(i as u64),
                    },
                    FaultKind::RateCollapse { rate } => ArmedKind::RateCollapse {
                        queue: Serializer::new(rate, COLLAPSE_QUEUE_CAPACITY),
                    },
                };
                ArmedWindow { window, kind }
            })
            .collect();
        FaultState { windows }
    }

    /// Applies every window active at `at` to a packet of `size` bytes
    /// classified as `class`. Drops short-circuit; rate collapses move
    /// the packet later in time (and later windows see the delayed time).
    pub(crate) fn apply(
        &mut self,
        class: TransportClass,
        mut at: SimTime,
        size: ByteCount,
    ) -> FaultOutcome {
        for armed in &mut self.windows {
            if !armed.window.active_at(at) {
                continue;
            }
            match &mut armed.kind {
                ArmedKind::Blackout => return FaultOutcome::Drop,
                ArmedKind::UdpBlackhole => {
                    if class == TransportClass::Udp {
                        return FaultOutcome::Drop;
                    }
                }
                ArmedKind::LossBurst { p, rng } => {
                    if rng.bernoulli(*p) {
                        return FaultOutcome::Drop;
                    }
                }
                ArmedKind::RateCollapse { queue } => match queue.enqueue(at, size) {
                    Some(t) => at = t,
                    None => return FaultOutcome::Drop,
                },
            }
        }
        FaultOutcome::Deliver(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h3cdn_sim_core::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn state(plan: FaultPlan) -> FaultState {
        FaultState::new(plan, &SimRng::seed_from(7))
    }

    #[test]
    fn blackout_drops_everything_inside_window_only() {
        let mut s = state(FaultPlan::new().blackout(t(10), t(20)).unwrap());
        for class in [
            TransportClass::Udp,
            TransportClass::Tcp,
            TransportClass::Other,
        ] {
            assert_eq!(
                s.apply(class, t(15), ByteCount::new(100)),
                FaultOutcome::Drop
            );
            assert_eq!(
                s.apply(class, t(5), ByteCount::new(100)),
                FaultOutcome::Deliver(t(5))
            );
            // `until` is exclusive: the link is back at t(20).
            assert_eq!(
                s.apply(class, t(20), ByteCount::new(100)),
                FaultOutcome::Deliver(t(20))
            );
        }
    }

    #[test]
    fn udp_blackhole_is_protocol_selective() {
        let mut s = state(FaultPlan::udp_blackhole_always());
        assert_eq!(
            s.apply(TransportClass::Udp, t(1), ByteCount::new(100)),
            FaultOutcome::Drop
        );
        assert_eq!(
            s.apply(TransportClass::Tcp, t(1), ByteCount::new(100)),
            FaultOutcome::Deliver(t(1))
        );
        assert_eq!(
            s.apply(TransportClass::Other, t(1), ByteCount::new(100)),
            FaultOutcome::Deliver(t(1))
        );
    }

    #[test]
    fn loss_burst_drops_at_configured_rate_and_is_deterministic() {
        let run = || {
            let mut s = state(
                FaultPlan::new()
                    .loss_burst(t(0), SimTime::MAX, 0.3)
                    .unwrap(),
            );
            (0..10_000)
                .map(|i| s.apply(TransportClass::Tcp, t(i), ByteCount::new(100)))
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run(), "loss bursts must replay identically");
        let drops = a.iter().filter(|o| **o == FaultOutcome::Drop).count();
        let rate = drops as f64 / a.len() as f64;
        assert!((rate - 0.3).abs() < 0.02, "burst rate {rate}");
    }

    #[test]
    fn rate_collapse_delays_then_drops_on_overflow() {
        // 8 Mbps = 1 byte/µs.
        let mut s = state(
            FaultPlan::new()
                .rate_collapse(t(0), SimTime::MAX, DataRate::from_mbps(8))
                .unwrap(),
        );
        let d1 = s.apply(TransportClass::Udp, t(0), ByteCount::new(1000));
        assert_eq!(
            d1,
            FaultOutcome::Deliver(t(0) + SimDuration::from_micros(1000))
        );
        // Saturate the shallow queue; eventually packets drop.
        let mut dropped = false;
        for _ in 0..200 {
            if s.apply(TransportClass::Udp, t(0), ByteCount::new(1500)) == FaultOutcome::Drop {
                dropped = true;
                break;
            }
        }
        assert!(dropped, "collapsed link must tail-drop under overload");
    }

    #[test]
    fn overlapping_windows_compose_in_order() {
        // A UDP blackhole over a rate collapse: TCP is delayed, UDP dies.
        let mut s = state(
            FaultPlan::new()
                .udp_blackhole(t(0), SimTime::MAX)
                .unwrap()
                .rate_collapse(t(0), SimTime::MAX, DataRate::from_mbps(8))
                .unwrap(),
        );
        assert_eq!(
            s.apply(TransportClass::Udp, t(0), ByteCount::new(1000)),
            FaultOutcome::Drop
        );
        assert_eq!(
            s.apply(TransportClass::Tcp, t(0), ByteCount::new(1000)),
            FaultOutcome::Deliver(t(0) + SimDuration::from_micros(1000))
        );
    }

    #[test]
    fn inverted_window_rejected() {
        assert_eq!(
            FaultPlan::new().blackout(t(10), t(5)),
            Err(FaultPlanError::InvertedWindow {
                from: t(10),
                until: t(5),
            })
        );
        let msg = FaultPlanError::InvertedWindow {
            from: t(10),
            until: t(5),
        }
        .to_string();
        assert!(msg.contains("ends before it starts"), "{msg}");
    }

    #[test]
    fn loss_burst_probability_validated() {
        assert_eq!(
            FaultPlan::new().loss_burst(t(0), t(1), 1.5),
            Err(FaultPlanError::LossProbabilityOutOfRange { p: 1.5 })
        );
        assert!(FaultPlan::new().loss_burst(t(0), t(1), f64::NAN).is_err());
        let msg = FaultPlanError::LossProbabilityOutOfRange { p: 1.5 }.to_string();
        assert!(msg.contains("out of range"), "{msg}");
    }

    #[test]
    fn valid_windows_build_and_errors_do_not_mutate() {
        // A failed builder step returns Err and the original plan value
        // was consumed; chaining with `?` therefore cannot half-build.
        let plan = FaultPlan::new()
            .blackout(t(1), t(2))
            .and_then(|p| p.loss_burst(t(3), t(4), 0.5))
            .unwrap();
        assert!(!plan.is_empty());
    }
}
