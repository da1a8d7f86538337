//! Path specifications, queue disciplines, and FIFO serialisers.
//!
//! A [`PathSpec`] describes one direction of a network path: propagation
//! delay, an optional bottleneck rate, and a loss model. A `Serializer`
//! models transmission onto a rate-limited link with a bounded FIFO queue —
//! this is where queueing delay and tail-drop come from. Every serialiser
//! runs one of the [`QueueDiscipline`]s: a deep (buffer-bloated) or shallow
//! tail-drop FIFO, or CoDel, the sojourn-based AQM — and keeps
//! [`QueueStats`] counters (drops, peak depth, per-packet sojourn) so
//! experiments can explain *where* latency came from.

use h3cdn_sim_core::units::{ByteCount, DataRate};
use h3cdn_sim_core::{SimDuration, SimTime};

use crate::loss::LossModel;

/// One direction of a path between two nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathSpec {
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Maximum extra per-packet delay, drawn uniformly from
    /// `[0, jitter]`. Non-zero jitter *reorders* packets — the stress
    /// case for transport reassembly and loss-detection thresholds.
    pub jitter: SimDuration,
    /// Bottleneck rate along the path itself, or `None` for "not the
    /// bottleneck" (node access links still apply).
    pub rate: Option<DataRate>,
    /// Random loss process applied per packet.
    pub loss: LossModel,
}

impl PathSpec {
    /// A loss-free, rate-unconstrained path with the given one-way delay.
    pub fn with_delay(delay: SimDuration) -> Self {
        PathSpec {
            delay,
            jitter: SimDuration::ZERO,
            rate: None,
            loss: LossModel::None,
        }
    }

    /// Sets the maximum per-packet jitter (builder style).
    pub fn jitter(mut self, jitter: SimDuration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Sets the bottleneck rate (builder style).
    pub fn rate(mut self, rate: DataRate) -> Self {
        self.rate = Some(rate);
        self
    }

    /// Sets the loss model (builder style).
    pub fn loss(mut self, loss: LossModel) -> Self {
        self.loss = loss;
        self
    }

    /// The round-trip propagation time of a symmetric path using this spec
    /// in both directions.
    pub fn rtt(&self) -> SimDuration {
        self.delay * 2
    }
}

impl Default for PathSpec {
    /// A 1 ms, loss-free, unconstrained path.
    fn default() -> Self {
        PathSpec::with_delay(SimDuration::from_millis(1))
    }
}

/// A full-size packet, the unit queue capacities are expressed in.
const MTU: u64 = 1500;

/// CoDel's target sojourn: queueing delay above this for a sustained
/// interval means the queue is standing, not absorbing a burst.
const CODEL_TARGET: SimDuration = SimDuration::from_millis(5);

/// CoDel's initial interval — one worst-case RTT of the paths we model.
const CODEL_INTERVAL: SimDuration = SimDuration::from_millis(100);

/// How a serialiser's queue admits, delays, and sheds packets.
///
/// `DropTailDeep` reproduces the pre-discipline behaviour exactly (the
/// buffer-bloated access-router default), so existing seeds replay
/// bit-identically. `DropTailShallow` bounds worst-case sojourn by
/// capacity instead; `CoDel` keeps the deep buffer for bursts but sheds
/// packets once sojourn stays above target for an interval — the AQM
/// regime where BBR and CUBIC behave most differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueDiscipline {
    /// Deep tail-drop FIFO: 768 full-size packets (the bufferbloat case).
    DropTailDeep,
    /// Shallow tail-drop FIFO: 64 full-size packets.
    DropTailShallow,
    /// CoDel (target 5 ms, interval 100 ms) over the deep buffer.
    CoDel,
}

impl QueueDiscipline {
    /// Stable label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            QueueDiscipline::DropTailDeep => "droptail-deep",
            QueueDiscipline::DropTailShallow => "droptail-shallow",
            QueueDiscipline::CoDel => "codel",
        }
    }

    /// Queue capacity in bytes.
    pub(crate) fn capacity(self) -> ByteCount {
        match self {
            QueueDiscipline::DropTailDeep | QueueDiscipline::CoDel => ByteCount::new(768 * MTU),
            QueueDiscipline::DropTailShallow => ByteCount::new(64 * MTU),
        }
    }
}

impl std::fmt::Display for QueueDiscipline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Aggregated queue counters for one (or a merged set of) serialisers.
///
/// Sojourn is measured per accepted packet as the span from the instant
/// it was offered to the instant its transmission completes — queueing
/// wait plus its own serialisation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueStats {
    /// Packets accepted (each contributes one sojourn sample).
    pub transmitted: u64,
    /// Packets dropped because the queue was full.
    pub tail_dropped: u64,
    /// Packets shed by the AQM (CoDel) while the queue had room.
    pub aqm_dropped: u64,
    /// Sum of per-packet sojourns, nanoseconds (mean = sum/transmitted).
    pub sum_sojourn_ns: u64,
    /// Largest single-packet sojourn observed, nanoseconds.
    pub max_sojourn_ns: u64,
    /// Peak queue depth observed, bytes.
    pub max_backlog_bytes: u64,
}

impl QueueStats {
    /// Folds another counter set into this one (sums and maxima).
    pub fn merge(&mut self, other: &QueueStats) {
        self.transmitted += other.transmitted;
        self.tail_dropped += other.tail_dropped;
        self.aqm_dropped += other.aqm_dropped;
        self.sum_sojourn_ns = self.sum_sojourn_ns.saturating_add(other.sum_sojourn_ns);
        self.max_sojourn_ns = self.max_sojourn_ns.max(other.max_sojourn_ns);
        self.max_backlog_bytes = self.max_backlog_bytes.max(other.max_backlog_bytes);
    }

    /// Total packets dropped at queues (tail + AQM).
    pub fn dropped(&self) -> u64 {
        self.tail_dropped + self.aqm_dropped
    }

    /// Mean per-packet sojourn in milliseconds (0 when nothing
    /// transmitted).
    pub fn mean_sojourn_ms(&self) -> f64 {
        if self.transmitted == 0 {
            return 0.0;
        }
        self.sum_sojourn_ns as f64 / self.transmitted as f64 / 1e6
    }
}

/// CoDel control-law state (enqueue-time adaptation).
///
/// The fluid serialiser knows a packet's full sojourn the moment it is
/// offered, so the classic dequeue-time sojourn test runs at enqueue
/// instead: once sojourn has stayed above `CODEL_TARGET` for a full
/// `CODEL_INTERVAL`, the discipline enters a dropping state and sheds
/// packets at `interval/√count` spacing until sojourn falls back under
/// target. Fully deterministic — no randomness involved.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CoDelState {
    /// When sojourn first stayed above target (plus one interval), if it
    /// currently is.
    first_above: Option<SimTime>,
    /// Whether the control law is actively shedding.
    dropping: bool,
    /// Next scheduled shed while dropping.
    drop_next: SimTime,
    /// Drops in the current dropping episode (drives the √ control law).
    count: u32,
}

impl CoDelState {
    fn new() -> Self {
        CoDelState {
            first_above: None,
            dropping: false,
            drop_next: SimTime::ZERO,
            count: 0,
        }
    }

    /// Interval scaled by the control law: `interval / sqrt(count)`.
    fn control_law(count: u32) -> SimDuration {
        CODEL_INTERVAL.mul_f64(1.0 / f64::from(count.max(1)).sqrt())
    }

    /// Decides whether the packet offered at `now` with the given sojourn
    /// should be shed. `backlog` is the queue depth *before* this packet.
    fn should_drop(&mut self, now: SimTime, sojourn: SimDuration, backlog: ByteCount) -> bool {
        if sojourn < CODEL_TARGET || backlog.as_u64() < MTU {
            // Below target (or the queue is nearly empty): leave any
            // dropping episode and re-arm the interval timer.
            self.first_above = None;
            self.dropping = false;
            return false;
        }
        let Some(first_above) = self.first_above else {
            self.first_above = Some(now + CODEL_INTERVAL);
            return false;
        };
        if self.dropping {
            if now >= self.drop_next {
                self.count = self.count.saturating_add(1);
                self.drop_next += Self::control_law(self.count);
                return true;
            }
            return false;
        }
        if now >= first_above {
            // Sojourn stayed above target for a whole interval: start
            // shedding.
            self.dropping = true;
            self.count = 1;
            self.drop_next = now + Self::control_law(self.count);
            return true;
        }
        false
    }
}

/// A FIFO link serialiser with a bounded queue.
///
/// Packets handed to [`Serializer::enqueue`] at time `t` finish
/// transmitting at `max(t, link-free-time) + size/rate` — at 8 Mbps a
/// 1000 B packet offered to an idle link at `t0` completes at
/// `t0 + 1000 µs`, and a second packet offered at the same instant
/// queues behind it and completes 1000 µs later. If accepting a packet
/// would hold more than `capacity` bytes of backlog, it is tail-dropped;
/// under [`QueueDiscipline::CoDel`] packets may additionally be shed by
/// the AQM while the queue still has room.
#[derive(Debug, Clone)]
pub(crate) struct Serializer {
    rate: DataRate,
    capacity: ByteCount,
    busy_until: SimTime,
    backlog: ByteCount,
    backlog_as_of: SimTime,
    /// AQM state; `None` for the tail-drop disciplines.
    codel: Option<CoDelState>,
    stats: QueueStats,
}

impl Serializer {
    /// Creates a tail-drop serialiser with the given rate and queue
    /// capacity (the pre-discipline constructor; behaviour unchanged).
    pub fn new(rate: DataRate, capacity: ByteCount) -> Self {
        Serializer {
            rate,
            capacity,
            busy_until: SimTime::ZERO,
            backlog: ByteCount::ZERO,
            backlog_as_of: SimTime::ZERO,
            codel: None,
            stats: QueueStats::default(),
        }
    }

    /// Creates a serialiser running the given queue discipline.
    pub fn with_discipline(rate: DataRate, discipline: QueueDiscipline) -> Self {
        let mut s = Serializer::new(rate, discipline.capacity());
        if discipline == QueueDiscipline::CoDel {
            s.codel = Some(CoDelState::new());
        }
        s
    }

    /// Number of packets tail-dropped so far.
    #[cfg(test)]
    pub fn dropped(&self) -> u64 {
        self.stats.tail_dropped
    }

    /// Number of packets accepted so far.
    #[cfg(test)]
    pub fn transmitted(&self) -> u64 {
        self.stats.transmitted
    }

    /// Snapshot of this queue's counters.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Changes the serialisation rate at `now` (continuous path
    /// dynamics). Bytes drained so far are accounted at the old rate;
    /// transmissions already committed keep their completion times (the
    /// fluid-model approximation), and new arrivals serialise at the new
    /// rate.
    pub fn set_rate(&mut self, now: SimTime, rate: DataRate) {
        if rate.as_bps() == self.rate.as_bps() {
            return;
        }
        self.drain(now);
        self.rate = rate;
    }

    /// Offers a packet of `size` bytes at time `now`.
    ///
    /// Returns the time serialisation completes, or `None` when the
    /// packet is dropped (queue full, or shed by the AQM).
    pub fn enqueue(&mut self, now: SimTime, size: ByteCount) -> Option<SimTime> {
        self.drain(now);
        if (self.backlog + size).as_u64() > self.capacity.as_u64() {
            self.stats.tail_dropped += 1;
            return None;
        }
        let start = self.busy_until.max(now);
        let done = start + self.rate.transmission_time(size);
        let sojourn = done.saturating_duration_since(now);
        if let Some(codel) = &mut self.codel {
            if codel.should_drop(now, sojourn, self.backlog) {
                self.stats.aqm_dropped += 1;
                return None;
            }
        }
        self.busy_until = done;
        self.backlog += size;
        self.stats.transmitted += 1;
        self.stats.sum_sojourn_ns = self.stats.sum_sojourn_ns.saturating_add(sojourn.as_nanos());
        self.stats.max_sojourn_ns = self.stats.max_sojourn_ns.max(sojourn.as_nanos());
        self.stats.max_backlog_bytes = self.stats.max_backlog_bytes.max(self.backlog.as_u64());
        Some(done)
    }

    /// Removes already-transmitted bytes from the backlog account.
    fn drain(&mut self, now: SimTime) {
        if now <= self.backlog_as_of {
            return;
        }
        let elapsed = now - self.backlog_as_of;
        let drained_bits = elapsed.as_secs_f64() * self.rate.as_bps() as f64;
        let drained = ByteCount::new((drained_bits / 8.0) as u64);
        self.backlog = self.backlog.saturating_sub(drained);
        self.backlog_as_of = now;
        if now >= self.busy_until {
            self.backlog = ByteCount::ZERO;
        }
    }

    /// Resets queue state between independent runs.
    #[cfg(test)]
    pub fn reset(&mut self) {
        self.busy_until = SimTime::ZERO;
        self.backlog = ByteCount::ZERO;
        self.backlog_as_of = SimTime::ZERO;
        if self.codel.is_some() {
            self.codel = Some(CoDelState::new());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbps8() -> Serializer {
        // 8 Mbps = 1 byte per microsecond: easy arithmetic.
        Serializer::new(DataRate::from_mbps(8), ByteCount::new(5_000))
    }

    #[test]
    fn idle_link_transmits_immediately() {
        let mut s = mbps8();
        let done = s.enqueue(SimTime::ZERO, ByteCount::new(500)).unwrap();
        assert_eq!(done, SimTime::ZERO + SimDuration::from_micros(500));
    }

    #[test]
    fn back_to_back_packets_queue() {
        let mut s = mbps8();
        let d1 = s.enqueue(SimTime::ZERO, ByteCount::new(1000)).unwrap();
        let d2 = s.enqueue(SimTime::ZERO, ByteCount::new(1000)).unwrap();
        assert_eq!(d2 - d1, SimDuration::from_micros(1000));
    }

    #[test]
    fn queue_overflow_drops() {
        let mut s = mbps8();
        // Capacity 5000 B: five 1000 B packets fit, the sixth drops.
        for _ in 0..5 {
            assert!(s.enqueue(SimTime::ZERO, ByteCount::new(1000)).is_some());
        }
        assert!(s.enqueue(SimTime::ZERO, ByteCount::new(1000)).is_none());
        assert_eq!(s.dropped(), 1);
        assert_eq!(s.transmitted(), 5);
    }

    #[test]
    fn queue_drains_over_time() {
        let mut s = mbps8();
        for _ in 0..5 {
            s.enqueue(SimTime::ZERO, ByteCount::new(1000));
        }
        // After 2 ms, 2000 B have drained; a new packet fits again.
        let later = SimTime::ZERO + SimDuration::from_millis(2);
        assert!(s.enqueue(later, ByteCount::new(1000)).is_some());
    }

    #[test]
    fn idle_gap_resets_backlog() {
        let mut s = mbps8();
        s.enqueue(SimTime::ZERO, ByteCount::new(4000));
        let much_later = SimTime::ZERO + SimDuration::from_secs(1);
        let done = s.enqueue(much_later, ByteCount::new(1000)).unwrap();
        assert_eq!(done, much_later + SimDuration::from_micros(1000));
    }

    #[test]
    fn path_spec_builders() {
        let spec = PathSpec::with_delay(SimDuration::from_millis(25))
            .rate(DataRate::from_mbps(50))
            .loss(LossModel::iid_percent(1.0));
        assert_eq!(spec.delay, SimDuration::from_millis(25));
        assert_eq!(spec.rtt(), SimDuration::from_millis(50));
        assert_eq!(spec.rate, Some(DataRate::from_mbps(50)));
    }

    #[test]
    fn reset_clears_state() {
        let mut s = mbps8();
        for _ in 0..5 {
            s.enqueue(SimTime::ZERO, ByteCount::new(1000));
        }
        s.reset();
        let done = s.enqueue(SimTime::ZERO, ByteCount::new(1000)).unwrap();
        assert_eq!(done, SimTime::ZERO + SimDuration::from_micros(1000));
    }

    #[test]
    fn discipline_capacities_and_labels() {
        assert_eq!(
            QueueDiscipline::DropTailDeep.capacity(),
            ByteCount::new(768 * 1500)
        );
        assert_eq!(
            QueueDiscipline::DropTailShallow.capacity(),
            ByteCount::new(64 * 1500)
        );
        assert_eq!(
            QueueDiscipline::CoDel.capacity(),
            QueueDiscipline::DropTailDeep.capacity()
        );
        assert_eq!(QueueDiscipline::CoDel.to_string(), "codel");
        assert_eq!(QueueDiscipline::DropTailDeep.label(), "droptail-deep");
    }

    #[test]
    fn deep_droptail_matches_legacy_serializer() {
        // `with_discipline(DropTailDeep)` must behave exactly like the
        // pre-discipline constructor at the default capacity.
        let mut legacy = Serializer::new(DataRate::from_mbps(8), ByteCount::new(768 * 1500));
        let mut deep =
            Serializer::with_discipline(DataRate::from_mbps(8), QueueDiscipline::DropTailDeep);
        for i in 0..2000u64 {
            let now = SimTime::from_nanos(i * 50_000);
            assert_eq!(
                legacy.enqueue(now, ByteCount::new(1500)),
                deep.enqueue(now, ByteCount::new(1500))
            );
        }
        assert_eq!(legacy.stats(), deep.stats());
    }

    #[test]
    fn codel_sheds_standing_queue_but_passes_bursts() {
        let mut codel = Serializer::with_discipline(DataRate::from_mbps(8), QueueDiscipline::CoDel);
        // A short burst (sojourn below 5 ms): everything passes.
        for _ in 0..4 {
            assert!(codel.enqueue(SimTime::ZERO, ByteCount::new(1000)).is_some());
        }
        assert_eq!(codel.stats().aqm_dropped, 0);

        // Sustained overload: offer 1500 B every 1 ms against an 8 Mbps
        // (667 B/ms) link for two seconds. The standing queue's sojourn
        // blows through the target and CoDel starts shedding long before
        // the deep buffer tail-drops.
        let mut codel = Serializer::with_discipline(DataRate::from_mbps(8), QueueDiscipline::CoDel);
        let mut tail =
            Serializer::with_discipline(DataRate::from_mbps(8), QueueDiscipline::DropTailDeep);
        for i in 0..2000u64 {
            let now = SimTime::ZERO + SimDuration::from_millis(i);
            codel.enqueue(now, ByteCount::new(1500));
            tail.enqueue(now, ByteCount::new(1500));
        }
        let c = codel.stats();
        let t = tail.stats();
        assert!(c.aqm_dropped > 0, "CoDel must shed: {c:?}");
        // Against an *unresponsive* source the sqrt control law ramps
        // slowly, so only strict improvement is asserted here; the big
        // wins show up with responsive (congestion-controlled) flows.
        assert!(
            c.mean_sojourn_ms() < t.mean_sojourn_ms(),
            "CoDel must bound sojourn: codel {} ms vs droptail {} ms",
            c.mean_sojourn_ms(),
            t.mean_sojourn_ms()
        );
        assert!(t.max_backlog_bytes > c.max_backlog_bytes);
    }

    #[test]
    fn shallow_droptail_bounds_sojourn_by_capacity() {
        let mut s =
            Serializer::with_discipline(DataRate::from_mbps(8), QueueDiscipline::DropTailShallow);
        for i in 0..2000u64 {
            let now = SimTime::ZERO + SimDuration::from_millis(i);
            s.enqueue(now, ByteCount::new(1500));
        }
        let stats = s.stats();
        assert!(stats.tail_dropped > 0);
        // 64 * 1500 B at 8 Mbps = 96 ms worst-case sojourn.
        assert!(
            stats.max_sojourn_ns <= SimDuration::from_millis(97).as_nanos(),
            "sojourn {} ns exceeds the shallow bound",
            stats.max_sojourn_ns
        );
    }

    #[test]
    fn set_rate_drains_at_old_rate_first() {
        let mut s = mbps8();
        s.enqueue(SimTime::ZERO, ByteCount::new(4000));
        // After 1 ms at 8 Mbps, 1000 B drained; then the link slows 10x.
        s.set_rate(
            SimTime::ZERO + SimDuration::from_millis(1),
            DataRate::from_kbps(800),
        );
        // A 100 B packet at 800 kbps takes 1 ms to serialise.
        let done = s
            .enqueue(
                SimTime::ZERO + SimDuration::from_millis(1),
                ByteCount::new(100),
            )
            .unwrap();
        // Committed transmissions keep their schedule: busy_until is 4 ms
        // (4000 B at 8 Mbps), then 1 ms more for the new packet.
        assert_eq!(done, SimTime::ZERO + SimDuration::from_millis(5));
    }

    #[test]
    fn queue_stats_merge_sums_and_maxes() {
        let mut a = QueueStats {
            transmitted: 2,
            tail_dropped: 1,
            aqm_dropped: 0,
            sum_sojourn_ns: 10,
            max_sojourn_ns: 8,
            max_backlog_bytes: 100,
        };
        let b = QueueStats {
            transmitted: 3,
            tail_dropped: 0,
            aqm_dropped: 2,
            sum_sojourn_ns: 5,
            max_sojourn_ns: 20,
            max_backlog_bytes: 50,
        };
        a.merge(&b);
        assert_eq!(a.transmitted, 5);
        assert_eq!(a.dropped(), 3);
        assert_eq!(a.sum_sojourn_ns, 15);
        assert_eq!(a.max_sojourn_ns, 20);
        assert_eq!(a.max_backlog_bytes, 100);
        assert!((a.mean_sojourn_ms() - 15.0 / 5.0 / 1e6).abs() < 1e-15);
    }
}
