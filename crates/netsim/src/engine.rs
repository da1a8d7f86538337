//! The deterministic event loop that drives [`Node`]s over a [`Network`].

use h3cdn_sim_core::units::ByteCount;
use h3cdn_sim_core::{EventQueue, SimTime};

use crate::network::Network;
use crate::node::{Node, NodeCtx, NodeId, Outgoing};

/// Hard ceiling on dispatched events; hitting it means a node is
/// rescheduling itself unproductively, which is a bug worth a
/// [`StallReport`] rather than a silent hang.
const DEFAULT_EVENT_BUDGET: u64 = 500_000_000;

/// Why an [`Engine::run_until_checked`] call could not finish cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StallReason {
    /// The event budget was exhausted: some node is rescheduling itself
    /// unproductively (a runaway timer loop).
    BudgetExhausted {
        /// Events dispatched when the budget tripped.
        dispatched: u64,
    },
    /// The event queue drained while nodes still report open work: every
    /// remaining connection is stalled with no timer armed to rescue it
    /// (an all-stalled deadlock — e.g. an endpoint waiting forever on a
    /// peer that will never speak again).
    AllStalled,
}

/// One stalled node inside a [`StallReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct NodeStall {
    /// The stuck node.
    pub node: NodeId,
    /// The node's own description of its open work (stuck connection,
    /// pending request …), from [`Node::stall_detail`].
    pub detail: String,
    /// The last wakeup deadline this node armed, if it ever armed one —
    /// the timer that *should* have rescued it.
    pub last_armed: Option<SimTime>,
}

/// A structured diagnosis returned by [`Engine::run_until_checked`]
/// instead of a panic or a silent hang: which nodes are stuck, on what,
/// and what their last-armed timers were.
#[derive(Debug, Clone, PartialEq)]
pub struct StallReport {
    /// Virtual time at which the run gave up.
    pub at: SimTime,
    /// Why the run could not finish.
    pub(crate) reason: StallReason,
    /// Every node that still reports open work, in node-id order.
    pub(crate) stalls: Vec<NodeStall>,
}

impl std::fmt::Display for StallReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.reason {
            StallReason::BudgetExhausted { dispatched } => write!(
                f,
                "event budget exhausted at {} after {dispatched} dispatches: \
                 a node is rescheduling itself unproductively",
                self.at
            )?,
            StallReason::AllStalled => write!(
                f,
                "event queue drained at {} with open work on {} node(s)",
                self.at,
                self.stalls.len()
            )?,
        }
        for s in &self.stalls {
            write!(f, "\n  {}: {}", s.node, s.detail)?;
            match s.last_armed {
                Some(t) => write!(f, " (last-armed timer: {t})")?,
                None => write!(f, " (no timer ever armed)")?,
            }
        }
        Ok(())
    }
}

impl std::error::Error for StallReport {}

/// A discrete-event engine over a fixed set of nodes.
///
/// The engine pops the chronologically next event, dispatches it to the
/// owning node, routes any packets the node queued, and then re-reads the
/// node's [`Node::next_wakeup`] deadline (stale wakeups are filtered with a
/// per-node generation counter). The loop ends when no events remain.
pub struct Engine<N: Node> {
    net: Network,
    nodes: Vec<N>,
    queue: EventQueue<Ev<N::Packet>>,
    now: SimTime,
    timer_gen: Vec<u64>,
    last_armed: Vec<Option<SimTime>>,
    /// Deadline of the live (non-stale, not yet fired) wakeup per node,
    /// if one is in the queue. A re-arm that recomputes the same deadline
    /// is a no-op instead of a schedule + stale-entry churn.
    pending_wakeup: Vec<Option<SimTime>>,
    outbox: Vec<Outgoing<N::Packet>>,
    /// Spare buffer swapped with `outbox` while draining it, so the
    /// per-event flush allocates nothing in steady state.
    outbox_scratch: Vec<Outgoing<N::Packet>>,
    events_dispatched: u64,
    event_budget: u64,
}

impl<N: Node> std::fmt::Debug for Engine<N>
where
    N: std::fmt::Debug,
    N::Packet: std::fmt::Debug,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("pending_events", &self.queue.len())
            .field("events_dispatched", &self.events_dispatched)
            .finish()
    }
}

#[derive(Debug)]
enum Ev<P> {
    Arrival { src: NodeId, dst: NodeId, packet: P },
    Wakeup { node: NodeId, gen: u64 },
}

impl<N: Node> Engine<N> {
    /// Creates an engine over `net` with one entry in `nodes` per network
    /// node (index-aligned with the [`NodeId`]s the network handed out).
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` differs from `net.node_count()`.
    pub fn new(net: Network, nodes: Vec<N>) -> Self {
        assert_eq!(
            nodes.len(),
            net.node_count(),
            "one Node implementation required per network node"
        );
        let n = nodes.len();
        Engine {
            net,
            nodes,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            // One-time construction; steady state never reallocates.
            // h3cdn-lint: allow(hot-path-alloc)
            timer_gen: vec![0; n],
            // h3cdn-lint: allow(hot-path-alloc)
            last_armed: vec![None; n],
            // h3cdn-lint: allow(hot-path-alloc)
            pending_wakeup: vec![None; n],
            // h3cdn-lint: allow(hot-path-alloc)
            outbox: Vec::new(),
            // h3cdn-lint: allow(hot-path-alloc)
            outbox_scratch: Vec::new(),
            events_dispatched: 0,
            event_budget: DEFAULT_EVENT_BUDGET,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Shared access to the network fabric.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Shared access to a node.
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.index()]
    }

    /// Exclusive access to a node, for inspection between runs. Prefer
    /// [`Engine::with_node`] when the mutation can send packets or arm
    /// timers.
    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        &mut self.nodes[id.index()]
    }

    /// Replaces the event budget (default 5·10⁸ dispatches).
    pub fn set_event_budget(&mut self, budget: u64) {
        self.event_budget = budget;
    }

    /// Runs `f` against a node with a live [`NodeCtx`], then routes any
    /// packets it queued and re-arms its timer. This is how drivers start
    /// work (e.g. "begin fetching this page now").
    pub fn with_node<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut N, &mut NodeCtx<'_, N::Packet>) -> R,
    ) -> R {
        let mut ctx = NodeCtx::new(self.now, id, None, &mut self.outbox);
        let result = f(&mut self.nodes[id.index()], &mut ctx);
        self.flush_outbox(id);
        self.rearm(id);
        result
    }

    /// Injects a packet as if `src` had sent it to `dst` at the current
    /// time. Useful for tests; real traffic originates inside handlers.
    pub fn inject_packet(&mut self, src: NodeId, dst: NodeId, packet: N::Packet, size: ByteCount) {
        let class = N::classify(&packet);
        if let Some(at) = self.net.route_classified(src, dst, size, class, self.now) {
            self.queue.schedule(at, Ev::Arrival { src, dst, packet });
        }
    }

    /// Runs until the queue drains or the next event is later than
    /// `deadline` (pass [`SimTime::MAX`] to run to quiescence); returns
    /// the virtual time reached. Reaching `deadline` with events still
    /// queued is a normal stop, not a stall.
    ///
    /// # Errors
    ///
    /// Returns a structured [`StallReport`] instead of panicking or
    /// hanging when the simulation cannot finish: either the event budget
    /// tripped (runaway timer loop), or the event queue drained while
    /// nodes still report open work through [`Node::stall_detail`] (an
    /// all-stalled deadlock). The report names each stuck node, its open
    /// work, and its last-armed timer; the engine state remains
    /// inspectable afterwards.
    pub fn run_until_checked(&mut self, deadline: SimTime) -> Result<SimTime, StallReport> {
        self.arm_all();
        while let Some((at, ev)) = self.queue.pop_at_or_before(deadline) {
            self.now = at;
            self.events_dispatched += 1;
            if self.events_dispatched > self.event_budget {
                return Err(self.stall_report(StallReason::BudgetExhausted {
                    dispatched: self.events_dispatched,
                }));
            }
            match ev {
                Ev::Arrival { src, dst, packet } => {
                    let mut ctx = NodeCtx::new(self.now, dst, Some(src), &mut self.outbox);
                    // An unknown destination (only possible for events
                    // injected for a node that was never registered)
                    // silently drops the packet.
                    if let Some(target) = self.nodes.get_mut(dst.index()) {
                        target.handle_packet(packet, &mut ctx);
                    }
                    self.flush_outbox(dst);
                    self.rearm(dst);
                }
                Ev::Wakeup { node, gen } => {
                    if self.timer_gen.get(node.index()).is_none_or(|&g| g != gen) {
                        continue; // stale timer superseded by a re-arm
                    }
                    if let Some(pending) = self.pending_wakeup.get_mut(node.index()) {
                        *pending = None;
                    }
                    let mut ctx = NodeCtx::new(self.now, node, None, &mut self.outbox);
                    if let Some(target) = self.nodes.get_mut(node.index()) {
                        target.handle_wakeup(&mut ctx);
                    }
                    self.flush_outbox(node);
                    self.rearm(node);
                }
            }
        }
        if !self.queue.is_empty() {
            // The next event is beyond the deadline: a normal stop.
            self.now = deadline;
            return Ok(self.now);
        }
        let report = self.stall_report(StallReason::AllStalled);
        if !report.stalls.is_empty() {
            return Err(report);
        }
        Ok(self.now)
    }

    fn stall_report(&self, reason: StallReason) -> StallReport {
        let stalls = self
            .nodes
            .iter()
            .enumerate()
            .filter_map(|(i, node)| {
                node.stall_detail().map(|detail| NodeStall {
                    node: NodeId(i as u32),
                    detail,
                    last_armed: self.last_armed.get(i).copied().flatten(),
                })
            })
            .collect();
        StallReport {
            at: self.now,
            reason,
            stalls,
        }
    }

    /// Total events dispatched so far.
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// Consumes the engine, returning the network and nodes for
    /// post-run inspection.
    pub fn into_parts(self) -> (Network, Vec<N>) {
        (self.net, self.nodes)
    }

    fn arm_all(&mut self) {
        for i in 0..self.nodes.len() {
            self.rearm(NodeId(i as u32));
        }
    }

    fn flush_outbox(&mut self, src: NodeId) {
        // Swap the outbox with a spare buffer first: routing borrows the
        // network mutably and scheduling borrows the queue. The spare is
        // swapped back after the drain, so steady-state flushes allocate
        // nothing. Order must be preserved — delivering a burst in
        // reverse would look like network reordering and trigger spurious
        // fast retransmits.
        let mut outgoing = std::mem::take(&mut self.outbox_scratch);
        std::mem::swap(&mut self.outbox, &mut outgoing);
        for out in outgoing.drain(..) {
            let class = N::classify(&out.packet);
            if let Some(at) =
                self.net
                    .route_classified(src, out.dst, out.wire_size, class, self.now)
            {
                self.queue.schedule(
                    at,
                    Ev::Arrival {
                        src,
                        dst: out.dst,
                        packet: out.packet,
                    },
                );
            }
        }
        self.outbox_scratch = outgoing;
    }

    fn rearm(&mut self, id: NodeId) {
        let i = id.index();
        let Some(deadline) = self.nodes.get(i).and_then(super::node::Node::next_wakeup) else {
            // No deadline (or unknown node): invalidate whatever wakeup
            // may be pending.
            if let Some(g) = self.timer_gen.get_mut(i) {
                *g += 1;
            }
            if let Some(pending) = self.pending_wakeup.get_mut(i) {
                *pending = None;
            }
            return;
        };
        let at = deadline.max(self.now);
        if self.pending_wakeup.get(i).is_some_and(|&p| p == Some(at)) {
            // The live wakeup already fires at this deadline; scheduling
            // a fresh one would only add a stale entry to the queue.
            return;
        }
        let gen = match self.timer_gen.get_mut(i) {
            Some(g) => {
                *g += 1;
                *g
            }
            None => return,
        };
        if let Some(last) = self.last_armed.get_mut(i) {
            *last = Some(at);
        }
        if let Some(pending) = self.pending_wakeup.get_mut(i) {
            *pending = Some(at);
        }
        self.queue.schedule(at, Ev::Wakeup { node: id, gen });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::PathSpec;
    use h3cdn_sim_core::SimDuration;

    /// A node that counts arrivals and can fire a one-shot timer.
    #[derive(Debug, Default)]
    struct Counter {
        received: Vec<(SimTime, u32)>,
        wakeup_at: Option<SimTime>,
        woke: Vec<SimTime>,
    }

    impl Node for Counter {
        type Packet = u32;

        fn handle_packet(&mut self, packet: u32, ctx: &mut NodeCtx<'_, u32>) {
            self.received.push((ctx.now(), packet));
        }

        fn handle_wakeup(&mut self, ctx: &mut NodeCtx<'_, u32>) {
            self.woke.push(ctx.now());
            self.wakeup_at = None;
        }

        fn next_wakeup(&self) -> Option<SimTime> {
            self.wakeup_at
        }
    }

    fn engine_with(n: usize) -> Engine<Counter> {
        let mut net = Network::new(11);
        for _ in 0..n {
            net.add_node();
        }
        net.set_default_path(PathSpec::with_delay(SimDuration::from_millis(5)));
        Engine::new(net, (0..n).map(|_| Counter::default()).collect())
    }

    #[test]
    fn packet_arrives_after_path_delay() {
        let mut e = engine_with(2);
        e.inject_packet(NodeId(0), NodeId(1), 42, ByteCount::new(100));
        let end = e.run_until_checked(SimTime::MAX).expect("clean finish");
        assert_eq!(end, SimTime::ZERO + SimDuration::from_millis(5));
        assert_eq!(e.node(NodeId(1)).received, vec![(end, 42)]);
    }

    #[test]
    fn wakeup_fires_at_deadline() {
        let mut e = engine_with(1);
        let t = SimTime::ZERO + SimDuration::from_millis(30);
        e.node_mut(NodeId(0)).wakeup_at = Some(t);
        e.run_until_checked(SimTime::MAX).expect("clean finish");
        assert_eq!(e.node(NodeId(0)).woke, vec![t]);
    }

    #[test]
    fn stale_wakeups_are_filtered() {
        let mut e = engine_with(2);
        let t = SimTime::ZERO + SimDuration::from_millis(100);
        e.node_mut(NodeId(1)).wakeup_at = Some(t);
        // A packet arrival at 5 ms causes a re-arm; the node cancels its
        // timer during handling (handle_packet leaves wakeup_at as-is here,
        // so instead we cancel through with_node).
        e.inject_packet(NodeId(0), NodeId(1), 1, ByteCount::new(100));
        e.run_until_checked(SimTime::ZERO + SimDuration::from_millis(10))
            .expect("deadline stop");
        e.with_node(NodeId(1), |n, _| n.wakeup_at = None);
        e.run_until_checked(SimTime::MAX).expect("clean finish");
        assert!(e.node(NodeId(1)).woke.is_empty(), "cancelled timer fired");
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut e = engine_with(1);
        e.node_mut(NodeId(0)).wakeup_at = Some(SimTime::ZERO + SimDuration::from_millis(50));
        let reached = e
            .run_until_checked(SimTime::ZERO + SimDuration::from_millis(20))
            .expect("deadline stop");
        assert_eq!(reached, SimTime::ZERO + SimDuration::from_millis(20));
        assert!(e.node(NodeId(0)).woke.is_empty());
        // Resuming finishes the pending work.
        e.run_until_checked(SimTime::MAX).expect("clean finish");
        assert_eq!(e.node(NodeId(0)).woke.len(), 1);
    }

    #[test]
    fn with_node_flushes_sends() {
        let mut e = engine_with(2);
        e.with_node(NodeId(0), |_n, ctx| {
            ctx.send(NodeId(1), 7, ByteCount::new(100));
        });
        e.run_until_checked(SimTime::MAX).expect("clean finish");
        assert_eq!(e.node(NodeId(1)).received.len(), 1);
    }

    /// Always asks to wake immediately — an intentional runaway bug.
    #[derive(Debug)]
    struct Spinner;
    impl Node for Spinner {
        type Packet = ();
        fn handle_packet(&mut self, _p: (), _ctx: &mut NodeCtx<'_, ()>) {}
        fn handle_wakeup(&mut self, _ctx: &mut NodeCtx<'_, ()>) {}
        fn next_wakeup(&self) -> Option<SimTime> {
            Some(SimTime::ZERO)
        }
        fn stall_detail(&self) -> Option<String> {
            Some("spinning on a zero-delay timer".to_string())
        }
    }

    fn spinner_engine() -> Engine<Spinner> {
        let mut net = Network::new(1);
        net.add_node();
        let mut e = Engine::new(net, vec![Spinner]);
        e.set_event_budget(1_000);
        e
    }

    #[test]
    fn run_checked_reports_budget_exhaustion() {
        let mut e = spinner_engine();
        let report = e
            .run_until_checked(SimTime::MAX)
            .expect_err("runaway loop must be caught");
        assert_eq!(
            report.reason,
            StallReason::BudgetExhausted { dispatched: 1_001 }
        );
        assert_eq!(report.stalls.len(), 1);
        assert_eq!(report.stalls[0].node, NodeId(0));
        assert_eq!(report.stalls[0].last_armed, Some(SimTime::ZERO));
        let text = report.to_string();
        assert!(text.contains("event budget exhausted"), "{text}");
        assert!(text.contains("spinning"), "{text}");
    }

    #[test]
    fn run_checked_reports_all_stalled_deadlock() {
        /// Claims open work but never arms a timer — a deadlocked
        /// endpoint waiting on a peer that will never speak.
        #[derive(Debug)]
        struct Stuck;
        impl Node for Stuck {
            type Packet = ();
            fn handle_packet(&mut self, _p: (), _ctx: &mut NodeCtx<'_, ()>) {}
            fn handle_wakeup(&mut self, _ctx: &mut NodeCtx<'_, ()>) {}
            fn next_wakeup(&self) -> Option<SimTime> {
                None
            }
            fn stall_detail(&self) -> Option<String> {
                Some("conn#1 handshake in flight, nothing armed".to_string())
            }
        }
        let mut net = Network::new(2);
        net.add_node();
        let mut e = Engine::new(net, vec![Stuck]);
        let report = e
            .run_until_checked(SimTime::MAX)
            .expect_err("deadlock must be diagnosed");
        assert_eq!(report.reason, StallReason::AllStalled);
        assert_eq!(report.stalls[0].last_armed, None);
        assert!(report.to_string().contains("conn#1 handshake in flight"));
    }

    #[test]
    fn run_checked_clean_finish_is_ok() {
        let mut e = engine_with(2);
        e.inject_packet(NodeId(0), NodeId(1), 42, ByteCount::new(100));
        let end = e.run_until_checked(SimTime::MAX).expect("quiescent finish");
        assert_eq!(end, SimTime::ZERO + SimDuration::from_millis(5));
    }

    #[test]
    fn deadline_stop_is_not_a_stall() {
        // Reaching the deadline with events still queued is a normal
        // stop, not a drained-queue deadlock — even for a node that
        // reports open work.
        #[derive(Debug)]
        struct Busy;
        impl Node for Busy {
            type Packet = ();
            fn handle_packet(&mut self, _p: (), _ctx: &mut NodeCtx<'_, ()>) {}
            fn handle_wakeup(&mut self, _ctx: &mut NodeCtx<'_, ()>) {}
            fn next_wakeup(&self) -> Option<SimTime> {
                Some(SimTime::ZERO + SimDuration::from_millis(50))
            }
            fn stall_detail(&self) -> Option<String> {
                Some("request outstanding".to_string())
            }
        }
        let mut net = Network::new(3);
        net.add_node();
        let mut e = Engine::new(net, vec![Busy]);
        let reached = e
            .run_until_checked(SimTime::ZERO + SimDuration::from_millis(20))
            .expect("deadline stop is normal");
        assert_eq!(reached, SimTime::ZERO + SimDuration::from_millis(20));
    }

    #[test]
    fn engine_routes_through_protocol_selective_faults() {
        /// Packets carry their own transport class: 0 = UDP, 1 = TCP.
        #[derive(Debug, Default)]
        struct Classified {
            received: Vec<u8>,
        }
        impl Node for Classified {
            type Packet = u8;
            fn handle_packet(&mut self, p: u8, _ctx: &mut NodeCtx<'_, u8>) {
                self.received.push(p);
            }
            fn handle_wakeup(&mut self, _ctx: &mut NodeCtx<'_, u8>) {}
            fn next_wakeup(&self) -> Option<SimTime> {
                None
            }
            fn classify(packet: &u8) -> crate::fault::TransportClass {
                match packet {
                    0 => crate::fault::TransportClass::Udp,
                    _ => crate::fault::TransportClass::Tcp,
                }
            }
        }
        let mut net = Network::new(6);
        let a = net.add_node();
        let b = net.add_node();
        net.set_default_path(PathSpec::with_delay(SimDuration::from_millis(1)));
        net.set_fault_plan(a, b, crate::fault::FaultPlan::udp_blackhole_always());
        let mut e = Engine::new(net, vec![Classified::default(), Classified::default()]);
        e.with_node(a, |_n, ctx| {
            ctx.send(b, 0, ByteCount::new(100)); // UDP: blackholed
            ctx.send(b, 1, ByteCount::new(100)); // TCP: passes
        });
        e.run_until_checked(SimTime::MAX).expect("clean finish");
        assert_eq!(e.node(b).received, vec![1]);
        assert_eq!(e.network().fault_dropped(), 1);
    }

    #[test]
    #[should_panic(expected = "one Node implementation required")]
    fn node_count_mismatch_rejected() {
        let mut net = Network::new(1);
        net.add_node();
        let _ = Engine::<Counter>::new(net, vec![]);
    }

    #[test]
    fn into_parts_returns_state() {
        let mut e = engine_with(2);
        e.inject_packet(NodeId(0), NodeId(1), 3, ByteCount::new(100));
        e.run_until_checked(SimTime::MAX).expect("clean finish");
        let (net, nodes) = e.into_parts();
        assert_eq!(net.delivered(), 1);
        assert_eq!(nodes[1].received.len(), 1);
    }
}
