//! The browser client host: resource scheduling, connection pooling,
//! session resumption, and HAR emission.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use h3cdn_cdn::locedge;
use h3cdn_har::{EntryTiming, HarEntry, HarPage};
use h3cdn_http::{ClientConn, HttpEvent, HttpVersion, RequestMeta};
use h3cdn_netsim::{NodeCtx, NodeId};
use h3cdn_sim_core::units::ByteCount;
use h3cdn_sim_core::{SimDuration, SimRng, SimTime};
use h3cdn_transport::duplex::Driveable;
use h3cdn_transport::handshake::TlsVersion;
use h3cdn_transport::quic::QuicConfig;
use h3cdn_transport::tcp::TcpConfig;
use h3cdn_transport::tls::{TicketStore, TlsConfig};
use h3cdn_transport::{CcAlgorithm, CloseReason, ConnId, WirePacket};
use h3cdn_web::{DomainId, Hosting, Resource};

use crate::config::ProtocolMode;
use crate::host::{Deadlines, PortTable, Tracked};
use crate::resilience::{BrokenQuicCache, ResilienceStats};

/// Browsers open at most this many parallel H1 connections per host.
const H1_POOL_LIMIT: usize = 6;

/// Floor on the QUIC-vs-TCP race delay: even on very short paths the
/// browser gives QUIC this long before starting the TCP fallback job
/// (Chrome's delayed-TCP connection race).
const RACE_DELAY_FLOOR: SimDuration = SimDuration::from_millis(300);

/// RTT multiple granted to the QUIC handshake before the TCP racer
/// starts: a healthy handshake needs one round trip, so five leaves room
/// for a probe-timeout recovery without ever racing on a clean path.
const RACE_DELAY_RTTS: u64 = 5;

/// Base delay of the exponential backoff applied to TCP re-dials after a
/// connection failure.
const RETRY_BASE: SimDuration = SimDuration::from_millis(250);

/// Cap on backoff doublings (250 ms × 2⁷ = 32 s between re-dials).
const RETRY_MAX_EXPONENT: u32 = 7;

/// The deterministic re-dial backoff schedule: `attempt` 0 waits 250 ms,
/// each further attempt doubles, capped at 32 s. Repeated edge refusals
/// walk exactly this sequence.
pub(crate) fn redial_backoff(attempt: u32) -> SimDuration {
    RETRY_BASE * (1u64 << attempt.min(RETRY_MAX_EXPONENT))
}

/// Session-ticket lifetime granted by our servers (a common production
/// value; well beyond any consecutive-browsing session).
const TICKET_LIFETIME: SimDuration = SimDuration::from_secs(7200);

/// Nominal request serialisation time reported as HAR `send`.
const SEND_MS: f64 = 0.1;

/// Everything the client needs to know about one domain it will talk to.
#[derive(Debug, Clone)]
pub(crate) struct DomainInfo {
    /// Hostname (for HAR urls and LocEdge hostname rules).
    pub name: String,
    /// The server node for this domain.
    pub node: NodeId,
    /// Expected round-trip time to that node (initial RTT hint).
    pub rtt: SimDuration,
    /// Whether TCP connections negotiate TLS 1.2 instead of 1.3.
    pub tls12: bool,
    /// Resolver round trip for this domain's first lookup (4–25 ms,
    /// stable per domain); later requests find the name cached.
    pub dns_delay: SimDuration,
    /// The hosting provider; `None` for origins.
    pub provider: Option<h3cdn_cdn::Provider>,
}

/// One planned fetch: the resource plus its place in the discovery DAG.
#[derive(Debug, Clone)]
pub(crate) struct PlannedRequest {
    /// The workload resource.
    pub resource: Resource,
    /// Indices of resources revealed when this one completes.
    pub children: Vec<usize>,
}

#[derive(Debug)]
struct ConnInfo {
    domain: DomainId,
    /// Pump round this connection was created in. A connection born
    /// mid-round sits that round out, exactly like the full scan that
    /// snapshotted the id list at round start.
    born_round: u64,
}

#[derive(Debug, Default, Clone)]
struct EntryState {
    dispatched_at: Option<SimTime>,
    dns_ms: f64,
    conn: Option<ConnId>,
    creator: bool,
    headers_at: Option<SimTime>,
    done_at: Option<SimTime>,
}

/// The simulated browser for one page visit.
#[derive(Debug)]
pub(crate) struct ClientHost {
    me: NodeId,
    mode: ProtocolMode,
    /// Cold Alt-Svc cache: H3-capable domains must be discovered via an
    /// H2 response before H3 is used.
    alt_svc_discovery: bool,
    /// Domains whose `alt-svc: h3` advertisement has been seen (or the
    /// whole H3-capable set when the cache starts warm).
    alt_svc_known: std::collections::BTreeSet<DomainId>,
    /// Domains that can advertise H3 at all.
    h3_domains: std::collections::BTreeSet<DomainId>,
    cc: CcAlgorithm,
    plan: Vec<PlannedRequest>,
    domain_info: HashMap<DomainId, DomainInfo>,
    tickets: TicketStore,
    /// Every connection of the visit, by port.
    conns: PortTable<ClientConn, ConnInfo>,
    pools: BTreeMap<(DomainId, HttpVersion), Vec<ConnId>>,
    entries: Vec<EntryState>,
    index_of_request: HashMap<u64, usize>,
    started: bool,
    /// Instant the visit begins (first dispatch). `SimTime::ZERO` for a
    /// solo visit; swarm drivers stagger client arrivals with it.
    start_at: SimTime,
    remaining: usize,
    page_done_at: Option<SimTime>,
    har_rng: SimRng,
    /// Domain → instant its name resolution completes.
    dns_resolved_at: BTreeMap<DomainId, SimTime>,
    /// Requests parked until their domain resolves (or until a re-dial
    /// backoff elapses), keyed by ready time.
    parked: BTreeMap<SimTime, Vec<usize>>,
    /// Chrome-style graceful-degradation machinery (H3→H2 races, the
    /// broken-QUIC memory, TCP re-dials). Off by default so fault-free
    /// measurements are byte-identical to the pre-fallback stack.
    h3_fallback: bool,
    /// Cross-visit memory of QUIC-hostile domains.
    broken_quic: BrokenQuicCache,
    /// Pending QUIC-vs-TCP races: H3 connection → instant its TCP
    /// fallback job fires unless the handshake completes first.
    h3_races: BTreeMap<ConnId, SimTime>,
    /// Per-domain re-dial attempts (drives the exponential backoff).
    retry_attempts: BTreeMap<DomainId, u32>,
    /// Connections with potentially-pending output or events. Transports
    /// only release packets in response to input (a packet, a fired
    /// timer, a request), so the pump polls exactly these instead of
    /// scanning every connection per event.
    dirty: BTreeSet<ConnId>,
    /// Every connection's deadline, kept equal to `next_timeout()`
    /// whenever control returns to the engine.
    deadlines: Deadlines,
    /// Current pump round (see [`ConnInfo::born_round`]).
    pump_round: u64,
    /// Fallback/retry counters for the fault-matrix report.
    resilience: ResilienceStats,
}

impl ClientHost {
    /// Creates the browser for one visit, optionally starting with a
    /// cold Alt-Svc cache (Chrome's discovery behaviour).
    ///
    /// # Panics
    ///
    /// Panics if `plan` is empty or references a domain missing from
    /// `domain_info`.
    #[allow(clippy::too_many_arguments)] // internal builder; the context IS the arguments
    pub fn with_alt_svc(
        me: NodeId,
        mode: ProtocolMode,
        cc: CcAlgorithm,
        plan: Vec<PlannedRequest>,
        domain_info: HashMap<DomainId, DomainInfo>,
        tickets: TicketStore,
        har_seed: u64,
        alt_svc_discovery: bool,
    ) -> Self {
        assert!(!plan.is_empty(), "a page needs at least its root document");
        for p in &plan {
            assert!(
                domain_info.contains_key(&p.resource.domain),
                "no DomainInfo for {}",
                p.resource.domain
            );
        }
        let n = plan.len();
        let index_of_request = plan
            .iter()
            .enumerate()
            .map(|(i, p)| (p.resource.id, i))
            .collect();
        let h3_domains: std::collections::BTreeSet<DomainId> = plan
            .iter()
            .filter(|p| p.resource.hosting.h3_available())
            .map(|p| p.resource.domain)
            .collect();
        let alt_svc_known = if alt_svc_discovery {
            std::collections::BTreeSet::new()
        } else {
            h3_domains.clone()
        };
        ClientHost {
            me,
            mode,
            alt_svc_discovery,
            alt_svc_known,
            h3_domains,
            cc,
            plan,
            domain_info,
            tickets,
            conns: PortTable::default(),
            pools: BTreeMap::new(),
            entries: vec![EntryState::default(); n],
            index_of_request,
            started: false,
            start_at: SimTime::ZERO,
            remaining: n,
            page_done_at: None,
            har_rng: SimRng::seed_from(har_seed),
            dns_resolved_at: BTreeMap::new(),
            parked: BTreeMap::new(),
            h3_fallback: false,
            broken_quic: BrokenQuicCache::new(),
            h3_races: BTreeMap::new(),
            retry_attempts: BTreeMap::new(),
            resilience: ResilienceStats::default(),
            dirty: BTreeSet::new(),
            deadlines: Deadlines::default(),
            pump_round: 0,
        }
    }

    /// Enables (or disables) Chrome-style graceful degradation: the
    /// QUIC-vs-TCP connection race, the broken-QUIC cache, re-dispatch
    /// of stranded requests, and TCP re-dial backoff.
    pub fn set_h3_fallback(&mut self, enabled: bool) {
        self.h3_fallback = enabled;
    }

    /// Seeds the broken-QUIC memory carried over from earlier visits.
    pub fn set_broken_quic(&mut self, cache: BrokenQuicCache) {
        self.broken_quic = cache;
    }

    /// The broken-QUIC memory as of now (carry it to the next visit).
    pub fn broken_quic(&self) -> &BrokenQuicCache {
        &self.broken_quic
    }

    /// Fallback/retry counters accumulated so far.
    pub fn resilience(&self) -> ResilienceStats {
        self.resilience
    }

    /// Number of resources still outstanding.
    pub fn pending_requests(&self) -> usize {
        self.remaining
    }

    /// Why this node still has open work (engine stall diagnostics).
    pub fn stall_detail(&self) -> Option<String> {
        (self.remaining > 0).then(|| {
            format!(
                "{} of {} resources still pending",
                self.remaining,
                self.plan.len()
            )
        })
    }

    /// Whether every resource has completed.
    pub fn is_done(&self) -> bool {
        self.remaining == 0
    }

    /// Called by the engine at t = 0 and for connection timers.
    pub fn on_wakeup(&mut self, ctx: &mut NodeCtx<'_, WirePacket>) {
        let now = ctx.now();
        if !self.started {
            if now < self.start_at {
                return; // spurious wakeup before this client's arrival
            }
            self.started = true;
            self.dispatch(0, now);
        } else {
            self.deadlines.fire_due(now, &mut self.conns, |id| {
                self.dirty.insert(id);
            });
        }
        let due: Vec<SimTime> = self.parked.range(..=now).map(|(&t, _)| t).collect();
        for t in due {
            for idx in self.parked.remove(&t).expect("due batch") {
                self.dispatch_resolved(idx, now);
            }
        }
        let lost_races: Vec<ConnId> = self
            .h3_races
            .iter()
            .filter(|&(_, &t)| t <= now)
            .map(|(&id, _)| id)
            .collect();
        for id in lost_races {
            self.h3_races.remove(&id);
            self.lose_race(id, now);
        }
        self.pump(ctx);
    }

    /// Routes a packet to its connection.
    pub fn on_packet(&mut self, pkt: WirePacket, ctx: &mut NodeCtx<'_, WirePacket>) {
        let id = pkt.conn_id();
        let now = ctx.now();
        if let Some(st) = self.conns.get_mut(id) {
            st.conn.on_packet(pkt, now);
            self.dirty.insert(id);
        }
        // Packets for dropped connections (late ACKs after teardown)
        // cannot occur in-visit; ignore defensively.
        self.pump(ctx);
    }

    /// Delays the first dispatch to `at` (client arrival staggering in
    /// multi-client swarms; the default is an immediate start).
    pub fn set_start_at(&mut self, at: SimTime) {
        self.start_at = at;
    }

    /// Earliest pending deadline (or the arrival instant before the
    /// visit starts).
    pub fn next_wakeup(&self) -> Option<SimTime> {
        if !self.started {
            return Some(self.start_at);
        }
        let conn_deadline = self.deadlines.first();
        let parked = self.parked.keys().next().copied();
        let race = self.h3_races.values().min().copied();
        [conn_deadline, parked, race].into_iter().flatten().min()
    }

    /// Polls every dirty connection until the set drains. The cursor walk
    /// reproduces the order of the old every-connection fixpoint scan:
    /// each round visits ids ascending, a mark behind the cursor waits
    /// for the next round, and a connection born mid-round sits the
    /// round out (the old scan snapshotted the id list at round start).
    fn pump(&mut self, ctx: &mut NodeCtx<'_, WirePacket>) {
        let now = ctx.now();
        self.pump_round += 1;
        let mut cursor: Option<ConnId> = None;
        loop {
            let Some(id) = self.next_dirty(cursor) else {
                if self.dirty.is_empty() {
                    break;
                }
                // Round over: connections born this round become
                // eligible, marks behind the cursor come back around.
                self.pump_round += 1;
                cursor = None;
                continue;
            };
            self.dirty.remove(&id);
            cursor = Some(id);
            // Transmit everything ready on this connection.
            if let Some(st) = self.conns.get_mut(id) {
                while let Some(pkt) = st.conn.poll_transmit(now) {
                    let size = ByteCount::new(pkt.wire_bytes());
                    ctx.send(id.server, pkt, size);
                }
            }
            // Handle its events (may dispatch onto other conns, marking
            // them dirty).
            while let Some(st) = self.conns.get_mut(id) {
                let Some(ev) = st.conn.poll_event() else {
                    break;
                };
                self.on_http_event(id, ev, now);
            }
            if let Some(st) = self.conns.get_mut(id) {
                self.deadlines.rearm(id, st);
            }
        }
    }

    /// Smallest dirty connection id after `cursor` that existed when the
    /// current pump round began.
    fn next_dirty(&self, cursor: Option<ConnId>) -> Option<ConnId> {
        use std::ops::Bound;
        let range = match cursor {
            Some(c) => self.dirty.range((Bound::Excluded(c), Bound::Unbounded)),
            None => self.dirty.range(..),
        };
        range.copied().find(|&id| {
            self.conns
                .get(id)
                .is_none_or(|st| st.info.born_round < self.pump_round)
        })
    }

    fn on_http_event(&mut self, conn_id: ConnId, ev: HttpEvent, now: SimTime) {
        match ev {
            HttpEvent::Connected { .. } => {
                // QUIC won any pending race against TCP.
                self.h3_races.remove(&conn_id);
            }
            HttpEvent::ResponseHeaders { id, at } => {
                let idx = self.index_of_request[&id];
                self.entries[idx].headers_at = Some(at);
                // The response's alt-svc header advertises H3 support.
                if self.alt_svc_discovery {
                    let domain = self.plan[idx].resource.domain;
                    if self.h3_domains.contains(&domain) {
                        self.alt_svc_known.insert(domain);
                    }
                }
            }
            HttpEvent::ResponseComplete { id, at } => {
                let idx = self.index_of_request[&id];
                if self.entries[idx].done_at.is_none() {
                    self.entries[idx].done_at = Some(at);
                    self.remaining -= 1;
                    if self.remaining == 0 {
                        self.page_done_at = Some(at);
                    }
                    let children = self.plan[idx].children.clone();
                    for child in children {
                        self.dispatch(child, now);
                    }
                }
            }
            HttpEvent::TicketIssued { at } => {
                if let Some(st) = self.conns.get(conn_id) {
                    self.tickets.insert(h3cdn_transport::tls::Ticket {
                        domain: st.info.domain.0,
                        issued_at: at,
                        lifetime: TICKET_LIFETIME,
                    });
                }
            }
            HttpEvent::ConnectionClosed { at, reason } => {
                self.on_conn_closed(conn_id, at, reason);
            }
        }
    }

    /// The TCP racer fired before QUIC finished its handshake: abandon
    /// the H3 attempt, remember the domain as QUIC-broken, and move its
    /// requests onto a TCP-based connection (Chrome's delayed-TCP race
    /// resolving in TCP's favour).
    fn lose_race(&mut self, conn_id: ConnId, now: SimTime) {
        let handshaken = self
            .conns
            .get(conn_id)
            .is_some_and(|st| st.conn.handshake().handshake_complete_at().is_some());
        if handshaken {
            return; // QUIC made it after all; nothing to do.
        }
        self.fail_over_from_h3(conn_id, now);
    }

    /// A connection's transport gave up. Without the fallback machinery
    /// the stranded requests stay stranded (the visit aborts — the
    /// baseline the fault matrix quantifies); with it, H3 failures fall
    /// back to TCP and TCP failures re-dial with exponential backoff.
    fn on_conn_closed(&mut self, conn_id: ConnId, at: SimTime, reason: CloseReason) {
        self.h3_races.remove(&conn_id);
        let Some((domain, version)) = self
            .conns
            .get(conn_id)
            .map(|st| (st.info.domain, st.conn.version()))
        else {
            return;
        };
        self.remove_from_pool(conn_id, domain, version);
        if !self.h3_fallback {
            return;
        }
        match version {
            HttpVersion::H3 => match reason {
                // A handshake that never completed, or an established
                // connection dying mid-transfer: QUIC is broken here.
                CloseReason::HandshakeTimeout => self.fail_over_from_h3(conn_id, at),
                // The edge's admission controller shed this handshake
                // (CONNECTION_REFUSED). Unlike a timeout the client
                // learns within one RTT; fall back to TCP immediately.
                CloseReason::Refused => self.fail_over_from_h3(conn_id, at),
                CloseReason::IdleTimeout if !self.stranded_entries(conn_id).is_empty() => {
                    self.fail_over_from_h3(conn_id, at);
                }
                // An idle close with nothing outstanding is a healthy
                // end-of-visit teardown, not a QUIC failure.
                CloseReason::IdleTimeout => {}
            },
            HttpVersion::H1 | HttpVersion::H2 => {
                let stranded = self.stranded_entries(conn_id);
                if stranded.is_empty() {
                    return;
                }
                // Re-dial after an exponential backoff; the closed
                // connection is already out of the pool, so the parked
                // requests will open a fresh one when they resume.
                let attempt = self.retry_attempts.entry(domain).or_insert(0);
                let delay = redial_backoff(*attempt);
                *attempt += 1;
                self.resilience.conn_retries += 1;
                self.parked.entry(at + delay).or_default().extend(stranded);
            }
        }
    }

    /// Chrome-style H3→H2 fallback: mark the domain QUIC-broken and
    /// re-dispatch every request stranded on the failed H3 connection
    /// (they will pick a TCP-based version via [`ClientHost::choose_version`]).
    fn fail_over_from_h3(&mut self, conn_id: ConnId, now: SimTime) {
        let Some(domain) = self.conns.get(conn_id).map(|st| st.info.domain) else {
            return;
        };
        self.broken_quic.mark(domain.0);
        self.remove_from_pool(conn_id, domain, HttpVersion::H3);
        let stranded = self.stranded_entries(conn_id);
        if stranded.is_empty() {
            return;
        }
        self.resilience.h3_fallbacks += 1;
        if let Some(started) = self
            .conns
            .get(conn_id)
            .and_then(|st| st.conn.handshake().connect_started_at())
        {
            // Time QUIC was given before the browser cut its losses —
            // the per-fallback time-to-fallback penalty.
            self.resilience.fallback_wait += now.saturating_duration_since(started);
        }
        for idx in stranded {
            self.dispatch_resolved(idx, now);
        }
    }

    /// Indices of requests bound to `conn_id` whose responses have not
    /// completed — the work stranded when that connection dies.
    fn stranded_entries(&self, conn_id: ConnId) -> Vec<usize> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, st)| st.conn == Some(conn_id) && st.done_at.is_none())
            .map(|(idx, _)| idx)
            .collect()
    }

    fn remove_from_pool(&mut self, conn_id: ConnId, domain: DomainId, version: HttpVersion) {
        if let Some(pool) = self.pools.get_mut(&(domain, version)) {
            pool.retain(|id| *id != conn_id);
        }
    }

    fn choose_version(&self, resource: &Resource) -> HttpVersion {
        let h1_only = matches!(resource.hosting, Hosting::Origin { h1_only: true, .. });
        match self.mode {
            ProtocolMode::H2Only => {
                if h1_only {
                    HttpVersion::H1
                } else {
                    HttpVersion::H2
                }
            }
            ProtocolMode::H3Enabled => {
                if resource.hosting.h3_available()
                    && self.alt_svc_known.contains(&resource.domain)
                    && !self.broken_quic.is_broken(resource.domain.0)
                {
                    HttpVersion::H3
                } else if h1_only {
                    HttpVersion::H1
                } else {
                    HttpVersion::H2
                }
            }
        }
    }

    /// Entry point for fetching a resource: resolves the domain first
    /// (parking the request until the name is known), then schedules it
    /// onto a connection.
    fn dispatch(&mut self, idx: usize, now: SimTime) {
        let domain = self.plan[idx].resource.domain;
        self.entries[idx].dispatched_at = Some(now);
        let ready = match self.dns_resolved_at.get(&domain) {
            Some(&done) => done.max(now),
            None => {
                let done = now + self.domain_info[&domain].dns_delay;
                self.dns_resolved_at.insert(domain, done);
                done
            }
        };
        if ready > now {
            self.entries[idx].dns_ms = (ready - now).as_millis_f64();
            self.parked.entry(ready).or_default().push(idx);
        } else {
            self.dispatch_resolved(idx, now);
        }
    }

    fn dispatch_resolved(&mut self, idx: usize, now: SimTime) {
        let resource = self.plan[idx].resource.clone();
        let version = self.choose_version(&resource);
        let domain = resource.domain;
        let key = (domain, version);
        let pool = self.pools.entry(key).or_default().clone();

        let (conn_id, creator) = match version {
            HttpVersion::H2 | HttpVersion::H3 => match pool.first() {
                Some(&existing) => (existing, false),
                None => (self.open_conn(domain, version, now), true),
            },
            HttpVersion::H1 => {
                // Reuse an idle connection, else grow the pool to six,
                // else queue on the least-loaded one.
                let idle = pool.iter().copied().find(|&id| {
                    matches!(self.conns.get(id).map(|st| &st.conn), Some(ClientConn::H1(c)) if !c.is_busy() && c.queued_len() == 0)
                });
                match idle {
                    Some(id) => (id, false),
                    None if pool.len() < H1_POOL_LIMIT => {
                        (self.open_conn(domain, version, now), true)
                    }
                    None => {
                        let least = pool
                            .iter()
                            .copied()
                            .min_by_key(|&id| match self.conns.get(id).map(|st| &st.conn) {
                                Some(ClientConn::H1(c)) => c.queued_len(),
                                _ => usize::MAX,
                            })
                            .expect("H1 pool non-empty");
                        (least, false)
                    }
                }
            }
        };

        self.entries[idx].conn = Some(conn_id);
        self.entries[idx].creator = creator;
        self.conns
            .get_mut(conn_id)
            .expect("dispatch target exists")
            .conn
            .send_request(RequestMeta {
                id: resource.id,
                header_bytes: resource.request_header_bytes,
            });
        self.dirty.insert(conn_id);
    }

    fn open_conn(&mut self, domain: DomainId, version: HttpVersion, now: SimTime) -> ConnId {
        let info = self.domain_info[&domain].clone();
        let id = ConnId::new(self.me, info.node, self.conns.next_port());
        let ticket = self.tickets.lookup(domain.0, now);
        let tcp = TcpConfig {
            initial_rtt: info.rtt,
            cc: self.cc,
            ..TcpConfig::default()
        };
        let tls = TlsConfig {
            version: if info.tls12 {
                TlsVersion::Tls12
            } else {
                TlsVersion::Tls13
            },
            ticket,
            early_data: true,
        };
        let mut conn = match version {
            HttpVersion::H1 => ClientConn::H1(h3cdn_http::h1::H1Client::new(id, tcp, tls)),
            HttpVersion::H2 => ClientConn::H2(h3cdn_http::h2::H2Client::new(id, tcp, tls)),
            HttpVersion::H3 => {
                let quic = QuicConfig {
                    initial_rtt: info.rtt,
                    cc: self.cc,
                    ..QuicConfig::default()
                };
                ClientConn::H3(h3cdn_http::h3::H3Client::new(id, quic, ticket, true))
            }
        };
        conn.connect(now);
        if version == HttpVersion::H3 && self.h3_fallback {
            // Arm the QUIC-vs-TCP race: if the handshake has not
            // completed by then, a TCP fallback job takes over.
            let delay = (info.rtt * RACE_DELAY_RTTS).max(RACE_DELAY_FLOOR);
            self.h3_races.insert(id, now + delay);
        }
        self.pools.entry((domain, version)).or_default().push(id);
        let info = ConnInfo {
            domain,
            born_round: self.pump_round,
        };
        self.conns.push(id, Tracked::new(conn, info));
        self.dirty.insert(id);
        id
    }

    /// Finalises the visit into a HAR page plus the updated ticket store.
    ///
    /// # Panics
    ///
    /// Panics if the page did not finish (a simulation bug worth failing
    /// loudly on).
    pub fn into_har(mut self, site: usize, vantage: &str) -> (HarPage, TicketStore) {
        assert!(
            self.page_done_at.is_some(),
            "page {site} did not finish: {} pending",
            self.remaining
        );
        let plt = self.page_done_at.unwrap_or(SimTime::ZERO);
        let mut entries = Vec::with_capacity(self.plan.len());
        for (idx, planned) in self.plan.iter().enumerate() {
            let st = &self.entries[idx];
            let (conn_id, conn) = st
                .conn
                .and_then(|id| Some((id, &self.conns.get(id)?.conn)))
                .expect("entry was dispatched onto a kept connection");
            let info = &self.domain_info[&planned.resource.domain];
            let dispatched = st.dispatched_at.expect("entry was dispatched");
            let headers_at = st.headers_at.expect("response headers arrived");
            let done_at = st.done_at.expect("response completed");
            // The connection phase starts once the name is resolved.
            let after_dns = dispatched + SimDuration::from_millis_f64(st.dns_ms);
            let handshake = conn.handshake();
            let ready = handshake
                .send_ready_at()
                .expect("connection completed its handshake")
                .max(after_dns);

            let setup_ms = (ready - after_dns).as_millis_f64();
            let (connect_ms, blocked_ms) = if st.creator {
                (setup_ms, 0.0)
            } else {
                (0.0, setup_ms)
            };
            let wait_ms =
                (headers_at.saturating_duration_since(ready).as_millis_f64() - SEND_MS).max(0.0);
            let receive_ms = done_at
                .saturating_duration_since(headers_at)
                .as_millis_f64();

            let response_headers = match info.provider {
                Some(p) => locedge::fingerprint_headers(p, &mut self.har_rng),
                None => locedge::origin_headers(),
            };
            let provider =
                locedge::classify(&response_headers, &info.name).map(|p| p.name().to_string());

            entries.push(HarEntry {
                id: planned.resource.id,
                url: format!("https://{}/res/{}", info.name, planned.resource.id),
                domain: info.name.clone(),
                protocol: conn.version().to_string(),
                provider,
                response_headers,
                body_bytes: planned.resource.body_bytes,
                connection: conn_id.port as u64,
                started_ms: dispatched.as_millis_f64(),
                timing: EntryTiming {
                    blocked_ms,
                    dns_ms: st.dns_ms,
                    connect_ms,
                    send_ms: SEND_MS,
                    wait_ms,
                    receive_ms,
                },
                resumed: handshake.was_resumed(),
                early_data: st.creator && handshake.used_early_data(),
            });
        }
        let page = HarPage {
            site,
            vantage: vantage.to_string(),
            protocol_mode: self.mode.label().to_string(),
            plt_ms: plt.as_millis_f64(),
            entries,
        };
        (page, self.tickets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redial_backoff_sequence_is_deterministic_and_capped() {
        // The exact schedule a client walks under repeated edge
        // refusals: 250 ms doubling per attempt, capped at 32 s.
        let expected_ms = [250, 500, 1000, 2000, 4000, 8000, 16000, 32000];
        for (attempt, &ms) in expected_ms.iter().enumerate() {
            assert_eq!(
                redial_backoff(attempt as u32),
                SimDuration::from_millis(ms),
                "attempt {attempt}"
            );
        }
        // Past the cap the schedule is flat — an edge that stays
        // overloaded is probed every 32 s, never more aggressively.
        assert_eq!(redial_backoff(8), SimDuration::from_millis(32000));
        assert_eq!(redial_backoff(100), SimDuration::from_millis(32000));
    }
}
