//! Stateful edge nodes with finite resources and graceful degradation.
//!
//! The paper measures clients against effectively infinite edges; this
//! module models the PoP itself as a finite, degradable resource — the
//! operative constraint once a handful of giant providers terminate most
//! H3 traffic. An [`EdgeState`] tracks, per PoP:
//!
//! * a **handshake CPU budget** as a deterministic token bucket, with
//!   QUIC's userspace full-crypto handshake costed higher than a
//!   kernel-path TCP + TLS-resumption handshake;
//! * **per-connection memory** against a budget, QUIC again costed
//!   higher (userspace buffers and per-connection crypto state);
//! * a **hard connection limit**;
//! * a capacity-bounded **0-RTT ticket store** with deterministic FIFO
//!   eviction: a client whose server-side session state was evicted has
//!   its 0-RTT offer rejected (the transport's 1-RTT downgrade path).
//!
//! The admission controller sheds load by protocol-aware policy instead
//! of silently queueing forever: when resources run out the edge
//! *refuses* (QUIC first — it is the expensive handshake), and the
//! refusal is wired through `transport`/`browser` so the client's
//! resilience stack (broken-QUIC cache, H3→H2 fallback, re-dial
//! backoff) reacts within one RTT.
//!
//! The module is deliberately protocol-agnostic (no `transport` types):
//! callers classify the handshake as [`HandshakeKind::Tcp`] or
//! [`HandshakeKind::Quic`] and wire the decision themselves, keeping
//! `h3cdn-cdn` at its layer in the crate graph.

use h3cdn_sim_core::SimTime;
use std::collections::{HashMap, VecDeque};

/// Which transport a new connection's handshake runs over, as seen by
/// the admission controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HandshakeKind {
    /// TCP + TLS (kernel path; resumption keeps the crypto cheap).
    Tcp,
    /// QUIC (userspace path; full asymmetric crypto per handshake).
    Quic,
}

/// Finite-resource budgets of one PoP.
///
/// The defaults model an amply-provisioned edge: budgets high enough
/// that a single page visit never trips them (the client-side
/// experiments' implicit assumption, now explicit and adjustable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeConfig {
    /// Hard cap on concurrently tracked connections.
    pub max_connections: u32,
    /// Total connection-memory budget, bytes.
    pub memory_budget_bytes: u64,
    /// Memory charged per TCP connection (kernel socket + TLS state).
    pub tcp_conn_memory_bytes: u64,
    /// Memory charged per QUIC connection (userspace buffers, crypto
    /// state; higher than TCP).
    pub quic_conn_memory_bytes: u64,
    /// Handshake-CPU token refill rate, tokens per simulated second.
    pub cpu_tokens_per_sec: u64,
    /// Token-bucket capacity (burst headroom).
    pub cpu_token_burst: u64,
    /// Tokens one TCP + TLS handshake costs.
    pub tcp_handshake_tokens: u64,
    /// Tokens one QUIC handshake costs (higher: full crypto, userspace).
    pub quic_handshake_tokens: u64,
    /// Capacity of the 0-RTT ticket store (server-side session slots).
    pub ticket_slots: usize,
    /// Protocol-aware shedding: refuse new QUIC handshakes while the
    /// number of free connection slots is at or below this headroom,
    /// keeping the last slots for cheap TCP fallback traffic.
    pub quic_shed_headroom: u32,
}

impl Default for EdgeConfig {
    fn default() -> Self {
        EdgeConfig {
            max_connections: 1 << 16,
            memory_budget_bytes: 4 << 30, // 4 GiB
            tcp_conn_memory_bytes: 64 << 10,
            quic_conn_memory_bytes: 256 << 10,
            cpu_tokens_per_sec: 1_000_000,
            cpu_token_burst: 1_000_000,
            tcp_handshake_tokens: 10,
            quic_handshake_tokens: 40,
            ticket_slots: 1 << 16,
            quic_shed_headroom: 0,
        }
    }
}

/// A nonsensical edge budget, rejected up front instead of panicking or
/// silently clamping mid-simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeConfigError {
    /// `max_connections == 0`: the edge could never serve anything.
    ZeroConnections,
    /// `ticket_slots == 0`: every resumption would miss by construction.
    ZeroTicketSlots,
    /// `memory_budget_bytes == 0`: no connection could ever fit.
    ZeroMemoryBudget,
    /// A single connection's memory exceeds the whole budget.
    ConnMemoryExceedsBudget {
        /// Memory one connection of the offending kind needs.
        required: u64,
        /// The configured budget.
        budget: u64,
    },
    /// The token bucket can never hold one handshake's cost.
    BurstBelowHandshakeCost {
        /// Tokens the costlier handshake needs.
        required: u64,
        /// The configured bucket capacity.
        burst: u64,
    },
    /// The QUIC shed headroom is at least the connection limit, so no
    /// QUIC handshake could ever be admitted.
    HeadroomExcludesQuic {
        /// The configured headroom.
        headroom: u32,
        /// The configured connection limit.
        max_connections: u32,
    },
}

impl std::fmt::Display for EdgeConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeConfigError::ZeroConnections => {
                write!(f, "edge config allows zero connections")
            }
            EdgeConfigError::ZeroTicketSlots => {
                write!(f, "edge config allows zero ticket slots")
            }
            EdgeConfigError::ZeroMemoryBudget => {
                write!(f, "edge config has a zero memory budget")
            }
            EdgeConfigError::ConnMemoryExceedsBudget { required, budget } => write!(
                f,
                "one connection needs {required} bytes but the edge budget is {budget}"
            ),
            EdgeConfigError::BurstBelowHandshakeCost { required, burst } => write!(
                f,
                "a handshake costs {required} tokens but the bucket holds only {burst}"
            ),
            EdgeConfigError::HeadroomExcludesQuic {
                headroom,
                max_connections,
            } => write!(
                f,
                "QUIC shed headroom {headroom} excludes QUIC entirely at \
                 {max_connections} connections"
            ),
        }
    }
}

impl std::error::Error for EdgeConfigError {}

impl EdgeConfig {
    /// Checks the budgets for configurations that could never admit a
    /// connection (or never hit a ticket).
    ///
    /// # Errors
    ///
    /// Returns the first [`EdgeConfigError`] found.
    pub fn validate(&self) -> Result<(), EdgeConfigError> {
        if self.max_connections == 0 {
            return Err(EdgeConfigError::ZeroConnections);
        }
        if self.ticket_slots == 0 {
            return Err(EdgeConfigError::ZeroTicketSlots);
        }
        if self.memory_budget_bytes == 0 {
            return Err(EdgeConfigError::ZeroMemoryBudget);
        }
        let required = self.tcp_conn_memory_bytes.max(self.quic_conn_memory_bytes);
        if required > self.memory_budget_bytes {
            return Err(EdgeConfigError::ConnMemoryExceedsBudget {
                required,
                budget: self.memory_budget_bytes,
            });
        }
        let cost = self.tcp_handshake_tokens.max(self.quic_handshake_tokens);
        if cost > self.cpu_token_burst {
            return Err(EdgeConfigError::BurstBelowHandshakeCost {
                required: cost,
                burst: self.cpu_token_burst,
            });
        }
        if self.quic_shed_headroom >= self.max_connections {
            return Err(EdgeConfigError::HeadroomExcludesQuic {
                headroom: self.quic_shed_headroom,
                max_connections: self.max_connections,
            });
        }
        Ok(())
    }
}

/// Why the admission controller refused a handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefusalCause {
    /// Every connection slot is taken.
    ConnectionLimit,
    /// Free slots are within the QUIC shed headroom: the remaining
    /// capacity is reserved for cheap TCP traffic.
    QuicShed,
    /// The connection-memory budget is exhausted.
    Memory,
    /// The handshake-CPU token bucket is empty (it refills over time,
    /// so refusals recover once the arrival burst passes).
    Cpu,
}

/// The admission controller's verdict on one new handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Admitted. For QUIC, `ticket_hit` reports whether the edge still
    /// holds this client's 0-RTT session state; on `false` the server
    /// must reject early data (the client pays the 1-RTT downgrade).
    Admitted {
        /// Server-side session state found for this client.
        ticket_hit: bool,
    },
    /// Refused: the client sees an immediate typed refusal (QUIC
    /// CONNECTION_REFUSED / TCP RST), not an unbounded queue.
    Refused {
        /// Which budget ran out.
        cause: RefusalCause,
    },
}

/// Per-PoP admission/shedding counters. Serializable so overload
/// sweeps can journal them through the durable runner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct EdgeStats {
    /// TCP handshakes admitted.
    pub admitted_tcp: u64,
    /// QUIC handshakes admitted.
    pub admitted_quic: u64,
    /// TCP handshakes refused.
    pub refused_tcp: u64,
    /// QUIC handshakes refused.
    pub refused_quic: u64,
    /// Refusals caused by the hard connection limit.
    pub shed_conn_limit: u64,
    /// QUIC refusals caused by the protocol-aware shed headroom.
    pub shed_quic_policy: u64,
    /// Refusals caused by the memory budget.
    pub shed_memory: u64,
    /// Refusals caused by an empty handshake-CPU bucket.
    pub shed_cpu: u64,
    /// QUIC admissions whose client still had server-side 0-RTT state.
    pub ticket_hits: u64,
    /// QUIC admissions whose client's state was absent or evicted.
    pub ticket_misses: u64,
    /// Ticket-store entries evicted to make room.
    pub ticket_evictions: u64,
}

impl EdgeStats {
    /// All refusals, both protocols.
    pub fn refused(&self) -> u64 {
        self.refused_tcp + self.refused_quic
    }

    /// All admissions, both protocols.
    pub fn admitted(&self) -> u64 {
        self.admitted_tcp + self.admitted_quic
    }

    /// Adds `other`'s counters into `self` — for totalling stats
    /// across edges or across swarm runs.
    pub fn absorb(&mut self, other: &EdgeStats) {
        self.admitted_tcp += other.admitted_tcp;
        self.admitted_quic += other.admitted_quic;
        self.refused_tcp += other.refused_tcp;
        self.refused_quic += other.refused_quic;
        self.shed_conn_limit += other.shed_conn_limit;
        self.shed_quic_policy += other.shed_quic_policy;
        self.shed_memory += other.shed_memory;
        self.shed_cpu += other.shed_cpu;
        self.ticket_hits += other.ticket_hits;
        self.ticket_misses += other.ticket_misses;
        self.ticket_evictions += other.ticket_evictions;
    }
}

/// Token-bucket precision: tokens are tracked in nano-tokens so the
/// refill is exact integer arithmetic on simulated nanoseconds.
const NANO: u128 = 1_000_000_000;

/// The live resource state of one PoP.
#[derive(Debug, Clone)]
pub struct EdgeState {
    config: EdgeConfig,
    active: u32,
    memory_in_use: u64,
    /// Handshake-CPU bucket, nano-tokens.
    tokens_nano: u64,
    last_refill: SimTime,
    /// Memory charged per tracked connection (for release).
    conn_memory: HashMap<u64, u64>,
    /// Ticket-store keys, oldest first (FIFO eviction order).
    ticket_order: VecDeque<u64>,
    stats: EdgeStats,
}

impl EdgeState {
    /// Builds the edge, validating the budgets.
    ///
    /// # Errors
    ///
    /// Returns the config's first [`EdgeConfigError`].
    pub fn new(config: EdgeConfig) -> Result<Self, EdgeConfigError> {
        config.validate()?;
        let tokens_nano = saturating_nano(config.cpu_token_burst);
        Ok(EdgeState {
            config,
            active: 0,
            memory_in_use: 0,
            tokens_nano,
            last_refill: SimTime::ZERO,
            conn_memory: HashMap::new(),
            ticket_order: VecDeque::new(),
            stats: EdgeStats::default(),
        })
    }

    /// The configured budgets.
    pub fn config(&self) -> &EdgeConfig {
        &self.config
    }

    /// Connections currently tracked.
    pub fn active_connections(&self) -> u32 {
        self.active
    }

    /// Admission/shedding counters so far.
    pub fn stats(&self) -> &EdgeStats {
        &self.stats
    }

    /// Deterministic token refill up to `now`.
    fn refill(&mut self, now: SimTime) {
        let elapsed = now.saturating_duration_since(self.last_refill);
        self.last_refill = self.last_refill.max(now);
        if elapsed.is_zero() {
            return;
        }
        let gained = u128::from(elapsed.as_nanos()) * u128::from(self.config.cpu_tokens_per_sec);
        let cap = u128::from(self.config.cpu_token_burst) * NANO;
        let total = (u128::from(self.tokens_nano) + gained).min(cap);
        self.tokens_nano = u64::try_from(total).unwrap_or(u64::MAX);
    }

    /// Decides one new handshake. `conn_key` identifies the connection
    /// (for the matching [`EdgeState::release`]); `client_key`
    /// identifies the client for the ticket store.
    pub fn admit(
        &mut self,
        kind: HandshakeKind,
        conn_key: u64,
        client_key: u64,
        now: SimTime,
    ) -> Admission {
        self.refill(now);
        let (memory, cost) = match kind {
            HandshakeKind::Tcp => (
                self.config.tcp_conn_memory_bytes,
                self.config.tcp_handshake_tokens,
            ),
            HandshakeKind::Quic => (
                self.config.quic_conn_memory_bytes,
                self.config.quic_handshake_tokens,
            ),
        };
        let free = self.config.max_connections.saturating_sub(self.active);
        let cause = if free == 0 {
            Some(RefusalCause::ConnectionLimit)
        } else if kind == HandshakeKind::Quic && free <= self.config.quic_shed_headroom {
            Some(RefusalCause::QuicShed)
        } else if self.memory_in_use + memory > self.config.memory_budget_bytes {
            Some(RefusalCause::Memory)
        } else if u128::from(self.tokens_nano) < u128::from(cost) * NANO {
            Some(RefusalCause::Cpu)
        } else {
            None
        };
        if let Some(cause) = cause {
            match kind {
                HandshakeKind::Tcp => self.stats.refused_tcp += 1,
                HandshakeKind::Quic => self.stats.refused_quic += 1,
            }
            match cause {
                RefusalCause::ConnectionLimit => self.stats.shed_conn_limit += 1,
                RefusalCause::QuicShed => self.stats.shed_quic_policy += 1,
                RefusalCause::Memory => self.stats.shed_memory += 1,
                RefusalCause::Cpu => self.stats.shed_cpu += 1,
            }
            return Admission::Refused { cause };
        }
        self.tokens_nano -= u64::try_from(u128::from(cost) * NANO).unwrap_or(u64::MAX);
        self.memory_in_use += memory;
        self.active += 1;
        self.conn_memory.insert(conn_key, memory);
        let ticket_hit = match kind {
            HandshakeKind::Tcp => {
                self.stats.admitted_tcp += 1;
                true
            }
            HandshakeKind::Quic => {
                self.stats.admitted_quic += 1;
                let hit = self.ticket_lookup_or_fill(client_key);
                if hit {
                    self.stats.ticket_hits += 1;
                } else {
                    self.stats.ticket_misses += 1;
                }
                hit
            }
        };
        Admission::Admitted { ticket_hit }
    }

    /// Returns a closed connection's slot and memory to the budgets.
    /// Unknown keys are ignored (release must be idempotent — a server
    /// can observe one close through several paths).
    pub fn release(&mut self, conn_key: u64) {
        if let Some(memory) = self.conn_memory.remove(&conn_key) {
            self.memory_in_use = self.memory_in_use.saturating_sub(memory);
            self.active = self.active.saturating_sub(1);
        }
    }

    /// Whether the edge currently holds `client_key`'s session state.
    pub fn has_ticket(&self, client_key: u64) -> bool {
        self.ticket_order.contains(&client_key)
    }

    /// Bounded FIFO ticket store: a hit refreshes nothing (FIFO, not
    /// LRU — deterministic and cheap); a miss fills a slot, evicting
    /// the oldest entry when full.
    fn ticket_lookup_or_fill(&mut self, client_key: u64) -> bool {
        if self.ticket_order.contains(&client_key) {
            return true;
        }
        while self.ticket_order.len() >= self.config.ticket_slots {
            self.ticket_order.pop_front();
            self.stats.ticket_evictions += 1;
        }
        self.ticket_order.push_back(client_key);
        false
    }
}

fn saturating_nano(tokens: u64) -> u64 {
    u64::try_from(u128::from(tokens) * NANO).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use h3cdn_sim_core::SimDuration;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn tiny() -> EdgeConfig {
        EdgeConfig {
            max_connections: 2,
            memory_budget_bytes: 1 << 20,
            tcp_conn_memory_bytes: 1 << 10,
            quic_conn_memory_bytes: 4 << 10,
            cpu_tokens_per_sec: 100,
            cpu_token_burst: 100,
            tcp_handshake_tokens: 10,
            quic_handshake_tokens: 40,
            ticket_slots: 2,
            quic_shed_headroom: 0,
        }
    }

    #[test]
    fn validation_rejects_nonsense() {
        let ok = EdgeConfig::default();
        assert_eq!(ok.validate(), Ok(()));
        let zero_conns = EdgeConfig {
            max_connections: 0,
            ..tiny()
        };
        assert_eq!(zero_conns.validate(), Err(EdgeConfigError::ZeroConnections));
        let zero_tickets = EdgeConfig {
            ticket_slots: 0,
            ..tiny()
        };
        assert_eq!(
            zero_tickets.validate(),
            Err(EdgeConfigError::ZeroTicketSlots)
        );
        let zero_mem = EdgeConfig {
            memory_budget_bytes: 0,
            ..tiny()
        };
        assert_eq!(zero_mem.validate(), Err(EdgeConfigError::ZeroMemoryBudget));
        let starved = EdgeConfig {
            cpu_token_burst: 5,
            ..tiny()
        };
        assert_eq!(
            starved.validate(),
            Err(EdgeConfigError::BurstBelowHandshakeCost {
                required: 40,
                burst: 5
            })
        );
        let headroom = EdgeConfig {
            quic_shed_headroom: 2,
            ..tiny()
        };
        assert_eq!(
            headroom.validate(),
            Err(EdgeConfigError::HeadroomExcludesQuic {
                headroom: 2,
                max_connections: 2
            })
        );
        assert!(EdgeState::new(zero_conns).is_err());
        // Errors render a human-readable sentence.
        assert!(EdgeConfigError::ZeroTicketSlots
            .to_string()
            .contains("ticket slots"));
    }

    #[test]
    fn connection_limit_refuses_then_release_recovers() {
        let mut edge = EdgeState::new(tiny()).expect("valid config");
        assert!(matches!(
            edge.admit(HandshakeKind::Tcp, 1, 100, at(0)),
            Admission::Admitted { .. }
        ));
        assert!(matches!(
            edge.admit(HandshakeKind::Tcp, 2, 101, at(0)),
            Admission::Admitted { .. }
        ));
        assert_eq!(
            edge.admit(HandshakeKind::Tcp, 3, 102, at(0)),
            Admission::Refused {
                cause: RefusalCause::ConnectionLimit
            }
        );
        edge.release(1);
        edge.release(1); // idempotent
        assert_eq!(edge.active_connections(), 1);
        assert!(matches!(
            edge.admit(HandshakeKind::Tcp, 3, 102, at(1)),
            Admission::Admitted { .. }
        ));
        assert_eq!(edge.stats().shed_conn_limit, 1);
        assert_eq!(edge.stats().refused_tcp, 1);
    }

    #[test]
    fn cpu_budget_sheds_quic_first_and_refills() {
        // Burst of 100 tokens: two QUIC handshakes (40 each) leave 20 —
        // enough for two TCP handshakes (10 each) but no third QUIC.
        let cfg = EdgeConfig {
            max_connections: 100,
            ..tiny()
        };
        let mut edge = EdgeState::new(cfg).expect("valid config");
        for key in 0..2 {
            assert!(matches!(
                edge.admit(HandshakeKind::Quic, key, key, at(0)),
                Admission::Admitted { .. }
            ));
        }
        assert_eq!(
            edge.admit(HandshakeKind::Quic, 2, 2, at(0)),
            Admission::Refused {
                cause: RefusalCause::Cpu
            }
        );
        // The cheap TCP handshake still fits: protocol-aware shedding.
        assert!(matches!(
            edge.admit(HandshakeKind::Tcp, 3, 3, at(0)),
            Admission::Admitted { .. }
        ));
        // 100 tokens/sec: after 400 ms the bucket holds 40+ again.
        assert!(matches!(
            edge.admit(HandshakeKind::Quic, 4, 4, at(400)),
            Admission::Admitted { .. }
        ));
        assert_eq!(edge.stats().shed_cpu, 1);
        assert_eq!(edge.stats().refused_quic, 1);
    }

    #[test]
    fn quic_shed_headroom_reserves_slots_for_tcp() {
        let cfg = EdgeConfig {
            max_connections: 2,
            quic_shed_headroom: 1,
            ..tiny()
        };
        let mut edge = EdgeState::new(cfg).expect("valid config");
        assert!(matches!(
            edge.admit(HandshakeKind::Quic, 1, 1, at(0)),
            Admission::Admitted { .. }
        ));
        // One free slot left == headroom: QUIC refused, TCP admitted.
        assert_eq!(
            edge.admit(HandshakeKind::Quic, 2, 2, at(0)),
            Admission::Refused {
                cause: RefusalCause::QuicShed
            }
        );
        assert!(matches!(
            edge.admit(HandshakeKind::Tcp, 3, 3, at(0)),
            Admission::Admitted { .. }
        ));
        assert_eq!(edge.stats().shed_quic_policy, 1);
    }

    #[test]
    fn memory_budget_refuses() {
        let cfg = EdgeConfig {
            max_connections: 100,
            memory_budget_bytes: 6 << 10, // one QUIC (4K) + one TCP (1K) fit
            cpu_tokens_per_sec: 1_000_000,
            cpu_token_burst: 1_000_000,
            ..tiny()
        };
        let mut edge = EdgeState::new(cfg).expect("valid config");
        assert!(matches!(
            edge.admit(HandshakeKind::Quic, 1, 1, at(0)),
            Admission::Admitted { .. }
        ));
        assert!(matches!(
            edge.admit(HandshakeKind::Tcp, 2, 2, at(0)),
            Admission::Admitted { .. }
        ));
        assert_eq!(
            edge.admit(HandshakeKind::Quic, 3, 3, at(0)),
            Admission::Refused {
                cause: RefusalCause::Memory
            }
        );
        assert_eq!(edge.stats().shed_memory, 1);
    }

    #[test]
    fn ticket_store_evicts_fifo_and_reports() {
        let cfg = EdgeConfig {
            max_connections: 100,
            cpu_tokens_per_sec: 1_000_000,
            cpu_token_burst: 1_000_000,
            ticket_slots: 2,
            ..tiny()
        };
        let mut edge = EdgeState::new(cfg).expect("valid config");
        // Three distinct clients through a two-slot store: the first
        // client's state is evicted.
        for (conn, client) in [(1, 10), (2, 11), (3, 12)] {
            assert_eq!(
                edge.admit(HandshakeKind::Quic, conn, client, at(0)),
                Admission::Admitted { ticket_hit: false }
            );
        }
        assert!(!edge.has_ticket(10), "oldest entry evicted");
        assert!(edge.has_ticket(11) && edge.has_ticket(12));
        assert_eq!(edge.stats().ticket_evictions, 1);
        // Client 11 returns: server-side state still there, 0-RTT ok.
        assert_eq!(
            edge.admit(HandshakeKind::Quic, 4, 11, at(1)),
            Admission::Admitted { ticket_hit: true }
        );
        // Client 10 returns: state evicted, 0-RTT must be rejected.
        assert_eq!(
            edge.admit(HandshakeKind::Quic, 5, 10, at(2)),
            Admission::Admitted { ticket_hit: false }
        );
        assert_eq!(edge.stats().ticket_hits, 1);
        assert_eq!(edge.stats().ticket_misses, 4);
    }

    #[test]
    fn refill_is_deterministic_and_capped() {
        let cfg = EdgeConfig {
            max_connections: 100,
            ..tiny()
        };
        let mut edge = EdgeState::new(cfg).expect("valid config");
        // Drain with two QUIC + two TCP handshakes (100 tokens).
        for key in 0..2 {
            edge.admit(HandshakeKind::Quic, key, key, at(0));
        }
        for key in 2..4 {
            edge.admit(HandshakeKind::Tcp, key, key, at(0));
        }
        assert_eq!(edge.tokens_nano, 0);
        // A long idle caps at the burst, never beyond.
        edge.refill(at(1_000_000));
        assert_eq!(edge.tokens_nano, saturating_nano(100));
    }
}
