//! Output checks: digests of workload outputs, the digests pinned for
//! the default seed, and the running tally of attempted and failed
//! operations.

use std::fmt::Debug;

use crate::{Scale, Workload, DEFAULT_SEED};

/// Streaming FNV-1a 64 — the same function as `h3cdn::persist::fnv1a64`
/// over the concatenation of everything fed to it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    pub(crate) fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub(crate) fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// Compact JSON of a library output, the form every digest covers.
pub(crate) fn json<T: serde::Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).expect("library outputs serialise")
}

/// What a workload's output must hash to at the default seed. The
/// `traced` digests cover the exact per-layer counts of a traced run
/// (sim events, packets, edge counters, journal bytes).
const PINNED: &[(&str, u64)] = &[
    ("campaign/full/output", 0x44ef_2888_e031_62c5),
    ("campaign/full/counts", 0xc2a7_293f_961b_ca1c),
    ("campaign/tiny/output", 0xf03c_d896_98e8_8ff4),
    ("campaign/tiny/counts", 0x3493_5d15_a88b_6a54),
    ("swarm/full/output", 0xc858_a190_2c54_750c),
    ("swarm/full/counts", 0x9b5c_a7de_f122_c129),
    ("swarm/tiny/output", 0xff66_a3a8_f74c_9de5),
    ("swarm/tiny/counts", 0xe972_0c71_cda1_5f6c),
    ("journaled/full/output", 0x10c6_bc97_5728_aec1),
    ("journaled/full/counts", 0xe609_83c2_3cb1_ee86),
    ("journaled/tiny/output", 0x0d02_c2c9_e68d_a187),
    ("journaled/tiny/counts", 0x0f84_05f1_ac8e_7606),
    ("population/full/output", 0x62e1_b8f8_9800_846f),
    ("population/full/counts", 0xe522_a422_6bfe_7376),
    ("population/tiny/output", 0xe1f9_2103_e080_f35b),
    ("population/tiny/counts", 0xefa1_49d4_3422_6e8b),
];

/// Key of a pinned digest: `workload/scale/kind`.
fn pin_key(workload: Workload, scale: Scale, kind: &str) -> String {
    format!("{}/{}/{kind}", workload.name(), scale.name())
}

/// The running verdict of one benchmark run.
#[derive(Debug, Default)]
pub(crate) struct Checks {
    mismatches: Vec<String>,
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
}

impl Checks {
    /// Counts `n` operations as attempted.
    pub(crate) fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts `n` operations as failed.
    pub(crate) fn fail(&mut self, n: u64, why: &str) {
        if n > 0 {
            eprintln!("perfbench: {n} failed: {why}");
            self.failed += n;
        }
    }

    /// Records a mismatch unless `got == want`.
    pub(crate) fn equal<T: PartialEq + Debug>(&mut self, what: &str, got: T, want: T) {
        if got != want {
            self.mismatch(format!("{what}: got {got:?}, want {want:?}"));
        }
    }

    /// Records a mismatch.
    pub(crate) fn mismatch(&mut self, msg: String) {
        eprintln!("perfbench: MISMATCH {msg}");
        self.mismatches.push(msg);
        self.failed += 1;
    }

    /// Checks `digest` against the value pinned for the default seed.
    /// Other seeds have no pinned value; their runs rely on the
    /// self-consistency checks alone.
    pub(crate) fn pinned(
        &mut self,
        workload: Workload,
        scale: Scale,
        seed: u64,
        kind: &str,
        digest: u64,
    ) {
        let key = pin_key(workload, scale, kind);
        eprintln!("perfbench: digest {key} seed {seed} = {digest:#018x}");
        if seed != DEFAULT_SEED {
            return;
        }
        match PINNED.iter().find(|(k, _)| *k == key) {
            Some(&(_, want)) => self.equal(&format!("{key} digest"), digest, want),
            None => self.mismatch(format!("{key}: no digest pinned")),
        }
    }

    /// Whether every check passed and no operation failed.
    pub(crate) fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.failed == 0
    }
}
