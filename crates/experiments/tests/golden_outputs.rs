//! Golden-output determinism gate, driven through the real experiment
//! binaries.
//!
//! Hot-path changes (pooled packets, re-arm dedup, swapping the event
//! queue's data structure) are only admissible because they are
//! bit-invisible: the JSON an experiment binary prints must be
//! byte-identical across refactors and across `--jobs` levels. These tests pin the SHA-256 of the
//! stdout streams of `fig2` and of every smoke sweep (the JSON, and for
//! the three resilience sweeps the text table too), each at `--jobs 1`
//! and `--jobs 4`. If a change moves these hashes it
//! either broke determinism or intentionally changed simulation
//! semantics — in the latter case, re-record the constants and say so
//! in the PR.

use std::process::Command;

/// `fig2 --pages 6 --seed 11 --json` — the page-load throughput sweep.
const FIG2_SHA256: &str = "7f85ad44402a2426547593ca2a7a5f7fd6b938323ae686a41e5030c6da34155e";

/// `fault_matrix --smoke --json` — the fault-injection campaign.
const FAULT_MATRIX_SHA256: &str =
    "bd71361f74a2bde4b4cf78fe58f939c8ab9c70df1b443b0abc1ff41d6fd65b2b";

/// `edge_overload --smoke --json` — the finite-edge overload sweep.
const EDGE_OVERLOAD_SHA256: &str =
    "fe84238f338cc0c8ed5f033b5671260a519cc1691642bf6bd75845d9e3d34970";

/// `path_dynamics --smoke --seed 23 --json` — the path-dynamics sweep
/// at the seed CI runs it with.
const PATH_DYNAMICS_SHA256: &str =
    "826eb044d927b53363d969f0066b0d4a3256331e72268651e327980165fb095c";

/// `fault_matrix --smoke` — the fault matrix's text table.
const FAULT_MATRIX_TABLE_SHA256: &str =
    "96683cad7a10542a43df2277e4c138873b54d9021b9eab9533c54de924af24aa";

/// `edge_overload --smoke` — the overload sweep's text table.
const EDGE_OVERLOAD_TABLE_SHA256: &str =
    "78b862826533e8fcb20cc67a68d103915a5bbaec721c382ca5893e5f38250c2c";

/// `path_dynamics --smoke --seed 23` — the path-dynamics sweep's text
/// table.
const PATH_DYNAMICS_TABLE_SHA256: &str =
    "75f5fb7d8b0052384e8cf511869acf80036f6d3cf3e7a55209e3cf93b8c846d7";

/// `population --smoke --json` — the population-scale composition run.
const POPULATION_SHA256: &str = "507990eefa408e0cf4eaf27dfa12aa8b191a1b8eb3065cfd9aa4bd4009e34bdc";

fn stdout_sha256(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "{bin} {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    sha256_hex(&out.stdout)
}

#[test]
fn fig2_json_is_golden_at_one_job() {
    let h = stdout_sha256(
        env!("CARGO_BIN_EXE_fig2"),
        &["--pages", "6", "--seed", "11", "--json", "--jobs", "1"],
    );
    assert_eq!(h, FIG2_SHA256, "fig2 stdout drifted from the golden hash");
}

#[test]
fn fig2_json_is_jobs_invariant() {
    let h = stdout_sha256(
        env!("CARGO_BIN_EXE_fig2"),
        &["--pages", "6", "--seed", "11", "--json", "--jobs", "4"],
    );
    assert_eq!(h, FIG2_SHA256, "fig2 stdout depends on --jobs");
}

#[test]
fn fault_matrix_json_is_golden_at_one_job() {
    let h = stdout_sha256(
        env!("CARGO_BIN_EXE_fault_matrix"),
        &["--smoke", "--json", "--jobs", "1"],
    );
    assert_eq!(
        h, FAULT_MATRIX_SHA256,
        "fault_matrix stdout drifted from the golden hash"
    );
}

#[test]
fn fault_matrix_json_is_jobs_invariant() {
    let h = stdout_sha256(
        env!("CARGO_BIN_EXE_fault_matrix"),
        &["--smoke", "--json", "--jobs", "4"],
    );
    assert_eq!(
        h, FAULT_MATRIX_SHA256,
        "fault_matrix stdout depends on --jobs"
    );
}

/// Asserts `bin args --jobs 1` and `bin args --jobs 4` both print the
/// golden stream.
fn assert_golden_at_both_job_counts(bin: &str, args: &[&str], golden: &str) {
    for jobs in ["1", "4"] {
        let argv: Vec<&str> = args.iter().copied().chain(["--jobs", jobs]).collect();
        let h = stdout_sha256(bin, &argv);
        assert_eq!(h, golden, "{bin} {argv:?} drifted from the golden hash");
    }
}

#[test]
fn edge_overload_smoke_json_is_golden() {
    assert_golden_at_both_job_counts(
        env!("CARGO_BIN_EXE_edge_overload"),
        &["--smoke", "--json"],
        EDGE_OVERLOAD_SHA256,
    );
}

#[test]
fn path_dynamics_smoke_json_is_golden() {
    assert_golden_at_both_job_counts(
        env!("CARGO_BIN_EXE_path_dynamics"),
        &["--smoke", "--seed", "23", "--json"],
        PATH_DYNAMICS_SHA256,
    );
}

#[test]
fn sweep_smoke_tables_are_golden() {
    for (bin, args, golden) in [
        (
            env!("CARGO_BIN_EXE_fault_matrix"),
            &["--smoke"][..],
            FAULT_MATRIX_TABLE_SHA256,
        ),
        (
            env!("CARGO_BIN_EXE_edge_overload"),
            &["--smoke"][..],
            EDGE_OVERLOAD_TABLE_SHA256,
        ),
        (
            env!("CARGO_BIN_EXE_path_dynamics"),
            &["--smoke", "--seed", "23"][..],
            PATH_DYNAMICS_TABLE_SHA256,
        ),
    ] {
        assert_golden_at_both_job_counts(bin, args, golden);
    }
}

#[test]
fn population_smoke_json_is_golden() {
    assert_golden_at_both_job_counts(
        env!("CARGO_BIN_EXE_population"),
        &["--smoke", "--json"],
        POPULATION_SHA256,
    );
}

// --- Minimal SHA-256 (FIPS 180-4), kept local so the test needs no
// --- new dependencies. Verified against `sha256sum` below.

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

fn sha256_hex(data: &[u8]) -> String {
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    let mut msg = data.to_vec();
    let bit_len = (data.len() as u64) * 8;
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&bit_len.to_be_bytes());

    let mut w = [0u32; 64];
    for block in msg.chunks_exact(64) {
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *s = s.wrapping_add(v);
        }
    }
    let mut hex = String::with_capacity(64);
    for word in h {
        use std::fmt::Write as _;
        let _ = write!(hex, "{word:08x}");
    }
    hex
}

#[test]
fn sha256_matches_known_vectors() {
    assert_eq!(
        sha256_hex(b""),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    );
    assert_eq!(
        sha256_hex(b"abc"),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    );
    // Cross the one-block boundary (56-byte padding edge).
    assert_eq!(
        sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    );
}
