//! Atomic, verifiable result persistence — the single sanctioned I/O
//! module of the measurement stack.
//!
//! Long campaigns die for operational reasons (a panic in one of 325
//! visits, an OOM kill, a ctrl-C) and a half-written artifact is worse
//! than none: it silently corrupts downstream analysis. This module
//! guarantees that every byte the workspace persists is either fully
//! there or not there at all:
//!
//! * [`atomic_write`] — write-temp-fsync-rename (plus a directory
//!   fsync), the only sanctioned way to put result bytes on disk. The
//!   `raw-result-write` rule of `h3cdn-lint` denies direct
//!   `std::fs::write` / `File::create` of artifacts everywhere else.
//! * [`RunDir`] — the per-run checkpoint directory
//!   (`results/.runs/<run-id>/`): a `manifest.json` carrying the run's
//!   configuration [`Fingerprint`], one content-hashed journal file per
//!   completed job, and the `quarantine.json` of jobs that panicked.
//! * [`Fingerprint`] — the resume gate. A resumed run only reuses
//!   journal entries when seed, scenario, workspace git hash and the
//!   semantic CLI arguments all match; anything else wipes the journal
//!   and re-executes from scratch, so results from different
//!   configurations can never silently mix. Scheduling-only knobs
//!   (`--jobs`, `--progress`) are deliberately *not* part of the
//!   fingerprint: the runner's key-ordered merge makes results
//!   worker-count independent, so a resume at a different `--jobs` is
//!   still bit-identical.
//!
//! Journal entry format (one file per job,
//! `jobs/<section>/<seq>.job`): a single header line
//! `h3cdn-job v1 <fnv1a64-hex>` followed by the serialized job result.
//! The hash is verified on load; a torn or truncated entry (the crash
//! window before the rename) simply fails verification and the job
//! re-executes.

pub mod shard;

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

/// Manifest format version; bumped on incompatible journal changes.
pub const MANIFEST_VERSION: u32 = 1;

/// FNV-1a 64-bit content hash (dependency-free, stable across
/// platforms) — the integrity check on journal entries and the
/// section/config hashing primitive.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Writes `bytes` to `path` atomically: temp file in the same
/// directory, `fsync`, rename over the target, directory `fsync`.
/// Readers never observe a partial file; a crash at any point leaves
/// either the old content or the new one.
///
/// # Errors
/// Propagates filesystem errors (unwritable directory, full disk, ...).
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{}: no parent directory", path.display()),
            )
        })?;
    fs::create_dir_all(dir)?;
    let name = path.file_name().and_then(|n| n.to_str()).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{}: no UTF-8 file name", path.display()),
        )
    })?;
    // Unique per process: concurrent workers journal *distinct* paths,
    // and a stale temp file from a killed run is simply overwritten.
    let tmp = dir.join(format!(".{name}.tmp.{}", std::process::id()));
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Persist the rename itself. Directory fsync is best-effort: some
    // filesystems refuse to open directories for syncing, which must
    // not fail the write (the data fsync above already happened).
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// The configuration identity of a run — the resume gate recorded in
/// the manifest. Two runs may share journal entries **iff** their
/// fingerprints are equal.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fingerprint {
    /// Corpus/run seed.
    pub seed: u64,
    /// Scenario-set description (experiment name, corpus scale,
    /// vantage set, scenario list, ...).
    pub scenario: String,
    /// Workspace git commit hash (`unknown` outside a git checkout).
    pub git_hash: String,
    /// Semantic CLI arguments — everything that changes *results*.
    /// Scheduling-only flags (`--jobs`, `--progress`, `--resume`,
    /// `--run-id`, `--results-dir`) are excluded so a resume at a
    /// different worker count reuses the journal.
    pub args: Vec<String>,
}

/// `manifest.json`: the fingerprint plus provenance of a run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Manifest {
    /// Journal format version ([`MANIFEST_VERSION`]).
    pub version: u32,
    /// The run identifier (directory name under `results/.runs/`).
    pub run_id: String,
    /// The resume gate.
    pub fingerprint: Fingerprint,
    /// Full command line as invoked — provenance only, never compared.
    pub argv: Vec<String>,
}

/// The workspace's current git commit hash, resolved by walking up
/// from the current directory to the enclosing `.git` (following a
/// symbolic `HEAD` and falling back to `packed-refs`). Returns
/// `"unknown"` when no repository is found.
pub fn workspace_git_hash() -> String {
    // Provenance lookup for the run manifest; never feeds results.
    // h3cdn-lint: allow(env-read)
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        let git = d.join(".git");
        if git.is_dir() {
            return read_git_head(&git).unwrap_or_else(|| "unknown".to_owned());
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    "unknown".to_owned()
}

/// Resolves `HEAD` inside a `.git` directory.
fn read_git_head(git: &Path) -> Option<String> {
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(direct) = fs::read_to_string(git.join(refname)) {
        return Some(direct.trim().to_owned());
    }
    // Packed refs: lines of `<hash> <refname>`.
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (hash, name) = line.split_once(' ')?;
        (name.trim() == refname).then(|| hash.to_owned())
    })
}

/// A per-run checkpoint directory (`<results>/.runs/<run-id>/`).
///
/// Layout:
///
/// ```text
/// manifest.json           version + fingerprint + argv
/// jobs/<section>/NNNNNN.job   one content-hashed entry per job
/// shards/shard-NNNNN.bin  compact binary journal (population runs)
/// quarantine.json         jobs that panicked or stalled
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunDir {
    root: PathBuf,
}

impl RunDir {
    /// The run directory for `run_id` under `results_dir` (no I/O;
    /// call [`prepare`](Self::prepare) before use).
    pub fn open(results_dir: &Path, run_id: &str) -> RunDir {
        RunDir {
            root: results_dir.join(".runs").join(run_id),
        }
    }

    /// A run directory at an explicit root (tests, tooling).
    pub fn at(root: PathBuf) -> RunDir {
        RunDir { root }
    }

    /// The directory root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of `manifest.json`.
    pub fn manifest_path(&self) -> PathBuf {
        self.root.join("manifest.json")
    }

    /// Path of the journal entry for `(section, seq)`.
    pub fn job_path(&self, section: &str, seq: usize) -> PathBuf {
        self.root
            .join("jobs")
            .join(section)
            .join(format!("{seq:06}.job"))
    }

    /// Path of `quarantine.json`.
    pub fn quarantine_path(&self) -> PathBuf {
        self.root.join("quarantine.json")
    }

    /// Directory holding the sharded binary journal of a
    /// population-scale run (see [`shard::ShardedJournal`]).
    pub fn shards_dir(&self) -> PathBuf {
        self.root.join("shards")
    }

    /// Prepares the directory for a run described by `manifest`.
    ///
    /// With `resume` set and a stored manifest whose version and
    /// [`Fingerprint`] match, existing journal entries are kept and
    /// `true` is returned. In every other case (fresh run, missing or
    /// stale manifest, fingerprint mismatch) all journal entries and
    /// any quarantine file are removed first — a configuration change
    /// forces a full re-run rather than silently mixing results — and
    /// `false` is returned. The manifest is (re)written atomically
    /// either way.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn prepare(&self, manifest: &Manifest, resume: bool) -> io::Result<bool> {
        fs::create_dir_all(&self.root)?;
        let kept = resume
            && self.read_manifest().is_some_and(|m| {
                m.version == manifest.version && m.fingerprint == manifest.fingerprint
            });
        if !kept {
            let jobs = self.root.join("jobs");
            if jobs.is_dir() {
                fs::remove_dir_all(&jobs)?;
            }
            let shards = self.shards_dir();
            if shards.is_dir() {
                fs::remove_dir_all(&shards)?;
            }
            let quarantine = self.quarantine_path();
            if quarantine.is_file() {
                fs::remove_file(&quarantine)?;
            }
        }
        let json = to_json(manifest)?;
        atomic_write(&self.manifest_path(), json.as_bytes())?;
        Ok(kept)
    }

    /// Reads and parses `manifest.json`, if present and well-formed.
    pub fn read_manifest(&self) -> Option<Manifest> {
        let text = fs::read_to_string(self.manifest_path()).ok()?;
        serde_json::from_str(&text).ok()
    }

    /// Journals one completed job atomically: a header line carrying
    /// the FNV-1a hash of `payload`, then the payload itself.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn store_job(&self, section: &str, seq: usize, payload: &[u8]) -> io::Result<()> {
        let mut bytes = format!("h3cdn-job v1 {:016x}\n", fnv1a64(payload)).into_bytes();
        bytes.extend_from_slice(payload);
        atomic_write(&self.job_path(section, seq), &bytes)
    }

    /// Loads the journal entry for `(section, seq)` when it exists and
    /// its content hash verifies; `None` (→ re-execute) otherwise. The
    /// payload is returned in the buffer the file was read into.
    pub fn load_job(&self, section: &str, seq: usize) -> Option<Vec<u8>> {
        let mut bytes = fs::read(self.job_path(section, seq)).ok()?;
        let newline = bytes.iter().position(|&b| b == b'\n')?;
        let header = std::str::from_utf8(bytes.get(..newline)?).ok()?;
        let hex = header.strip_prefix("h3cdn-job v1 ")?;
        let want = u64::from_str_radix(hex.trim(), 16).ok()?;
        if fnv1a64(bytes.get(newline + 1..)?) != want {
            return None;
        }
        bytes.drain(..=newline);
        Some(bytes)
    }

    /// Writes `quarantine.json` atomically.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_quarantine(&self, json: &str) -> io::Result<()> {
        atomic_write(&self.quarantine_path(), json.as_bytes())
    }

    /// Reads `quarantine.json` as raw text, if present.
    pub fn read_quarantine(&self) -> Option<String> {
        fs::read_to_string(self.quarantine_path()).ok()
    }
}

/// Serializes a value to pretty JSON, mapping the (practically
/// unreachable) serializer error into `io::Error`.
fn to_json<T: Serialize>(value: &T) -> io::Result<String> {
    serde_json::to_string_pretty(value)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        // Test scratch space only; never feeds results.
        // h3cdn-lint: allow(env-read)
        let dir = std::env::temp_dir().join(format!(
            "h3cdn-persist-{tag}-{}-{:x}",
            std::process::id(),
            fnv1a64(tag.as_bytes())
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn manifest(seed: u64) -> Manifest {
        Manifest {
            version: MANIFEST_VERSION,
            run_id: "t".to_owned(),
            fingerprint: Fingerprint {
                seed,
                scenario: "test pages=2".to_owned(),
                git_hash: "abc".to_owned(),
                args: vec!["--pages".to_owned(), "2".to_owned()],
            },
            argv: vec!["test".to_owned()],
        }
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp() {
        let root = tmp_root("aw");
        let path = root.join("x/y/out.txt");
        atomic_write(&path, b"first").expect("write");
        atomic_write(&path, b"second").expect("rewrite");
        assert_eq!(fs::read(&path).expect("read"), b"second");
        let dir = path.parent().expect("parent");
        let leftovers: Vec<_> = fs::read_dir(dir)
            .expect("dir")
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files must not survive");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn journal_roundtrip_verifies_hash() {
        let run = RunDir::at(tmp_root("jr"));
        run.prepare(&manifest(7), false).expect("prepare");
        run.store_job("s", 3, b"payload bytes").expect("store");
        assert_eq!(
            run.load_job("s", 3).expect("load"),
            b"payload bytes".to_vec()
        );
        assert!(run.load_job("s", 4).is_none(), "missing seq");
        // Corrupt the entry: verification must reject it.
        let path = run.job_path("s", 3);
        let mut bytes = fs::read(&path).expect("read");
        if let Some(last) = bytes.last_mut() {
            *last ^= 0xFF;
        }
        fs::write(&path, &bytes).expect("corrupt");
        assert!(run.load_job("s", 3).is_none(), "corrupt entry rejected");
        let _ = fs::remove_dir_all(run.root());
    }

    #[test]
    fn prepare_resume_semantics() {
        let run = RunDir::at(tmp_root("pr"));
        // Fresh run: nothing kept.
        assert!(!run.prepare(&manifest(1), false).expect("fresh"));
        run.store_job("s", 0, b"a").expect("store");
        // Resume with matching fingerprint: journal kept.
        assert!(run.prepare(&manifest(1), true).expect("resume"));
        assert!(run.load_job("s", 0).is_some());
        // Resume with a *different* fingerprint: journal wiped.
        assert!(!run.prepare(&manifest(2), true).expect("stale"));
        assert!(run.load_job("s", 0).is_none(), "stale journal wiped");
        // Non-resume prepare always wipes.
        run.store_job("s", 0, b"b").expect("store");
        assert!(!run.prepare(&manifest(2), false).expect("fresh again"));
        assert!(run.load_job("s", 0).is_none());
        let _ = fs::remove_dir_all(run.root());
    }

    #[test]
    fn prepare_shard_wipe_semantics() {
        let run = RunDir::at(tmp_root("ps"));
        assert!(!run.prepare(&manifest(1), false).expect("fresh"));
        let shard = run.shards_dir().join("shard-00000.bin");
        fs::create_dir_all(run.shards_dir()).expect("mkdir");
        fs::write(&shard, b"x").expect("seed shard");
        // Matching resume keeps shards; any mismatch wipes them.
        assert!(run.prepare(&manifest(1), true).expect("resume"));
        assert!(shard.is_file(), "matching resume keeps shards");
        assert!(!run.prepare(&manifest(2), true).expect("stale"));
        assert!(!shard.exists(), "stale fingerprint wipes shards");
        let _ = fs::remove_dir_all(run.root());
    }

    #[test]
    fn manifest_roundtrips_through_json() {
        let m = manifest(42);
        let json = serde_json::to_string_pretty(&m).expect("serialise");
        let back: Manifest = serde_json::from_str(&json).expect("parse");
        assert_eq!(back.fingerprint, m.fingerprint);
        assert_eq!(back.version, m.version);
        assert_eq!(back.argv, m.argv);
    }

    #[test]
    fn git_hash_resolves_in_this_repo() {
        let hash = workspace_git_hash();
        // Inside the workspace checkout this is a 40-hex commit id.
        assert!(hash == "unknown" || hash.len() >= 7, "hash: {hash}");
    }
}
