//! Crash-safe campaign checkpoints: periodic atomic snapshots of completed
//! work units, resumable into byte-identical reports.
//!
//! # Model
//!
//! Every campaign's queue axis (trace cycles, or bits for the per-bit
//! campaign) doubles as its **work-unit** axis, and the engine is
//! structured so each unit's contribution — result-row deltas, engine
//! counter deltas, failure-cache entries, records — is independent of
//! which other units ran, on which worker and in what order (see the
//! campaign module docs). A checkpoint is therefore just the set of completed units with
//! their serialized contributions: resuming replays the stored
//! contributions for completed units and computes the rest, and the merged
//! report is bit-for-bit the uninterrupted run's under any `threads ×
//! lanes × timing_lanes` combination.
//!
//! # File format
//!
//! A plain-text, line-oriented format (the workspace is offline; no serde):
//!
//! ```text
//! delayavf-checkpoint v3 <kind>
//! fingerprint <hex16>
//! knobs <hex16>
//! unit <key> <payload tokens...>
//! ...
//! ```
//!
//! `kind` names the campaign flavor, `fingerprint` pins everything that
//! determines the results (netlist + timing digest, golden trace, item
//! list, fractions, DUE slack), and `knobs` pins the engine knobs that
//! shape the *counters* without changing results (`lanes`, `timing_lanes`,
//! `collapse` — but **not** `threads`, which the stats are invariant to). Resuming against a file whose kind, fingerprint or knob hash
//! differs fails with a pinned `checkpoint mismatch` error instead of
//! silently merging foreign tallies.
//!
//! # Atomicity
//!
//! Flushes rewrite the whole file through a sibling temp file followed by
//! [`std::fs::rename`] — on every mainstream platform a rename within one
//! directory is atomic, so a crash leaves either the previous complete
//! snapshot or the new one, never a torn file.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Checkpoint file format version; bumped on any layout change. A version
/// mismatch on resume is rejected like any other stale checkpoint.
pub const CHECKPOINT_FORMAT_VERSION: u64 = 3;

const MAGIC: &str = "delayavf-checkpoint";

/// Where and how often a campaign should checkpoint, and whether to resume
/// from an existing file. Carried by [`crate::RunContext`].
#[derive(Clone, Debug)]
pub struct CheckpointSpec {
    /// Checkpoint file path (one file per campaign invocation).
    pub path: PathBuf,
    /// Flush after this many newly completed units (clamped to ≥ 1). Every
    /// campaign also flushes once at the end regardless.
    pub every: usize,
    /// Load completed units from `path` before running. A missing file is
    /// a fresh start, not an error (so `--resume` is safe to pass
    /// unconditionally); an *incompatible* file is a hard
    /// `checkpoint mismatch` error.
    pub resume: bool,
}

impl CheckpointSpec {
    /// A spec flushing every `every` completed units.
    pub fn new(path: impl Into<PathBuf>, every: usize, resume: bool) -> Self {
        CheckpointSpec {
            path: path.into(),
            every,
            resume,
        }
    }
}

/// Incremental FNV-1a (64-bit) — the workspace-standard tiny hasher for
/// content fingerprints (not collision-resistant against adversaries, more
/// than strong enough to catch config/netlist/trace drift).
#[derive(Clone, Debug)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fingerprint::default()
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorbs one little-endian `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs one `usize` (as `u64`, platform-independently).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorbs one `f64` by exact bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorbs a bool as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write_bytes(&[v as u8]);
    }

    /// The accumulated 64-bit digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The persistent side of one checkpointed campaign: the validated header
/// plus every completed unit's serialized payload, keyed by its position
/// on the campaign's unit axis.
#[derive(Debug)]
pub(crate) struct CheckpointStore {
    path: PathBuf,
    header: String,
    units: BTreeMap<u64, String>,
    every: usize,
    fresh: usize,
}

impl CheckpointStore {
    /// Opens (or initializes) the store for a campaign of the given `kind`
    /// whose inputs hash to `fingerprint` and whose counter-shaping knobs
    /// hash to `knobs`.
    ///
    /// With `spec.resume` set and `spec.path` present, the file is parsed
    /// and validated; its units become the resumed set. Any header
    /// disagreement is a `checkpoint mismatch` error. Without `resume`, an
    /// existing file is simply overwritten at the first flush.
    pub(crate) fn open(
        spec: &CheckpointSpec,
        kind: &str,
        fingerprint: u64,
        knobs: u64,
    ) -> Result<CheckpointStore, String> {
        debug_assert!(!kind.contains(char::is_whitespace));
        let header = format!(
            "{MAGIC} v{CHECKPOINT_FORMAT_VERSION} {kind}\nfingerprint {fingerprint:016x}\nknobs {knobs:016x}\n"
        );
        let mut store = CheckpointStore {
            path: spec.path.clone(),
            header,
            units: BTreeMap::new(),
            every: spec.every.max(1),
            fresh: 0,
        };
        if spec.resume && spec.path.exists() {
            let text = fs::read_to_string(&spec.path)
                .map_err(|e| format!("cannot read checkpoint {}: {e}", spec.path.display()))?;
            store.units = parse_checkpoint(&text, &spec.path, kind, fingerprint, knobs)?;
        }
        Ok(store)
    }

    /// The units restored from a resumed file (empty on a fresh run).
    pub(crate) fn resumed_units(&self) -> &BTreeMap<u64, String> {
        &self.units
    }

    /// Records one newly completed unit; flushes atomically once `every`
    /// fresh units have accumulated. Returns whether a flush happened (so
    /// the caller can emit a telemetry marker).
    pub(crate) fn record(&mut self, key: u64, payload: String) -> Result<bool, String> {
        debug_assert!(!payload.contains('\n'));
        self.units.insert(key, payload);
        self.fresh += 1;
        if self.fresh >= self.every {
            self.flush()?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Completed units currently recorded (resumed + fresh).
    pub(crate) fn completed(&self) -> usize {
        self.units.len()
    }

    /// Atomically rewrites the checkpoint file with every recorded unit.
    pub(crate) fn flush(&mut self) -> Result<(), String> {
        self.fresh = 0;
        let mut text = String::with_capacity(self.header.len() + self.units.len() * 64);
        text.push_str(&self.header);
        for (key, payload) in &self.units {
            text.push_str("unit ");
            text.push_str(&key.to_string());
            if !payload.is_empty() {
                text.push(' ');
                text.push_str(payload);
            }
            text.push('\n');
        }
        let tmp = sibling_tmp(&self.path);
        let write = |p: &Path| -> std::io::Result<()> {
            let mut f = fs::File::create(p)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()
        };
        write(&tmp).map_err(|e| format!("cannot write checkpoint {}: {e}", tmp.display()))?;
        fs::rename(&tmp, &self.path)
            .map_err(|e| format!("cannot publish checkpoint {}: {e}", self.path.display()))
    }
}

fn sibling_tmp(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Parses and validates a checkpoint file against the resuming campaign's
/// identity. Every rejection message contains the pinned phrase
/// `checkpoint mismatch` (for incompatible-but-well-formed files) or
/// `checkpoint parse error` (for torn/corrupt ones).
fn parse_checkpoint(
    text: &str,
    path: &Path,
    kind: &str,
    fingerprint: u64,
    knobs: u64,
) -> Result<BTreeMap<u64, String>, String> {
    let shown = path.display();
    let mut lines = text.lines();
    let magic = lines
        .next()
        .ok_or_else(|| format!("checkpoint parse error in {shown}: empty file"))?;
    let mut head = magic.split_whitespace();
    if head.next() != Some(MAGIC) {
        return Err(format!(
            "checkpoint parse error in {shown}: not a checkpoint file"
        ));
    }
    let version = head.next().unwrap_or("");
    let expect_version = format!("v{CHECKPOINT_FORMAT_VERSION}");
    if version != expect_version {
        return Err(format!(
            "checkpoint mismatch in {shown}: format version {version} != {expect_version}"
        ));
    }
    let stored_kind = head.next().unwrap_or("");
    if stored_kind != kind {
        return Err(format!(
            "checkpoint mismatch in {shown}: campaign kind `{stored_kind}` != `{kind}`"
        ));
    }
    let mut expect_hex = |label: &str, want: u64, what: &str| -> Result<(), String> {
        let line = lines
            .next()
            .ok_or_else(|| format!("checkpoint parse error in {shown}: missing {label} line"))?;
        let mut toks = line.split_whitespace();
        if toks.next() != Some(label) {
            return Err(format!(
                "checkpoint parse error in {shown}: expected {label} line, found `{line}`"
            ));
        }
        let hex = toks.next().unwrap_or("");
        let got = u64::from_str_radix(hex, 16)
            .map_err(|e| format!("checkpoint parse error in {shown}: bad {label} `{hex}`: {e}"))?;
        if got != want {
            return Err(format!(
                "checkpoint mismatch in {shown}: {what} {got:016x} != {want:016x} — the checkpoint \
                 was written by a campaign with different {what}; delete the file or rerun without --resume"
            ));
        }
        Ok(())
    };
    expect_hex("fingerprint", fingerprint, "config/netlist fingerprint")?;
    expect_hex("knobs", knobs, "engine knobs")?;
    let mut units = BTreeMap::new();
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let rest = line.strip_prefix("unit ").ok_or_else(|| {
            format!("checkpoint parse error in {shown}: unexpected line `{line}`")
        })?;
        let (key_tok, payload) = match rest.split_once(' ') {
            Some((k, p)) => (k, p),
            None => (rest, ""),
        };
        let key: u64 = key_tok.parse().map_err(|e| {
            format!("checkpoint parse error in {shown}: bad unit key `{key_tok}`: {e}")
        })?;
        units.insert(key, payload.to_owned());
    }
    Ok(units)
}

/// A whitespace-token cursor over one unit payload, with contextual error
/// messages (shared by the campaign decoders).
pub(crate) struct Tokens<'a> {
    it: std::str::SplitWhitespace<'a>,
}

impl<'a> Tokens<'a> {
    pub(crate) fn new(payload: &'a str) -> Self {
        Tokens {
            it: payload.split_whitespace(),
        }
    }

    pub(crate) fn next_str(&mut self, what: &str) -> Result<&'a str, String> {
        self.it
            .next()
            .ok_or_else(|| format!("checkpoint parse error: missing {what}"))
    }

    pub(crate) fn next_u64(&mut self, what: &str) -> Result<u64, String> {
        let tok = self.next_str(what)?;
        tok.parse()
            .map_err(|e| format!("checkpoint parse error: bad {what} `{tok}`: {e}"))
    }

    pub(crate) fn next_usize(&mut self, what: &str) -> Result<usize, String> {
        Ok(self.next_u64(what)? as usize)
    }

    /// Asserts the next token equals `tag` (payload section marker).
    pub(crate) fn expect(&mut self, tag: &str) -> Result<(), String> {
        let tok = self.next_str(tag)?;
        if tok != tag {
            return Err(format!(
                "checkpoint parse error: expected `{tag}`, found `{tok}`"
            ));
        }
        Ok(())
    }

    /// Peeks whether any token remains.
    pub(crate) fn finished(&mut self) -> bool {
        self.it.clone().next().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir() -> PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "delayavf-ckpt-unit-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trips_units_through_the_file() {
        let dir = tmpdir();
        let spec = CheckpointSpec::new(dir.join("a.ckpt"), 2, false);
        let mut store = CheckpointStore::open(&spec, "delay_sweep", 0xabc, 0xdef).unwrap();
        assert!(!store.record(3, "x 1 2".into()).unwrap());
        assert!(store.record(1, "y 9".into()).unwrap(), "every=2 flushes");
        store.record(2, String::new()).unwrap();
        store.flush().unwrap();

        let resume = CheckpointSpec::new(dir.join("a.ckpt"), 2, true);
        let loaded = CheckpointStore::open(&resume, "delay_sweep", 0xabc, 0xdef).unwrap();
        let units: Vec<(u64, String)> = loaded
            .resumed_units()
            .iter()
            .map(|(&k, v)| (k, v.clone()))
            .collect();
        assert_eq!(
            units,
            vec![(1, "y 9".into()), (2, String::new()), (3, "x 1 2".into())]
        );
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn mismatches_are_rejected_with_the_pinned_phrase() {
        let dir = tmpdir();
        let spec = CheckpointSpec::new(dir.join("b.ckpt"), 1, false);
        let mut store = CheckpointStore::open(&spec, "savf", 7, 9).unwrap();
        store.record(5, "1 1".into()).unwrap();

        let resume = CheckpointSpec::new(dir.join("b.ckpt"), 1, true);
        for (kind, fp, knobs, what) in [
            ("delay_sweep", 7, 9, "kind"),
            ("savf", 8, 9, "fingerprint"),
            ("savf", 7, 10, "knobs"),
        ] {
            let err = CheckpointStore::open(&resume, kind, fp, knobs).unwrap_err();
            assert!(
                err.contains("checkpoint mismatch"),
                "{what}: pinned phrase missing from `{err}`"
            );
        }
        // The matching identity still loads.
        assert!(CheckpointStore::open(&resume, "savf", 7, 9).is_ok());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn corrupt_files_are_parse_errors_not_silent_fresh_starts() {
        let dir = tmpdir();
        let path = dir.join("c.ckpt");
        for garbage in [
            "",
            "not a checkpoint\n",
            "delayavf-checkpoint v999 savf\nfingerprint 0\nknobs 0\n",
            "delayavf-checkpoint v3 savf\nfingerprint zz\nknobs 0\n",
            "delayavf-checkpoint v3 savf\nfingerprint 0000000000000007\nknobs 0000000000000009\nwat\n",
        ] {
            fs::write(&path, garbage).unwrap();
            let resume = CheckpointSpec::new(&path, 1, true);
            let err = CheckpointStore::open(&resume, "savf", 7, 9).unwrap_err();
            assert!(
                err.contains("checkpoint parse error") || err.contains("checkpoint mismatch"),
                "unexpected error for {garbage:?}: {err}"
            );
        }
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn missing_file_resumes_as_fresh_start() {
        let dir = tmpdir();
        let resume = CheckpointSpec::new(dir.join("absent.ckpt"), 4, true);
        let store = CheckpointStore::open(&resume, "savf", 1, 2).unwrap();
        assert!(store.resumed_units().is_empty());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let mut a = Fingerprint::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fingerprint::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = Fingerprint::new();
        c.write_f64(0.5);
        c.write_bool(true);
        let mut d = Fingerprint::new();
        d.write_f64(0.5);
        d.write_bool(false);
        assert_ne!(c.finish(), d.finish());
    }

    #[test]
    fn tokens_cursor_reports_contextual_errors() {
        let mut t = Tokens::new("fc 3 7");
        t.expect("fc").unwrap();
        assert_eq!(t.next_u64("boundary").unwrap(), 3);
        assert_eq!(t.next_usize("count").unwrap(), 7);
        assert!(t.finished());
        assert!(t.next_str("more").unwrap_err().contains("missing more"));
        let mut bad = Tokens::new("xy");
        assert!(bad.expect("fc").unwrap_err().contains("expected `fc`"));
    }
}
