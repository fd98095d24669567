//! Crash-safe campaign checkpoints: periodic atomic snapshots of completed
//! work units, resumable into byte-identical reports.
//!
//! # Model
//!
//! Every campaign runs in *work units* — the selected injection sites of
//! one trace cycle in one sampling round — and the engine is structured so
//! each unit's contribution (result-row deltas, engine counter deltas,
//! failure-cache entries, records) is independent of which other units
//! ran, on which worker and in what order (see the campaign module docs).
//! A checkpoint is therefore just the set of completed units with their
//! serialized contributions: resuming replays the stored contributions for
//! completed units and computes the rest, and the merged report is
//! bit-for-bit the uninterrupted run's under any `threads × lanes ×
//! timing_lanes` combination.
//!
//! # File format
//!
//! A plain-text, line-oriented format (the workspace is offline; no serde):
//!
//! ```text
//! delayavf-checkpoint v5 <kind>
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
//! `collapse` — but **not** `threads`, which the stats are invariant to).
//! Resuming against a file whose kind, fingerprint or knob hash differs
//! fails with a pinned `checkpoint mismatch` error instead of silently
//! merging foreign tallies.
//!
//! A unit's key is `round << 44 | cycle` (so a uniform campaign's keys are
//! its cycles) and its payload is a `UnitPayload`: the tagged sections
//! its kind carries (`rows`, `vis`, `rec`, `cls`, `stats`, `fc`), always
//! in that order.
//!
//! # Atomicity
//!
//! Flushes rewrite the whole file through a sibling temp file followed by
//! [`std::fs::rename`] — on every mainstream platform a rename within one
//! directory is atomic, so a crash leaves either the previous complete
//! snapshot or the new one, never a torn file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use delayavf_netlist::{DffId, EdgeId};

use crate::injector::{FailureClass, InjectionOutcome, InjectorStats};
use crate::razor::InjectionRecord;
use crate::result::{DelayAvfResult, OraceStats};

/// Checkpoint file format version; bumped on any layout change. A version
/// mismatch on resume is rejected like any other stale checkpoint.
pub const CHECKPOINT_FORMAT_VERSION: u64 = 5;

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
/// messages.
struct Tokens<'a> {
    it: std::str::SplitWhitespace<'a>,
}

impl<'a> Tokens<'a> {
    fn new(payload: &'a str) -> Self {
        Tokens {
            it: payload.split_whitespace(),
        }
    }

    fn next_str(&mut self, what: &str) -> Result<&'a str, String> {
        self.it
            .next()
            .ok_or_else(|| format!("checkpoint parse error: missing {what}"))
    }

    fn next_u64(&mut self, what: &str) -> Result<u64, String> {
        let tok = self.next_str(what)?;
        tok.parse()
            .map_err(|e| format!("checkpoint parse error: bad {what} `{tok}`: {e}"))
    }

    fn next_usize(&mut self, what: &str) -> Result<usize, String> {
        Ok(self.next_u64(what)? as usize)
    }

    /// Asserts the next token equals `tag` (payload section marker).
    fn expect(&mut self, tag: &str) -> Result<(), String> {
        let tok = self.next_str(tag)?;
        if tok != tag {
            return Err(format!(
                "checkpoint parse error: expected `{tag}`, found `{tok}`"
            ));
        }
        Ok(())
    }

    /// Peeks whether any token remains.
    fn finished(&mut self) -> bool {
        self.it.clone().next().is_none()
    }

    /// A netlist id index, which must fit the ids' `u32` range.
    fn next_id(&mut self, what: &str) -> Result<usize, String> {
        let tok = self.next_str(what)?;
        tok.parse::<u32>()
            .map(|i| i as usize)
            .map_err(|e| format!("checkpoint parse error: bad {what} `{tok}`: {e}"))
    }

    /// A length-prefixed flip set (`<len> <dff>...`).
    fn next_dffs(&mut self) -> Result<Vec<DffId>, String> {
        let len = self.next_usize("flip-set length")?;
        let mut dffs = Vec::new();
        for _ in 0..len {
            dffs.push(DffId::from_index(self.next_id("flip-set dff")?));
        }
        Ok(dffs)
    }

    /// A `.`-prefixed string of one-character flags, each decoded by `f`.
    fn next_chars<T>(
        &mut self,
        what: &str,
        f: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let tok = self.next_str(what)?;
        let body = tok
            .strip_prefix('.')
            .ok_or_else(|| format!("checkpoint parse error: bad {what} `{tok}`"))?;
        body.char_indices()
            .map(|(i, c)| f(&body[i..i + c.len_utf8()]))
            .collect()
    }
}

/// One completed unit's contribution: what the campaign merges, and what
/// its checkpoint line stores. A kind fills the sections its [`Layout`]
/// names and leaves the rest `None`.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct UnitPayload {
    /// Result rows, one per delay fraction (`rows`).
    pub(crate) rows: Option<Vec<DelayAvfResult>>,
    /// Per-injection program visibility, fraction-major over the unit's
    /// sites (`vis`).
    pub(crate) vis: Option<Vec<bool>>,
    /// Injection records, in site order (`rec`).
    pub(crate) records: Option<Vec<InjectionRecord>>,
    /// One failure class per struck flip set, in strike order (`cls`).
    pub(crate) classes: Option<Vec<FailureClass>>,
    /// The unit's engine-counter delta (`stats`).
    pub(crate) stats: Option<InjectorStats>,
    /// The failure-cache entries at the unit's latch boundary, sorted by
    /// flip set (`fc`).
    pub(crate) failures: Option<Vec<(Vec<DffId>, FailureClass)>>,
}

/// The sections one campaign kind's payloads carry, with the sizes the
/// decoder checks them against.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Layout<'a> {
    /// Rows for these delay fractions, with ORACE counters when `true`.
    pub(crate) rows: Option<(&'a [f64], bool)>,
    /// Number of visibility flags.
    pub(crate) vis: Option<usize>,
    /// Number of records.
    pub(crate) records: Option<usize>,
    /// Number of classes.
    pub(crate) classes: Option<usize>,
    /// Whether the stats section is present.
    pub(crate) stats: bool,
    /// Whether the failure-cache section is present.
    pub(crate) failures: bool,
}

fn encode_class(class: FailureClass) -> char {
    match class {
        FailureClass::Masked => 'M',
        FailureClass::Sdc => 'S',
        FailureClass::Due => 'D',
    }
}

/// The one class-token decoder: exactly `M`, `S` or `D`.
fn decode_class(tok: &str) -> Result<FailureClass, String> {
    match tok {
        "M" => Ok(FailureClass::Masked),
        "S" => Ok(FailureClass::Sdc),
        "D" => Ok(FailureClass::Due),
        other => Err(format!(
            "checkpoint parse error: bad failure class `{other}`"
        )),
    }
}

/// Serializes a unit: its present sections, tagged, in the fixed order.
pub(crate) fn encode_unit(unit: &UnitPayload) -> String {
    let mut out = String::new();
    let tag = |out: &mut String, tag: &str| {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(tag);
    };
    if let Some(rows) = &unit.rows {
        tag(&mut out, "rows");
        let _ = write!(out, " {}", rows.len());
        for r in rows {
            let _ = write!(
                out,
                " {} {} {} {} {} {} {}",
                r.injections,
                r.static_hits,
                r.dynamic_hits,
                r.delay_ace_hits,
                r.sdc_hits,
                r.due_hits,
                r.multi_bit_hits
            );
            if let Some(o) = &r.orace {
                let _ = write!(out, " {} {} {}", o.or_hits, o.interference, o.compounding);
            }
        }
    }
    if let Some(vis) = &unit.vis {
        // A leading `.` keeps an empty string a token.
        tag(&mut out, "vis .");
        out.extend(vis.iter().map(|&v| if v { '1' } else { '0' }));
    }
    if let Some(records) = &unit.records {
        tag(&mut out, "rec");
        let _ = write!(out, " {}", records.len());
        for r in records {
            let o = &r.outcome;
            let _ = write!(
                out,
                " {} {} {} {}",
                r.edge.index(),
                o.statically_reachable,
                encode_class(o.class),
                o.dynamic_set.len()
            );
            for d in &o.dynamic_set {
                let _ = write!(out, " {}", d.index());
            }
        }
    }
    if let Some(classes) = &unit.classes {
        tag(&mut out, "cls .");
        out.extend(classes.iter().map(|&c| encode_class(c)));
    }
    if let Some(stats) = &unit.stats {
        tag(&mut out, "stats");
        for v in stats.values() {
            let _ = write!(out, " {v}");
        }
    }
    if let Some(failures) = &unit.failures {
        tag(&mut out, "fc");
        let _ = write!(out, " {}", failures.len());
        for (set, class) in failures {
            let _ = write!(out, " {} {}", encode_class(*class), set.len());
            for d in set {
                let _ = write!(out, " {}", d.index());
            }
        }
    }
    out
}

/// Parses a unit payload of a kind with the given `layout`, rebuilding
/// records at `cycle`. Every section the layout names must be present, in
/// order and of the expected size, and nothing else. Counts read from the
/// payload never size an allocation: vectors grow as their tokens arrive.
pub(crate) fn decode_unit(
    payload: &str,
    layout: &Layout<'_>,
    cycle: u64,
) -> Result<UnitPayload, String> {
    let mut t = Tokens::new(payload);
    let mut unit = UnitPayload::default();
    if let Some((fractions, orace)) = layout.rows {
        t.expect("rows")?;
        expect_count(t.next_usize("row count")?, fractions.len(), "rows")?;
        let mut rows = Vec::new();
        for &delay_fraction in fractions {
            rows.push(DelayAvfResult {
                delay_fraction,
                injections: t.next_usize("injections")?,
                static_hits: t.next_usize("static_hits")?,
                dynamic_hits: t.next_usize("dynamic_hits")?,
                delay_ace_hits: t.next_usize("delay_ace_hits")?,
                sdc_hits: t.next_usize("sdc_hits")?,
                due_hits: t.next_usize("due_hits")?,
                multi_bit_hits: t.next_usize("multi_bit_hits")?,
                orace: if orace {
                    Some(OraceStats {
                        or_hits: t.next_usize("or_hits")?,
                        interference: t.next_usize("interference")?,
                        compounding: t.next_usize("compounding")?,
                    })
                } else {
                    None
                },
                adaptive: None,
            });
        }
        unit.rows = Some(rows);
    }
    if let Some(n) = layout.vis {
        t.expect("vis")?;
        let vis = t.next_chars("visibility flags", |tok| match tok {
            "1" => Ok(true),
            "0" => Ok(false),
            other => Err(format!(
                "checkpoint parse error: bad visibility flag `{other}`"
            )),
        })?;
        expect_count(vis.len(), n, "visibility flags")?;
        unit.vis = Some(vis);
    }
    if let Some(n) = layout.records {
        t.expect("rec")?;
        expect_count(t.next_usize("record count")?, n, "records")?;
        let mut records = Vec::new();
        for _ in 0..n {
            let edge = EdgeId::from_index(t.next_id("record edge")?);
            let statically_reachable = t.next_usize("statically reachable count")?;
            let class = decode_class(t.next_str("record class")?)?;
            let dynamic_set = t.next_dffs()?;
            records.push(InjectionRecord {
                cycle,
                edge,
                outcome: InjectionOutcome {
                    statically_reachable,
                    dynamic_set,
                    visible: class.is_visible(),
                    class,
                },
            });
        }
        unit.records = Some(records);
    }
    if let Some(n) = layout.classes {
        t.expect("cls")?;
        let classes = t.next_chars("class string", decode_class)?;
        expect_count(classes.len(), n, "classes")?;
        unit.classes = Some(classes);
    }
    if layout.stats {
        t.expect("stats")?;
        let mut values = [0; InjectorStats::COUNT];
        for (v, name) in values.iter_mut().zip(InjectorStats::NAMES) {
            *v = t.next_u64(name)?;
        }
        unit.stats = Some(InjectorStats::from_values(values));
    }
    if layout.failures {
        t.expect("fc")?;
        let entries = t.next_usize("failure-cache entry count")?;
        let mut failures = Vec::new();
        for _ in 0..entries {
            let class = decode_class(t.next_str("failure class")?)?;
            failures.push((t.next_dffs()?, class));
        }
        unit.failures = Some(failures);
    }
    if !t.finished() {
        return Err("checkpoint parse error: trailing payload tokens".into());
    }
    Ok(unit)
}

fn expect_count(got: usize, want: usize, what: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "checkpoint parse error: {got} {what} != {want} expected"
        ))
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
            "delayavf-checkpoint v5 savf\nfingerprint zz\nknobs 0\n",
            "delayavf-checkpoint v5 savf\nfingerprint 0000000000000007\nknobs 0000000000000009\nwat\n",
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
