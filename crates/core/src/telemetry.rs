//! Structured campaign observability: a JSONL event stream behind a
//! zero-cost-when-disabled sink trait.
//!
//! Long campaigns (the paper's full five-structure × five-benchmark
//! evaluation is a multi-hour run) need a progress signal that can be
//! tailed, parsed and graphed without touching the deterministic report
//! path. This module provides:
//!
//! * [`TelemetrySink`] — the campaign-side abstraction. The associated
//!   `ENABLED` constant lets the campaign engine skip *all* observability
//!   work (including every `Instant::now()` call) when the sink is
//!   [`NullTelemetry`]: campaigns are generic over the sink type, so the
//!   disabled path monomorphizes to exactly the code that existed before
//!   telemetry was added.
//! * [`JsonlTelemetry`] — a line-per-event JSON emitter over any writer,
//!   with a process-monotonic `t_ms` clock (an [`Instant`] anchor, never
//!   `SystemTime`, so no wall-clock value can leak anywhere near the
//!   deterministic tallies).
//! * a minimal flat-JSON parser plus [`validate_line`], the versioned
//!   schema contract the telemetry test suite checks every emitted line
//!   against.
//!
//! Event stream shape (schema version [`TELEMETRY_SCHEMA_VERSION`]): one
//! `campaign_start` per campaign, `shard_heartbeat` progress beats from
//! the workers (campaign-wide done/total counts, units/sec and an ETA),
//! per-worker `phase_timers` wall-clock totals (golden-settle build /
//! timing step / GroupACE replay), periodic `stats_delta` engine-counter
//! deltas, `checkpoint_flush` markers, and a final `campaign_end`.

use std::fmt::Write as _;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

use crate::injector::InjectorStats;

/// Version stamped into every emitted line as `"v"`; bumped whenever an
/// event gains, loses or renames a field.
pub const TELEMETRY_SCHEMA_VERSION: u64 = 7;

/// Per-worker wall-clock totals of the three phases of a DelayAVF work
/// unit, in microseconds. Only accumulated when the sink is enabled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Reconstructing the golden per-cycle context (settled previous-cycle
    /// net values plus the latched state words) shared by every injection
    /// at a cycle.
    pub golden_settle_us: u64,
    /// The timing-aware step: event/delta simulation of the faulty cycle
    /// for every (edge, fraction) at the unit's cycle.
    pub timing_step_us: u64,
    /// The timing-agnostic step: batched GroupACE replays plus the
    /// cache-served classification sweep.
    pub replay_us: u64,
}

impl PhaseTotals {
    /// Adds another unit's phase totals into this accumulator.
    pub fn merge(&mut self, other: &PhaseTotals) {
        self.golden_settle_us += other.golden_settle_us;
        self.timing_step_us += other.timing_step_us;
        self.replay_us += other.replay_us;
    }
}

/// One observability event. Borrowed fields keep emission allocation-free
/// on the campaign side.
#[derive(Clone, Copy, Debug)]
pub enum TelemetryEvent<'a> {
    /// A campaign is starting: how much work it has and how many workers
    /// run it.
    CampaignStart {
        /// Campaign kind label (`delay_sweep`, `savf`, ...).
        campaign: &'a str,
        /// Trace cycles the campaign injects at. A uniform campaign runs
        /// one unit per cycle; an adaptive one schedules its units round
        /// by round (see `ShardHeartbeat::total`).
        units: usize,
        /// Resolved worker-thread count.
        threads: usize,
        /// Units restored from a resumed checkpoint (0 on a fresh run).
        resumed_units: usize,
    },
    /// Periodic campaign progress from one worker: always emitted for a
    /// worker's first unit and for the campaign's last unit, and at most
    /// every ~250 ms per worker in between. `done` never decreases along
    /// the stream, and the campaign's last heartbeat has `done == total`.
    ShardHeartbeat {
        /// Index of the emitting worker (workers pull whole units from one
        /// shared queue, so no worker owns a fixed slice of the units).
        shard: usize,
        /// Units finished campaign-wide so far, by all workers.
        done: usize,
        /// Units the campaign has scheduled so far: every unit for a
        /// uniform campaign; for an adaptive one, the units of the rounds
        /// issued so far.
        total: usize,
        /// Finished units per wall-clock second since the campaign
        /// started (resumed units count — they are real progress through
        /// the unit axis).
        units_per_sec: f64,
        /// Estimated seconds until the scheduled units are finished at the
        /// current rate.
        eta_s: f64,
    },
    /// A worker's accumulated per-phase wall-clock totals, emitted once
    /// when it runs out of units.
    PhaseTimers {
        /// Worker index.
        shard: usize,
        /// Phase totals in microseconds.
        phases: PhaseTotals,
    },
    /// Engine-counter delta since the previous `stats_delta` of the same
    /// worker (emitted with heartbeats and when the worker runs out of
    /// units, for campaigns that track stats).
    StatsDelta {
        /// Worker index.
        shard: usize,
        /// The counter delta.
        stats: InjectorStats,
    },
    /// A checkpoint file was atomically rewritten.
    CheckpointFlush {
        /// Completed units recorded in the flushed file.
        completed_units: usize,
    },
    /// A campaign finished; its report is complete.
    CampaignEnd {
        /// Campaign kind label.
        campaign: &'a str,
        /// Total work units processed (computed + resumed).
        units: usize,
        /// Wall-clock milliseconds for the whole campaign.
        wall_ms: u64,
    },
}

/// A campaign observability sink.
///
/// Implementations must be [`Sync`]: one sink instance is shared by all
/// worker threads of a campaign.
pub trait TelemetrySink: Sync {
    /// Whether this sink observes anything at all. Campaigns consult this
    /// *constant* to skip clock reads and event construction entirely, so
    /// a disabled sink has zero cost — not merely a cheap no-op call.
    const ENABLED: bool;

    /// Consumes one event. Implementations should never panic and should
    /// swallow I/O errors (telemetry is best-effort by design — losing an
    /// event must not kill a multi-hour campaign).
    fn emit(&self, event: &TelemetryEvent<'_>);
}

/// The disabled sink: campaigns monomorphized over it contain no
/// observability code at all.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullTelemetry;

/// A shared static disabled sink, used by [`crate::RunContext::disabled`].
pub static NULL_TELEMETRY: NullTelemetry = NullTelemetry;

impl TelemetrySink for NullTelemetry {
    const ENABLED: bool = false;

    #[inline]
    fn emit(&self, _event: &TelemetryEvent<'_>) {}
}

/// A JSONL emitter: one flat JSON object per line on the wrapped writer.
///
/// Timestamps (`t_ms`) are milliseconds since the sink was created,
/// measured with the monotonic [`Instant`] clock — wall-clock time never
/// enters the event stream, and nothing read from this clock flows into
/// campaign tallies.
pub struct JsonlTelemetry<W: Write + Send> {
    started: Instant,
    out: Mutex<W>,
}

impl<W: Write + Send> JsonlTelemetry<W> {
    /// Creates a sink writing to `out`; the `t_ms` clock starts now.
    pub fn new(out: W) -> Self {
        JsonlTelemetry {
            started: Instant::now(),
            out: Mutex::new(out),
        }
    }

    /// Unwraps the inner writer (flushing is the caller's concern; every
    /// emitted line is already flushed).
    pub fn into_inner(self) -> W {
        self.out.into_inner().unwrap_or_else(|p| p.into_inner())
    }

    fn render(&self, event: &TelemetryEvent<'_>) -> String {
        let t_ms = self.started.elapsed().as_millis() as u64;
        let mut s = String::with_capacity(160);
        let _ = write!(
            s,
            "{{\"v\":{TELEMETRY_SCHEMA_VERSION},\"t_ms\":{t_ms},\"event\":"
        );
        match event {
            TelemetryEvent::CampaignStart {
                campaign,
                units,
                threads,
                resumed_units,
            } => {
                push_str_field(&mut s, "\"campaign_start\",\"campaign\":", campaign);
                let _ = write!(
                    s,
                    ",\"units\":{units},\"threads\":{threads},\"resumed_units\":{resumed_units}"
                );
            }
            TelemetryEvent::ShardHeartbeat {
                shard,
                done,
                total,
                units_per_sec,
                eta_s,
            } => {
                let _ = write!(
                    s,
                    "\"shard_heartbeat\",\"shard\":{shard},\"done\":{done},\"total\":{total},\
                     \"units_per_sec\":{},\"eta_s\":{}",
                    finite(*units_per_sec),
                    finite(*eta_s)
                );
            }
            TelemetryEvent::PhaseTimers { shard, phases } => {
                let _ = write!(
                    s,
                    "\"phase_timers\",\"shard\":{shard},\"golden_settle_us\":{},\
                     \"timing_step_us\":{},\"replay_us\":{}",
                    phases.golden_settle_us, phases.timing_step_us, phases.replay_us
                );
            }
            TelemetryEvent::StatsDelta { shard, stats } => {
                let _ = write!(s, "\"stats_delta\",\"shard\":{shard}");
                for (name, value) in InjectorStats::NAMES.iter().zip(stats.values()) {
                    let _ = write!(s, ",\"{name}\":{value}");
                }
            }
            TelemetryEvent::CheckpointFlush { completed_units } => {
                let _ = write!(
                    s,
                    "\"checkpoint_flush\",\"completed_units\":{completed_units}"
                );
            }
            TelemetryEvent::CampaignEnd {
                campaign,
                units,
                wall_ms,
            } => {
                push_str_field(&mut s, "\"campaign_end\",\"campaign\":", campaign);
                let _ = write!(s, ",\"units\":{units},\"wall_ms\":{wall_ms}");
            }
        }
        s.push('}');
        s
    }
}

impl<W: Write + Send> TelemetrySink for JsonlTelemetry<W> {
    const ENABLED: bool = true;

    fn emit(&self, event: &TelemetryEvent<'_>) {
        let line = self.render(event);
        if let Ok(mut out) = self.out.lock() {
            // Best-effort: a full disk must not kill the campaign.
            let _ = writeln!(out, "{line}");
            let _ = out.flush();
        }
    }
}

/// Renders a JSON-safe finite number (NaN/∞ degrade to 0, keeping every
/// line parseable).
fn finite(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "0.000".to_owned()
    }
}

fn push_str_field(s: &mut String, prefix: &str, value: &str) {
    s.push_str(prefix);
    s.push('"');
    for ch in value.chars() {
        match ch {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

/// A parsed flat-JSON scalar (the only value kinds the schema uses).
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// A JSON string.
    Str(String),
    /// A JSON number (validation-grade precision: `f64`).
    Num(f64),
}

impl JsonValue {
    /// The numeric value, if this scalar is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
            JsonValue::Str(_) => None,
        }
    }

    /// The string value, if this scalar is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            JsonValue::Num(_) => None,
        }
    }
}

/// Parses one flat JSON object (`{"k":v,...}`, string or number values,
/// no nesting) into its key/value pairs in order.
///
/// # Errors
///
/// Returns a message describing the first syntax violation.
pub fn parse_flat_object(line: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let mut chars = line.trim().chars().peekable();
    let mut fields = Vec::new();
    if chars.next() != Some('{') {
        return Err("expected `{`".into());
    }
    loop {
        skip_ws(&mut chars);
        match chars.peek() {
            Some('}') => {
                chars.next();
                break;
            }
            Some('"') => {}
            other => return Err(format!("expected key string, found {other:?}")),
        }
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next() != Some(':') {
            return Err(format!("expected `:` after key `{key}`"));
        }
        skip_ws(&mut chars);
        let value = match chars.peek() {
            Some('"') => JsonValue::Str(parse_string(&mut chars)?),
            Some(c) if c.is_ascii_digit() || *c == '-' => {
                let mut num = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E') {
                        num.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                JsonValue::Num(
                    num.parse::<f64>()
                        .map_err(|e| format!("bad number `{num}`: {e}"))?,
                )
            }
            other => return Err(format!("unsupported value start {other:?}")),
        };
        fields.push((key, value));
        skip_ws(&mut chars);
        match chars.next() {
            Some(',') => {}
            Some('}') => break,
            other => return Err(format!("expected `,` or `}}`, found {other:?}")),
        }
    }
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return Err("trailing content after object".into());
    }
    Ok(fields)
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
        chars.next();
    }
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<String, String> {
    if chars.next() != Some('"') {
        return Err("expected `\"`".into());
    }
    let mut s = String::new();
    loop {
        match chars.next() {
            Some('"') => return Ok(s),
            Some('\\') => match chars.next() {
                Some('"') => s.push('"'),
                Some('\\') => s.push('\\'),
                Some('u') => {
                    let code: String = (0..4).filter_map(|_| chars.next()).collect();
                    let v = u32::from_str_radix(&code, 16)
                        .map_err(|e| format!("bad \\u escape `{code}`: {e}"))?;
                    s.push(char::from_u32(v).unwrap_or('\u{fffd}'));
                }
                other => return Err(format!("unsupported escape {other:?}")),
            },
            Some(c) => s.push(c),
            None => return Err("unterminated string".into()),
        }
    }
}

/// Validates one emitted JSONL line against the versioned schema and
/// returns its event name.
///
/// Checks: the line parses as a flat object, `v` equals
/// [`TELEMETRY_SCHEMA_VERSION`], `t_ms` is a non-negative number, the
/// event name is known, and every field the event requires is present
/// with the right scalar kind.
///
/// # Errors
///
/// Returns a message naming the missing/mistyped field or unknown event.
pub fn validate_line(line: &str) -> Result<String, String> {
    let fields = parse_flat_object(line)?;
    let get = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    let num = |name: &str| -> Result<f64, String> {
        get(name)
            .and_then(JsonValue::as_num)
            .ok_or_else(|| format!("missing numeric field `{name}`"))
    };
    let string = |name: &str| -> Result<&str, String> {
        get(name)
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("missing string field `{name}`"))
    };
    let v = num("v")?;
    if v != TELEMETRY_SCHEMA_VERSION as f64 {
        return Err(format!("schema version {v} != {TELEMETRY_SCHEMA_VERSION}"));
    }
    if num("t_ms")? < 0.0 {
        return Err("negative t_ms".into());
    }
    let event = string("event")?.to_owned();
    let required_nums: &[&str] = match event.as_str() {
        "campaign_start" => {
            string("campaign")?;
            &["units", "threads", "resumed_units"]
        }
        "shard_heartbeat" => &["shard", "done", "total", "units_per_sec", "eta_s"],
        "phase_timers" => &["shard", "golden_settle_us", "timing_step_us", "replay_us"],
        "stats_delta" => {
            num("shard")?;
            &InjectorStats::NAMES
        }
        "checkpoint_flush" => &["completed_units"],
        "campaign_end" => {
            string("campaign")?;
            &["units", "wall_ms"]
        }
        other => return Err(format!("unknown event `{other}`")),
    };
    for name in required_nums {
        num(name)?;
    }
    Ok(event)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<String> {
        let sink = JsonlTelemetry::new(Vec::new());
        sink.emit(&TelemetryEvent::CampaignStart {
            campaign: "delay_sweep",
            units: 24,
            threads: 4,
            resumed_units: 3,
        });
        sink.emit(&TelemetryEvent::ShardHeartbeat {
            shard: 1,
            done: 2,
            total: 6,
            units_per_sec: 12.5,
            eta_s: 0.32,
        });
        sink.emit(&TelemetryEvent::PhaseTimers {
            shard: 1,
            phases: PhaseTotals {
                golden_settle_us: 10,
                timing_step_us: 20,
                replay_us: 30,
            },
        });
        sink.emit(&TelemetryEvent::StatsDelta {
            shard: 0,
            stats: InjectorStats {
                event_sims: 7,
                ..InjectorStats::default()
            },
        });
        sink.emit(&TelemetryEvent::CheckpointFlush { completed_units: 9 });
        sink.emit(&TelemetryEvent::CampaignEnd {
            campaign: "delay_sweep",
            units: 24,
            wall_ms: 1234,
        });
        let bytes = sink.into_inner();
        String::from_utf8(bytes)
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn every_emitted_event_validates_against_the_schema() {
        let lines = sample_events();
        assert_eq!(lines.len(), 6);
        let events: Vec<String> = lines.iter().map(|l| validate_line(l).unwrap()).collect();
        assert_eq!(
            events,
            vec![
                "campaign_start",
                "shard_heartbeat",
                "phase_timers",
                "stats_delta",
                "checkpoint_flush",
                "campaign_end"
            ]
        );
    }

    #[test]
    fn timestamps_are_monotone() {
        let lines = sample_events();
        let mut last = -1.0f64;
        for line in &lines {
            let fields = parse_flat_object(line).unwrap();
            let t = fields
                .iter()
                .find(|(k, _)| k == "t_ms")
                .and_then(|(_, v)| v.as_num())
                .unwrap();
            assert!(t >= last, "t_ms went backwards: {t} after {last}");
            last = t;
        }
    }

    #[test]
    fn parser_handles_escapes_and_rejects_garbage() {
        let fields = parse_flat_object(r#"{"a":"x\"y\\z","b":-1.5e2}"#).unwrap();
        assert_eq!(fields[0].1, JsonValue::Str("x\"y\\z".into()));
        assert_eq!(fields[1].1, JsonValue::Num(-150.0));
        assert!(parse_flat_object("not json").is_err());
        assert!(parse_flat_object(r#"{"a":}"#).is_err());
        assert!(parse_flat_object(r#"{"a":1} trailing"#).is_err());
        assert!(validate_line(r#"{"v":99,"t_ms":0,"event":"campaign_end"}"#)
            .unwrap_err()
            .contains("schema version"));
        assert!(validate_line(r#"{"v":7,"t_ms":0,"event":"wat"}"#)
            .unwrap_err()
            .contains("unknown event"));
        assert!(
            validate_line(r#"{"v":7,"t_ms":0,"event":"checkpoint_flush"}"#)
                .unwrap_err()
                .contains("completed_units")
        );
    }

    #[test]
    fn non_finite_numbers_degrade_to_parseable_zero() {
        // The emit path's last line of defense: even if a caller smuggles a
        // NaN/∞ rate past its own guards, the line stays valid JSON.
        assert_eq!(finite(f64::NAN), "0.000");
        assert_eq!(finite(f64::INFINITY), "0.000");
        assert_eq!(finite(f64::NEG_INFINITY), "0.000");
        assert_eq!(finite(1.5), "1.500");
        assert_eq!(finite(-0.25), "-0.250");
    }

    #[test]
    fn string_fields_round_trip_through_escaping() {
        let sink = JsonlTelemetry::new(Vec::new());
        sink.emit(&TelemetryEvent::CampaignStart {
            campaign: "odd \"name\"\\with\nnoise",
            units: 1,
            threads: 1,
            resumed_units: 0,
        });
        let bytes = sink.into_inner();
        let line = String::from_utf8(bytes).unwrap();
        let fields = parse_flat_object(line.trim()).unwrap();
        let campaign = fields
            .iter()
            .find(|(k, _)| k == "campaign")
            .and_then(|(_, v)| v.as_str())
            .unwrap()
            .to_owned();
        assert_eq!(campaign, "odd \"name\"\\with\nnoise");
    }

    #[test]
    fn null_sink_is_disabled() {
        const { assert!(!NullTelemetry::ENABLED) };
        const { assert!(<JsonlTelemetry<Vec<u8>> as TelemetrySink>::ENABLED) };
        NULL_TELEMETRY.emit(&TelemetryEvent::CheckpointFlush { completed_units: 0 });
    }
}
