//! The observability stream's contract: every line a campaign emits is a
//! flat JSON object that validates against the versioned telemetry schema
//! (`v`, `t_ms`, `event` plus the event's required fields), timestamps are
//! monotone, each campaign's stream is bracketed by `campaign_start` /
//! `campaign_end`, and — the zero-cost half of the contract — the observed
//! campaign returns results bit-identical to the unobserved one.
//!
//! Checked twice: once at the core-crate layer against an in-memory sink
//! with checkpointing enabled (so `checkpoint_flush` events appear), and
//! once end-to-end through the bench harness by running the fig10
//! experiment at the tiny scale with `--telemetry` pointed at a real file,
//! exactly as the CLI wires it.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

use delayavf::{
    delay_avf_campaign_observed, delay_avf_campaign_with_stats, prepare_golden_seeded,
    sample_edges, savf_per_bit_campaign, savf_per_bit_campaign_observed, valid_cycles,
    validate_line, CampaignConfig, CheckpointSpec, InjectorStats, JsonlTelemetry, ReplayOptions,
    RunContext, TelemetryEvent, TelemetrySink, TELEMETRY_SCHEMA_VERSION,
};
use delayavf_bench::{fig10, Harness, Observability, Opts};
use delayavf_netlist::DffId;
use delayavf_netlist::Topology;
use delayavf_rvcore::{CoreConfig, MemEnv, DEFAULT_RAM_BYTES};
use delayavf_timing::{TechLibrary, TimingModel};
use delayavf_workloads::{Kernel, Scale};

fn tmpdir() -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "delayavf-telemetry-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Validates a whole stream: every line parses against the schema, `t_ms`
/// never decreases, and the stream both starts with a `campaign_start` and
/// ends with a `campaign_end`. Returns the validated event names in order.
fn validate_stream(text: &str) -> Vec<String> {
    let mut events = Vec::new();
    let mut last_t = 0.0f64;
    for (i, line) in text.lines().enumerate() {
        let event = validate_line(line).unwrap_or_else(|e| {
            panic!(
                "line {} fails the v{TELEMETRY_SCHEMA_VERSION} schema: {e}\n  {line}",
                i + 1
            )
        });
        // validate_line guarantees t_ms exists and is numeric.
        let t = delayavf::parse_flat_object(line)
            .unwrap()
            .into_iter()
            .find(|(k, _)| k == "t_ms")
            .and_then(|(_, v)| v.as_num())
            .unwrap();
        assert!(
            t >= last_t,
            "t_ms went backwards at line {}: {t} < {last_t}",
            i + 1
        );
        last_t = t;
        events.push(event);
    }
    assert!(!events.is_empty(), "the stream is empty");
    assert_eq!(events.first().unwrap(), "campaign_start");
    assert_eq!(events.last().unwrap(), "campaign_end");
    events
}

#[test]
fn campaign_telemetry_validates_and_never_changes_results() {
    let core = delayavf_rvcore::build_core(CoreConfig::default());
    let topo = Topology::new(&core.circuit);
    let timing = TimingModel::analyze(&core.circuit, &topo, &TechLibrary::nangate45_like());
    let w = Kernel::Libfibcall.build(Scale::Tiny);
    let p = w.assemble().expect("workload assembles");
    let env = MemEnv::new(&core.circuit, DEFAULT_RAM_BYTES, &p);
    let golden = prepare_golden_seeded(&core.circuit, &topo, &env, w.max_cycles, 8, 17);
    let edges = sample_edges(
        &topo.structure_edges(&core.circuit, "decoder").unwrap(),
        12,
        17,
    );
    let config = CampaignConfig {
        delay_fractions: vec![0.9],
        compute_orace: true,
        due_slack: 500,
        threads: 2,
        lanes: 64,
        timing_lanes: 64,
        collapse: true,
        ci_target: None,
        strata: 4,
        sample_seed: 7,
    };

    let want =
        delay_avf_campaign_with_stats(&core.circuit, &topo, &timing, &golden, &edges, &config);

    let dir = tmpdir();
    let sink = JsonlTelemetry::new(Vec::new());
    let ctx = RunContext::new(
        &sink,
        Some(CheckpointSpec::new(dir.join("sweep.ckpt"), 1, false)),
    );
    let got = delay_avf_campaign_observed(
        &core.circuit,
        &topo,
        &timing,
        &golden,
        &edges,
        &config,
        &ctx,
    )
    .unwrap();
    assert_eq!(got, want, "observation changed the report");

    let text = String::from_utf8(sink.into_inner()).unwrap();
    let events = validate_stream(&text);
    let count = |name: &str| events.iter().filter(|e| *e == name).count();
    assert_eq!(count("campaign_start"), 1);
    assert_eq!(count("campaign_end"), 1);
    assert!(count("shard_heartbeat") > 0, "no heartbeats in:\n{text}");
    assert!(count("phase_timers") > 0, "no phase timers in:\n{text}");
    assert!(count("stats_delta") > 0, "no stats deltas in:\n{text}");
    assert!(
        count("checkpoint_flush") > 0,
        "checkpointing at every=1 emitted no flush events in:\n{text}"
    );
    check_heartbeats(&text);
    fs::remove_dir_all(dir).unwrap();
}

/// The numeric field `key` of one event line.
fn field(line: &str, key: &str) -> f64 {
    delayavf::parse_flat_object(line)
        .unwrap()
        .into_iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.as_num())
        .unwrap_or_else(|| panic!("no numeric `{key}` in {line}"))
}

/// Heartbeats count campaign-wide progress: within each campaign bracket
/// `done` never decreases, never exceeds `total`, and the last heartbeat
/// before `campaign_end` reports every unit done.
fn check_heartbeats(text: &str) {
    let mut last: Option<(f64, f64)> = None;
    let mut campaigns = 0;
    for line in text.lines() {
        let event = validate_line(line).unwrap();
        match event.as_str() {
            "campaign_start" => last = None,
            "shard_heartbeat" => {
                let (done, total) = (field(line, "done"), field(line, "total"));
                assert!(done <= total, "done past total: {line}");
                if let Some((prev, _)) = last {
                    assert!(done >= prev, "done went backwards: {line}");
                }
                last = Some((done, total));
            }
            "campaign_end" => {
                let (done, total) = last.expect("a campaign without heartbeats");
                assert_eq!(done, total, "last heartbeat leaves units undone");
                campaigns += 1;
            }
            _ => {}
        }
    }
    assert!(campaigns > 0, "no campaign in the stream");
}

/// Field-wise totals of every `stats_delta` event in `text`, by counter
/// name.
fn summed_deltas(text: &str) -> BTreeMap<String, f64> {
    let mut sums = BTreeMap::new();
    for line in text
        .lines()
        .filter(|l| l.contains("\"event\":\"stats_delta\""))
    {
        for (key, value) in delayavf::parse_flat_object(line).unwrap() {
            if !["v", "t_ms", "event", "shard"].contains(&key.as_str()) {
                *sums.entry(key).or_insert(0.0) += value.as_num().unwrap();
            }
        }
    }
    sums
}

/// A campaign's counters by name, spelled as a `stats_delta` event spells
/// them. The adaptive plan's three counters are left out: the driver sets
/// them from the plan after the last round, so no worker's delta holds
/// them.
fn counters(stats: &InjectorStats) -> BTreeMap<String, f64> {
    let sink = JsonlTelemetry::new(Vec::new());
    sink.emit(&TelemetryEvent::StatsDelta {
        shard: 0,
        stats: InjectorStats {
            strata_active: 0,
            strata_retired_early: 0,
            adaptive_replays_saved: 0,
            ..*stats
        },
    });
    let text = String::from_utf8(sink.into_inner()).unwrap();
    summed_deltas(&text)
}

/// A stream's `stats_delta` events add up to the counters the campaign
/// returns, whatever the thread count and sampling plan, and also when
/// part of the campaign was restored from a checkpoint: every worker
/// flushes the deltas it merged after its last heartbeat.
#[test]
fn stats_deltas_add_up_to_the_campaign_counters() {
    let core = delayavf_rvcore::build_core(CoreConfig::default());
    let topo = Topology::new(&core.circuit);
    let timing = TimingModel::analyze(&core.circuit, &topo, &TechLibrary::nangate45_like());
    let w = Kernel::Libfibcall.build(Scale::Tiny);
    let p = w.assemble().expect("workload assembles");
    let env = MemEnv::new(&core.circuit, DEFAULT_RAM_BYTES, &p);
    let golden = prepare_golden_seeded(&core.circuit, &topo, &env, w.max_cycles, 8, 17);
    let edges = sample_edges(
        &topo.structure_edges(&core.circuit, "decoder").unwrap(),
        12,
        17,
    );
    let dir = tmpdir();
    let path = dir.join("sweep.ckpt");
    for ci_target in [None, Some(0.15)] {
        for threads in [1, 3] {
            let config = CampaignConfig {
                delay_fractions: vec![0.9],
                compute_orace: true,
                due_slack: 500,
                threads,
                ci_target,
                ..CampaignConfig::default()
            };
            let observed = |checkpoint: Option<CheckpointSpec>| {
                let sink = JsonlTelemetry::new(Vec::new());
                let ctx = RunContext::new(&sink, checkpoint);
                let (_, stats) = delay_avf_campaign_observed(
                    &core.circuit,
                    &topo,
                    &timing,
                    &golden,
                    &edges,
                    &config,
                    &ctx,
                )
                .unwrap();
                let text = String::from_utf8(sink.into_inner()).unwrap();
                (stats, summed_deltas(&text))
            };
            let tag = format!("ci_target {ci_target:?}, {threads} threads");
            let (stats, sums) = observed(None);
            assert!(stats.event_sims > 0, "{tag}: the sweep simulates");
            assert_eq!(sums, counters(&stats), "{tag}");
            if ci_target.is_some() && threads == 3 {
                observed(Some(CheckpointSpec::new(&path, 1, false)));
                // Keep every other unit, so the resumed run restores some
                // units and recomputes the rest.
                let text = fs::read_to_string(&path).unwrap();
                let mut units = 0;
                let kept: String = text
                    .lines()
                    .filter(|line| {
                        let unit = line.starts_with("unit ");
                        units += usize::from(unit);
                        !unit || units % 2 == 1
                    })
                    .map(|line| format!("{line}\n"))
                    .collect();
                assert!(units > 2, "{tag}: too few units to cut");
                fs::write(&path, kept).unwrap();
                let (resumed, sums) = observed(Some(CheckpointSpec::new(&path, 1, true)));
                assert_eq!(resumed, stats, "{tag}: resume changed the counters");
                assert_eq!(sums, counters(&stats), "{tag}, resumed");
            }
        }
    }
    fs::remove_dir_all(dir).unwrap();
}

/// The per-bit campaign's units are cycles, like every campaign's: its
/// heartbeats arrive as the cycles replay, and both the announced unit
/// count and the last heartbeat's total are the cycle count, not the bit
/// count.
#[test]
fn per_bit_heartbeats_count_cycles() {
    let core = delayavf_rvcore::build_core(CoreConfig::default());
    let topo = Topology::new(&core.circuit);
    let timing = TimingModel::analyze(&core.circuit, &topo, &TechLibrary::nangate45_like());
    let w = Kernel::Libfibcall.build(Scale::Tiny);
    let p = w.assemble().expect("workload assembles");
    let env = MemEnv::new(&core.circuit, DEFAULT_RAM_BYTES, &p);
    let golden = prepare_golden_seeded(&core.circuit, &topo, &env, w.max_cycles, 8, 17);
    let dffs: Vec<DffId> = core
        .circuit
        .structure("lsu")
        .unwrap()
        .dffs()
        .iter()
        .copied()
        .take(12)
        .collect();
    let cycles = valid_cycles(&golden).len();
    assert_ne!(dffs.len(), cycles, "bits and cycles must be told apart");
    let opts = ReplayOptions::new(500, 2);
    let want = savf_per_bit_campaign(&core.circuit, &topo, &timing, &golden, &dffs, opts);

    let sink = JsonlTelemetry::new(Vec::new());
    let ctx = RunContext::new(&sink, None);
    let got =
        savf_per_bit_campaign_observed(&core.circuit, &topo, &timing, &golden, &dffs, opts, &ctx)
            .unwrap();
    assert_eq!(got, want, "observation changed the report");

    let text = String::from_utf8(sink.into_inner()).unwrap();
    validate_stream(&text);
    check_heartbeats(&text);
    let of = |event: &str| {
        let tag = format!("\"event\":\"{event}\"");
        text.lines().filter(move |l| l.contains(&tag))
    };
    let start = of("campaign_start").next().unwrap();
    assert_eq!(field(start, "units"), cycles as f64, "{start}");
    let last = of("shard_heartbeat").next_back().unwrap();
    assert_eq!(field(last, "total"), cycles as f64, "{last}");
}

#[test]
fn fig10_tiny_telemetry_stream_validates_end_to_end() {
    let dir = tmpdir();
    let telemetry = dir.join("fig10.jsonl");
    let mut h = Harness::build();
    h.obs = Observability::create(Some(&telemetry), Some(&dir.join("ckpt")), 4, false).unwrap();
    let opts = Opts::quick();
    let exp = fig10(&mut h, &opts).unwrap();
    assert!(!exp.to_string().is_empty());

    let text = fs::read_to_string(&telemetry).unwrap();
    let events = validate_stream(&text);
    // fig10 runs one delay sweep and one sAVF campaign per structure row,
    // all onto the shared stream: several bracketed campaigns, balanced.
    let starts = events.iter().filter(|e| *e == "campaign_start").count();
    let ends = events.iter().filter(|e| *e == "campaign_end").count();
    assert!(starts > 1, "expected several campaigns, got {starts}");
    assert_eq!(starts, ends, "unbalanced campaign brackets");
    assert!(
        events.iter().any(|e| e == "checkpoint_flush"),
        "no checkpoint flushes despite --checkpoint-dir"
    );
    check_heartbeats(&text);
    fs::remove_dir_all(dir).unwrap();
}
