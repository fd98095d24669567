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

use std::fs;
use std::path::PathBuf;

use delayavf::{
    delay_avf_campaign_observed, delay_avf_campaign_with_stats, prepare_golden_seeded,
    sample_edges, validate_line, CampaignConfig, CheckpointSpec, JsonlTelemetry, RunContext,
    TELEMETRY_SCHEMA_VERSION,
};
use delayavf_bench::{fig10, Harness, Observability, Opts};
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
