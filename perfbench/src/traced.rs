//! `--trace 1`: the per-layer metrics.
//!
//! The run makes one untraced pass, then one pass with a span around every
//! set-up layer call and every campaign call. On that pass's set-up it then
//! replays each uniform campaign serially ([`crate::replica`]), whose
//! report and counters must equal the campaign call's exactly. The adaptive
//! workload's unit loops are private, so it is observed at the
//! campaign-call boundary, through the campaign's own per-shard phase
//! timers, and its calls also run without a checkpoint, before and after,
//! to price the checkpoint writes. A second untraced pass prices the
//! tracing.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use delayavf::{CollapsePlan, InjectorStats, PhaseTotals, TelemetryEvent, TelemetrySink};

use crate::calib::{Clock, Reading};
use crate::metrics::{Metric, Report};
use crate::trace::Tracer;
use crate::workload::{self, Prepared, WORKERS};
use crate::{
    campaign_pass, checkpoint_dir, pass_digest, run_campaigns, untraced_pass, Args, Outputs,
};

/// Collects the per-shard phase timers the campaign functions emit.
#[derive(Default)]
struct PhaseSink {
    shards: Mutex<BTreeMap<usize, PhaseTotals>>,
}

impl TelemetrySink for PhaseSink {
    const ENABLED: bool = true;

    fn emit(&self, event: &TelemetryEvent<'_>) {
        if let TelemetryEvent::PhaseTimers { shard, phases } = event {
            if let Ok(mut shards) = self.shards.lock() {
                shards.entry(*shard).or_default().merge(phases);
            }
        }
    }
}

impl PhaseSink {
    fn totals(&self) -> Vec<PhaseTotals> {
        self.shards
            .lock()
            .map(|s| s.values().copied().collect())
            .unwrap_or_default()
    }
}

/// Everything the per-layer metrics are computed from.
#[derive(Debug, Default)]
pub struct LayerInputs {
    /// Self time per span name, in seconds.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Seconds in each injector step (`warm`, `timing_step`, `replay`,
    /// `classify`): span self times for the replica, the campaign's phase
    /// timers for the adaptive workload.
    pub step_s: BTreeMap<&'static str, f64>,
    /// Engine counters over the workload's campaigns.
    pub stats: InjectorStats,
    /// `(edge, extra)` pairs handed to the timing step.
    pub timing_pairs: u64,
    /// Cycles of the distinct golden traces.
    pub golden_cycles: u64,
    /// Total seconds of the traced pass's campaign calls.
    pub campaign_s: f64,
    /// Summed slowest-shard and mean-shard seconds over the campaigns.
    pub shard_slowest_s: f64,
    /// See `shard_slowest_s`.
    pub shard_mean_s: f64,
    /// Checkpointed campaign seconds minus uncheckpointed ones.
    pub checkpoint_s: f64,
    /// Bytes of checkpoint files written by one pass.
    pub checkpoint_bytes: u64,
    /// Traced pass wall minus untraced pass wall.
    pub overhead_s: f64,
}

/// The per-layer metrics, named as in `BENCHMARK.json`.
pub fn layer_metrics(x: &LayerInputs) -> Vec<Metric> {
    let own = |name: &str| x.self_s.get(name).copied().unwrap_or(0.0);
    let step = |name: &str| x.step_s.get(name).copied().unwrap_or(0.0);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let count = |n: u64| n as f64;
    let s = &x.stats;
    vec![
        Metric::new("rvcore.build_s", "s", own("rvcore.build")),
        Metric::new("netlist.topology_s", "s", own("netlist.topology")),
        Metric::new("timing.sta_s", "s", own("timing.sta")),
        Metric::new("workloads.assemble_s", "s", own("workloads.assemble")),
        Metric::new("golden.trace_s", "s", own("golden.trace")),
        Metric::new("golden.cycles", "count", count(x.golden_cycles)),
        Metric::new("collapse.plan_s", "s", own("collapse.plan")),
        Metric::new("injector.timing_step_s", "s", step("timing_step")),
        Metric::new("injector.timing_pairs", "count", count(x.timing_pairs)),
        Metric::new("injector.event_sims", "count", count(s.event_sims)),
        Metric::new("injector.delta_events", "count", count(s.delta_events)),
        Metric::new(
            "injector.golden_waveform_builds",
            "count",
            count(s.golden_waveform_builds),
        ),
        Metric::new(
            "injector.timing_lane_fill",
            "lanes",
            ratio(s.timing_lanes_occupied, s.batched_timing_replays),
        ),
        Metric::new(
            "injector.prefilter_ratio",
            "ratio",
            ratio(
                s.static_filtered + s.toggle_filtered + s.collapsed_edges,
                x.timing_pairs,
            ),
        ),
        Metric::new("injector.replay_s", "s", step("replay")),
        Metric::new("injector.replays", "count", count(s.replays)),
        Metric::new("injector.replay_cycles", "count", count(s.replay_cycles)),
        Metric::new(
            "injector.gates_evaluated",
            "count",
            count(s.gates_evaluated),
        ),
        Metric::new(
            "injector.lane_fill",
            "lanes",
            ratio(s.lanes_occupied, s.batched_replays),
        ),
        Metric::new(
            "injector.cache_hit_ratio",
            "ratio",
            ratio(s.replay_cache_hits, s.replay_cache_hits + s.replays),
        ),
        Metric::new(
            "injector.fallbacks",
            "count",
            count(s.full_replay_fallbacks),
        ),
        Metric::new(
            "injector.discharged",
            "count",
            count(s.formally_discharged_ace + s.formally_discharged_unace),
        ),
        Metric::new("injector.warm_s", "s", step("warm")),
        Metric::new("injector.classify_s", "s", step("classify")),
        Metric::new("campaign.s", "s", x.campaign_s),
        Metric::new(
            "campaign.shard_skew",
            "ratio",
            if x.shard_mean_s > 0.0 {
                x.shard_slowest_s / x.shard_mean_s
            } else {
                0.0
            },
        ),
        Metric::new(
            "sampling.injections_saved",
            "count",
            count(s.adaptive_replays_saved),
        ),
        Metric::new(
            "sampling.strata_retired_early",
            "count",
            count(s.strata_retired_early),
        ),
        Metric::new("checkpoint.s", "s", x.checkpoint_s),
        Metric::new("checkpoint.bytes", "bytes", count(x.checkpoint_bytes)),
        Metric::new("trace.overhead_s", "s", x.overhead_s),
    ]
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Cycles over the distinct golden traces of a pass.
fn golden_cycles(p: &Prepared) -> u64 {
    let mut seen = Vec::new();
    let mut cycles = 0;
    for c in &p.campaigns {
        let ptr = Arc::as_ptr(&c.golden);
        if !seen.contains(&ptr) {
            seen.push(ptr);
            cycles += c.golden.trace.num_cycles();
        }
    }
    cycles
}

/// Replays every campaign of `p` serially under `tr` and compares each
/// replica with the campaign call's output; fills the replica-derived
/// inputs.
pub fn check_replicas(
    p: &Prepared,
    outputs: &Outputs,
    tr: &mut Tracer,
    report: &mut Report,
    x: &mut LayerInputs,
) {
    for (c, got) in p.campaigns.iter().zip(outputs) {
        let m = &p.models[c.model];
        // Built here only to time it; each injector builds its own plan.
        tr.span("collapse.plan", || {
            CollapsePlan::build(&m.core.circuit, &m.topo, &m.timing)
        });
        let id = tr.begin("replica");
        let rep = catch_unwind(AssertUnwindSafe(|| crate::replica::run(p, c, tr)));
        tr.end(id, InjectorStats::default());
        let checked = match (rep, got) {
            (Err(_), _) => Err(format!("{}: replica panicked", c.label)),
            (Ok(_), None) => Err(format!("{}: no campaign report to compare", c.label)),
            (Ok(rep), Some((out, stats))) => {
                x.stats.merge(&rep.stats);
                x.timing_pairs += rep.timing_pairs;
                let (slowest, mean) = crate::replica::shard_skew(&rep.unit_s, WORKERS);
                x.shard_slowest_s += slowest;
                x.shard_mean_s += mean;
                if rep.output != *out {
                    Err(format!(
                        "{}: replica report differs from the campaign's:\n  replica  {:?}\n  campaign {:?}",
                        c.label, rep.output, out
                    ))
                } else if rep.stats != *stats {
                    Err(format!(
                        "{}: replica counters differ from the campaign's:\n  replica  {:?}\n  campaign {:?}",
                        c.label, rep.stats, stats
                    ))
                } else {
                    Ok(())
                }
            }
        };
        report.op(checked);
    }
}

/// The traced run.
pub fn run(args: &Args, work: &Path) -> Report {
    let mut report = Report::default();
    let untraced = untraced_pass(args, work, 0, &mut Clock::disabled(), &mut report);
    let mut tr = Tracer::new();
    let (traced_wall_s, mut x) = traced_pass(args, work, untraced.digest, &mut tr, &mut report);
    // Priced against an untraced pass made under the same conditions: after
    // the previous pass's memory was freed (the first pass of a process, and
    // any pass made while another pass's memory is held, also pay for
    // first-touch page faults).
    let warm = untraced_pass(args, work, 2, &mut Clock::disabled(), &mut report);
    warm.check_same(untraced.digest, "the first pass", &mut report);
    x.overhead_s = traced_wall_s - warm.wall_s;
    x.self_s = tr.self_time_by_name();

    let mut err = std::io::stderr().lock();
    let _ = tr.write_spans(&mut err);
    for (name, t) in &x.self_s {
        eprintln!("self\t{name}\t{t:.6}");
    }
    for m in layer_metrics(&x) {
        report.metric(m);
    }
    report
}

/// The traced pass and what follows it on the same set-up: the
/// uncheckpointed adaptive calls or the serial replicas. Returns the pass's
/// wall seconds and the layer inputs gathered so far.
fn traced_pass(
    args: &Args,
    work: &Path,
    untraced_digest: Option<u64>,
    tr: &mut Tracer,
    report: &mut Report,
) -> (f64, LayerInputs) {
    let t0 = Instant::now();
    let setup = tr.begin("setup");
    let p = workload::prepare_traced(args.workload, args.seed, tr);
    tr.end(setup, InjectorStats::default());
    let setup_s = t0.elapsed().as_secs_f64();
    // The adaptive calls also run without a checkpoint, once before and
    // once after the checkpointed pass, so drift cancels out of the
    // difference.
    let uncheckpointed = |tr: &mut Tracer, report: &mut Report| {
        if args.workload.adaptive() {
            let id = tr.begin("campaign.no_checkpoint");
            let sink = PhaseSink::default();
            let out = run_campaigns(
                &p,
                None,
                &sink,
                &mut Tracer::disabled(),
                &mut Clock::disabled(),
                report,
            );
            tr.end(id, InjectorStats::default());
            pass_digest(&p, &out)
        } else {
            None
        }
    };
    let before = uncheckpointed(tr, report);
    let ckpt = checkpoint_dir(args.workload, work, 1);
    let phases = PhaseSink::default();
    let setup = Reading {
        wall_s: setup_s,
        cpu_s: 0.0,
    };
    let traced = campaign_pass(
        args,
        &p,
        setup,
        ckpt.as_deref(),
        &phases,
        tr,
        &mut Clock::disabled(),
        report,
    );
    traced.check_same(untraced_digest, "the harness set-up", report);
    let after = uncheckpointed(tr, report);
    for digest in [before, after] {
        traced.check_same(digest, "the uncheckpointed calls", report);
    }

    let campaign_s = tr.total_s("campaign");
    let mut x = LayerInputs {
        golden_cycles: golden_cycles(&p),
        campaign_s,
        checkpoint_bytes: ckpt.as_deref().map_or(0, dir_bytes),
        ..LayerInputs::default()
    };
    if let Some(dir) = &ckpt {
        let _ = std::fs::remove_dir_all(dir);
    }
    if args.workload.adaptive() {
        x.checkpoint_s = campaign_s - tr.total_s("campaign.no_checkpoint") / 2.0;
        for (_, s) in traced.outputs.iter().flatten() {
            x.stats.merge(s);
        }
        // Each visited site hands its fractions' pairs to the timing step.
        x.timing_pairs = p.population() as u64 - x.stats.adaptive_replays_saved;
        let totals = phases.totals();
        let per_shard: Vec<f64> = totals
            .iter()
            .map(|t| (t.golden_settle_us + t.timing_step_us + t.replay_us) as f64 * 1e-6)
            .collect();
        if !per_shard.is_empty() {
            x.shard_slowest_s = per_shard.iter().copied().fold(0.0, f64::max);
            x.shard_mean_s = per_shard.iter().sum::<f64>() / per_shard.len() as f64;
        }
        let sum = |f: fn(&PhaseTotals) -> u64| totals.iter().map(f).sum::<u64>() as f64 * 1e-6;
        x.step_s.insert("warm", sum(|t| t.golden_settle_us));
        x.step_s.insert("timing_step", sum(|t| t.timing_step_us));
        // The campaign times classification inside its replay phase.
        x.step_s.insert("replay", sum(|t| t.replay_us));
    } else {
        check_replicas(&p, &traced.outputs, tr, report, &mut x);
        let own = tr.self_time_by_name();
        for step in ["warm", "timing_step", "replay", "classify"] {
            let name = format!("injector.{step}");
            x.step_s
                .insert(step, own.get(name.as_str()).copied().unwrap_or(0.0));
        }
    }
    (traced.wall_s, x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Campaign, Work};
    use delayavf::{ReplayOptions, NULL_TELEMETRY};

    /// A tiny-scale sweep plus an sAVF campaign on the same golden run.
    fn tiny() -> Prepared {
        let cfg = "benchmark = libfibcall\nstructure = alu\nscale = tiny\n\
                   delay_range = 0.5:0.9:2\npercent_sampled_cycles_delay = 3\n\
                   edge_limit = 24\norace = true\n";
        let mut p = workload::prepare_config(cfg, None, &mut Tracer::disabled());
        let golden = Arc::clone(&p.campaigns[0].golden);
        let circuit = &p.models[0].core.circuit;
        let dffs = circuit.structure("regfile").expect("regfile").dffs()[..12].to_vec();
        p.campaigns.push(Campaign {
            label: "savf-tiny".into(),
            model: 0,
            golden,
            work: Work::Savf {
                dffs,
                opts: ReplayOptions::new(2_000, WORKERS),
            },
        });
        p
    }

    #[test]
    fn replica_equals_the_campaign_on_a_tiny_config() {
        let p = tiny();
        let mut report = Report::default();
        let outputs = run_campaigns(
            &p,
            None,
            &NULL_TELEMETRY,
            &mut Tracer::disabled(),
            &mut Clock::disabled(),
            &mut report,
        );
        let mut tr = Tracer::new();
        let mut x = LayerInputs::default();
        check_replicas(&p, &outputs, &mut tr, &mut report, &mut x);
        assert_eq!((report.attempted, report.failed), (4, 0));
        assert!(
            x.stats.replays + x.stats.replay_cache_hits > 0,
            "{:?}",
            x.stats
        );
        assert!(x.timing_pairs > 0);
        assert!(tr.self_time_by_name().contains_key("injector.timing_step"));
    }

    #[test]
    fn a_digest_mismatch_counts_as_failed_ops() {
        let p = tiny();
        let mut report = Report::default();
        let outputs = run_campaigns(
            &p,
            None,
            &NULL_TELEMETRY,
            &mut Tracer::disabled(),
            &mut Clock::disabled(),
            &mut report,
        );
        let digest = pass_digest(&p, &outputs).expect("every call succeeded");
        report.check(workload::check_against(Some(digest), digest), outputs.len());
        assert_eq!((report.attempted, report.failed), (2, 0));
        report.check(
            workload::check_against(Some(!digest), digest),
            outputs.len(),
        );
        assert_eq!((report.attempted, report.failed), (2, 2));
        assert!(!report.correct());
    }
}
