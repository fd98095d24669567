//! The checkpoint subsystem's headline guarantee, checked on the real
//! gate-level core for all five campaigns: a run that is interrupted at a
//! checkpoint boundary and resumed produces a report **byte-identical** to
//! the uninterrupted run — same result rows, same merged injector
//! counters — at every thread count, and a checkpoint
//! written by a different campaign (different inputs, knobs or kind) is
//! rejected with the pinned `checkpoint mismatch` error instead of being
//! silently merged.
//!
//! "Interrupted at a checkpoint boundary" is simulated exactly the way a
//! crash manifests: the atomic flush protocol guarantees the on-disk file
//! is always a complete prefix-closed snapshot, so we truncate a finished
//! checkpoint down to a strict subset of its `unit` lines and resume from
//! that.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

use delayavf::{
    delay_avf_campaign_observed, delay_avf_campaign_records, delay_avf_campaign_records_observed,
    delay_avf_campaign_with_stats, prepare_golden, prepare_golden_seeded, sample_edges,
    savf_campaign_observed, savf_campaign_with_stats, savf_per_bit_campaign,
    savf_per_bit_campaign_observed, spatial_double_strike_campaign,
    spatial_double_strike_campaign_observed, valid_cycles, CampaignConfig, CheckpointSpec,
    DelayAvfResult, GoldenRun, ReplayOptions, RunContext, CHECKPOINT_FORMAT_VERSION,
    NULL_TELEMETRY,
};
use delayavf_netlist::{Circuit, CircuitBuilder, DffId, EdgeId, Topology};
use delayavf_rvcore::{Core, CoreConfig, MemEnv, DEFAULT_RAM_BYTES};
use delayavf_sim::ConstEnvironment;
use delayavf_timing::{TechLibrary, TimingModel};
use delayavf_workloads::{Kernel, Scale};

struct Setup {
    core: Core,
    topo: Topology,
    timing: TimingModel,
    golden: GoldenRun<MemEnv>,
}

fn setup() -> Setup {
    let core = delayavf_rvcore::build_core(CoreConfig::default());
    let topo = Topology::new(&core.circuit);
    let timing = TimingModel::analyze(&core.circuit, &topo, &TechLibrary::nangate45_like());
    let w = Kernel::Libfibcall.build(Scale::Tiny);
    let p = w.assemble().expect("workload assembles");
    let env = MemEnv::new(&core.circuit, DEFAULT_RAM_BYTES, &p);
    let golden = prepare_golden_seeded(&core.circuit, &topo, &env, w.max_cycles, 8, 17);
    assert!(golden.trace.halted());
    Setup {
        core,
        topo,
        timing,
        golden,
    }
}

fn tmpdir() -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "delayavf-ckpt-it-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn ctx(path: &Path, every: usize, resume: bool) -> RunContext<'static> {
    RunContext::new(
        &NULL_TELEMETRY,
        Some(CheckpointSpec::new(path, every, resume)),
    )
}

/// Simulates a crash mid-campaign: keeps the validated header and every
/// `keep_every`-th completed unit, discarding the rest. Returns how many
/// units survive (asserting the cut was a strict, non-empty subset, so the
/// resumed run genuinely mixes stored and recomputed work).
fn truncate_units(path: &Path, keep_every: usize) -> usize {
    let text = fs::read_to_string(path).unwrap();
    let mut out = String::new();
    let (mut seen, mut kept) = (0usize, 0usize);
    for line in text.lines() {
        if line.starts_with("unit ") {
            if seen % keep_every == 0 {
                out.push_str(line);
                out.push('\n');
                kept += 1;
            }
            seen += 1;
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    assert!(
        kept > 0 && kept < seen,
        "truncation must leave a strict non-empty subset ({kept} of {seen})"
    );
    fs::write(path, out).unwrap();
    kept
}

/// Keeps the header and the units of the rounds `keep` accepts (a unit
/// key holds its round above bit 44), discarding the rest. Asserts the cut
/// is a strict, non-empty subset and returns how many units survive.
fn keep_rounds(path: &Path, keep: impl Fn(u64) -> bool) -> usize {
    let text = fs::read_to_string(path).unwrap();
    let mut out = String::new();
    let (mut seen, mut kept) = (0usize, 0usize);
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("unit ") {
            seen += 1;
            let key: u64 = rest.split(' ').next().unwrap().parse().unwrap();
            if !keep(key >> 44) {
                continue;
            }
            kept += 1;
        }
        out.push_str(line);
        out.push('\n');
    }
    assert!(
        kept > 0 && kept < seen,
        "the round cut must leave a strict non-empty subset ({kept} of {seen})"
    );
    fs::write(path, out).unwrap();
    kept
}

#[test]
fn resumed_reports_are_byte_identical_at_every_thread_count() {
    let s = setup();
    let dir = tmpdir();
    let edges = sample_edges(
        &s.topo.structure_edges(&s.core.circuit, "decoder").unwrap(),
        24,
        17,
    );
    let dffs: Vec<DffId> = s
        .core
        .circuit
        .structure("lsu")
        .unwrap()
        .dffs()
        .iter()
        .copied()
        .take(10)
        .collect();
    let base_config = CampaignConfig {
        delay_fractions: vec![0.9, 1.0],
        compute_orace: true,
        due_slack: 500,
        threads: 1,
        ci_target: None,
        strata: 4,
        sample_seed: 7,
    };

    for threads in [1usize, 2, 4] {
        let config = base_config.clone().with_threads(threads);
        let opts = ReplayOptions::new(500, threads);
        let tag = format!("t{threads}");

        // ---- Delay sweep ----------------------------------------------
        let want = delay_avf_campaign_with_stats(
            &s.core.circuit,
            &s.topo,
            &s.timing,
            &s.golden,
            &edges,
            &config,
        );
        let path = dir.join(format!("sweep-{tag}.ckpt"));
        let fresh = delay_avf_campaign_observed(
            &s.core.circuit,
            &s.topo,
            &s.timing,
            &s.golden,
            &edges,
            &config,
            &ctx(&path, 3, false),
        )
        .unwrap();
        assert_eq!(fresh, want, "checkpointing changed the sweep ({tag})");
        truncate_units(&path, 2);
        let resumed = delay_avf_campaign_observed(
            &s.core.circuit,
            &s.topo,
            &s.timing,
            &s.golden,
            &edges,
            &config,
            &ctx(&path, 3, true),
        )
        .unwrap();
        assert_eq!(resumed, want, "resumed sweep differs ({tag})");
        // A resume from the now-complete file is pure cache replay.
        let replayed = delay_avf_campaign_observed(
            &s.core.circuit,
            &s.topo,
            &s.timing,
            &s.golden,
            &edges,
            &config,
            &ctx(&path, 3, true),
        )
        .unwrap();
        assert_eq!(replayed, want, "complete-file resume differs ({tag})");

        // ---- sAVF ------------------------------------------------------
        let want =
            savf_campaign_with_stats(&s.core.circuit, &s.topo, &s.timing, &s.golden, &dffs, opts);
        let path = dir.join(format!("savf-{tag}.ckpt"));
        let fresh = savf_campaign_observed(
            &s.core.circuit,
            &s.topo,
            &s.timing,
            &s.golden,
            &dffs,
            opts,
            &ctx(&path, 5, false),
        )
        .unwrap();
        assert_eq!(fresh, want, "checkpointing changed sAVF ({tag})");
        truncate_units(&path, 3);
        let resumed = savf_campaign_observed(
            &s.core.circuit,
            &s.topo,
            &s.timing,
            &s.golden,
            &dffs,
            opts,
            &ctx(&path, 5, true),
        )
        .unwrap();
        assert_eq!(resumed, want, "resumed sAVF differs ({tag})");

        // ---- Records ---------------------------------------------------
        let want = delay_avf_campaign_records(
            &s.core.circuit,
            &s.topo,
            &s.timing,
            &s.golden,
            &edges,
            0.9,
            opts,
        );
        let path = dir.join(format!("records-{tag}.ckpt"));
        let fresh = delay_avf_campaign_records_observed(
            &s.core.circuit,
            &s.topo,
            &s.timing,
            &s.golden,
            &edges,
            0.9,
            opts,
            &ctx(&path, 2, false),
        )
        .unwrap();
        assert_eq!(fresh, want, "checkpointing changed records ({tag})");
        truncate_units(&path, 2);
        let resumed = delay_avf_campaign_records_observed(
            &s.core.circuit,
            &s.topo,
            &s.timing,
            &s.golden,
            &edges,
            0.9,
            opts,
            &ctx(&path, 2, true),
        )
        .unwrap();
        assert_eq!(resumed, want, "resumed records differ ({tag})");

        // ---- Per-bit sAVF ----------------------------------------------
        let want =
            savf_per_bit_campaign(&s.core.circuit, &s.topo, &s.timing, &s.golden, &dffs, opts);
        let path = dir.join(format!("perbit-{tag}.ckpt"));
        let fresh = savf_per_bit_campaign_observed(
            &s.core.circuit,
            &s.topo,
            &s.timing,
            &s.golden,
            &dffs,
            opts,
            &ctx(&path, 3, false),
        )
        .unwrap();
        assert_eq!(fresh, want, "checkpointing changed per-bit ({tag})");
        truncate_units(&path, 2);
        let resumed = savf_per_bit_campaign_observed(
            &s.core.circuit,
            &s.topo,
            &s.timing,
            &s.golden,
            &dffs,
            opts,
            &ctx(&path, 3, true),
        )
        .unwrap();
        assert_eq!(resumed, want, "resumed per-bit differs ({tag})");

        // ---- Spatial double strike -------------------------------------
        let want = spatial_double_strike_campaign(
            &s.core.circuit,
            &s.topo,
            &s.timing,
            &s.golden,
            &dffs,
            opts,
        );
        let path = dir.join(format!("spatial-{tag}.ckpt"));
        let fresh = spatial_double_strike_campaign_observed(
            &s.core.circuit,
            &s.topo,
            &s.timing,
            &s.golden,
            &dffs,
            opts,
            &ctx(&path, 4, false),
        )
        .unwrap();
        assert_eq!(fresh, want, "checkpointing changed spatial ({tag})");
        truncate_units(&path, 2);
        let resumed = spatial_double_strike_campaign_observed(
            &s.core.circuit,
            &s.topo,
            &s.timing,
            &s.golden,
            &dffs,
            opts,
            &ctx(&path, 4, true),
        )
        .unwrap();
        assert_eq!(resumed, want, "resumed spatial differs ({tag})");
    }
    fs::remove_dir_all(dir).unwrap();
}

/// The adaptive campaigns (`ci_target` set) run the same checkpoint
/// protocol under their own kinds (`delay_sweep_adaptive`, …): a run
/// killed at a checkpoint boundary and resumed is byte-identical to the
/// uninterrupted one — the plan's round sequence is a pure function of
/// the knobs, so stored tallies steer the later rounds exactly as the
/// live ones did. Any drift in the sampling-policy knobs (`ci_target`,
/// `strata`, `sample_seed`), or crossing between the uniform and
/// adaptive kinds, is a pinned `checkpoint mismatch`.
#[test]
fn adaptive_checkpoints_resume_byte_identical_and_reject_knob_drift() {
    let s = setup();
    let dir = tmpdir();
    let edges = sample_edges(
        &s.topo.structure_edges(&s.core.circuit, "decoder").unwrap(),
        24,
        17,
    );
    let dffs: Vec<DffId> = s
        .core
        .circuit
        .structure("lsu")
        .unwrap()
        .dffs()
        .iter()
        .copied()
        .take(10)
        .collect();
    let config = CampaignConfig {
        delay_fractions: vec![0.9, 1.0],
        compute_orace: false,
        due_slack: 500,
        threads: 2,
        ci_target: Some(0.15),
        strata: 4,
        sample_seed: 7,
    };

    // ---- Kill-and-resume on the adaptive sweep -------------------------
    let want = delay_avf_campaign_with_stats(
        &s.core.circuit,
        &s.topo,
        &s.timing,
        &s.golden,
        &edges,
        &config,
    );
    let path = dir.join("adaptive-sweep.ckpt");
    let fresh = delay_avf_campaign_observed(
        &s.core.circuit,
        &s.topo,
        &s.timing,
        &s.golden,
        &edges,
        &config,
        &ctx(&path, 3, false),
    )
    .unwrap();
    assert_eq!(fresh, want, "checkpointing changed the adaptive sweep");
    truncate_units(&path, 2);
    let resumed = delay_avf_campaign_observed(
        &s.core.circuit,
        &s.topo,
        &s.timing,
        &s.golden,
        &edges,
        &config,
        &ctx(&path, 3, true),
    )
    .unwrap();
    assert_eq!(resumed, want, "resumed adaptive sweep differs");
    // Thread count stays outside the identity on the adaptive path too.
    let resumed = delay_avf_campaign_observed(
        &s.core.circuit,
        &s.topo,
        &s.timing,
        &s.golden,
        &edges,
        &config.clone().with_threads(4),
        &ctx(&path, 3, true),
    )
    .unwrap();
    assert_eq!(resumed, want, "cross-thread adaptive resume differs");

    // ---- Sampling-policy drift is identity drift -----------------------
    for (label, other) in [
        (
            "ci_target",
            CampaignConfig {
                ci_target: Some(0.1),
                ..config.clone()
            },
        ),
        (
            "strata",
            CampaignConfig {
                strata: 8,
                ..config.clone()
            },
        ),
        (
            "sample_seed",
            CampaignConfig {
                sample_seed: 8,
                ..config.clone()
            },
        ),
    ] {
        let err = delay_avf_campaign_observed(
            &s.core.circuit,
            &s.topo,
            &s.timing,
            &s.golden,
            &edges,
            &other,
            &ctx(&path, 3, true),
        )
        .unwrap_err();
        assert!(
            err.contains("checkpoint mismatch"),
            "{label} drift not pinned: {err}"
        );
    }

    // Turning adaptive sampling off entirely changes the campaign kind.
    let uniform = CampaignConfig {
        ci_target: None,
        ..config.clone()
    };
    let err = delay_avf_campaign_observed(
        &s.core.circuit,
        &s.topo,
        &s.timing,
        &s.golden,
        &edges,
        &uniform,
        &ctx(&path, 3, true),
    )
    .unwrap_err();
    assert!(
        err.contains("checkpoint mismatch"),
        "adaptive-to-uniform drift not pinned: {err}"
    );

    // ...and a uniform checkpoint must not resume adaptively either.
    let upath = dir.join("uniform-sweep.ckpt");
    delay_avf_campaign_observed(
        &s.core.circuit,
        &s.topo,
        &s.timing,
        &s.golden,
        &edges,
        &uniform,
        &ctx(&upath, 3, false),
    )
    .unwrap();
    let err = delay_avf_campaign_observed(
        &s.core.circuit,
        &s.topo,
        &s.timing,
        &s.golden,
        &edges,
        &config,
        &ctx(&upath, 3, true),
    )
    .unwrap_err();
    assert!(
        err.contains("checkpoint mismatch"),
        "uniform-to-adaptive drift not pinned: {err}"
    );

    // ---- The adaptive sAVF driver shares the protocol ------------------
    let opts = ReplayOptions::new(500, 2)
        .with_ci_target(Some(0.15))
        .with_strata(4)
        .with_sample_seed(7);
    let want =
        savf_campaign_with_stats(&s.core.circuit, &s.topo, &s.timing, &s.golden, &dffs, opts);
    let path = dir.join("adaptive-savf.ckpt");
    let fresh = savf_campaign_observed(
        &s.core.circuit,
        &s.topo,
        &s.timing,
        &s.golden,
        &dffs,
        opts,
        &ctx(&path, 5, false),
    )
    .unwrap();
    assert_eq!(fresh, want, "checkpointing changed adaptive sAVF");
    truncate_units(&path, 3);
    let resumed = savf_campaign_observed(
        &s.core.circuit,
        &s.topo,
        &s.timing,
        &s.golden,
        &dffs,
        opts,
        &ctx(&path, 5, true),
    )
    .unwrap();
    assert_eq!(resumed, want, "resumed adaptive sAVF differs");
    let err = savf_campaign_observed(
        &s.core.circuit,
        &s.topo,
        &s.timing,
        &s.golden,
        &dffs,
        opts.with_ci_target(Some(0.1)),
        &ctx(&path, 5, true),
    )
    .unwrap_err();
    assert!(
        err.contains("checkpoint mismatch"),
        "sAVF ci_target drift not pinned: {err}"
    );
    fs::remove_dir_all(dir).unwrap();
}

/// An 8-bit accumulator that never halts; its adder edges are the
/// sweep's sites.
struct Accumulator {
    circuit: Circuit,
    topo: Topology,
    timing: TimingModel,
    golden: GoldenRun<ConstEnvironment>,
    edges: Vec<EdgeId>,
}

fn accumulator() -> Accumulator {
    let mut b = CircuitBuilder::new();
    let step = b.input_word("step", 8);
    let acc = b.reg_word("acc", 8, 0);
    let next = b.in_structure("adder", |b| b.add(&acc.q(), &step));
    b.drive_word(&acc, &next);
    b.output_word("acc", &acc.q());
    let circuit = b.finish().unwrap();
    let topo = Topology::new(&circuit);
    let timing = TimingModel::analyze(&circuit, &topo, &TechLibrary::nangate45_like());
    let golden = prepare_golden(&circuit, &topo, &ConstEnvironment::new(vec![0x35]), 96, 48);
    let edges = sample_edges(&topo.structure_edges(&circuit, "adder").unwrap(), 48, 17);
    Accumulator {
        circuit,
        topo,
        timing,
        golden,
        edges,
    }
}

/// Later adaptive rounds start from the failure classes and step-1
/// results earlier rounds settled at their boundaries, and restored units
/// feed theirs back from their payloads. A sweep resumed with only its
/// first round stored, or with every round but the first, must rebuild
/// both exactly: same rows, same counters, the timing counters included,
/// so no stored pair is timed again.
#[test]
fn adaptive_round_cuts_resume_with_the_same_settled_classes() {
    let Accumulator {
        circuit,
        topo,
        timing,
        golden,
        edges,
    } = accumulator();
    let config = CampaignConfig {
        delay_fractions: vec![0.5, 0.9],
        due_slack: 30,
        threads: 2,
        ci_target: Some(0.01),
        strata: 4,
        ..CampaignConfig::default()
    };
    let want = delay_avf_campaign_with_stats(&circuit, &topo, &timing, &golden, &edges, &config);
    let uniform = CampaignConfig {
        ci_target: None,
        ..config.clone()
    };
    let (_, exhaustive) =
        delay_avf_campaign_with_stats(&circuit, &topo, &timing, &golden, &edges, &uniform);
    assert!(
        want.1.replays <= exhaustive.replays,
        "later rounds replay what earlier ones settled"
    );
    assert!(
        want.1.event_sims <= exhaustive.event_sims,
        "later rounds time nothing earlier ones timed"
    );
    assert!(
        want.1.golden_waveform_builds <= valid_cycles(&golden).len() as u64,
        "one golden waveform per cycle"
    );
    let dir = tmpdir();
    let path = dir.join("rounds.ckpt");
    for (label, keep) in [
        ("first round only", (|round| round == 0) as fn(u64) -> bool),
        ("all but the first round", |round| round > 0),
    ] {
        let run = |resume: bool| {
            delay_avf_campaign_observed(
                &circuit,
                &topo,
                &timing,
                &golden,
                &edges,
                &config,
                &ctx(&path, 3, resume),
            )
            .unwrap()
        };
        assert_eq!(run(false), want, "checkpointing changed the sweep");
        // A unit stores only the classes it settled itself, so payloads
        // do not grow with rounds: one stored class per replay.
        let stored: u64 = fs::read_to_string(&path)
            .unwrap()
            .lines()
            .filter_map(|line| {
                line.split_once(" fc ")?
                    .1
                    .split(' ')
                    .next()?
                    .parse::<u64>()
                    .ok()
            })
            .sum();
        assert_eq!(stored, want.1.replays, "stored classes ({label})");
        keep_rounds(&path, keep);
        let cut = fs::read_to_string(&path).unwrap();
        assert_eq!(run(true), want, "resumed sweep differs ({label})");
        if label == "first round only" {
            // Without the first round's step-1 results, the later rounds
            // time its pairs again: the same rows from more simulations.
            let forgotten: String = cut
                .lines()
                .map(|line| match line.split_once(" dyn ") {
                    Some((head, _)) => format!("{head} dyn 0\n"),
                    None => format!("{line}\n"),
                })
                .collect();
            assert_ne!(forgotten, cut, "the first round stores step-1 results");
            fs::write(&path, forgotten).unwrap();
            let (rows, stats) = run(true);
            assert_eq!(rows, want.0, "step-1 results never change a row");
            assert!(
                stats.event_sims > want.1.event_sims,
                "the stored step-1 results spare {} of the later rounds' simulations",
                stats.event_sims - want.1.event_sims
            );
        }
    }

    // A checkpoint of the previous format (v6, whose knob hash covered the
    // deleted lane-width and collapse options) is rejected before any unit
    // is parsed.
    delay_avf_campaign_observed(
        &circuit,
        &topo,
        &timing,
        &golden,
        &edges,
        &config,
        &ctx(&path, 3, false),
    )
    .unwrap();
    let current = fs::read_to_string(&path).unwrap();
    let v6 = current.replacen(&format!(" v{CHECKPOINT_FORMAT_VERSION} "), " v6 ", 1);
    assert_ne!(v6, current, "the header names the format version");
    fs::write(&path, v6).unwrap();
    let err = delay_avf_campaign_observed(
        &circuit,
        &topo,
        &timing,
        &golden,
        &edges,
        &config,
        &ctx(&path, 3, true),
    )
    .unwrap_err();
    assert!(
        err.contains("checkpoint mismatch") && err.contains("format version v6"),
        "v6 checkpoint not pinned: {err}"
    );
    fs::remove_dir_all(dir).unwrap();
}

/// One boundary, one round: the first unit that leaves a class unsettled
/// at its latch boundary settles the whole cycle there, every edge under
/// every fraction, so each boundary's fresh classes sit in exactly one
/// unit's payload however many rounds revisit it. A plan that walks the
/// whole population in many rounds then replays exactly the uniform
/// sweep's sets, ORACE's single bits included, and reports its tallies.
/// The accumulator never halts, so every class is a replay.
#[test]
fn adaptive_sweeps_settle_each_boundary_in_one_unit() {
    let Accumulator {
        circuit,
        topo,
        timing,
        golden,
        edges,
    } = accumulator();
    let uniform = CampaignConfig {
        delay_fractions: vec![0.5, 0.9],
        compute_orace: true,
        due_slack: 30,
        threads: 2,
        strata: 4,
        ..CampaignConfig::default()
    };
    let (want_rows, want) =
        delay_avf_campaign_with_stats(&circuit, &topo, &timing, &golden, &edges, &uniform);
    assert!(want.replays > 0, "the uniform sweep replays");
    let dir = tmpdir();
    let path = dir.join("boundaries.ckpt");
    for target in [1e-9, 0.01] {
        let config = CampaignConfig {
            ci_target: Some(target),
            ..uniform.clone()
        };
        let (rows, stats) = delay_avf_campaign_observed(
            &circuit,
            &topo,
            &timing,
            &golden,
            &edges,
            &config,
            &ctx(&path, 1, false),
        )
        .unwrap();
        // Per cycle: the units that ran there, and those that stored classes.
        let mut units: BTreeMap<u64, (usize, usize)> = BTreeMap::new();
        let mut rounds = BTreeSet::new();
        let mut stored = 0;
        for line in fs::read_to_string(&path).unwrap().lines() {
            let Some(rest) = line.strip_prefix("unit ") else {
                continue;
            };
            let key: u64 = rest.split(' ').next().unwrap().parse().unwrap();
            let (_, fc) = rest
                .split_once(" fc ")
                .expect("a sweep unit has an fc section");
            let fresh: u64 = fc.split(' ').next().unwrap().parse().unwrap();
            rounds.insert(key >> 44);
            let seen = units.entry(key & ((1 << 44) - 1)).or_default();
            seen.0 += 1;
            seen.1 += usize::from(fresh > 0);
            stored += fresh;
        }
        assert!(
            rounds.len() >= 3,
            "target {target}: {} rounds",
            rounds.len()
        );
        assert!(
            units.values().any(|&(ran, _)| ran > 1),
            "target {target}: no round revisited a cycle"
        );
        for (cycle, &(ran, settled)) in &units {
            assert!(
                settled <= 1,
                "target {target}: cycle {cycle} stored classes in {settled} of its {ran} units"
            );
        }
        assert_eq!(
            stored, stats.replays,
            "target {target}: one class per replay"
        );
        assert!(stats.replays <= want.replays, "target {target}");
        if target == 1e-9 {
            assert_eq!(
                stats.replays, want.replays,
                "whole population, uniform's replays"
            );
            let tallies: Vec<_> = rows
                .into_iter()
                .map(|row| DelayAvfResult {
                    adaptive: None,
                    ..row
                })
                .collect();
            assert_eq!(tallies, want_rows, "whole population, uniform's tallies");
        }
    }
    fs::remove_dir_all(dir).unwrap();
}

/// A checkpoint written under one campaign identity must never be merged
/// into another: different inputs (fingerprint), a different campaign
/// kind and an older format version are all pinned `checkpoint mismatch`
/// errors, and a torn file is a `checkpoint parse error`.
#[test]
fn stale_or_foreign_checkpoints_are_rejected_not_merged() {
    let s = setup();
    let dir = tmpdir();
    let edges = sample_edges(
        &s.topo.structure_edges(&s.core.circuit, "decoder").unwrap(),
        12,
        17,
    );
    let dffs: Vec<DffId> = s
        .core
        .circuit
        .structure("lsu")
        .unwrap()
        .dffs()
        .iter()
        .copied()
        .take(6)
        .collect();
    let config = CampaignConfig {
        delay_fractions: vec![0.9],
        compute_orace: false,
        due_slack: 500,
        threads: 2,
        ci_target: None,
        strata: 4,
        sample_seed: 7,
    };
    let path = dir.join("sweep.ckpt");
    delay_avf_campaign_observed(
        &s.core.circuit,
        &s.topo,
        &s.timing,
        &s.golden,
        &edges,
        &config,
        &ctx(&path, 1, false),
    )
    .unwrap();

    // Different fractions → different results fingerprint.
    let other = CampaignConfig {
        delay_fractions: vec![0.8],
        ..config.clone()
    };
    let err = delay_avf_campaign_observed(
        &s.core.circuit,
        &s.topo,
        &s.timing,
        &s.golden,
        &edges,
        &other,
        &ctx(&path, 1, true),
    )
    .unwrap_err();
    assert!(
        err.contains("checkpoint mismatch"),
        "fraction drift not pinned: {err}"
    );

    // A sweep checkpoint resumed by the sAVF campaign → kind mismatch.
    let err = savf_campaign_observed(
        &s.core.circuit,
        &s.topo,
        &s.timing,
        &s.golden,
        &dffs,
        ReplayOptions::new(500, 2),
        &ctx(&path, 1, true),
    )
    .unwrap_err();
    assert!(
        err.contains("checkpoint mismatch"),
        "kind drift not pinned: {err}"
    );

    // Thread count is NOT part of the identity: the stats are defined to be
    // thread-invariant, so a resume under a different worker count succeeds
    // and still reproduces the uninterrupted report.
    let want = delay_avf_campaign_with_stats(
        &s.core.circuit,
        &s.topo,
        &s.timing,
        &s.golden,
        &edges,
        &config,
    );
    let resumed = delay_avf_campaign_observed(
        &s.core.circuit,
        &s.topo,
        &s.timing,
        &s.golden,
        &edges,
        &config.clone().with_threads(4),
        &ctx(&path, 1, true),
    )
    .unwrap();
    assert_eq!(resumed, want, "cross-thread-count resume differs");

    // A checkpoint of the previous file format (v3, whose per-bit campaign
    // checkpointed bits rather than cycles) is rejected as a mismatch
    // before any unit is parsed.
    let current = fs::read_to_string(&path).unwrap();
    let v3 = current.replacen(&format!(" v{CHECKPOINT_FORMAT_VERSION} "), " v3 ", 1);
    assert_ne!(v3, current, "the header names the format version");
    fs::write(&path, v3).unwrap();
    let err = delay_avf_campaign_observed(
        &s.core.circuit,
        &s.topo,
        &s.timing,
        &s.golden,
        &edges,
        &config,
        &ctx(&path, 1, true),
    )
    .unwrap_err();
    assert!(
        err.contains("checkpoint mismatch") && err.contains("format version v3"),
        "v3 checkpoint not pinned: {err}"
    );

    // A torn file (no atomic rename ever produces one, but disks lie) is a
    // loud parse error, not a silent fresh start.
    let torn = format!("delayavf-checkpoint v{CHECKPOINT_FORMAT_VERSION} delay_sweep\nfingerpri");
    fs::write(&path, torn).unwrap();
    let err = delay_avf_campaign_observed(
        &s.core.circuit,
        &s.topo,
        &s.timing,
        &s.golden,
        &edges,
        &config,
        &ctx(&path, 1, true),
    )
    .unwrap_err();
    assert!(
        err.contains("checkpoint parse error"),
        "torn file not pinned: {err}"
    );
    fs::remove_dir_all(dir).unwrap();
}

/// Rewrites token `index` of the file's first `unit` line with `edit`.
fn corrupt_first_unit(path: &Path, edit: impl Fn(&[&str]) -> (usize, String)) {
    let text = fs::read_to_string(path).unwrap();
    let mut out = String::new();
    let mut done = false;
    for line in text.lines() {
        if !done && line.starts_with("unit ") {
            let mut toks: Vec<&str> = line.split(' ').collect();
            let (index, replacement) = edit(&toks);
            toks[index] = &replacement;
            out.push_str(&toks.join(" "));
            done = true;
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    assert!(done, "no unit line in {}", path.display());
    fs::write(path, out).unwrap();
}

/// A corrupt unit payload is a `checkpoint parse error` on resume, never a
/// panic or a silent misread: a count near 2⁶⁰ must not size an
/// allocation, and a class token must be exactly one class letter.
#[test]
fn corrupt_unit_payloads_are_parse_errors() {
    let s = setup();
    let dir = tmpdir();
    let edges = sample_edges(
        &s.topo.structure_edges(&s.core.circuit, "decoder").unwrap(),
        12,
        17,
    );
    let dffs: Vec<DffId> = s
        .core
        .circuit
        .structure("lsu")
        .unwrap()
        .dffs()
        .iter()
        .copied()
        .take(6)
        .collect();
    let opts = ReplayOptions::new(500, 2);

    // A failure-cache entry count far past the tokens that follow it.
    let path = dir.join("savf.ckpt");
    let savf = |resume| {
        savf_campaign_observed(
            &s.core.circuit,
            &s.topo,
            &s.timing,
            &s.golden,
            &dffs,
            opts,
            &ctx(&path, 1, resume),
        )
    };
    savf(false).unwrap();
    corrupt_first_unit(&path, |toks| {
        let fc = toks.iter().position(|&t| t == "fc").expect("an fc section");
        (fc + 1, "1152921504606846975".to_string())
    });
    let err = savf(true).unwrap_err();
    assert!(
        err.contains("checkpoint parse error"),
        "huge count not pinned: {err}"
    );

    // A record class token with a trailing character.
    let path = dir.join("records.ckpt");
    let records = |resume| {
        delay_avf_campaign_records_observed(
            &s.core.circuit,
            &s.topo,
            &s.timing,
            &s.golden,
            &edges,
            0.9,
            opts,
            &ctx(&path, 1, resume),
        )
    };
    records(false).unwrap();
    // `unit <key> rec <count> <edge> <static> <class> ...`
    corrupt_first_unit(&path, |toks| {
        assert_eq!(toks[2], "rec");
        (6, format!("{}X", toks[6]))
    });
    let err = records(true).unwrap_err();
    assert!(
        err.contains("checkpoint parse error") && err.contains("bad failure class"),
        "multi-character class token not pinned: {err}"
    );

    // An adaptive sweep's step-1 pair index past the cycle's pairs.
    let path = dir.join("sweep.ckpt");
    let config = CampaignConfig {
        delay_fractions: vec![0.5, 0.9],
        due_slack: 500,
        threads: 2,
        ci_target: Some(0.05),
        ..CampaignConfig::default()
    };
    let sweep = |resume| {
        delay_avf_campaign_observed(
            &s.core.circuit,
            &s.topo,
            &s.timing,
            &s.golden,
            &edges,
            &config,
            &ctx(&path, 1, resume),
        )
    };
    sweep(false).unwrap();
    // `... dyn <count> <entry> ...`: the first entry's gap is its pair.
    corrupt_first_unit(&path, |toks| {
        let at = toks
            .iter()
            .position(|&t| t == "dyn")
            .expect("a dyn section");
        assert_ne!(toks[at + 1], "0", "the first unit stores step-1 results");
        let pairs = edges.len() * config.delay_fractions.len();
        (at + 2, pairs.to_string())
    });
    let err = sweep(true).unwrap_err();
    assert!(
        err.contains("checkpoint parse error") && err.contains("out of range"),
        "step-1 pair past the cycle not pinned: {err}"
    );
    fs::remove_dir_all(dir).unwrap();
}
