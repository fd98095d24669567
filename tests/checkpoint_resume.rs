//! The checkpoint subsystem's headline guarantee, checked on the real
//! gate-level core for all five campaigns: a run that is interrupted at a
//! checkpoint boundary and resumed produces a report **byte-identical** to
//! the uninterrupted run — same result rows, same merged injector
//! counters — under every `threads × lanes` combination, and a checkpoint
//! written by a different campaign (different inputs, knobs or kind) is
//! rejected with the pinned `checkpoint mismatch` error instead of being
//! silently merged.
//!
//! "Interrupted at a checkpoint boundary" is simulated exactly the way a
//! crash manifests: the atomic flush protocol guarantees the on-disk file
//! is always a complete prefix-closed snapshot, so we truncate a finished
//! checkpoint down to a strict subset of its `unit` lines and resume from
//! that.

use std::fs;
use std::path::{Path, PathBuf};

use delayavf::{
    delay_avf_campaign_observed, delay_avf_campaign_records, delay_avf_campaign_records_observed,
    delay_avf_campaign_with_stats, prepare_golden_seeded, sample_edges, savf_campaign_observed,
    savf_campaign_with_stats, savf_per_bit_campaign, savf_per_bit_campaign_observed,
    spatial_double_strike_campaign, spatial_double_strike_campaign_observed, CampaignConfig,
    CheckpointSpec, GoldenRun, ReplayOptions, RunContext, CHECKPOINT_FORMAT_VERSION,
    NULL_TELEMETRY,
};
use delayavf_netlist::{DffId, Topology};
use delayavf_rvcore::{Core, CoreConfig, MemEnv, DEFAULT_RAM_BYTES};
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

#[test]
fn resumed_reports_are_byte_identical_across_the_threads_by_lanes_grid() {
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
        lanes: 64,
        timing_lanes: 64,
        collapse: true,
        ci_target: None,
        strata: 4,
        sample_seed: 7,
    };

    for (threads, lanes) in [(1usize, 64usize), (2, 1), (4, 64)] {
        let config = base_config.clone().with_threads(threads).with_lanes(lanes);
        let opts = ReplayOptions::new(500, threads).with_lanes(lanes);
        let tag = format!("t{threads}-l{lanes}");

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
        lanes: 64,
        timing_lanes: 64,
        collapse: true,
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

/// A checkpoint written under one campaign identity must never be merged
/// into another: different inputs (fingerprint), different engine knobs,
/// and a different campaign kind are all pinned `checkpoint mismatch`
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
        lanes: 64,
        timing_lanes: 64,
        collapse: true,
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

    // Different counter-shaping knobs (lane width) → different knob hash.
    let other = config.clone().with_lanes(1);
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
        "knob drift not pinned: {err}"
    );

    // The collapse knob also shapes the counters (collapsed_edges and the
    // discharge counters are zero with collapse off), so a checkpoint
    // written with collapse on must not resume with it off.
    let other = config.clone().with_collapse(false);
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
        "collapse drift not pinned: {err}"
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

    // A checkpoint of the previous file format (v2, whose unit payloads
    // carried two more counters) is rejected as a mismatch before any unit
    // is parsed.
    let current = fs::read_to_string(&path).unwrap();
    let v2 = current.replacen(&format!(" v{CHECKPOINT_FORMAT_VERSION} "), " v2 ", 1);
    assert_ne!(v2, current, "the header names the format version");
    fs::write(&path, v2).unwrap();
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
        err.contains("checkpoint mismatch") && err.contains("format version v2"),
        "v2 checkpoint not pinned: {err}"
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
