//! The parallel campaign engine's headline guarantee, checked on the real
//! gate-level core: for any worker-thread count — including counts that
//! do not divide the unit count, so workers pull uneven unit sets from the
//! shared queue — the campaigns return results, ORACE statistics and the
//! merged injector cache counters bit-for-bit identical to a serial run.

use delayavf::{
    delay_avf_campaign_records, delay_avf_campaign_with_stats, prepare_golden_seeded, sample_edges,
    savf_campaign_with_stats, savf_per_bit_campaign, spatial_double_strike_campaign, valid_cycles,
    CampaignConfig, ReplayOptions,
};
use delayavf_netlist::{DffId, Topology};
use delayavf_rvcore::{Core, CoreConfig, MemEnv, DEFAULT_RAM_BYTES};
use delayavf_timing::{TechLibrary, TimingModel};
use delayavf_workloads::{Kernel, Scale};

struct Setup {
    core: Core,
    topo: Topology,
    timing: TimingModel,
    golden: delayavf::GoldenRun<MemEnv>,
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

/// The quiet-source certificate, the lane-packed timing engine and the
/// scalar one (class representatives, retired lanes) all read the one
/// golden waveform the injector builds per cycle: a uniform sweep builds at
/// most one per injection cycle, at any thread count. The LSU sample mixes
/// class representatives with batched survivors in the same cycles.
#[test]
fn a_sweep_builds_one_golden_waveform_per_injection_cycle() {
    let s = setup();
    let edges = sample_edges(
        &s.topo.structure_edges(&s.core.circuit, "lsu").unwrap(),
        30,
        17,
    );
    let cycles = valid_cycles(&s.golden).len() as u64;
    for threads in [1, 2] {
        let config = CampaignConfig {
            delay_fractions: vec![0.5, 0.9],
            due_slack: 500,
            threads,
            ..CampaignConfig::default()
        };
        let (_, stats) = delay_avf_campaign_with_stats(
            &s.core.circuit,
            &s.topo,
            &s.timing,
            &s.golden,
            &edges,
            &config,
        );
        assert!(stats.class_representatives > 0, "{stats:?}");
        assert!(stats.batched_timing_replays > 0, "{stats:?}");
        assert!(
            (1..=cycles).contains(&stats.golden_waveform_builds),
            "{} builds for {cycles} injection cycles at {threads} threads: {stats:?}",
            stats.golden_waveform_builds
        );
    }
}

#[test]
fn all_campaigns_are_thread_count_invariant_on_the_real_core() {
    let s = setup();
    let edges = sample_edges(
        &s.topo.structure_edges(&s.core.circuit, "alu").unwrap(),
        30,
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
        .take(12)
        .collect();

    let config = CampaignConfig {
        delay_fractions: vec![0.5, 0.9],
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
    let serial_opts = ReplayOptions::new(500, 1);
    let (serial_rows, serial_stats) = delay_avf_campaign_with_stats(
        &s.core.circuit,
        &s.topo,
        &s.timing,
        &s.golden,
        &edges,
        &config,
    );
    assert!(serial_stats.event_sims > 0, "the sweep did real work");
    assert!(
        serial_stats.golden_waveform_builds > 0,
        "sweeps build golden waveforms: {serial_stats:?}"
    );
    let (serial_savf, serial_savf_stats) = savf_campaign_with_stats(
        &s.core.circuit,
        &s.topo,
        &s.timing,
        &s.golden,
        &dffs,
        serial_opts,
    );
    let (serial_row, serial_records) = delay_avf_campaign_records(
        &s.core.circuit,
        &s.topo,
        &s.timing,
        &s.golden,
        &edges,
        0.9,
        serial_opts,
    );
    let serial_per_bit = savf_per_bit_campaign(
        &s.core.circuit,
        &s.topo,
        &s.timing,
        &s.golden,
        &dffs,
        serial_opts,
    );
    let serial_spatial = spatial_double_strike_campaign(
        &s.core.circuit,
        &s.topo,
        &s.timing,
        &s.golden,
        &dffs,
        serial_opts,
    );

    for threads in [2, 3, 4, 5] {
        let cfg = config.clone().with_threads(threads);
        let opts = ReplayOptions::new(500, threads);
        let (rows, stats) = delay_avf_campaign_with_stats(
            &s.core.circuit,
            &s.topo,
            &s.timing,
            &s.golden,
            &edges,
            &cfg,
        );
        assert_eq!(rows, serial_rows, "sweep rows with {threads} threads");
        assert_eq!(
            stats, serial_stats,
            "injector counters with {threads} threads"
        );

        let (savf, savf_stats) =
            savf_campaign_with_stats(&s.core.circuit, &s.topo, &s.timing, &s.golden, &dffs, opts);
        assert_eq!(savf, serial_savf, "sAVF with {threads} threads");
        assert_eq!(
            savf_stats, serial_savf_stats,
            "sAVF counters with {threads} threads"
        );

        let (row, records) = delay_avf_campaign_records(
            &s.core.circuit,
            &s.topo,
            &s.timing,
            &s.golden,
            &edges,
            0.9,
            opts,
        );
        assert_eq!(row, serial_row, "records row with {threads} threads");
        assert_eq!(
            records, serial_records,
            "record order with {threads} threads"
        );

        let per_bit =
            savf_per_bit_campaign(&s.core.circuit, &s.topo, &s.timing, &s.golden, &dffs, opts);
        assert_eq!(per_bit, serial_per_bit, "per-bit with {threads} threads");

        let spatial = spatial_double_strike_campaign(
            &s.core.circuit,
            &s.topo,
            &s.timing,
            &s.golden,
            &dffs,
            opts,
        );
        assert_eq!(spatial, serial_spatial, "spatial with {threads} threads");
    }
}

/// The bit-parallel batching layer's guarantee, on a threads × lanes grid:
/// every lane width returns the same campaign rows, and at a fixed lane
/// width every counter — including the new batch counters — is
/// thread-count invariant.
#[test]
fn batch_counters_are_thread_invariant_at_every_lane_width() {
    use std::collections::HashMap;

    let s = setup();
    // Decoder edges at fractions near the full clock period: these latch
    // wrong values on this workload, so the sweep actually replays (and
    // therefore batches); ALU faults are fully masked here.
    let edges = sample_edges(
        &s.topo.structure_edges(&s.core.circuit, "decoder").unwrap(),
        30,
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
        .take(12)
        .collect();
    let config = CampaignConfig {
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
    let (base_rows, _) = delay_avf_campaign_with_stats(
        &s.core.circuit,
        &s.topo,
        &s.timing,
        &s.golden,
        &edges,
        &config,
    );
    let (base_savf, _) = savf_campaign_with_stats(
        &s.core.circuit,
        &s.topo,
        &s.timing,
        &s.golden,
        &dffs,
        ReplayOptions::new(500, 1),
    );

    let mut sweep_stats_by_lanes = HashMap::new();
    let mut savf_stats_by_lanes = HashMap::new();
    for lanes in [1usize, 2, 64, 256] {
        for threads in [1usize, 2, 4] {
            let cfg = config.clone().with_threads(threads).with_lanes(lanes);
            let (rows, stats) = delay_avf_campaign_with_stats(
                &s.core.circuit,
                &s.topo,
                &s.timing,
                &s.golden,
                &edges,
                &cfg,
            );
            assert_eq!(
                rows, base_rows,
                "sweep rows, lanes={lanes} threads={threads}"
            );
            let first = *sweep_stats_by_lanes.entry(lanes).or_insert(stats);
            assert_eq!(
                stats, first,
                "sweep counters thread-invariant at lanes={lanes} (threads={threads})"
            );

            let opts = ReplayOptions::new(500, threads).with_lanes(lanes);
            let (savf, savf_stats) = savf_campaign_with_stats(
                &s.core.circuit,
                &s.topo,
                &s.timing,
                &s.golden,
                &dffs,
                opts,
            );
            assert_eq!(savf, base_savf, "sAVF, lanes={lanes} threads={threads}");
            let first = *savf_stats_by_lanes.entry(lanes).or_insert(savf_stats);
            assert_eq!(
                savf_stats, first,
                "sAVF counters thread-invariant at lanes={lanes} (threads={threads})"
            );
        }
    }

    // lanes = 1 replays every scenario in its own one-lane batch; wide
    // configurations pack them.
    for stats_by_lanes in [&sweep_stats_by_lanes, &savf_stats_by_lanes] {
        let scalar = &stats_by_lanes[&1];
        assert_eq!(
            scalar.lane_slots, scalar.batched_replays,
            "one lane per batch at lanes = 1"
        );
        assert_eq!(
            scalar.lanes_occupied, scalar.replays,
            "every replay occupies a lane at lanes = 1"
        );
        let wide = &stats_by_lanes[&64];
        assert!(wide.batched_replays > 0, "wide config batches: {wide:?}");
        assert!(wide.lanes_occupied > 0, "wide config occupies lanes");
        // The number of distinct scenarios replayed through the batch engine
        // does not depend on the lane width, only on the workload.
        assert_eq!(
            stats_by_lanes[&2].lanes_occupied, wide.lanes_occupied,
            "scenario count is lane-width invariant"
        );
        assert_eq!(
            stats_by_lanes[&256].lanes_occupied, wide.lanes_occupied,
            "the 256-lane word path replays the same scenarios"
        );
        // Lane slots count scheduled lanes, not allocated carrier width:
        // whenever batches ran at all, utilization is exactly 1.0 — a
        // partially-filled final chunk contributes only the slots it
        // actually carries.
        for (&lanes, stats) in stats_by_lanes {
            if lanes > 1 {
                assert_eq!(
                    stats.lane_utilization(),
                    1.0,
                    "lane accounting at lanes={lanes}: {stats:?}"
                );
            }
        }
    }
}

/// The equivalence-class collapse layer's guarantee, on a collapse ×
/// threads × lanes grid: collapse on and off return identical delay-sweep
/// rows at every thread count and lane width, and the four collapse
/// counters — `collapsed_edges`, `class_representatives`,
/// `formally_discharged_ace`, `formally_discharged_unace` — are invariant
/// across both the thread count and the lane width (they count class
/// structure and certificates, not batching), and exactly zero with
/// collapse off.
#[test]
fn collapse_counters_are_thread_and_lane_invariant() {
    use std::collections::HashMap;

    let s = setup();
    // Decoder edges: this structure has real collapse classes (buffer-like
    // chains) on the core, so the member-redirect path is exercised.
    let edges = sample_edges(
        &s.topo.structure_edges(&s.core.circuit, "decoder").unwrap(),
        30,
        17,
    );
    let config = CampaignConfig {
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
    let (base_rows, base_stats) = delay_avf_campaign_with_stats(
        &s.core.circuit,
        &s.topo,
        &s.timing,
        &s.golden,
        &edges,
        &config,
    );
    assert!(
        base_stats.collapsed_edges > 0,
        "the collapse layer fires on decoder edges: {base_stats:?}"
    );
    // No class member of this sample passes the static filter, so every
    // collapse here is a quiet-source certificate and
    // `class_representatives` stays 0; the representative path is pinned by
    // `a_sweep_builds_one_golden_waveform_per_injection_cycle` and
    // `tests/collapse_equivalence.rs`.
    assert!(
        base_stats.formally_discharged_ace + base_stats.formally_discharged_unace > 0,
        "the semi-formal discharge fired on decoder flip groups: {base_stats:?}"
    );

    let mut stats_by_point = HashMap::new();
    let mut collapse_counters = HashMap::new();
    for collapse in [true, false] {
        for threads in [1usize, 2, 4] {
            for lanes in [1usize, 64] {
                let cfg = config
                    .clone()
                    .with_collapse(collapse)
                    .with_threads(threads)
                    .with_lanes(lanes);
                let (rows, stats) = delay_avf_campaign_with_stats(
                    &s.core.circuit,
                    &s.topo,
                    &s.timing,
                    &s.golden,
                    &edges,
                    &cfg,
                );
                assert_eq!(
                    rows, base_rows,
                    "sweep rows, collapse={collapse} threads={threads} lanes={lanes}"
                );
                // Full counter set is thread-invariant at a fixed
                // (collapse, lanes) point ...
                let first = *stats_by_point.entry((collapse, lanes)).or_insert(stats);
                assert_eq!(
                    stats, first,
                    "counters thread-invariant at collapse={collapse} lanes={lanes} \
                     (threads={threads})"
                );
                // ... and the collapse counters are additionally lane-width
                // invariant: members and certificates are discharged before
                // any batch is formed.
                let quad = (
                    stats.collapsed_edges,
                    stats.class_representatives,
                    stats.formally_discharged_ace,
                    stats.formally_discharged_unace,
                );
                let first_quad = *collapse_counters.entry(collapse).or_insert(quad);
                assert_eq!(
                    quad, first_quad,
                    "collapse counters lane/thread-invariant at collapse={collapse} \
                     (threads={threads}, lanes={lanes})"
                );
                if !collapse {
                    assert_eq!(
                        quad,
                        (0, 0, 0, 0),
                        "collapse off runs the exact per-edge baseline"
                    );
                }
            }
        }
    }
}

/// The timing-aware batching layer's guarantee, on a threads × timing_lanes
/// grid: every timing lane width (scalar, narrow u64, the 256- and 512-lane
/// wide words) returns the same delay-sweep rows, and at a fixed width every
/// counter — including the batched timing-replay counters — is thread-count
/// invariant.
#[test]
fn timing_batch_counters_are_thread_invariant_at_every_lane_width() {
    use std::collections::HashMap;

    let s = setup();
    let edges = sample_edges(
        &s.topo.structure_edges(&s.core.circuit, "decoder").unwrap(),
        30,
        17,
    );
    let config = CampaignConfig {
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
    let (base_rows, _) = delay_avf_campaign_with_stats(
        &s.core.circuit,
        &s.topo,
        &s.timing,
        &s.golden,
        &edges,
        &config,
    );

    let mut stats_by_width = HashMap::new();
    for timing_lanes in [1usize, 2, 64, 256, 512] {
        for threads in [1usize, 2, 4] {
            let cfg = config
                .clone()
                .with_threads(threads)
                .with_timing_lanes(timing_lanes);
            let (rows, stats) = delay_avf_campaign_with_stats(
                &s.core.circuit,
                &s.topo,
                &s.timing,
                &s.golden,
                &edges,
                &cfg,
            );
            assert_eq!(
                rows, base_rows,
                "sweep rows, timing_lanes={timing_lanes} threads={threads}"
            );
            let first = *stats_by_width.entry(timing_lanes).or_insert(stats);
            assert_eq!(
                stats, first,
                "counters thread-invariant at timing_lanes={timing_lanes} (threads={threads})"
            );
        }
    }

    // timing_lanes = 1 routes every timing replay to the scalar delta
    // engine; wider configurations batch.
    let scalar = &stats_by_width[&1];
    assert_eq!(
        scalar.batched_timing_replays, 0,
        "no timing batches at timing_lanes = 1"
    );
    assert_eq!(
        scalar.timing_lanes_occupied, 0,
        "no timing lanes at timing_lanes = 1"
    );
    let wide = &stats_by_width[&64];
    assert!(
        wide.batched_timing_replays > 0,
        "wide config batches timing replays: {wide:?}"
    );
    assert!(
        wide.timing_lanes_occupied > 0,
        "wide config occupies timing lanes"
    );
    // The number of distinct timing scenarios replayed through the batch
    // engine does not depend on the lane width, only on the workload.
    assert_eq!(
        stats_by_width[&2].timing_lanes_occupied, wide.timing_lanes_occupied,
        "timing scenario count is lane-width invariant"
    );
    assert_eq!(
        stats_by_width[&256].timing_lanes_occupied, wide.timing_lanes_occupied,
        "the 256-lane word path replays the same scenarios"
    );
    assert_eq!(
        stats_by_width[&512].timing_lanes_occupied, wide.timing_lanes_occupied,
        "the 512-lane word path replays the same scenarios"
    );
    // Wider words pack the same scenarios into fewer batches.
    assert!(
        stats_by_width[&256].batched_timing_replays <= stats_by_width[&2].batched_timing_replays,
        "wider words never need more batches"
    );
    assert!(
        stats_by_width[&512].batched_timing_replays <= stats_by_width[&256].batched_timing_replays,
        "512-lane words never need more batches than 256-lane words"
    );
    // Timing lane slots count scheduled lanes, not allocated carrier width:
    // the 32-edge warm-ALU shape that used to read 0.5 at timing_lanes = 64
    // now reads exactly 1.0, and so does every other width that batches.
    for (&width, stats) in &stats_by_width {
        if width > 1 {
            assert_eq!(
                stats.timing_lane_utilization(),
                1.0,
                "timing lane accounting at timing_lanes={width}: {stats:?}"
            );
        }
    }
    // Every scenario that the scalar engine replays timing-aware is
    // accounted for: the total of event simulations is width-invariant.
    assert_eq!(
        scalar.event_sims, wide.event_sims,
        "timing replay count is width-invariant"
    );
}
