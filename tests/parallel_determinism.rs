//! The parallel campaign engine's headline guarantee, checked on the real
//! gate-level core: for any worker-thread count — including counts that
//! do not divide the unit count, so workers pull uneven unit sets from the
//! shared queue — the campaigns return results, ORACE statistics and the
//! merged injector cache counters bit-for-bit identical to a serial run.

use delayavf::{
    delay_avf_campaign_records, delay_avf_campaign_with_stats, prepare_golden_seeded, sample_edges,
    savf_campaign_with_stats, savf_per_bit_campaign, spatial_double_strike_campaign, valid_cycles,
    CampaignConfig, InjectionOutcome, Injector, InjectorStats, ReplayOptions,
};
use delayavf_netlist::{DffId, EdgeId, Topology};
use delayavf_rvcore::{Core, CoreConfig, MemEnv, DEFAULT_RAM_BYTES};
use delayavf_sim::{MAX_LANES, MAX_TIMING_LANES};
use delayavf_timing::{Picos, TechLibrary, TimingModel};
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

/// Decoder edges at fractions near the full clock period: these latch
/// wrong values on this workload, so both campaigns replay in batches, and
/// the decoder has real collapse classes (buffer-like chains) on the core.
fn decoder_edges(s: &Setup) -> Vec<EdgeId> {
    sample_edges(
        &s.topo.structure_edges(&s.core.circuit, "decoder").unwrap(),
        30,
        17,
    )
}

/// The decoder delay sweep and an LSU strike campaign at 1, 2 and 4
/// threads: rows and every counter are identical to the serial run's.
/// Returns the serial counters of the sweep and of the strike campaign.
fn thread_invariant_counters(s: &Setup) -> (InjectorStats, InjectorStats) {
    let edges = decoder_edges(s);
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
        ..CampaignConfig::default()
    };
    let run = |threads: usize| {
        let sweep = delay_avf_campaign_with_stats(
            &s.core.circuit,
            &s.topo,
            &s.timing,
            &s.golden,
            &edges,
            &config.clone().with_threads(threads),
        );
        let opts = ReplayOptions::new(500, threads);
        let savf =
            savf_campaign_with_stats(&s.core.circuit, &s.topo, &s.timing, &s.golden, &dffs, opts);
        (sweep, savf)
    };
    let serial = run(1);
    for threads in [2, 4] {
        assert_eq!(run(threads), serial, "{threads} threads");
    }
    let ((_, sweep), (_, savf)) = serial;
    (sweep, savf)
}

/// Runs the decoder sample at 0.9 and 1.0 clock periods through one
/// injector at the given replay and timing lane widths, over every sampled
/// cycle with a successor boundary, the way the campaign driver does: step
/// 1 for the whole cycle, the replays batched through `prefill_failures`,
/// then each injection classified.
fn run_at_widths(
    s: &Setup,
    lanes: usize,
    timing_lanes: usize,
) -> (Vec<InjectionOutcome>, InjectorStats) {
    let period = s.timing.clock_period();
    let pairs: Vec<(EdgeId, Picos)> = decoder_edges(s)
        .into_iter()
        .flat_map(|e| [(e, period * 9 / 10), (e, period)])
        .collect();
    let mut inj = Injector::new(&s.core.circuit, &s.topo, &s.timing, &s.golden, 500);
    inj.set_lanes(lanes);
    inj.set_timing_lanes(timing_lanes);
    let mut outcomes = Vec::new();
    for &cycle in &s.golden.sampled_cycles {
        if cycle + 1 >= s.golden.trace.num_cycles() {
            continue;
        }
        let parts = inj.dynamically_reachable_batch(cycle, &pairs);
        inj.prefill_failures(cycle + 1, parts.iter().map(|(_, set)| set.clone()));
        outcomes.extend(
            parts
                .into_iter()
                .map(|(reached, set)| inj.classify_injection(cycle, reached, set)),
        );
    }
    (outcomes, inj.stats)
}

/// The bit-parallel batching layer's guarantee. Campaigns run at the one
/// production width, where every counter is thread-count invariant and
/// lane slots count scheduled lanes, not the carrier width, so lane
/// utilization reads exactly 1.0. Below the campaign, the injector's
/// replay width (1, 2, the `u64` word and the 256-lane word) changes
/// neither the outcomes nor the number of scenarios replayed.
#[test]
fn batch_counters_are_thread_invariant_at_every_lane_width() {
    let s = setup();
    let (sweep, savf) = thread_invariant_counters(&s);
    for stats in [&sweep, &savf] {
        assert!(stats.batched_replays > 0, "{stats:?}");
        assert_eq!(stats.lane_utilization(), 1.0, "{stats:?}");
    }

    let (base, scalar) = run_at_widths(&s, 1, MAX_TIMING_LANES);
    // One lane per batch: every scenario is replayed in its own batch.
    assert_eq!(scalar.lane_slots, scalar.batched_replays, "{scalar:?}");
    assert_eq!(scalar.lanes_occupied, scalar.replays, "{scalar:?}");
    let mut occupied = None;
    for lanes in [2, 64, 256] {
        let (outcomes, stats) = run_at_widths(&s, lanes, MAX_TIMING_LANES);
        assert_eq!(outcomes, base, "outcomes at lanes={lanes}");
        assert!(stats.batched_replays > 0, "lanes={lanes}: {stats:?}");
        assert_eq!(stats.lane_utilization(), 1.0, "lanes={lanes}: {stats:?}");
        // The scenarios replayed depend on the workload, not the width.
        let first = *occupied.get_or_insert(stats.lanes_occupied);
        assert_eq!(stats.lanes_occupied, first, "lanes={lanes}");
    }
}

/// The equivalence-class collapse layer's guarantee: its counters count
/// class structure and quiet-source certificates, not batching, so they
/// are thread-count invariant in campaigns and identical at every replay
/// and timing lane width of the injector. No class member of the campaign
/// sample passes the static filter, so every collapse there is a
/// quiet-source certificate; the representative path is pinned by
/// `a_sweep_builds_one_golden_waveform_per_injection_cycle` and
/// `tests/collapse_equivalence.rs`. Every failure class comes from a
/// replay, so the discharge counters stay 0.
#[test]
fn collapse_counters_are_thread_and_lane_invariant() {
    let quad = |stats: &InjectorStats| {
        (
            stats.collapsed_edges,
            stats.class_representatives,
            stats.formally_discharged_ace,
            stats.formally_discharged_unace,
        )
    };
    let s = setup();
    let (sweep, _) = thread_invariant_counters(&s);
    assert!(sweep.collapsed_edges > 0, "{sweep:?}");
    assert_eq!(
        (
            sweep.formally_discharged_ace,
            sweep.formally_discharged_unace
        ),
        (0, 0),
        "{sweep:?}"
    );

    let (base, base_stats) = run_at_widths(&s, MAX_LANES, MAX_TIMING_LANES);
    assert!(base_stats.collapsed_edges > 0, "{base_stats:?}");
    for (lanes, timing_lanes) in [(1, 1), (1, 64), (64, 1), (2, 2), (256, 512)] {
        let (outcomes, stats) = run_at_widths(&s, lanes, timing_lanes);
        assert_eq!(outcomes, base, "lanes={lanes} timing_lanes={timing_lanes}");
        assert_eq!(
            quad(&stats),
            quad(&base_stats),
            "collapse counters at lanes={lanes} timing_lanes={timing_lanes}"
        );
    }
}

/// The timing-aware batching layer's guarantee. Campaigns batch their
/// timing replays at the one production width, with thread-count
/// invariant counters and timing lane utilization exactly 1.0. Below the
/// campaign, every timing width of the injector (the scalar engine, 2, the
/// `u64` word and the 256- and 512-lane words) returns the same outcomes
/// from the same timing scenarios; wider words pack them into no more
/// batches.
#[test]
fn timing_batch_counters_are_thread_invariant_at_every_lane_width() {
    let s = setup();
    let (sweep, _) = thread_invariant_counters(&s);
    assert!(sweep.batched_timing_replays > 0, "{sweep:?}");
    assert_eq!(sweep.timing_lane_utilization(), 1.0, "{sweep:?}");

    let (base, scalar) = run_at_widths(&s, MAX_LANES, 1);
    // Width 1 routes every timing replay to the scalar delta engine.
    assert_eq!(scalar.batched_timing_replays, 0, "{scalar:?}");
    assert_eq!(scalar.timing_lanes_occupied, 0, "{scalar:?}");
    let mut by_width = Vec::new();
    for timing_lanes in [2, 64, 256, 512] {
        let (outcomes, stats) = run_at_widths(&s, MAX_LANES, timing_lanes);
        assert_eq!(outcomes, base, "outcomes at timing_lanes={timing_lanes}");
        assert!(
            stats.batched_timing_replays > 0,
            "timing_lanes={timing_lanes}: {stats:?}"
        );
        assert_eq!(
            stats.timing_lane_utilization(),
            1.0,
            "timing_lanes={timing_lanes}: {stats:?}"
        );
        by_width.push((timing_lanes, stats));
    }
    let (_, narrow) = by_width[0];
    for &(timing_lanes, stats) in &by_width {
        assert_eq!(
            stats.timing_lanes_occupied, narrow.timing_lanes_occupied,
            "timing scenario count at timing_lanes={timing_lanes}"
        );
    }
    for pair in by_width.windows(2) {
        let ((narrower, a), (wider, b)) = (pair[0], pair[1]);
        assert!(
            b.batched_timing_replays <= a.batched_timing_replays,
            "{wider} lanes need no more batches than {narrower}"
        );
    }
    let (_, word) = by_width[1];
    assert_eq!(
        scalar.event_sims, word.event_sims,
        "every timing replay is accounted for at any width"
    );
}
