//! Statistical-oracle test layer for adaptive stratified sampling.
//!
//! The adaptive campaigns (`ci_target` set) trade exhaustiveness for
//! replay budget, so their correctness story cannot be "bit-identical to
//! the uniform path". Instead this suite pins three statistical contracts
//! on configurations small enough to evaluate *exhaustively*:
//!
//! 1. **Degenerate equivalence** — a `ci_target` too tight to ever retire
//!    a stratum forces the plan to sample every site, and then the
//!    adaptive tallies must equal the exhaustive campaign's exactly, for
//!    all five campaign kinds.
//! 2. **Calibration** — across many sampling seeds at a moderate
//!    `ci_target`, every reported 95% interval must contain the
//!    exhaustively-computed DelayAVF (the composed Wilson interval is
//!    conservative, so full containment is the expected behavior, not a
//!    lucky draw).
//! 3. **Determinism** — the adaptive report is a pure function of the
//!    knobs: thread count and lane widths must not change a single bit of
//!    the rows, the estimate, or the merged counters.

use delayavf::{
    delay_avf_campaign_records, delay_avf_campaign_with_stats, prepare_golden, sample_edges,
    savf_campaign_with_stats, savf_per_bit_campaign, spatial_double_strike_campaign,
    CampaignConfig, GoldenRun, ReplayOptions,
};
use delayavf_netlist::{Circuit, CircuitBuilder, DffId, EdgeId, Topology};
use delayavf_sim::ConstEnvironment;
use delayavf_timing::{TechLibrary, TimingModel};

/// Accumulator fixture: wide enough that the site population spans a few
/// thousand (cycle, edge) pairs, tiny enough that exhaustive evaluation
/// stays fast. Errors persist forever, so visibility tracks dynamic reach.
struct Fixture {
    circuit: Circuit,
    topo: Topology,
    timing: TimingModel,
    golden: GoldenRun<ConstEnvironment>,
    edges: Vec<EdgeId>,
    dffs: Vec<DffId>,
}

fn fixture(cycle_samples: usize) -> Fixture {
    let mut b = CircuitBuilder::new();
    let step = b.input_word("step", 8);
    let acc = b.reg_word("acc", 8, 0);
    let next = b.in_structure("adder", |b| b.add(&acc.q(), &step));
    b.drive_word(&acc, &next);
    b.output_word("acc", &acc.q());
    let circuit = b.finish().unwrap();
    let topo = Topology::new(&circuit);
    let timing = TimingModel::analyze(&circuit, &topo, &TechLibrary::nangate45_like());
    let env = ConstEnvironment::new(vec![0x35]);
    let golden = prepare_golden(&circuit, &topo, &env, 96, cycle_samples);
    let edges = sample_edges(&topo.structure_edges(&circuit, "adder").unwrap(), 48, 17);
    let dffs = circuit.structure("adder").unwrap().dffs().to_vec();
    Fixture {
        circuit,
        topo,
        timing,
        golden,
        edges,
        dffs,
    }
}

fn config(ci_target: Option<f64>, threads: usize) -> CampaignConfig {
    CampaignConfig {
        delay_fractions: vec![0.5, 0.9],
        compute_orace: false,
        due_slack: 30,
        threads,
        lanes: 64,
        timing_lanes: 64,
        collapse: true,
        ci_target,
        strata: 4,
        sample_seed: 7,
    }
}

fn replay_opts(ci_target: Option<f64>) -> ReplayOptions {
    ReplayOptions::new(30, 1)
        .with_ci_target(ci_target)
        .with_strata(4)
        .with_sample_seed(7)
}

/// A `ci_target` no stratum can ever meet: the plan must walk the entire
/// population, and then every exhaustive tally must match the uniform
/// campaign's bit for bit — for all five campaign kinds.
#[test]
fn exhausting_ci_target_reproduces_the_uniform_campaigns() {
    let f = fixture(24);
    let tight = Some(1e-9);

    // Delay sweep.
    let (uniform, _) = delay_avf_campaign_with_stats(
        &f.circuit,
        &f.topo,
        &f.timing,
        &f.golden,
        &f.edges,
        &config(None, 1),
    );
    let (adaptive, stats) = delay_avf_campaign_with_stats(
        &f.circuit,
        &f.topo,
        &f.timing,
        &f.golden,
        &f.edges,
        &config(tight, 1),
    );
    assert_eq!(uniform.len(), adaptive.len());
    for (u, a) in uniform.iter().zip(&adaptive) {
        assert_eq!(u.delay_fraction, a.delay_fraction);
        assert_eq!(u.injections, a.injections);
        assert_eq!(u.static_hits, a.static_hits);
        assert_eq!(u.dynamic_hits, a.dynamic_hits);
        assert_eq!(u.delay_ace_hits, a.delay_ace_hits);
        assert_eq!(u.sdc_hits, a.sdc_hits);
        assert_eq!(u.due_hits, a.due_hits);
        let est = a.adaptive.expect("adaptive run reports its estimate");
        assert_eq!(est.sampled, est.population, "nothing may be skipped");
        // Full sampling makes the stratified point the exhaustive mean.
        assert!(
            (est.point - u.delay_avf()).abs() < 1e-12,
            "stratified point {} != exhaustive {}",
            est.point,
            u.delay_avf()
        );
        assert!(est.lo <= est.point && est.point <= est.hi);
        assert!(u.adaptive.is_none(), "uniform rows carry no estimate");
    }
    assert_eq!(stats.adaptive_replays_saved, 0);

    // Particle-strike sAVF.
    let (u_savf, _) = savf_campaign_with_stats(
        &f.circuit,
        &f.topo,
        &f.timing,
        &f.golden,
        &f.dffs,
        replay_opts(None),
    );
    let (a_savf, a_stats) = savf_campaign_with_stats(
        &f.circuit,
        &f.topo,
        &f.timing,
        &f.golden,
        &f.dffs,
        replay_opts(tight),
    );
    assert_eq!(u_savf, a_savf);
    assert_eq!(a_stats.adaptive_replays_saved, 0);

    // Per-bit sAVF.
    let u_bits = savf_per_bit_campaign(
        &f.circuit,
        &f.topo,
        &f.timing,
        &f.golden,
        &f.dffs,
        replay_opts(None),
    );
    let a_bits = savf_per_bit_campaign(
        &f.circuit,
        &f.topo,
        &f.timing,
        &f.golden,
        &f.dffs,
        replay_opts(tight),
    );
    assert_eq!(u_bits, a_bits);

    // Spatial double strikes.
    let u_spatial = spatial_double_strike_campaign(
        &f.circuit,
        &f.topo,
        &f.timing,
        &f.golden,
        &f.dffs,
        replay_opts(None),
    );
    let a_spatial = spatial_double_strike_campaign(
        &f.circuit,
        &f.topo,
        &f.timing,
        &f.golden,
        &f.dffs,
        replay_opts(tight),
    );
    assert_eq!(u_spatial, a_spatial);

    // Record-keeping campaign: the adaptive run emits records in (round,
    // cycle, edge) order, so compare as sorted multisets.
    let (u_row, mut u_records) = delay_avf_campaign_records(
        &f.circuit,
        &f.topo,
        &f.timing,
        &f.golden,
        &f.edges,
        0.9,
        replay_opts(None),
    );
    let (a_row, mut a_records) = delay_avf_campaign_records(
        &f.circuit,
        &f.topo,
        &f.timing,
        &f.golden,
        &f.edges,
        0.9,
        replay_opts(tight),
    );
    assert_eq!(u_row.injections, a_row.injections);
    assert_eq!(u_row.delay_ace_hits, a_row.delay_ace_hits);
    u_records.sort_by_key(|r| (r.cycle, r.edge.index()));
    a_records.sort_by_key(|r| (r.cycle, r.edge.index()));
    assert_eq!(u_records, a_records);
    let est = a_row.adaptive.expect("records row reports its estimate");
    assert_eq!(est.sampled, est.population);
}

/// Calibration: across many sampling seeds at a moderate target, every
/// reported interval must contain the exhaustive DelayAVF — and the runs
/// must not be secretly exhaustive, or the test would prove nothing.
#[test]
fn adaptive_intervals_contain_the_exhaustive_value_across_seeds() {
    let f = fixture(48);
    let (uniform, _) = delay_avf_campaign_with_stats(
        &f.circuit,
        &f.topo,
        &f.timing,
        &f.golden,
        &f.edges,
        &config(None, 0),
    );
    let exact: Vec<f64> = uniform.iter().map(|r| r.delay_avf()).collect();
    let mut any_early = false;
    for seed in 0..25u64 {
        let cfg = CampaignConfig {
            sample_seed: seed,
            threads: 0,
            ..config(Some(0.1), 0)
        };
        let (rows, stats) = delay_avf_campaign_with_stats(
            &f.circuit, &f.topo, &f.timing, &f.golden, &f.edges, &cfg,
        );
        for (row, &truth) in rows.iter().zip(&exact) {
            let est = row.adaptive.expect("adaptive estimate present");
            assert!(
                est.lo <= truth && truth <= est.hi,
                "seed {seed}, d={}: exhaustive {truth} outside [{}, {}]",
                row.delay_fraction,
                est.lo,
                est.hi
            );
            if est.sampled < est.population {
                any_early = true;
            }
        }
        assert_eq!(
            stats.adaptive_replays_saved % 2,
            0,
            "savings count whole skipped sites across both fractions"
        );
    }
    assert!(
        any_early,
        "no seed ever retired a stratum early; the calibration is vacuous"
    );
}

/// Adaptive runs must save real replay budget at a moderate target while
/// still meeting it: the whole point of the subsystem.
#[test]
fn adaptive_saves_replays_at_a_moderate_target() {
    let f = fixture(48);
    let (rows, stats) = delay_avf_campaign_with_stats(
        &f.circuit,
        &f.topo,
        &f.timing,
        &f.golden,
        &f.edges,
        &config(Some(0.1), 0),
    );
    assert!(stats.strata_active > 0);
    assert!(
        stats.adaptive_replays_saved > 0,
        "a 0.1 half-width target must retire strata early on this fixture"
    );
    for row in &rows {
        let est = row.adaptive.unwrap();
        assert!(est.sampled < est.population);
        assert!(
            est.half_width() <= 0.25,
            "composed interval blew up: half-width {}",
            est.half_width()
        );
    }
}

/// Sampling must never cost more replays than the exhaustive sweep of the
/// same population: later rounds revisit cycles with other edges, and the
/// classes earlier rounds settled at a boundary serve them instead of
/// being replayed again. Checked on runs of three or more rounds (a round
/// draws about an eighth of the population).
#[test]
fn adaptive_replays_never_exceed_the_uniform_sweeps() {
    let f = fixture(48);
    let (_, uniform) = delay_avf_campaign_with_stats(
        &f.circuit,
        &f.topo,
        &f.timing,
        &f.golden,
        &f.edges,
        &config(None, 0),
    );
    assert!(uniform.replays > 0, "the uniform sweep replays");
    for (seed, target) in [(3u64, 0.01), (7, 0.01), (11, 0.02)] {
        let cfg = CampaignConfig {
            sample_seed: seed,
            ..config(Some(target), 0)
        };
        let (rows, stats) = delay_avf_campaign_with_stats(
            &f.circuit, &f.topo, &f.timing, &f.golden, &f.edges, &cfg,
        );
        let est = rows[0].adaptive.expect("adaptive estimate present");
        let round = est.population.div_ceil(8);
        assert!(
            est.sampled > 2 * round,
            "seed {seed}, target {target}: {} of {} sites is under three rounds",
            est.sampled,
            est.population
        );
        assert!(
            stats.replays <= uniform.replays,
            "seed {seed}, target {target}: {} adaptive replays > {} uniform",
            stats.replays,
            uniform.replays
        );
    }
}

/// A round whose classes are unsettled at a boundary times the rest of the
/// cycle so one batch set replays it whole. At `lanes = 1` prefilling is a
/// no-op and those replays would never batch, so there the sweep must time
/// only the sites the plan sampled: each timing simulation serves one
/// sampled injection. At the default width the whole cycles are timed.
#[test]
fn one_lane_adaptive_sweeps_time_only_the_sampled_sites() {
    let f = fixture(48);
    let run = |lanes: usize| {
        let cfg = CampaignConfig {
            lanes,
            ..config(Some(0.01), 0)
        };
        delay_avf_campaign_with_stats(&f.circuit, &f.topo, &f.timing, &f.golden, &f.edges, &cfg)
    };
    let (rows, one_lane) = run(1);
    let est = rows[0].adaptive.expect("adaptive estimate present");
    assert!(est.sampled < est.population, "the plan skips sites");
    let sampled = (est.sampled * rows.len()) as u64;
    assert!(
        one_lane.event_sims <= sampled,
        "{} timing simulations for {sampled} sampled injections",
        one_lane.event_sims
    );
    let (wide_rows, wide) = run(64);
    assert_eq!(rows, wide_rows);
    assert!(
        wide.event_sims > one_lane.event_sims,
        "the default width times whole cycles ({} vs {} simulations)",
        wide.event_sims,
        one_lane.event_sims
    );
}

/// The adaptive report is a pure function of the knobs: worker threads
/// must not change a single bit anywhere (results, estimate, every merged
/// counter), and lane widths must not change any result or any adaptive
/// counter (lane packing legitimately shifts engine-internal cache
/// counters, exactly as on the uniform path).
#[test]
fn adaptive_reports_are_thread_and_lane_invariant() {
    let f = fixture(24);
    let run = |threads: usize, lanes: usize, timing_lanes: usize| {
        let cfg = CampaignConfig {
            lanes,
            timing_lanes,
            ..config(Some(0.08), threads)
        };
        let sweep = delay_avf_campaign_with_stats(
            &f.circuit, &f.topo, &f.timing, &f.golden, &f.edges, &cfg,
        );
        let opts = replay_opts(Some(0.08))
            .with_threads(threads)
            .with_lanes(lanes)
            .with_timing_lanes(timing_lanes);
        let savf =
            savf_campaign_with_stats(&f.circuit, &f.topo, &f.timing, &f.golden, &f.dffs, opts);
        (sweep, savf)
    };
    let ((rows, stats), (savf, savf_stats)) = run(1, 64, 64);
    for threads in [2usize, 4] {
        let ((t_rows, t_stats), (t_savf, t_savf_stats)) = run(threads, 64, 64);
        assert_eq!(rows, t_rows, "threads={threads}");
        assert_eq!(stats, t_stats, "threads={threads}");
        assert_eq!(savf, t_savf, "threads={threads}");
        assert_eq!(savf_stats, t_savf_stats, "threads={threads}");
    }
    for (lanes, timing_lanes) in [(1usize, 64usize), (64, 1)] {
        let ((l_rows, l_stats), (l_savf, _)) = run(1, lanes, timing_lanes);
        assert_eq!(rows, l_rows, "lanes={lanes} timing_lanes={timing_lanes}");
        assert_eq!(savf, l_savf, "lanes={lanes} timing_lanes={timing_lanes}");
        assert_eq!(stats.strata_active, l_stats.strata_active);
        assert_eq!(stats.strata_retired_early, l_stats.strata_retired_early);
        assert_eq!(stats.adaptive_replays_saved, l_stats.adaptive_replays_saved);
    }
}

/// The validation errors for the adaptive knobs are part of the CLI/config
/// contract — pin their exact phrasing.
#[test]
fn adaptive_knob_validation_errors_are_pinned() {
    assert_eq!(
        delayavf::validate_ci_target(0.0).unwrap_err(),
        "ci_target must be in (0, 0.5), got 0"
    );
    assert_eq!(
        delayavf::validate_ci_target(0.5).unwrap_err(),
        "ci_target must be in (0, 0.5), got 0.5"
    );
    assert_eq!(
        delayavf::validate_strata(0).unwrap_err(),
        "strata must be in 1..=16, got 0"
    );
    assert_eq!(
        delayavf::validate_strata(17).unwrap_err(),
        "strata must be in 1..=16, got 17"
    );
    assert_eq!(delayavf::validate_ci_target(0.05).unwrap(), 0.05);
    assert_eq!(delayavf::validate_strata(16).unwrap(), 16);
}
