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

use std::collections::BTreeSet;
use std::fs;

use delayavf::{
    delay_avf_campaign_observed, delay_avf_campaign_records, delay_avf_campaign_with_stats,
    prepare_golden, sample_edges, savf_campaign_with_stats, savf_per_bit_campaign,
    spatial_double_strike_campaign, CampaignConfig, CheckpointSpec, GoldenRun, ReplayOptions,
    RunContext, NULL_TELEMETRY,
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

/// Each cycle's step-1 results are kept with its classes, so a round that
/// revisits a cycle times nothing an earlier round timed there and builds
/// no second golden waveform: an adaptive sweep runs at most the uniform
/// sweep's timing simulations, and at most one waveform build per cycle it
/// visits. Checked on runs of three or more rounds that revisit cycles, at
/// one and three workers (the crate's schedule test checks the counters
/// under reversed and shuffled queues).
#[test]
fn revisited_cycles_time_nothing_twice() {
    let f = fixture(48);
    let (_, uniform) = delay_avf_campaign_with_stats(
        &f.circuit,
        &f.topo,
        &f.timing,
        &f.golden,
        &f.edges,
        &config(None, 0),
    );
    assert!(uniform.event_sims > 0, "the uniform sweep times pairs");
    let dir = std::env::temp_dir().join(format!("delayavf-store-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    for (seed, target) in [(3u64, 0.01), (7, 0.01), (11, 0.02)] {
        for threads in [1, 3] {
            let cfg = CampaignConfig {
                sample_seed: seed,
                ..config(Some(target), threads)
            };
            // The checkpoint lists every unit the run made.
            let path = dir.join(format!("{seed}-{threads}.ckpt"));
            let spec = CheckpointSpec::new(&path, usize::MAX, false);
            let ctx = RunContext::new(&NULL_TELEMETRY, Some(spec));
            let (_, stats) = delay_avf_campaign_observed(
                &f.circuit, &f.topo, &f.timing, &f.golden, &f.edges, &cfg, &ctx,
            )
            .unwrap();
            // A unit key holds its round above bit 44 and its cycle below.
            let keys: Vec<u64> = fs::read_to_string(&path)
                .unwrap()
                .lines()
                .filter_map(|line| line.strip_prefix("unit ")?.split(' ').next()?.parse().ok())
                .collect();
            let rounds: BTreeSet<u64> = keys.iter().map(|k| k >> 44).collect();
            let cycles: BTreeSet<u64> = keys.iter().map(|k| k & ((1 << 44) - 1)).collect();
            let label = format!("seed {seed}, target {target}, {threads} threads");
            assert!(rounds.len() >= 3, "{label}: {} rounds", rounds.len());
            assert!(
                cycles.len() < keys.len(),
                "{label}: no round revisits a cycle"
            );
            assert!(
                stats.event_sims <= uniform.event_sims,
                "{label}: {} timing simulations > the uniform sweep's {}",
                stats.event_sims,
                uniform.event_sims
            );
            assert!(
                stats.golden_waveform_builds <= cycles.len() as u64,
                "{label}: {} golden waveforms for {} cycles",
                stats.golden_waveform_builds,
                cycles.len()
            );
        }
    }
    fs::remove_dir_all(dir).unwrap();
}

/// The adaptive report is a pure function of the knobs: worker threads
/// must not change a single bit anywhere (results, estimate, every merged
/// counter).
#[test]
fn adaptive_reports_are_thread_invariant() {
    let f = fixture(24);
    let run = |threads: usize| {
        let cfg = config(Some(0.08), threads);
        let sweep = delay_avf_campaign_with_stats(
            &f.circuit, &f.topo, &f.timing, &f.golden, &f.edges, &cfg,
        );
        let opts = replay_opts(Some(0.08)).with_threads(threads);
        let savf =
            savf_campaign_with_stats(&f.circuit, &f.topo, &f.timing, &f.golden, &f.dffs, opts);
        (sweep, savf)
    };
    let serial = run(1);
    for threads in [2usize, 4] {
        assert_eq!(run(threads), serial, "threads={threads}");
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
