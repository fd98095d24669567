//! The fidelity regression matrix: every combination of the engine's
//! performance knobs — toggle pre-filter, convergence early-exit,
//! equivalence-class collapse, the replay batch lane width and the
//! timing-aware batch lane width — produces exactly the per-injection
//! outcomes of the plain reference in `tests/support` (a full event
//! simulation of the faulty cycle, then a plain cycle-by-cycle replay to
//! program end). The knobs change only the cost of the answer, never the
//! answer.

mod support;

use delayavf::{prepare_golden_seeded, sample_edges, InjectionOutcome, Injector};
use delayavf_netlist::{EdgeId, Topology};
use delayavf_rvcore::{Core, CoreConfig, MemEnv, DEFAULT_RAM_BYTES};
use delayavf_timing::{Picos, TechLibrary, TimingModel};
use delayavf_workloads::{Kernel, Scale};
use support::Reference;

struct Setup {
    core: Core,
    topo: Topology,
    timing: TimingModel,
    golden: delayavf::GoldenRun<MemEnv>,
    edges: Vec<EdgeId>,
}

fn setup() -> Setup {
    let core = delayavf_rvcore::build_core(CoreConfig::default());
    let topo = Topology::new(&core.circuit);
    let timing = TimingModel::analyze(&core.circuit, &topo, &TechLibrary::nangate45_like());
    let w = Kernel::Libfibcall.build(Scale::Tiny);
    let p = w.assemble().expect("workload assembles");
    let env = MemEnv::new(&core.circuit, DEFAULT_RAM_BYTES, &p);
    let golden = prepare_golden_seeded(&core.circuit, &topo, &env, w.max_cycles, 5, 11);
    assert!(golden.trace.halted(), "tiny workload halts");
    let edges = sample_edges(&topo.structure_edges(&core.circuit, "alu").unwrap(), 40, 11);
    Setup {
        core,
        topo,
        timing,
        golden,
        edges,
    }
}

/// One knob assignment of the fidelity matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Knobs {
    toggle_filter: bool,
    early_exit: bool,
    collapse: bool,
    lanes: usize,
    timing_lanes: usize,
}

/// The injection cycles of the matrix: sampled cycles with a successor
/// boundary inside the trace.
fn cycles(s: &Setup) -> impl Iterator<Item = u64> + '_ {
    s.golden
        .sampled_cycles
        .iter()
        .copied()
        .filter(|&cycle| cycle + 1 < s.golden.trace.num_cycles())
}

fn reference_outcomes(s: &Setup) -> Vec<InjectionOutcome> {
    let mut reference = Reference::new(&s.core.circuit, &s.topo, &s.timing, &s.golden, 500);
    let extra = s.timing.clock_period() * 9 / 10;
    cycles(s)
        .flat_map(|cycle| s.edges.iter().map(move |&e| (cycle, e)))
        .map(|(cycle, e)| reference.inject(cycle, e, extra))
        .collect()
}

fn run_matrix_point(s: &Setup, k: Knobs) -> Vec<InjectionOutcome> {
    let mut inj = Injector::new(&s.core.circuit, &s.topo, &s.timing, &s.golden, 500);
    inj.set_toggle_filter(k.toggle_filter);
    inj.set_early_exit(k.early_exit);
    inj.set_collapse(k.collapse);
    inj.set_lanes(k.lanes);
    inj.set_timing_lanes(k.timing_lanes);
    let extra = s.timing.clock_period() * 9 / 10;
    // Whole-cycle batches, as the delay sweep issues them: the
    // timing-aware replays for all 40 edges share lane-packed batches
    // (when timing_lanes > 1), so the timing_lanes axis is exercised by
    // every matrix point. A scalar `inject` loop returns the same values
    // — pinned by the dedicated axis test below.
    let pairs: Vec<(EdgeId, Picos)> = s.edges.iter().map(|&e| (e, extra)).collect();
    let mut outcomes = Vec::new();
    for cycle in cycles(s) {
        outcomes.extend(inj.inject_batch(cycle, &pairs));
    }
    outcomes
}

#[test]
fn every_knob_combination_yields_identical_outcomes() {
    let s = setup();
    let reference = reference_outcomes(&s);
    assert!(
        reference.iter().any(|o| o.visible),
        "the sample must contain program-visible faults for the matrix to mean anything"
    );
    assert!(
        reference
            .iter()
            .any(|o| !o.dynamic_set.is_empty() && !o.visible),
        "... and masked-after-reaching faults, which exercise the replay"
    );
    for toggle_filter in [true, false] {
        for early_exit in [true, false] {
            for collapse in [true, false] {
                for lanes in [1, 64] {
                    for timing_lanes in [1, 64] {
                        let k = Knobs {
                            toggle_filter,
                            early_exit,
                            collapse,
                            lanes,
                            timing_lanes,
                        };
                        let outcomes = run_matrix_point(&s, k);
                        assert_eq!(
                            outcomes, reference,
                            "outcomes differ from the reference with {k:?}"
                        );
                    }
                }
            }
        }
    }
}

/// The timing_lanes axis in isolation, against the other batching contract:
/// a scalar [`Injector::inject`] loop, the batched entry point at
/// `timing_lanes = 1` (the escape hatch), the 64-lane `u64` path and the
/// 256- and 512-lane wide-word paths all return identical outcomes in
/// identical order.
#[test]
fn timing_lane_width_never_changes_batched_outcomes() {
    let s = setup();
    let extra = s.timing.clock_period() * 9 / 10;
    let pairs: Vec<(EdgeId, Picos)> = s.edges.iter().map(|&e| (e, extra)).collect();

    let mut scalar = Injector::new(&s.core.circuit, &s.topo, &s.timing, &s.golden, 500);
    let mut reference = Vec::new();
    for &cycle in &s.golden.sampled_cycles {
        if cycle + 1 >= s.golden.trace.num_cycles() {
            continue;
        }
        for &(e, x) in &pairs {
            reference.push(scalar.inject(cycle, e, x));
        }
    }

    for timing_lanes in [1usize, 2, 64, 256, 512] {
        let mut inj = Injector::new(&s.core.circuit, &s.topo, &s.timing, &s.golden, 500);
        inj.set_timing_lanes(timing_lanes);
        let mut outcomes = Vec::new();
        for &cycle in &s.golden.sampled_cycles {
            if cycle + 1 >= s.golden.trace.num_cycles() {
                continue;
            }
            outcomes.extend(inj.inject_batch(cycle, &pairs));
        }
        assert_eq!(
            outcomes, reference,
            "inject_batch at timing_lanes={timing_lanes} diverged from the scalar inject loop"
        );
        let stats = &inj.stats;
        if timing_lanes == 1 {
            assert_eq!(stats.batched_timing_replays, 0, "no batches at width 1");
            assert_eq!(stats.timing_lanes_occupied, 0, "no lanes at width 1");
        } else {
            assert!(
                stats.batched_timing_replays > 0,
                "width {timing_lanes} batches: {stats:?}"
            );
            assert_eq!(
                stats.timing_lane_utilization(),
                1.0,
                "slots count scheduled lanes, so every scheduled lane is occupied"
            );
        }
    }
}

/// The lanes axis in isolation: the bit-parallel replay engine at widths
/// 1 (the scalar escape hatch), 2, the 64-lane `u64` path and the 256- and
/// 512-lane wide-word paths all return identical outcomes in identical
/// order, with lane accounting that always reads fully utilized.
#[test]
fn replay_lane_width_never_changes_batched_outcomes() {
    let s = setup();
    let extra = s.timing.clock_period() * 9 / 10;
    let pairs: Vec<(EdgeId, Picos)> = s.edges.iter().map(|&e| (e, extra)).collect();

    let mut reference = None;
    for lanes in [1usize, 2, 64, 256, 512] {
        let mut inj = Injector::new(&s.core.circuit, &s.topo, &s.timing, &s.golden, 500);
        inj.set_lanes(lanes);
        let mut outcomes = Vec::new();
        for &cycle in &s.golden.sampled_cycles {
            if cycle + 1 >= s.golden.trace.num_cycles() {
                continue;
            }
            // Mirror the campaign driver: run step 1 for the whole cycle,
            // batch the replays through `prefill_failures` (the entry point
            // the lanes knob gates), then classify each injection.
            let parts = inj.dynamically_reachable_batch(cycle, &pairs);
            inj.prefill_failures(cycle + 1, parts.iter().map(|(_, set)| set.clone()));
            outcomes.extend(
                parts
                    .into_iter()
                    .map(|(reached, set)| inj.classify_injection(cycle, reached, set)),
            );
        }
        let stats = &inj.stats;
        if lanes == 1 {
            assert_eq!(stats.lane_slots, stats.batched_replays, "one-lane batches");
            assert_eq!(
                stats.lanes_occupied, stats.replays,
                "every replay in a lane"
            );
        } else {
            assert!(
                stats.batched_replays > 0,
                "width {lanes} batches: {stats:?}"
            );
            assert_eq!(
                stats.lane_utilization(),
                1.0,
                "slots count scheduled lanes, so every scheduled lane is occupied"
            );
        }
        match &reference {
            None => reference = Some(outcomes),
            Some(r) => assert_eq!(
                &outcomes, r,
                "inject_batch at lanes={lanes} diverged from the scalar baseline"
            ),
        }
    }
}
