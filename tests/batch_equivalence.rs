//! Differential gate for the bit-parallel batch replay layer, on the real
//! gate-level core: campaigns run at every lane width return bit-for-bit
//! identical results, and at the [`Injector`] level a batched prefill
//! produces exactly the scalar engine's failure classes under every
//! setting of the early-exit knob.

use delayavf::{
    delay_avf_campaign_records, prepare_golden_seeded, sample_edges, savf_per_bit_campaign,
    spatial_double_strike_campaign, valid_cycles, FailureClass, Injector, ReplayOptions,
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
    let golden = prepare_golden_seeded(&core.circuit, &topo, &env, w.max_cycles, 8, 23);
    assert!(golden.trace.halted());
    Setup {
        core,
        topo,
        timing,
        golden,
    }
}

/// A mixed bag of strike scenarios over a structure's bits: singletons,
/// adjacent pairs, and one wide set — enough to fill partial batches and
/// to collide with cached entries.
fn scenarios(dffs: &[DffId]) -> Vec<Vec<DffId>> {
    let mut sets: Vec<Vec<DffId>> = dffs.iter().map(|&d| vec![d]).collect();
    sets.extend(dffs.windows(2).map(|p| p.to_vec()));
    sets.push(dffs.to_vec());
    sets
}

/// Every campaign that exposes per-injection results is lane-width
/// invariant: 1 (pure scalar), 2 (mostly-empty words) and 64 (full words)
/// agree bit for bit.
#[test]
fn campaigns_are_lane_width_invariant_on_the_real_core() {
    let s = setup();
    // Decoder edges: delay faults on this structure actually latch wrong
    // values on the tiny workload, so the lane comparison is not vacuous.
    let edges = sample_edges(
        &s.topo.structure_edges(&s.core.circuit, "decoder").unwrap(),
        24,
        23,
    );
    let dffs: Vec<DffId> = s.core.circuit.structure("control").unwrap().dffs().to_vec();

    let run = |lanes: usize| {
        let opts = ReplayOptions::new(500, 1).with_lanes(lanes);
        (
            delay_avf_campaign_records(
                &s.core.circuit,
                &s.topo,
                &s.timing,
                &s.golden,
                &edges,
                0.9,
                opts,
            ),
            savf_per_bit_campaign(&s.core.circuit, &s.topo, &s.timing, &s.golden, &dffs, opts),
            spatial_double_strike_campaign(
                &s.core.circuit,
                &s.topo,
                &s.timing,
                &s.golden,
                &dffs,
                opts,
            ),
        )
    };
    let (scalar_records, scalar_per_bit, scalar_spatial) = run(1);
    for lanes in [2, 64] {
        let (records, per_bit, spatial) = run(lanes);
        assert_eq!(records.0, scalar_records.0, "records row, lanes = {lanes}");
        assert_eq!(
            records.1, scalar_records.1,
            "per-injection outcomes (incl. FailureClass), lanes = {lanes}"
        );
        assert_eq!(per_bit, scalar_per_bit, "per-bit sAVF, lanes = {lanes}");
        assert_eq!(spatial, scalar_spatial, "double strikes, lanes = {lanes}");
    }
}

/// The injector-level differential, with the campaign layer out of the
/// picture: a batched prefill followed by cache lookups yields exactly the
/// scalar failure classes, with and without the convergence early exit.
#[test]
fn prefilled_failure_classes_match_scalar_under_every_knob_combination() {
    let s = setup();
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
    let sets = scenarios(&dffs);
    let boundaries: Vec<u64> = valid_cycles(&s.golden).into_iter().take(4).collect();
    assert!(!boundaries.is_empty(), "the golden run sampled cycles");

    for early_exit in [true, false] {
        let mut classes: Vec<Vec<FailureClass>> = Vec::new();
        for lanes in [1usize, 64] {
            let mut injector = Injector::new(&s.core.circuit, &s.topo, &s.timing, &s.golden, 500);
            injector.set_early_exit(early_exit);
            injector.set_lanes(lanes);
            let mut got = Vec::new();
            for &boundary in &boundaries {
                injector.prefill_failures(boundary, sets.iter().cloned());
                for set in &sets {
                    got.push(injector.group_failure(boundary, set));
                }
            }
            if lanes == 1 {
                let stats = &injector.stats;
                assert_eq!(stats.lane_slots, stats.batched_replays, "one-lane batches");
                assert_eq!(stats.lanes_occupied, stats.replays);
            } else {
                assert!(
                    injector.stats.batched_replays > 0,
                    "wide lanes batch (early_exit={early_exit})"
                );
            }
            classes.push(got);
        }
        assert_eq!(
            classes[0], classes[1],
            "failure classes, lanes 1 vs 64 (early_exit={early_exit})"
        );
    }
}
