//! Differential gate for the bit-parallel batch replay layer, on the real
//! gate-level core: at the [`Injector`] level a batched prefill produces
//! exactly the one-lane engine's failure classes under every setting of
//! the early-exit knob. Campaigns always run at the widest lane count.

use delayavf::{prepare_golden_seeded, valid_cycles, FailureClass, Injector};
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
