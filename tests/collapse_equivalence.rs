//! The collapse criterion's ground truth, checked on the real gate-level
//! core *without* the collapse machinery in the loop: every member of an
//! equivalence class — an edge whose [`delayavf::CollapsePlan`] representative
//! is a different edge — produces the exact same dynamically reachable set
//! and the exact same [`delayavf::InjectionOutcome`] as its representative,
//! at every sampled cycle, for every extra delay probed, with and without
//! the toggle pre-filter. The collapse layer never has to guess: redirecting a member to
//! its representative returns the answer the member would have computed.

use delayavf::{prepare_golden_seeded, CollapsePlan, Injector};
use delayavf_netlist::{EdgeId, Topology};
use delayavf_rvcore::{Core, CoreConfig, MemEnv, DEFAULT_RAM_BYTES};
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
    let golden = prepare_golden_seeded(&core.circuit, &topo, &env, w.max_cycles, 5, 11);
    assert!(golden.trace.halted(), "tiny workload halts");
    Setup {
        core,
        topo,
        timing,
        golden,
    }
}

/// All (member, representative) pairs of the core's collapse plan, capped
/// to keep the knob matrix affordable. The cap drops coverage, not
/// fidelity: the classes kept are checked exhaustively.
fn member_pairs(s: &Setup, cap: usize) -> Vec<(EdgeId, EdgeId)> {
    let plan = CollapsePlan::build(&s.core.circuit, &s.topo, &s.timing);
    assert!(
        plan.num_members() > 0,
        "the core must contain non-trivial equivalence classes"
    );
    let pairs: Vec<(EdgeId, EdgeId)> = (0..s.topo.edges().len())
        .map(EdgeId::from_index)
        .filter_map(|e| {
            let rep = plan.representative(e);
            (rep != e).then_some((e, rep))
        })
        .take(cap)
        .collect();
    assert!(!pairs.is_empty());
    pairs
}

#[test]
fn every_class_member_matches_its_representative_under_every_knob() {
    let s = setup();
    let pairs = member_pairs(&s, 24);
    let clock = s.timing.clock_period();
    let extras: Vec<Picos> = vec![clock / 2, clock * 9 / 10];

    for toggle_filter in [true, false] {
        // Collapse stays OFF on both injectors: this test validates the
        // criterion itself, so the member's answer must come from a real
        // per-edge replay, not from the redirect whose soundness is under
        // test.
        let mut member_inj = Injector::new(&s.core.circuit, &s.topo, &s.timing, &s.golden, 500);
        let mut rep_inj = Injector::new(&s.core.circuit, &s.topo, &s.timing, &s.golden, 500);
        for inj in [&mut member_inj, &mut rep_inj] {
            inj.set_collapse(false);
            inj.set_toggle_filter(toggle_filter);
        }
        for &cycle in &s.golden.sampled_cycles {
            if cycle + 1 >= s.golden.trace.num_cycles() {
                continue;
            }
            for &(member, rep) in &pairs {
                for &extra in &extras {
                    let m = member_inj.dynamically_reachable(cycle, member, extra);
                    let r = rep_inj.dynamically_reachable(cycle, rep, extra);
                    assert_eq!(
                        m, r,
                        "dynamic set, member {member} vs rep {rep} at cycle {cycle} \
                         extra {extra} (toggle={toggle_filter})"
                    );
                    let mo = member_inj.inject(cycle, member, extra);
                    let ro = rep_inj.inject(cycle, rep, extra);
                    assert_eq!(
                        mo, ro,
                        "outcome, member {member} vs rep {rep} at cycle {cycle} \
                         extra {extra} (toggle={toggle_filter})"
                    );
                }
            }
        }
    }
}

/// With collapse ON, a member's served outcome is byte-identical to the
/// per-edge baseline, and serving it costs no event simulation beyond the
/// one its representative already paid for.
#[test]
fn redirected_members_are_served_from_the_representative_replay() {
    let s = setup();
    let pairs = member_pairs(&s, 24);
    let extra = s.timing.clock_period() * 9 / 10;

    let mut baseline = Injector::new(&s.core.circuit, &s.topo, &s.timing, &s.golden, 500);
    baseline.set_collapse(false);
    let mut collapsed = Injector::new(&s.core.circuit, &s.topo, &s.timing, &s.golden, 500);

    for &cycle in &s.golden.sampled_cycles {
        if cycle + 1 >= s.golden.trace.num_cycles() {
            continue;
        }
        for &(member, rep) in &pairs {
            // Representative first, member second: the member's query must
            // hit the per-cycle representative cache.
            let sims_before = collapsed.stats.event_sims;
            let _ = collapsed.dynamically_reachable(cycle, rep, extra);
            let sims_after_rep = collapsed.stats.event_sims;
            let m = collapsed.dynamically_reachable(cycle, member, extra);
            assert_eq!(
                collapsed.stats.event_sims, sims_after_rep,
                "the member ran its own simulation (cycle {cycle}, member {member})"
            );
            assert!(sims_after_rep >= sims_before, "counters only grow");
            let want = baseline.dynamically_reachable(cycle, member, extra);
            assert_eq!(
                m, want,
                "served set differs from the baseline (cycle {cycle}, member {member} rep {rep})"
            );
        }
    }
    assert!(
        collapsed.stats.collapsed_edges > 0,
        "members were actually redirected: {:?}",
        collapsed.stats
    );
}
