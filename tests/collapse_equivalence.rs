//! The collapse criterion's ground truth, checked on the real gate-level
//! core against the plain reference in `tests/support`, which simulates
//! every edge's own faulty cycle in full and never collapses: every member
//! of an equivalence class — an edge whose [`delayavf::CollapsePlan`]
//! representative is a different edge — gets from the collapsing
//! [`Injector`] exactly the dynamically reachable set and the
//! [`delayavf::InjectionOutcome`] the reference computes for the member
//! itself, at every sampled cycle, for every extra delay probed, under
//! every setting of the injector's test-only overrides. The collapse layer
//! never has to guess: redirecting a member to its representative returns
//! the answer the member would have computed.

mod support;

use delayavf::{prepare_golden_seeded, CollapsePlan, InjectionOutcome, Injector};
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

/// The injection cycles: sampled cycles with a successor boundary inside
/// the trace.
fn cycles(s: &Setup) -> impl Iterator<Item = u64> + '_ {
    s.golden
        .sampled_cycles
        .iter()
        .copied()
        .filter(|&cycle| cycle + 1 < s.golden.trace.num_cycles())
}

#[test]
fn every_class_member_matches_its_representative_under_every_knob() {
    let s = setup();
    let pairs = member_pairs(&s, 24);
    let clock = s.timing.clock_period();
    let faults: Vec<(EdgeId, Picos)> = pairs
        .iter()
        .flat_map(|&(member, _)| [(member, clock / 2), (member, clock * 9 / 10)])
        .collect();
    let mut reference = Reference::new(&s.core.circuit, &s.topo, &s.timing, &s.golden, 500);
    let want: Vec<InjectionOutcome> = cycles(&s)
        .flat_map(|cycle| faults.iter().map(move |&f| (cycle, f)))
        .map(|(cycle, (edge, extra))| reference.inject(cycle, edge, extra))
        .collect();
    assert!(
        want.iter().any(|o| !o.dynamic_set.is_empty()),
        "some member faults latch wrong values"
    );

    for toggle_filter in [true, false] {
        for timing_lanes in [1, 64] {
            let mut inj = Injector::new(&s.core.circuit, &s.topo, &s.timing, &s.golden, 500);
            inj.set_toggle_filter(toggle_filter);
            inj.set_timing_lanes(timing_lanes);
            let got: Vec<InjectionOutcome> = cycles(&s)
                .flat_map(|cycle| inj.inject_batch(cycle, &faults))
                .collect();
            assert!(inj.stats.collapsed_edges > 0, "members are redirected");
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                let (member, extra) = faults[i % faults.len()];
                assert_eq!(
                    g, w,
                    "member {member} extra {extra}, injection {i} \
                     (toggle={toggle_filter}, timing_lanes={timing_lanes})"
                );
            }
            assert_eq!(got.len(), want.len());
        }
    }
}

/// A member's served set is the one the reference simulates for the
/// member itself, and serving it costs no event simulation beyond the one
/// its representative already paid for.
#[test]
fn redirected_members_are_served_from_the_representative_replay() {
    let s = setup();
    let pairs = member_pairs(&s, 24);
    let extra = s.timing.clock_period() * 9 / 10;

    let mut reference = Reference::new(&s.core.circuit, &s.topo, &s.timing, &s.golden, 500);
    let mut collapsed = Injector::new(&s.core.circuit, &s.topo, &s.timing, &s.golden, 500);

    for cycle in cycles(&s) {
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
            let want = reference.dynamically_reachable(cycle, member, extra);
            assert_eq!(
                m, want,
                "served set differs from the reference (cycle {cycle}, member {member} rep {rep})"
            );
        }
    }
    assert!(
        collapsed.stats.collapsed_edges > 0,
        "members were actually redirected: {:?}",
        collapsed.stats
    );
}
