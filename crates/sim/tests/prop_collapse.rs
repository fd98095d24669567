//! Property tests for the simulator-level facts that the collapse layer's
//! quiet-source certificate rests on, over random circuits from
//! [`delayavf_sim::testutil`]:
//!
//! 1. an edge whose source net has an empty canonical transition list in
//!    the cycle's [`GoldenWave`] — the test the injector applies — absorbs
//!    *any* extra delay without changing the latched state, on the full
//!    event simulator and on the incremental delta engine alike. Every net
//!    the event simulator never changed passes that test, and so may nets
//!    whose only activity is a same-instant glitch;
//! 2. the contrapositive: whenever a delay fault changes what latches, the
//!    faulted edge's source net transitioned in the fault-free cycle;
//! 3. edges sourced by constant nets are quiet in every cycle, whatever
//!    the inputs and state do;
//! 4. the collapse plan's influence closure (which flip-flops can ever
//!    reach a primary output) equals a per-flip-flop forward-search oracle,
//!    on random circuits and on both variants of the studied core.

use std::collections::{HashSet, VecDeque};

use delayavf::CollapsePlan;
use delayavf_netlist::{Circuit, Consumer, Driver, EdgeId, Topology};
use delayavf_rvcore::{build_core, CoreConfig};
use delayavf_sim::testutil::{random_circuit, random_observed_circuit, GateSpec};
use delayavf_sim::{settle, DeltaEventSim, EventSim, FaultSpec, GoldenWave};
use delayavf_timing::{Picos, TechLibrary, TimingModel};
use proptest::prelude::*;

/// One simulated cycle's worth of context: settled previous values, the
/// state latched at the clock edge, and this cycle's input words.
struct Cycle {
    prev_values: Vec<bool>,
    state: Vec<bool>,
    inputs: Vec<u64>,
}

fn cycle_context(
    c: &Circuit,
    topo: &Topology,
    prev_in: u64,
    next_in: u64,
    state_bits: u8,
) -> Cycle {
    let state: Vec<bool> = (0..c.num_dffs())
        .map(|i| (state_bits >> (i % 8)) & 1 == 1)
        .collect();
    let prev_values = settle(c, topo, &state, &[prev_in]);
    Cycle {
        prev_values,
        state,
        inputs: vec![next_in],
    }
}

fn probe_extras(timing: &TimingModel) -> [Picos; 4] {
    let clock = timing.clock_period();
    [1, clock / 2, clock, 2 * clock]
}

/// Oracle for [`CollapsePlan::influences_output`]: a forward search over
/// each flip-flop's Q cone marks the flip-flops whose cone touches an
/// output, records which D pins each cone reaches, and closes "reaches the
/// D pin of an influencing flip-flop" over that sequential graph.
fn influence_oracle(c: &Circuit, topo: &Topology) -> Vec<bool> {
    let n = c.num_dffs();
    let mut influences = vec![false; n];
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (did, dff) in c.dffs() {
        let mut touches_output = false;
        let mut seen = HashSet::from([dff.q()]);
        let mut nets = VecDeque::from([dff.q()]);
        while let Some(net) = nets.pop_front() {
            for e in topo.fanouts(net) {
                match e.consumer {
                    Consumer::GatePin { gate, .. } => {
                        let out = c.gate(gate).output();
                        if seen.insert(out) {
                            nets.push_back(out);
                        }
                    }
                    Consumer::DffD(d2) => preds[d2.index()].push(did.index()),
                    Consumer::OutputBit { .. } => touches_output = true,
                }
            }
        }
        if touches_output {
            influences[did.index()] = true;
            queue.push_back(did.index());
        }
    }
    while let Some(d) = queue.pop_front() {
        for &p in &preds[d] {
            if !influences[p] {
                influences[p] = true;
                queue.push_back(p);
            }
        }
    }
    influences
}

fn plan_influences(c: &Circuit, plan: &CollapsePlan) -> Vec<bool> {
    c.dffs().map(|(d, _)| plan.influences_output(d)).collect()
}

/// Both core variants: the closure matches the oracle, and the chain
/// classes keep their pinned sizes.
#[test]
fn core_influence_closure_matches_the_oracle() {
    for (config, members) in [
        (CoreConfig::default(), 109),
        (
            CoreConfig {
                ecc_regfile: true,
                ..CoreConfig::default()
            },
            313,
        ),
    ] {
        let core = build_core(config);
        let c = &core.circuit;
        let topo = Topology::new(c);
        let timing = TimingModel::analyze(c, &topo, &TechLibrary::nangate45_like());
        let plan = CollapsePlan::build(c, &topo, &timing);
        assert_eq!(
            plan_influences(c, &plan),
            influence_oracle(c, &topo),
            "{config:?}"
        );
        assert_eq!(plan.num_members(), members, "{config:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn influence_closure_matches_the_oracle(
        gates in prop::collection::vec(any::<GateSpec>(), 1..60),
        outputs in prop::collection::vec(any::<u16>(), 1..4),
        n_regs in 1usize..10,
    ) {
        // Registers feed back into the gate pool, so the sequential graph
        // is cyclic; reconvergent gates come from the generator.
        let c = random_observed_circuit(4, n_regs, &gates, &outputs);
        let topo = Topology::new(&c);
        let timing = TimingModel::analyze(&c, &topo, &TechLibrary::nangate45_like());
        let plan = CollapsePlan::build(&c, &topo, &timing);
        prop_assert_eq!(plan_influences(&c, &plan), influence_oracle(&c, &topo));
    }

    #[test]
    fn a_quiet_source_silences_every_delay_fault(
        gates in prop::collection::vec(any::<GateSpec>(), 10..60),
        prev_in: u64,
        next_in: u64,
        state_bits: u8,
    ) {
        let c = random_circuit(8, 8, &gates);
        let topo = Topology::new(&c);
        let timing = TimingModel::analyze(&c, &topo, &TechLibrary::nangate45_like());
        let cy = cycle_context(&c, &topo, prev_in & 0xff, next_in & 0xff, state_bits);

        let mut full = EventSim::new(&c, &topo, &timing);
        let mut gold = GoldenWave::new(&c, &topo, &timing);
        gold.ensure(0, &cy.prev_values, &cy.state, &cy.inputs);
        let mut delta = DeltaEventSim::new(&c, &topo, &timing);
        let golden_latch =
            full.latch_cycle(&cy.prev_values, &cy.state, &cy.inputs, None).to_vec();
        let changed: Vec<bool> = full.changed_nets().to_vec();

        for e in (0..topo.edges().len()).map(EdgeId::from_index) {
            let source = topo.edge(e).source;
            let quiet = gold.transitions(source).is_empty();
            prop_assert!(
                quiet || changed[source.index()],
                "net {:?} has transitions but the event sim never changed it", source
            );
            if !quiet {
                continue;
            }
            for extra in probe_extras(&timing) {
                let fault = FaultSpec { edge: e, extra };
                let faulty = full
                    .latch_cycle(&cy.prev_values, &cy.state, &cy.inputs, Some(fault))
                    .to_vec();
                prop_assert_eq!(
                    &faulty, &golden_latch,
                    "quiet edge {:?} (extra {}) changed the latch", e, extra
                );
                let (delta_latch, _) = delta.latch_cycle(&gold, fault);
                prop_assert_eq!(
                    delta_latch, &golden_latch[..],
                    "delta engine disagrees on quiet edge {:?} (extra {})", e, extra
                );
            }
        }
    }

    #[test]
    fn a_deviating_fault_implies_a_toggling_source(
        gates in prop::collection::vec(any::<GateSpec>(), 10..60),
        prev_in: u64,
        next_in: u64,
        state_bits: u8,
        extra_sel: u16,
    ) {
        let c = random_circuit(8, 8, &gates);
        let topo = Topology::new(&c);
        let timing = TimingModel::analyze(&c, &topo, &TechLibrary::nangate45_like());
        let cy = cycle_context(&c, &topo, prev_in & 0xff, next_in & 0xff, state_bits);

        let mut full = EventSim::new(&c, &topo, &timing);
        let golden_latch =
            full.latch_cycle(&cy.prev_values, &cy.state, &cy.inputs, None).to_vec();
        let changed: Vec<bool> = full.changed_nets().to_vec();
        let extras = probe_extras(&timing);
        let extra = extras[usize::from(extra_sel) % extras.len()];

        for e in (0..topo.edges().len()).map(EdgeId::from_index) {
            let fault = FaultSpec { edge: e, extra };
            let faulty =
                full.latch_cycle(&cy.prev_values, &cy.state, &cy.inputs, Some(fault)).to_vec();
            if faulty != golden_latch {
                let source = topo.edge(e).source;
                prop_assert!(
                    changed[source.index()],
                    "edge {:?} deviated with a quiet source (extra {})", e, extra
                );
            }
        }
    }

    #[test]
    fn constant_sources_are_quiet_in_every_cycle(
        gates in prop::collection::vec(any::<GateSpec>(), 10..60),
        prev_in: u64,
        next_in: u64,
        state_bits: u8,
    ) {
        let c = random_circuit(8, 8, &gates);
        let topo = Topology::new(&c);
        let timing = TimingModel::analyze(&c, &topo, &TechLibrary::nangate45_like());
        let cy = cycle_context(&c, &topo, prev_in & 0xff, next_in & 0xff, state_bits);

        let mut full = EventSim::new(&c, &topo, &timing);
        let golden_latch =
            full.latch_cycle(&cy.prev_values, &cy.state, &cy.inputs, None).to_vec();
        let changed: Vec<bool> = full.changed_nets().to_vec();

        for e in (0..topo.edges().len()).map(EdgeId::from_index) {
            let source = topo.edge(e).source;
            if !matches!(c.net(source).driver(), Driver::Const(_)) {
                continue;
            }
            prop_assert!(!changed[source.index()], "a constant net transitioned");
            let extra = 2 * timing.clock_period();
            let faulty = full
                .latch_cycle(&cy.prev_values, &cy.state, &cy.inputs, Some(FaultSpec { edge: e, extra }))
                .to_vec();
            prop_assert_eq!(
                &faulty, &golden_latch,
                "a frozen constant edge {:?} changed the latch", e
            );
        }
    }
}
