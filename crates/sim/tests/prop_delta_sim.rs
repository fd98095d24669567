//! Property tests for the incremental timing-aware engine on randomly
//! generated circuits: [`DeltaEventSim`] must latch **bit-identical** values
//! to the full [`EventSim`] for every injected fault — the delta engine only
//! changes how much work is done, never the answer.
//!
//! 1. random circuits × random faults (edge, extra): latched state and the
//!    derived dynamically reachable set match the full event simulator,
//!    with one golden waveform shared by every injection at that cycle;
//! 2. fault-free cycles (`extra = 0`): the delta run reconverges to the
//!    golden waveform, whose latched values equal the full fault-free run.

use delayavf_netlist::{Circuit, EdgeId, Topology};
use delayavf_sim::testutil::{random_circuit, GateSpec};
use delayavf_sim::{settle, DeltaEventSim, EventSim, FaultSpec, GoldenWave};
use delayavf_timing::{TechLibrary, TimingModel};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn delta_latches_identically_to_the_full_event_sim(
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
        let mut gold = GoldenWave::new(&c, &topo, &timing);
        gold.ensure(0, &cy.prev_values, &cy.state, &cy.inputs);
        let mut delta = DeltaEventSim::new(&c, &topo, &timing);
        let golden_latch =
            full.latch_cycle(&cy.prev_values, &cy.state, &cy.inputs, None).to_vec();

        let clock = timing.clock_period();
        let extras = [0, 1, clock / 4, clock / 2, clock - 1, clock, 2 * clock];
        let extra = extras[usize::from(extra_sel) % extras.len()];
        for e in (0..topo.edges().len()).map(EdgeId::from_index) {
            let fault = FaultSpec { edge: e, extra };
            let want =
                full.latch_cycle(&cy.prev_values, &cy.state, &cy.inputs, Some(fault)).to_vec();
            let (got, _) = delta.latch_cycle(&gold, fault);
            prop_assert_eq!(got, &want[..], "latched state, edge {:?} extra {}", e, extra);
            // The dynamically reachable set (Definition 3) is derived from
            // the latched values, so it matches too — spelled out because it
            // is what the injector consumes.
            let want_dyn: Vec<usize> =
                (0..want.len()).filter(|&i| want[i] != golden_latch[i]).collect();
            let got_dyn: Vec<usize> =
                (0..got.len()).filter(|&i| got[i] != golden_latch[i]).collect();
            prop_assert_eq!(got_dyn, want_dyn, "dynamic set, edge {:?} extra {}", e, extra);
        }
    }

    #[test]
    fn zero_extra_faults_reconverge_to_the_golden_waveform(
        gates in prop::collection::vec(any::<GateSpec>(), 10..60),
        prev_in: u64,
        next_in: u64,
        state_bits: u8,
        edge_sel: u16,
    ) {
        let c = random_circuit(8, 8, &gates);
        let topo = Topology::new(&c);
        let timing = TimingModel::analyze(&c, &topo, &TechLibrary::nangate45_like());
        let cy = cycle_context(&c, &topo, prev_in & 0xff, next_in & 0xff, state_bits);

        let mut full = EventSim::new(&c, &topo, &timing);
        let golden_latch =
            full.latch_cycle(&cy.prev_values, &cy.state, &cy.inputs, None).to_vec();
        let mut gold = GoldenWave::new(&c, &topo, &timing);
        gold.ensure(0, &cy.prev_values, &cy.state, &cy.inputs);
        prop_assert_eq!(gold.latched(), &golden_latch[..], "golden latch is the fault-free run");
        let mut delta = DeltaEventSim::new(&c, &topo, &timing);
        let edge = EdgeId::from_index(usize::from(edge_sel) % topo.edges().len());
        let (got, _) = delta.latch_cycle(&gold, FaultSpec { edge, extra: 0 });
        prop_assert_eq!(got, &golden_latch[..], "a zero-extra fault is fault-free");
    }
}
