//! Property tests for the levelized golden-waveform build: [`GoldenWave`]
//! must hold exactly what the heap-driven event loop computes
//! ([`ReferenceWave`]) — every net's canonical transition list, the base
//! values and the latched values — and latch what [`EventSim`] latches
//! with a zero-extra fault.
//!
//! 1. random circuits under random technology libraries: zero-delay cells
//!    and wires (events at one instant trigger more events at that
//!    instant), few distinct delays (equal-delay reconvergent paths, whose
//!    same-instant glitches cancel) and setup times that move the latch
//!    deadline into the cycle's activity, so transitions past it are cut;
//! 2. sampled md5 cycles on the plain and the ECC core, whose XOR trees
//!    glitch heavily.

use delayavf_netlist::{Circuit, EdgeId, GateKind, Topology};
use delayavf_rvcore::{build_core, CoreConfig, MemEnv, DEFAULT_RAM_BYTES};
use delayavf_sim::testutil::{random_circuit, GateSpec, ReferenceWave};
use delayavf_sim::{settle, EventSim, FaultSpec, GoldenTrace, GoldenWave};
use delayavf_timing::{CellTiming, Picos, TechLibrary, TimingModel};
use delayavf_workloads::{Kernel, Scale};
use proptest::prelude::*;

/// A library whose delays come from `delays` (picked per cell kind by
/// `sel`), with the given wire delay and setup time. Small delay sets make
/// equal-delay reconvergent paths common; a zero entry makes zero-delay
/// cells.
fn library(sel: u32, delays: &[Picos], wire: Picos, setup: Picos) -> TechLibrary {
    let pick = |i: u32| delays[((sel >> (3 * i)) as usize) % delays.len()];
    let cells: [CellTiming; 9] = std::array::from_fn(|i| CellTiming {
        intrinsic: pick(i as u32),
        per_load: 0,
    });
    let clk_to_q = CellTiming {
        intrinsic: pick(9),
        per_load: 0,
    };
    TechLibrary::new("random", cells, clk_to_q, setup, wire)
}

/// Builds one cycle's golden waveform both ways and checks they agree,
/// and that the latched values equal the full event simulator's under a
/// zero-extra fault.
fn check_cycle(
    c: &Circuit,
    topo: &Topology,
    timing: &TimingModel,
    prev_values: &[bool],
    state: &[bool],
    inputs: &[u64],
) -> Result<(), TestCaseError> {
    let want = ReferenceWave::simulate(c, topo, timing, prev_values, state, inputs);
    let mut gold = GoldenWave::new(c, topo, timing);
    gold.ensure(0, prev_values, state, inputs);
    if let Some(diff) = want.mismatch(&gold) {
        return Err(TestCaseError::fail(diff));
    }
    if !topo.edges().is_empty() {
        let mut full = EventSim::new(c, topo, timing);
        let fault = FaultSpec {
            edge: EdgeId::from_index(0),
            extra: 0,
        };
        let latched = full.latch_cycle(prev_values, state, inputs, Some(fault));
        prop_assert_eq!(gold.latched(), latched, "zero-extra fault latch");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn levelized_build_equals_the_event_loop(
        gates in prop::collection::vec(any::<GateSpec>(), 4..80),
        prev_in: u64,
        next_in: u64,
        state_and_flips: u32,
        lib_sel: u32,
        delay_set in 0usize..4,
        wire in 0u64..3,
        setup_sel in 0usize..4,
    ) {
        let c = random_circuit(6, 6, &gates);
        let topo = Topology::new(&c);
        let delays: &[&[Picos]] = &[&[0], &[0, 1], &[1, 2], &[0, 3, 7, 12]];
        let probe = TimingModel::analyze(&c, &topo, &library(lib_sel, delays[delay_set], wire, 0));
        // A setup of zero latches at the critical path; larger ones pull
        // the deadline back into the cycle, cutting the transitions of
        // every later-settling net.
        let setup = [0, 1, probe.clock_period() / 3, probe.clock_period()][setup_sel];
        let timing = TimingModel::analyze(&c, &topo, &library(lib_sel, delays[delay_set], wire, setup));
        let state: Vec<bool> = (0..c.num_dffs()).map(|i| (state_and_flips >> i) & 1 == 1).collect();
        let prev_values = settle(&c, &topo, &state, &[prev_in & 0x3f]);
        // The new state flips some of the settled state's bits, so Q nets
        // change at the clock edge alongside the inputs.
        let new_state: Vec<bool> =
            state.iter().enumerate().map(|(i, &s)| s ^ ((state_and_flips >> (16 + i)) & 1 == 1)).collect();
        check_cycle(&c, &topo, &timing, &prev_values, &new_state, &[next_in & 0x3f])?;
    }

    /// Under the nangate-like library, on circuits full of XOR-family
    /// gates, the lists stay equal and the glitches are real: some net
    /// changes more than once in a cycle.
    #[test]
    fn glitchy_xor_circuits_agree(
        gates in prop::collection::vec(any::<GateSpec>(), 20..80),
        prev_in: u64,
        next_in: u64,
    ) {
        let xor_gates: Vec<GateSpec> = gates
            .iter()
            // Xor2, Xnor2, and both with the reconvergence bit set (one
            // net on both pins).
            .map(|&(k, a, b, s)| ([6, 7, 0x84, 0x85][usize::from(k % 4)], a, b, s))
            .collect();
        let c = random_circuit(6, 6, &xor_gates);
        prop_assert!(c.gates().all(|(_, g)| matches!(g.kind(), GateKind::Xor2 | GateKind::Xnor2)));
        let topo = Topology::new(&c);
        let timing = TimingModel::analyze(&c, &topo, &TechLibrary::nangate45_like());
        let state = c.initial_state();
        let prev_values = settle(&c, &topo, &state, &[prev_in & 0x3f]);
        check_cycle(&c, &topo, &timing, &prev_values, &state, &[next_in & 0x3f])?;
    }
}

/// A latch deadline inside the cycle's activity: an input feeds a
/// flip-flop directly and a chain of five 1000 ps buffers to an output.
/// The output path sets a 5000 ps clock, and a 2500 ps setup puts the
/// deadline at 2500 ps, so the buffers settling at 3000 ps and 4000 ps
/// have no transitions.
#[test]
fn the_deadline_cuts_late_transitions() {
    use delayavf_netlist::CircuitBuilder;
    let mut b = CircuitBuilder::new();
    let x = b.input("x");
    let mut chain = vec![x];
    for _ in 0..5 {
        let last = *chain.last().unwrap();
        chain.push(b.gate(GateKind::Buf, &[last]));
    }
    let r = b.reg("r", false);
    b.drive(r, x);
    b.output("late", *chain.last().unwrap());
    b.output("r", r.q());
    let c = b.finish().unwrap();
    let topo = Topology::new(&c);
    let cell = CellTiming {
        intrinsic: 1000,
        per_load: 0,
    };
    let lib = TechLibrary::new("chain", [cell; 9], cell, 2500, 0);
    let timing = TimingModel::analyze(&c, &topo, &lib);
    assert_eq!(timing.clock_period(), 5000);
    let state = c.initial_state();
    let prev_values = settle(&c, &topo, &state, &[0]);
    let mut gold = GoldenWave::new(&c, &topo, &timing);
    gold.ensure(0, &prev_values, &state, &[1]);
    let lists: Vec<&[(Picos, bool)]> = chain.iter().map(|&n| gold.transitions(n)).collect();
    assert_eq!(
        lists,
        [
            &[(0, true)][..],
            &[(0, true)],
            &[(1000, true)],
            &[(2000, true)],
            &[],
            &[]
        ]
    );
    assert_eq!(gold.latched(), &[true]);
    let want = ReferenceWave::simulate(&c, &topo, &timing, &prev_values, &state, &[1]);
    assert_eq!(want.mismatch(&gold), None);
}

/// Sampled md5 cycles on one core: every net's list, the bases and the
/// latches agree with the event loop, and the cycles glitch.
fn md5_cycles_agree(ecc_regfile: bool) {
    let core = build_core(CoreConfig {
        ecc_regfile,
        ..CoreConfig::default()
    });
    let c = &core.circuit;
    let topo = Topology::new(c);
    let timing = TimingModel::analyze(c, &topo, &TechLibrary::nangate45_like());
    let program = Kernel::Md5
        .build(Scale::Tiny)
        .assemble()
        .expect("md5 assembles");
    let mut env = MemEnv::new(c, DEFAULT_RAM_BYTES, &program);
    let trace = GoldenTrace::record(c, &topo, &mut env, 100_000);
    let n = trace.num_cycles();
    assert!(n > 64, "md5 runs long enough to sample");
    let nd = c.num_dffs();
    let mut glitchy = 0;
    for cycle in (1..n).step_by((n / 6) as usize).take(6) {
        let prev_values = settle(
            c,
            &topo,
            &trace.state_bits_at(cycle - 1, nd),
            trace.inputs_at(cycle - 1),
        );
        let state = trace.state_bits_at(cycle, nd);
        let inputs = trace.inputs_at(cycle);
        let want = ReferenceWave::simulate(c, &topo, &timing, &prev_values, &state, inputs);
        let mut gold = GoldenWave::new(c, &topo, &timing);
        gold.ensure(cycle, &prev_values, &state, inputs);
        assert_eq!(want.mismatch(&gold), None, "cycle {cycle}");
        let mut full = EventSim::new(c, &topo, &timing);
        assert_eq!(
            gold.latched(),
            full.latch_cycle(&prev_values, &state, inputs, None),
            "cycle {cycle}"
        );
        glitchy += usize::from(want.tx.iter().any(|tx| tx.len() > 1));
    }
    assert!(glitchy > 0, "some sampled cycle glitches");
}

#[test]
fn md5_cycles_agree_on_the_plain_core() {
    md5_cycles_agree(false);
}

#[test]
fn md5_cycles_agree_on_the_ecc_core() {
    md5_cycles_agree(true);
}
