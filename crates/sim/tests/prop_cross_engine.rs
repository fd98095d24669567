//! Generative cross-engine fuzzing: every simulation engine in the crate
//! must agree bit-for-bit with every other engine that answers the same
//! question, on randomly generated netlists and randomly generated input
//! traces ([`delayavf_sim::testutil`]).
//!
//! * **Timing pair** — [`EventSim`] vs [`DeltaEventSim`]: identical latched
//!   state for random faults, including *zero-slack* extras that land the
//!   struck path exactly on the latch deadline.
//! * **Timing batch** — [`BatchDeltaSim`] vs the scalar timing engines:
//!   every non-retired lane of a lane-packed batch latches exactly what
//!   the scalar engines latch for that lane's fault, on the `u64` narrow
//!   path and the 256- and 512-lane wide-word paths; retired lanes (same-pin
//!   strikes with conflicting extras) carry golden values, retire only
//!   when a genuine conflict precedes them, and replay exactly on the
//!   scalar engine — the caller's fallback contract.
//! * **Replay pair** — [`CycleSim`] vs [`BatchSim`]: lockstep state/output
//!   equivalence, cycle by cycle, for random flip scenarios replayed from a
//!   random boundary of a recorded random trace.
//!
//! The generator seeds every circuit family with constant nets and forces
//! reconvergent fan-out gates (see `testutil::GateSpec`), the two classic
//! traps for incremental engines. Each suite runs 256 cases per engine
//! pair; the vendored proptest harness is deterministic (pinned seed), so a
//! failure here reproduces identically on every machine.

use delayavf_netlist::{DffId, EdgeId, Topology};
use delayavf_sim::testutil::{pick_flips, random_circuit, GateSpec, SeqEnvironment};
use delayavf_sim::{
    settle, BatchDeltaSim, BatchSim, CycleSim, DeltaEventSim, EventSim, FaultSpec, GoldenTrace,
    GoldenWave,
};
use delayavf_timing::{TechLibrary, TimingModel};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Timing pair: the incremental timing-aware engine latches exactly
    /// what the full event-driven simulation latches, for every sampled
    /// edge and for extras spanning zero, the edge's *exact slack* (the
    /// zero-slack latch-deadline boundary, ±1 ps) and far beyond the clock.
    #[test]
    fn delta_event_sim_matches_event_sim_including_zero_slack_edges(
        gates in prop::collection::vec(any::<GateSpec>(), 6..30),
        prev_in: u64,
        next_in: u64,
        state_bits: u8,
        edge_sels in prop::collection::vec(any::<u16>(), 1..5),
    ) {
        let c = random_circuit(6, 8, &gates);
        let topo = Topology::new(&c);
        let timing = TimingModel::analyze(&c, &topo, &TechLibrary::nangate45_like());
        let state: Vec<bool> = (0..c.num_dffs())
            .map(|i| (state_bits >> (i % 8)) & 1 == 1)
            .collect();
        let prev_values = settle(&c, &topo, &state, &[prev_in & 0x3f]);
        let inputs = vec![next_in & 0x3f];

        let mut full = EventSim::new(&c, &topo, &timing);
        let mut gold = GoldenWave::new(&c, &topo, &timing);
        gold.ensure(0, &prev_values, &state, &inputs);
        let mut delta = DeltaEventSim::new(&c, &topo, &timing);
        let golden = full.latch_cycle(&prev_values, &state, &inputs, None).to_vec();
        let clock = timing.clock_period();
        for &sel in &edge_sels {
            let edge = EdgeId::from_index(usize::from(sel) % topo.edges().len());
            let slack = clock.saturating_sub(timing.path_through_edge(&c, &topo, edge));
            for extra in [0, slack.saturating_sub(1), slack, slack + 1, clock / 3, 2 * clock] {
                let fault = FaultSpec { edge, extra };
                let want = full
                    .latch_cycle(&prev_values, &state, &inputs, Some(fault))
                    .to_vec();
                let (got, _) = delta.latch_cycle(&gold, fault);
                prop_assert_eq!(
                    got,
                    &want[..],
                    "latched state, edge {:?} extra {} (slack {})",
                    edge,
                    extra,
                    slack
                );
                // Both engines also agree on the derived dynamic set.
                let want_dyn: Vec<usize> =
                    (0..want.len()).filter(|&i| want[i] != golden[i]).collect();
                prop_assert!(want_dyn.iter().all(|&i| i < c.num_dffs()));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Timing batch: every lane of a lane-packed [`BatchDeltaSim`] batch —
    /// including zero-slack extras and deliberate same-pin conflicts —
    /// either latches exactly what [`EventSim`] latches for that lane's
    /// fault, or is retired with golden values and a genuine earlier
    /// conflict on its edge, in which case the scalar fallback replay
    /// ([`DeltaEventSim`]) still reproduces the full engine. Each case runs
    /// the identical fault list through the narrow `u64` path and, tiled
    /// past 64 and past 256 lanes, through the 256- and 512-lane wide-word
    /// paths.
    #[test]
    fn batch_delta_sim_matches_scalar_engines_lane_for_lane(
        gates in prop::collection::vec(any::<GateSpec>(), 6..30),
        prev_in: u64,
        next_in: u64,
        state_bits: u8,
        edge_sels in prop::collection::vec(any::<u16>(), 1..5),
    ) {
        let c = random_circuit(6, 8, &gates);
        let topo = Topology::new(&c);
        let timing = TimingModel::analyze(&c, &topo, &TechLibrary::nangate45_like());
        let state: Vec<bool> = (0..c.num_dffs())
            .map(|i| (state_bits >> (i % 8)) & 1 == 1)
            .collect();
        let prev_values = settle(&c, &topo, &state, &[prev_in & 0x3f]);
        let inputs = vec![next_in & 0x3f];
        let clock = timing.clock_period();

        // Edges × zero-slack-spanning extras, flattened into one fault
        // list. Repeating each edge with several distinct extras makes
        // same-pin conflicts — and therefore lane retirement — routine
        // rather than exceptional in this suite.
        let mut faults: Vec<FaultSpec> = Vec::new();
        for &sel in &edge_sels {
            let edge = EdgeId::from_index(usize::from(sel) % topo.edges().len());
            let slack = clock.saturating_sub(timing.path_through_edge(&c, &topo, edge));
            for extra in [0, slack.saturating_sub(1), slack, slack + 1, clock / 3, 2 * clock] {
                faults.push(FaultSpec { edge, extra });
            }
        }

        let mut full = EventSim::new(&c, &topo, &timing);
        let mut gold = GoldenWave::new(&c, &topo, &timing);
        gold.ensure(0, &prev_values, &state, &inputs);
        let mut delta = DeltaEventSim::new(&c, &topo, &timing);
        let golden = full.latch_cycle(&prev_values, &state, &inputs, None).to_vec();
        let wants: Vec<Vec<bool>> = faults
            .iter()
            .map(|&f| full.latch_cycle(&prev_values, &state, &inputs, Some(f)).to_vec())
            .collect();

        let mut batch = BatchDeltaSim::new(&c, &topo, &timing);
        // Narrow u64 path, then the same faults tiled past 64 lanes onto
        // the 256-lane carrier, then past 256 lanes onto the 512-lane
        // carrier, all against the one golden waveform of the cycle.
        let wide_len = 65 + faults.len();
        let wide_faults: Vec<FaultSpec> =
            faults.iter().cycle().take(wide_len).copied().collect();
        let wider_len = 257 + faults.len();
        let wider_faults: Vec<FaultSpec> =
            faults.iter().cycle().take(wider_len).copied().collect();
        for (pass, fault_list) in [&faults, &wide_faults, &wider_faults]
            .into_iter()
            .enumerate()
        {
            let outcome = batch.latch_batch(&gold, fault_list);
            for (lane, &fault) in fault_list.iter().enumerate() {
                let want = &wants[lane % faults.len()];
                if outcome.retired.contains(&lane) {
                    // Soundness: a lane only retires behind a genuine
                    // same-edge conflict with a different extra delay.
                    prop_assert!(
                        fault_list[..lane]
                            .iter()
                            .any(|f| f.edge == fault.edge && f.extra != fault.extra),
                        "lane {} retired without a preceding conflict",
                        lane
                    );
                    prop_assert_eq!(
                        batch.lane_latched(lane),
                        &golden[..],
                        "retired lane {} carries golden values, pass {}",
                        lane,
                        pass
                    );
                    // The caller's contract: retired lanes replay on the
                    // scalar engine, which reads the same golden waveform.
                    let (scalar, _) = delta.latch_cycle(&gold, fault);
                    prop_assert_eq!(
                        scalar,
                        &want[..],
                        "scalar fallback for retired lane {}",
                        lane
                    );
                } else {
                    prop_assert_eq!(
                        batch.lane_latched(lane),
                        &want[..],
                        "lane {} (edge {:?} extra {}), pass {}",
                        lane,
                        fault.edge,
                        fault.extra,
                        pass
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Replay pair: for every flip scenario, the bit-parallel batch lane
    /// and the full scalar replay hold identical state and identical
    /// outputs at every cycle of a random recorded trace.
    #[test]
    fn cycle_and_batch_replays_lockstep_on_random_traces(
        gates in prop::collection::vec(any::<GateSpec>(), 6..30),
        rows in prop::collection::vec(any::<u64>(), 2..6),
        boundary_sel: u16,
        masks in prop::collection::vec(any::<u8>(), 1..5),
    ) {
        let c = random_circuit(6, 8, &gates);
        let topo = Topology::new(&c);
        let env = SeqEnvironment::new(rows.iter().map(|&r| vec![r & 0x3f]).collect());
        let trace = GoldenTrace::record(&c, &topo, &mut env.clone(), 8);
        let boundary = 1 + u64::from(boundary_sel) % (trace.num_cycles() - 1);
        let scenarios: Vec<Vec<DffId>> = masks.iter().map(|&m| pick_flips(&c, m)).collect();

        let mut batch = BatchSim::new(&c, &topo);
        batch.begin(boundary, &scenarios, &trace);
        let mut lanes: Vec<(CycleSim, SeqEnvironment)> = scenarios
            .iter()
            .map(|flips| {
                let mut full = CycleSim::new(&c, &topo);
                full.restore(
                    boundary,
                    &trace.state_bits_at(boundary, c.num_dffs()),
                    trace.outputs_at(boundary - 1),
                );
                for &f in flips {
                    full.flip_dff(f);
                }
                (full, env.clone())
            })
            .collect();

        for (lane, (full, _)) in lanes.iter().enumerate() {
            prop_assert_eq!(
                batch.lane_state_bits(lane, &trace),
                full.state().to_vec(),
                "batch vs full at the boundary, lane {}",
                lane
            );
        }

        while batch.cycle() < trace.num_cycles() {
            batch.step(&trace);
            let cyc = batch.cycle();
            for (lane, (full, env_full)) in lanes.iter_mut().enumerate() {
                full.step(env_full);
                prop_assert_eq!(full.cycle(), cyc);
                prop_assert_eq!(
                    batch.lane_state_bits(lane, &trace),
                    full.state().to_vec(),
                    "batch vs full state at cycle {}, lane {}",
                    cyc,
                    lane
                );
                prop_assert_eq!(
                    batch.lane_outputs(lane, &trace),
                    full.last_outputs().to_vec(),
                    "batch vs full outputs at cycle {}, lane {}",
                    cyc,
                    lane
                );
            }
        }
    }
}
