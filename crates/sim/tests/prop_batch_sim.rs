//! Property tests for the bit-parallel batch replay engine on randomly
//! generated circuits: every lane of a [`BatchSim`] batch — partial or
//! completely full — matches an independent scalar [`CycleSim`] replay
//! bit-for-bit, cycle by cycle.
//!
//! * Under the closed environment the batch engine assumes by default
//!   (primary inputs follow the recorded golden trace), checked per lane
//!   and per cycle: flip-flop state, output-port words, the
//!   state-divergence mask, the output-divergence mask returned by
//!   [`BatchSim::step`], and the enumerated divergence set.
//! * Under an environment whose inputs depend on the outputs it observes
//!   and whose halt depends on them too, driven the way the injector
//!   drives a batch: lanes ride the recorded inputs until their outputs
//!   diverge, then step a private environment each cycle, run past the end
//!   of the trace, and stop at their environment's halt or at the cycle
//!   budget. Each lane's state, outputs and final class (halt or budget,
//!   cycle, environment transcript) match its scalar replay.

use delayavf_netlist::{Circuit, DffId, Topology};
use delayavf_sim::testutil::{pick_flips, random_circuit, GateSpec};
use delayavf_sim::{
    BatchSim, ConstEnvironment, CycleSim, Environment, GoldenTrace, LaneMask, LaneWord, MAX_LANES,
};
use proptest::prelude::*;

/// Drives `scenarios` through one batch and, in lockstep, through one
/// scalar replay per lane, asserting bit-for-bit agreement every cycle.
fn check_batch_against_scalars(
    c: &Circuit,
    topo: &Topology,
    trace: &GoldenTrace,
    boundary: u64,
    scenarios: &[Vec<DffId>],
    env: &ConstEnvironment,
) -> Result<(), TestCaseError> {
    let n = trace.num_cycles();
    let mut batch = BatchSim::new(c, topo);
    batch.begin(boundary, scenarios, trace);

    let mut scalars: Vec<CycleSim> = scenarios
        .iter()
        .map(|flips| {
            let mut s = CycleSim::new(c, topo);
            s.restore(
                boundary,
                &trace.state_bits_at(boundary, c.num_dffs()),
                trace.outputs_at(boundary - 1),
            );
            for &f in flips {
                s.flip_dff(f);
            }
            s
        })
        .collect();

    for (lane, s) in scalars.iter().enumerate() {
        prop_assert_eq!(
            batch.lane_state_bits(lane, trace),
            s.state().to_vec(),
            "boundary state, lane {}",
            lane
        );
        prop_assert_eq!(
            batch.divergence_mask().get(lane),
            s.state() != &trace.state_bits_at(boundary, c.num_dffs())[..],
            "boundary divergence bit, lane {}",
            lane
        );
    }

    let mut env = env.clone();
    while batch.cycle() < n {
        let out_div = batch.step(trace);
        let cyc = batch.cycle();
        let golden_state = trace.state_bits_at(cyc, c.num_dffs());
        let golden_outputs = trace.outputs_at(cyc - 1);
        for (lane, s) in scalars.iter_mut().enumerate() {
            s.step(&mut env);
            prop_assert_eq!(s.cycle(), cyc);
            prop_assert_eq!(
                batch.lane_state_bits(lane, trace),
                s.state().to_vec(),
                "state at cycle {}, lane {}",
                cyc,
                lane
            );
            prop_assert_eq!(
                batch.lane_outputs(lane, trace),
                s.last_outputs().to_vec(),
                "outputs at cycle {}, lane {}",
                cyc,
                lane
            );
            prop_assert_eq!(
                out_div.get(lane),
                s.last_outputs() != golden_outputs,
                "output-divergence bit at cycle {}, lane {}",
                cyc,
                lane
            );
            prop_assert_eq!(
                batch.divergence_mask().get(lane),
                s.state() != &golden_state[..],
                "state-divergence bit at cycle {}, lane {}",
                cyc,
                lane
            );
            let expect: Vec<DffId> = c
                .dffs()
                .enumerate()
                .filter(|&(i, _)| s.state()[i] != golden_state[i])
                .map(|(_, (id, _))| id)
                .collect();
            prop_assert_eq!(
                batch.lane_divergence(lane, trace),
                expect,
                "divergence set at cycle {}, lane {}",
                cyc,
                lane
            );
        }
        // Lanes beyond the batch ride the golden trajectory exactly.
        if scenarios.len() < MAX_LANES {
            let used = LaneMask::prefix(scenarios.len());
            prop_assert!(!(out_div & !used).any(), "unused lanes out-diverged");
            prop_assert!(
                !(batch.divergence_mask() & !used).any(),
                "unused lanes state-diverged"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Partial batches: 1–7 lanes, so most of the word is unused.
    #[test]
    fn every_lane_of_a_partial_batch_matches_a_scalar_replay(
        gates in prop::collection::vec(any::<GateSpec>(), 10..60),
        in_val: u64,
        boundary_sel: u16,
        masks in prop::collection::vec(any::<u8>(), 1..8),
    ) {
        let c = random_circuit(8, 8, &gates);
        let topo = Topology::new(&c);
        let env = ConstEnvironment::new(vec![in_val & 0xff]);
        let trace = GoldenTrace::record(&c, &topo, &mut env.clone(), 8);
        let boundary = 1 + u64::from(boundary_sel) % (trace.num_cycles() - 1);
        let scenarios: Vec<Vec<DffId>> = masks.iter().map(|&m| pick_flips(&c, m)).collect();
        check_batch_against_scalars(&c, &topo, &trace, boundary, &scenarios, &env)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Completely full batches: all 64 lanes carry an independent scenario.
    #[test]
    fn every_lane_of_a_full_batch_matches_a_scalar_replay(
        gates in prop::collection::vec(any::<GateSpec>(), 10..60),
        in_val: u64,
        boundary_sel: u16,
        mask_seed: u8,
    ) {
        let c = random_circuit(8, 8, &gates);
        let topo = Topology::new(&c);
        let env = ConstEnvironment::new(vec![in_val & 0xff]);
        let trace = GoldenTrace::record(&c, &topo, &mut env.clone(), 8);
        let boundary = 1 + u64::from(boundary_sel) % (trace.num_cycles() - 1);
        let scenarios: Vec<Vec<DffId>> = (0..MAX_LANES)
            .map(|lane| pick_flips(&c, mask_seed.wrapping_add(lane as u8)))
            .collect();
        check_batch_against_scalars(&c, &topo, &trace, boundary, &scenarios, &env)?;
    }
}

/// An environment whose input word hashes the outputs it observed, and
/// which halts once it has observed `stop` output words of odd parity: a
/// faulty lane's inputs and run length both depend on its own outputs.
/// The fingerprint is a transcript of the observed words.
#[derive(Clone, Debug)]
struct HaltingFeedbackEnv {
    stop: u32,
    odd: u32,
    transcript: u64,
}

impl Environment for HaltingFeedbackEnv {
    fn step(&mut self, cycle: u64, prev_outputs: &[u64], inputs: &mut [u64]) {
        let mut acc = cycle.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for (i, &o) in prev_outputs.iter().enumerate() {
            acc ^= o.rotate_left(7 * i as u32 + 1);
        }
        inputs[0] = acc ^ (acc >> 17);
        let word = prev_outputs.first().copied().unwrap_or(0);
        self.transcript = self.transcript.rotate_left(9) ^ word;
        self.odd += word.count_ones() % 2;
    }

    fn halted(&self) -> bool {
        self.odd >= self.stop
    }

    fn fingerprint(&self) -> u64 {
        self.transcript
    }
}

/// How a replay ended: halted or out of budget, at which cycle, with which
/// environment transcript.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum End {
    Halted(u64, u64),
    Budget(u64, u64),
}

/// The decision a replay at `cycle` takes before stepping, given its
/// environment: halted first, then the cycle budget.
fn decide(env: &HaltingFeedbackEnv, cycle: u64, limit: u64) -> Option<End> {
    if env.halted() {
        Some(End::Halted(cycle, env.fingerprint()))
    } else if cycle >= limit {
        Some(End::Budget(cycle, env.fingerprint()))
    } else {
        None
    }
}

/// Replays `scenarios` from `boundary` in one batch driven like the
/// injector drives it — recorded inputs until a lane's outputs diverge or
/// the trace ends, then a private clone of the golden environment at that
/// boundary — and in lockstep through one scalar [`CycleSim`] per lane on
/// its own environment, to halt or to `limit`.
fn check_private_lanes_against_scalars(
    c: &Circuit,
    topo: &Topology,
    trace: &GoldenTrace,
    checkpoint: &HaltingFeedbackEnv,
    boundary: u64,
    scenarios: &[Vec<DffId>],
    limit: u64,
) -> Result<(), TestCaseError> {
    let n = trace.num_cycles();
    let mut batch = BatchSim::new(c, topo);
    batch.begin(boundary, scenarios, trace);
    let mut scalars: Vec<(CycleSim, HaltingFeedbackEnv)> = scenarios
        .iter()
        .map(|flips| {
            let mut s = CycleSim::new(c, topo);
            s.restore(
                boundary,
                &trace.state_bits_at(boundary, c.num_dffs()),
                trace.outputs_at(boundary - 1),
            );
            for &f in flips {
                s.flip_dff(f);
            }
            (s, checkpoint.clone())
        })
        .collect();
    // The golden-trajectory environment, advanced along the recording; a
    // lane that needs its own environment gets a clone of it.
    let mut golden_env = checkpoint.clone();
    let mut own: Vec<Option<HaltingFeedbackEnv>> = vec![None; scenarios.len()];
    let mut ends: Vec<Option<End>> = vec![None; scenarios.len()];
    let mut inputs = vec![0u64; 1];
    loop {
        let cyc = batch.cycle();
        for lane in 0..scenarios.len() {
            if ends[lane].is_some() {
                continue;
            }
            let (sim, env) = &scalars[lane];
            prop_assert_eq!(sim.cycle(), cyc);
            prop_assert_eq!(
                batch.lane_state_bits(lane, trace),
                sim.state().to_vec(),
                "state at cycle {}, lane {}",
                cyc,
                lane
            );
            let want = decide(env, cyc, limit);
            if own[lane].is_none() && cyc >= n {
                own[lane] = Some(golden_env.clone());
            }
            let got = decide(own[lane].as_ref().unwrap_or(&golden_env), cyc, limit);
            prop_assert_eq!(got, want, "decision at cycle {}, lane {}", cyc, lane);
            ends[lane] = got;
        }
        if ends.iter().all(Option::is_some) {
            return Ok(());
        }
        for (lane, env) in own.iter_mut().enumerate() {
            if let (Some(env), None) = (env, ends[lane]) {
                inputs[0] = 0;
                env.step(cyc, &batch.lane_outputs(lane, trace), &mut inputs);
                batch.set_lane_inputs(lane, &inputs, trace);
            }
        }
        let out_div = batch.step(trace);
        if cyc < n {
            inputs[0] = 0;
            golden_env.step(cyc, trace.outputs_at(cyc - 1), &mut inputs);
        }
        for lane in 0..scenarios.len() {
            if ends[lane].is_some() {
                continue;
            }
            let (sim, env) = &mut scalars[lane];
            sim.step(env);
            prop_assert_eq!(
                batch.lane_outputs(lane, trace),
                sim.last_outputs().to_vec(),
                "outputs at cycle {}, lane {}",
                cyc + 1,
                lane
            );
            if out_div.get(lane) && own[lane].is_none() {
                own[lane] = Some(golden_env.clone());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lanes under an output-dependent, self-halting environment: they
    /// out-diverge, continue on private environments past the end of the
    /// trace, and end at their own halt or at the budget exactly when a
    /// scalar replay does, matching it cycle by cycle on the way.
    #[test]
    fn out_diverged_lanes_on_private_environments_match_scalar_replays(
        gates in prop::collection::vec(any::<GateSpec>(), 10..60),
        stop in 3u32..12,
        boundary_sel: u16,
        slack in 0u64..8,
        masks in prop::collection::vec(any::<u8>(), 1..10),
    ) {
        let c = random_circuit(8, 8, &gates);
        let topo = Topology::new(&c);
        let env = HaltingFeedbackEnv { stop, odd: 0, transcript: 0 };
        let trace = GoldenTrace::record(&c, &topo, &mut env.clone(), 10);
        prop_assume!(trace.num_cycles() >= 2);
        let boundary = 1 + u64::from(boundary_sel) % (trace.num_cycles() - 1);
        let checkpoint = trace.checkpoints(&env, &[boundary]);
        let scenarios: Vec<Vec<DffId>> = masks.iter().map(|&m| pick_flips(&c, m)).collect();
        check_private_lanes_against_scalars(
            &c,
            &topo,
            &trace,
            &checkpoint[0].env,
            boundary,
            &scenarios,
            trace.num_cycles() + slack,
        )?;
    }
}
