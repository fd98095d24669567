//! Golden (fault-free) execution traces and checkpoints.
//!
//! A fault-injection campaign first records a [`GoldenTrace`] of the
//! reference execution. The trace stores, for every cycle, the packed
//! start-of-cycle flip-flop state, the environment fingerprint, and the port
//! words exchanged — everything the timing-aware simulator needs to
//! reconstruct a cycle, and everything the timing-agnostic GroupACE check
//! needs to detect that a faulty run has re-converged with the reference.
//!
//! [`Checkpoint`]s additionally capture a clone of the environment at
//! selected injection cycles so faulty executions can resume mid-program
//! without replaying from reset.
//!
//! The trace also owns the **golden settle cache** every replay engine
//! reads its clean fan-in from: the settled value of every net at every
//! cycle, filled lazily one 64-cycle block at a time
//! ([`GoldenTrace::golden_block`]) and shared by all threads holding the
//! trace.

use std::collections::HashSet;
use std::sync::OnceLock;

use delayavf_netlist::{Circuit, Topology};

use crate::cycle::{CycleSim, StopReason};
use crate::env::Environment;
use crate::pack::{broadcast, eval_word, packed_bit};

/// Packs a bit slice into 64-bit words (LSB of word 0 is `bits[0]`).
pub fn pack_bits(bits: &[bool]) -> Vec<u64> {
    let mut words = vec![0u64; bits.len().div_ceil(64)];
    for (i, &b) in bits.iter().enumerate() {
        if b {
            words[i / 64] |= 1 << (i % 64);
        }
    }
    words
}

/// A resumable snapshot of an execution at the start of a cycle.
#[derive(Clone, Debug)]
pub struct Checkpoint<E> {
    /// The cycle this checkpoint resumes at.
    pub cycle: u64,
    /// Flip-flop state at the start of the cycle.
    pub state: Vec<bool>,
    /// Output port words the environment will observe on the next step.
    pub prev_outputs: Vec<u64>,
    /// The environment, cloned before its `step` for this cycle.
    pub env: E,
}

/// A fault-free reference execution.
#[derive(Clone, Debug)]
pub struct GoldenTrace {
    num_cycles: u64,
    halted: bool,
    /// Packed start-of-cycle states; length `num_cycles + 1` (the final
    /// entry is the state after the last executed cycle).
    states: Vec<Vec<u64>>,
    /// Environment fingerprints aligned with `states`.
    fingerprints: Vec<u64>,
    /// Input port words consumed by each cycle; length `num_cycles`.
    inputs: Vec<Vec<u64>>,
    /// Output port words sampled at the end of each cycle; length
    /// `num_cycles`.
    outputs: Vec<Vec<u64>>,
    program_output: Vec<u8>,
    /// Per 64-cycle block: the settled golden value of every net, one word
    /// per net with bit `L` holding the value at cycle `64·block + L`.
    /// Filled on first demand by [`GoldenTrace::golden_block`].
    blocks: Vec<OnceLock<Box<[u64]>>>,
}

impl GoldenTrace {
    /// Records the reference execution of `env` on the circuit, capturing
    /// checkpoints at the requested cycles.
    ///
    /// The run stops when the environment halts or after `max_cycles`.
    /// Checkpoint cycles beyond the program's actual length are ignored.
    pub fn record<E: Environment + Clone>(
        circuit: &Circuit,
        topo: &Topology,
        env: &mut E,
        max_cycles: u64,
        checkpoint_cycles: &[u64],
    ) -> (GoldenTrace, Vec<Checkpoint<E>>) {
        let want: HashSet<u64> = checkpoint_cycles.iter().copied().collect();
        let mut sim = CycleSim::new(circuit, topo);
        let mut states = Vec::new();
        let mut fingerprints = Vec::new();
        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        let mut checkpoints = Vec::new();
        let mut halted = false;
        while sim.cycle() < max_cycles {
            if env.halted() {
                halted = true;
                break;
            }
            states.push(pack_bits(sim.state()));
            fingerprints.push(env.fingerprint());
            if want.contains(&sim.cycle()) {
                checkpoints.push(Checkpoint {
                    cycle: sim.cycle(),
                    state: sim.state().to_vec(),
                    prev_outputs: sim.last_outputs().to_vec(),
                    env: env.clone(),
                });
            }
            sim.step(env);
            inputs.push(sim.last_inputs().to_vec());
            outputs.push(sim.last_outputs().to_vec());
        }
        halted = halted || env.halted();
        // Final boundary state.
        states.push(pack_bits(sim.state()));
        fingerprints.push(env.fingerprint());
        let num_cycles = sim.cycle();
        let trace = GoldenTrace {
            num_cycles,
            halted,
            states,
            fingerprints,
            inputs,
            outputs,
            program_output: env.program_output(),
            blocks: (0..num_cycles.div_ceil(64))
                .map(|_| OnceLock::new())
                .collect(),
        };
        (trace, checkpoints)
    }

    /// Number of executed cycles (the paper's *N*).
    pub fn num_cycles(&self) -> u64 {
        self.num_cycles
    }

    /// Whether the reference execution halted on its own.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Whether the reference run reached [`StopReason::Halted`].
    pub fn stop_reason(&self) -> StopReason {
        if self.halted {
            StopReason::Halted
        } else {
            StopReason::MaxCycles
        }
    }

    /// Packed flip-flop state at the start of `cycle` (0..=num_cycles).
    ///
    /// # Panics
    ///
    /// Panics if `cycle > num_cycles`.
    pub fn state_at(&self, cycle: u64) -> &[u64] {
        &self.states[usize::try_from(cycle).expect("cycle fits usize")]
    }

    /// Unpacked flip-flop state at the start of `cycle`.
    pub fn state_bits_at(&self, cycle: u64, num_dffs: usize) -> Vec<bool> {
        let packed = self.state_at(cycle);
        (0..num_dffs)
            .map(|i| (packed[i / 64] >> (i % 64)) & 1 == 1)
            .collect()
    }

    /// Environment fingerprint at the start of `cycle`.
    pub fn fingerprint_at(&self, cycle: u64) -> u64 {
        self.fingerprints[usize::try_from(cycle).expect("cycle fits usize")]
    }

    /// Input port words consumed by `cycle`.
    pub fn inputs_at(&self, cycle: u64) -> &[u64] {
        &self.inputs[usize::try_from(cycle).expect("cycle fits usize")]
    }

    /// Output port words sampled at the end of `cycle`.
    pub fn outputs_at(&self, cycle: u64) -> &[u64] {
        &self.outputs[usize::try_from(cycle).expect("cycle fits usize")]
    }

    /// The reference program output.
    pub fn program_output(&self) -> &[u8] {
        &self.program_output
    }

    /// The settled golden net values of the 64-cycle block containing
    /// `cycle`: one word per net, bit `cycle % 64` of word `n` holding net
    /// `n`'s value during `cycle`.
    ///
    /// The block settles on first demand in *one* bit-parallel sweep of
    /// the evaluation plan, with the lanes standing for consecutive trace
    /// cycles (each cycle's combinational settle is independent given the
    /// recorded state and input words), so a cycle costs 1/64th of a
    /// scalar [`crate::settle`]. The result is cached on the trace and
    /// shared by every engine and thread reading it; the cache holds about
    /// `num_nets / 8` bytes per trace cycle once fully filled. Lanes past
    /// the end of the trace are unspecified.
    ///
    /// # Panics
    ///
    /// Panics if `cycle >= num_cycles`, or if `circuit` is not the circuit
    /// the trace was recorded on.
    pub fn golden_block(&self, circuit: &Circuit, topo: &Topology, cycle: u64) -> &[u64] {
        assert!(cycle < self.num_cycles, "no golden settle past the trace");
        let block = self.blocks[(cycle / 64) as usize]
            .get_or_init(|| self.settle_block(circuit, topo, cycle - cycle % 64));
        assert_eq!(
            block.len(),
            circuit.num_nets(),
            "trace recorded on another circuit"
        );
        block
    }

    /// Settles the up-to-64 cycles starting at `base` bit-parallel.
    fn settle_block(&self, circuit: &Circuit, topo: &Topology, base: u64) -> Box<[u64]> {
        let plan = topo.plan();
        let width = (self.num_cycles - base).min(64);
        let mut vals = vec![0u64; circuit.num_nets()].into_boxed_slice();
        for &(net, v) in topo.const_nets() {
            vals[net.index()] = broadcast(v);
        }
        for l in 0..width {
            let inputs = self.inputs_at(base + l);
            for (port, &word) in circuit.input_ports().iter().zip(inputs) {
                for (bit, &net) in port.nets().iter().enumerate() {
                    vals[net.index()] |= ((word >> bit) & 1) << l;
                }
            }
            let state = self.state_at(base + l);
            for (i, &q) in plan.dff_q().iter().enumerate() {
                vals[q as usize] |= u64::from(packed_bit(state, i)) << l;
            }
        }
        for ((&kind, &[a, b, c]), &out) in plan.kinds().iter().zip(plan.ins()).zip(plan.outs()) {
            vals[out as usize] =
                eval_word(kind, vals[a as usize], vals[b as usize], vals[c as usize]);
        }
        vals
    }

    /// True when a run has provably re-converged with the reference at the
    /// start of `cycle` — it will behave identically from `cycle` on.
    ///
    /// Convergence needs **three** equalities: the flip-flop state, the
    /// environment fingerprint, *and* the output-port words sampled at the
    /// end of cycle `cycle - 1`. The last one matters because those outputs
    /// are still *pending*: the environment only observes them during its
    /// next step, so a corrupted-but-already-sampled output can diverge a
    /// run whose state and fingerprint look golden.
    pub fn converged_at(
        &self,
        cycle: u64,
        packed_state: &[u64],
        fingerprint: u64,
        pending_outputs: &[u64],
    ) -> bool {
        cycle >= 1
            && cycle <= self.num_cycles
            && self.state_at(cycle) == packed_state
            && self.fingerprint_at(cycle) == fingerprint
            && self.outputs_at(cycle - 1) == pending_outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{ConstEnvironment, Environment};
    use delayavf_netlist::CircuitBuilder;

    fn counter() -> Circuit {
        let mut b = CircuitBuilder::new();
        let step = b.input_word("step", 4);
        let count = b.reg_word("count", 4, 0);
        let next = b.add(&count.q(), &step);
        b.drive_word(&count, &next);
        b.output_word("count", &count.q());
        b.finish().unwrap()
    }

    #[test]
    fn pack_bits_round_trips() {
        let bits: Vec<bool> = (0..130).map(|i| i % 3 == 0).collect();
        let packed = pack_bits(&bits);
        assert_eq!(packed.len(), 3);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!((packed[i / 64] >> (i % 64)) & 1 == 1, b);
        }
    }

    #[test]
    fn trace_records_every_cycle() {
        let c = counter();
        let topo = Topology::new(&c);
        let mut env = ConstEnvironment::new(vec![1]);
        let (trace, cps) = GoldenTrace::record(&c, &topo, &mut env, 8, &[2, 5, 100]);
        assert_eq!(trace.num_cycles(), 8);
        assert!(!trace.halted());
        assert_eq!(cps.len(), 2, "checkpoint beyond the run is ignored");
        assert_eq!(cps[0].cycle, 2);
        assert_eq!(cps[0].state, vec![false, true, false, false]); // count=2
                                                                   // Start-of-cycle states count 0,1,2,...,8.
        for cycle in 0..=8u64 {
            assert_eq!(trace.state_at(cycle)[0], cycle);
        }
        // Inputs are constant 1; outputs lag state by nothing (registered).
        for cycle in 0..8u64 {
            assert_eq!(trace.inputs_at(cycle), &[1]);
            assert_eq!(trace.outputs_at(cycle), &[cycle]);
        }
    }

    #[test]
    fn convergence_compares_state_and_fingerprint() {
        let c = counter();
        let topo = Topology::new(&c);
        let mut env = ConstEnvironment::new(vec![1]);
        let (trace, _) = GoldenTrace::record(&c, &topo, &mut env, 4, &[]);
        let good = trace.state_at(2).to_vec();
        let outs = trace.outputs_at(1).to_vec();
        assert!(trace.converged_at(2, &good, 0, &outs));
        let bad = vec![good[0] ^ 1];
        assert!(!trace.converged_at(2, &bad, 0, &outs));
        assert!(
            !trace.converged_at(2, &good, 7, &outs),
            "fingerprint must match"
        );
        assert!(
            !trace.converged_at(2, &good, 0, &[outs[0] ^ 1]),
            "pending outputs must match too"
        );
    }

    #[test]
    fn golden_blocks_match_scalar_settles_and_are_shared_across_threads() {
        use crate::cycle::settle;
        let c = counter();
        let topo = Topology::new(&c);
        let mut env = ConstEnvironment::new(vec![3]);
        // 150 cycles: two full blocks and a partial third.
        let (trace, _) = GoldenTrace::record(&c, &topo, &mut env, 150, &[]);
        assert_eq!(trace.num_cycles() % 64, 22);
        // Two threads racing to fill one block read the same slice.
        let reads: Vec<&[u64]> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| s.spawn(|| trace.golden_block(&c, &topo, 70)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(std::ptr::eq(reads[0], reads[1]), "one shared block");
        assert!(std::ptr::eq(reads[0], trace.golden_block(&c, &topo, 127)));
        for cycle in 0..trace.num_cycles() {
            let block = trace.golden_block(&c, &topo, cycle);
            let want = settle(
                &c,
                &topo,
                &trace.state_bits_at(cycle, c.num_dffs()),
                trace.inputs_at(cycle),
            );
            let got: Vec<bool> = block.iter().map(|w| (w >> (cycle % 64)) & 1 == 1).collect();
            assert_eq!(got, want, "cycle {cycle}");
        }
    }

    #[test]
    fn checkpoint_resumes_identically() {
        let c = counter();
        let topo = Topology::new(&c);
        let mut env = ConstEnvironment::new(vec![3]);
        let (trace, cps) = GoldenTrace::record(&c, &topo, &mut env, 10, &[4]);
        let cp = &cps[0];
        let mut sim = CycleSim::new(&c, &topo);
        sim.restore(cp.cycle, &cp.state, &cp.prev_outputs);
        let mut env2 = cp.env.clone();
        while sim.cycle() < 10 {
            sim.step(&mut env2);
            assert_eq!(
                pack_bits(sim.state()),
                trace.state_at(sim.cycle()),
                "resumed run matches golden at cycle {}",
                sim.cycle()
            );
        }
        let _ = env2.fingerprint();
    }
}
