//! Golden (fault-free) execution traces and checkpoints.
//!
//! A fault-injection campaign first records a [`GoldenTrace`] of the
//! reference execution. The trace stores, for every cycle, the packed
//! start-of-cycle flip-flop state, the environment fingerprint, and the port
//! words exchanged — everything the timing-aware simulator needs to
//! reconstruct a cycle, and everything the timing-agnostic GroupACE check
//! needs to detect that a faulty run has re-converged with the reference.
//! Each of the three per-cycle rows lives in one strided buffer whose row
//! width the circuit fixes.
//!
//! [`Checkpoint`]s let faulty executions resume mid-program without
//! replaying from reset. They are *derived* from a recorded trace, not
//! captured while recording: the state and the pending output words are
//! already in the trace, and the environment is deterministic, so
//! [`GoldenTrace::checkpoints`] steps a clone of it alone along the
//! recorded output words ([`GoldenTrace::advance_env`]) and clones it at
//! each requested cycle. The program is simulated at gate level once.
//!
//! The trace also owns the **golden settle cache** every replay engine
//! reads its clean fan-in from: the settled value of every net at every
//! cycle, filled lazily one 64-cycle block at a time
//! ([`GoldenTrace::golden_block`]) and shared by all threads holding the
//! trace.

use std::sync::OnceLock;

use delayavf_netlist::{Circuit, Topology};

use crate::cycle::{CycleSim, StopReason};
use crate::env::Environment;
use crate::pack::{broadcast, packed_bit};

/// Packs a bit slice into 64-bit words (LSB of word 0 is `bits[0]`).
pub fn pack_bits(bits: &[bool]) -> Vec<u64> {
    let mut words = Vec::new();
    push_packed(bits, &mut words);
    words
}

/// Appends `bits` packed as by [`pack_bits`] to `out`.
fn push_packed(bits: &[bool], out: &mut Vec<u64>) {
    let base = out.len();
    out.resize(base + bits.len().div_ceil(64), 0);
    for (i, &b) in bits.iter().enumerate() {
        if b {
            out[base + i / 64] |= 1 << (i % 64);
        }
    }
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
    num_dffs: usize,
    /// Row widths of `states`, `inputs` and `outputs`: packed state words,
    /// input ports and output ports.
    state_width: usize,
    input_width: usize,
    output_width: usize,
    /// Packed start-of-cycle states; `num_cycles + 1` rows (the final row
    /// is the state after the last executed cycle).
    states: Vec<u64>,
    /// Environment fingerprints aligned with the `states` rows.
    fingerprints: Vec<u64>,
    /// Input port words consumed by each cycle; `num_cycles` rows.
    inputs: Vec<u64>,
    /// Output port words sampled at the end of each cycle; `num_cycles`
    /// rows.
    outputs: Vec<u64>,
    program_output: Vec<u8>,
    /// Per 64-cycle block: the settled golden value of every net, one word
    /// per net with bit `L` holding the value at cycle `64·block + L`.
    /// Filled on first demand by [`GoldenTrace::golden_block`].
    blocks: Vec<OnceLock<Box<[u64]>>>,
}

/// Row `index` of a buffer of `rows` rows of `width` words.
///
/// # Panics
///
/// Panics if `index >= rows`.
#[inline]
fn row(data: &[u64], width: usize, index: u64, rows: u64) -> &[u64] {
    assert!(index < rows, "trace row {index} out of range ({rows} rows)");
    let at = usize::try_from(index).expect("cycle fits usize") * width;
    &data[at..at + width]
}

impl GoldenTrace {
    /// Records the reference execution of `env` on the circuit.
    ///
    /// The run stops when the environment halts or after `max_cycles`.
    /// Checkpoints come from [`GoldenTrace::checkpoints`], given a clone of
    /// `env` as it stood before recording.
    pub fn record<E: Environment>(
        circuit: &Circuit,
        topo: &Topology,
        env: &mut E,
        max_cycles: u64,
    ) -> GoldenTrace {
        let mut sim = CycleSim::new(circuit, topo);
        let mut states = Vec::new();
        let mut fingerprints = Vec::new();
        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        let mut halted = false;
        while sim.cycle() < max_cycles {
            if env.halted() {
                halted = true;
                break;
            }
            push_packed(sim.state(), &mut states);
            fingerprints.push(env.fingerprint());
            sim.step(env);
            inputs.extend_from_slice(sim.last_inputs());
            outputs.extend_from_slice(sim.last_outputs());
        }
        halted = halted || env.halted();
        // Final boundary state.
        push_packed(sim.state(), &mut states);
        fingerprints.push(env.fingerprint());
        let num_cycles = sim.cycle();
        GoldenTrace {
            num_cycles,
            halted,
            num_dffs: circuit.num_dffs(),
            state_width: circuit.num_dffs().div_ceil(64),
            input_width: circuit.input_ports().len(),
            output_width: circuit.output_ports().len(),
            states,
            fingerprints,
            inputs,
            outputs,
            program_output: env.program_output(),
            blocks: (0..num_cycles.div_ceil(64))
                .map(|_| OnceLock::new())
                .collect(),
        }
    }

    /// Checkpoints at the requested `cycles`, in ascending cycle order,
    /// derived without the netlist: a clone of `env` — the environment as
    /// it stood before recording — steps alone along the recorded output
    /// words and is cloned at each cycle. Costs one environment step per
    /// cycle up to the largest requested one.
    ///
    /// Cycles at or past [`GoldenTrace::num_cycles`] are ignored, and so
    /// are repeats.
    pub fn checkpoints<E: Environment + Clone>(
        &self,
        env: &E,
        cycles: &[u64],
    ) -> Vec<Checkpoint<E>> {
        let mut want: Vec<u64> = cycles
            .iter()
            .copied()
            .filter(|&c| c < self.num_cycles)
            .collect();
        want.sort_unstable();
        want.dedup();
        let mut env = env.clone();
        let mut at = 0;
        let mut scratch = vec![0; self.input_width];
        want.into_iter()
            .map(|cycle| {
                self.advance_env(&mut env, at, cycle, &mut scratch);
                at = cycle;
                debug_assert_eq!(
                    env.fingerprint(),
                    self.fingerprint_at(cycle),
                    "derived environment matches the recorded fingerprint"
                );
                Checkpoint {
                    cycle,
                    state: self.state_bits_at(cycle, self.num_dffs),
                    prev_outputs: self.pending_outputs(cycle),
                    env: env.clone(),
                }
            })
            .collect()
    }

    /// Steps `env` — the golden environment as it stood before cycle
    /// `from`'s step — alone along the recorded output words until it
    /// stands before cycle `to`'s step. Each step regenerates the cycle's
    /// recorded input words (checked in debug builds); `scratch` holds one
    /// word per input port. Does nothing when `to <= from`.
    ///
    /// # Panics
    ///
    /// Panics if `to > num_cycles`.
    pub fn advance_env<E: Environment>(
        &self,
        env: &mut E,
        from: u64,
        to: u64,
        scratch: &mut [u64],
    ) {
        assert!(to <= self.num_cycles, "environment advanced past the trace");
        for cycle in from..to {
            scratch.fill(0);
            if cycle == 0 {
                env.step(0, &self.pending_outputs(0), scratch);
            } else {
                env.step(cycle, self.outputs_at(cycle - 1), scratch);
            }
            debug_assert_eq!(
                &*scratch,
                self.inputs_at(cycle),
                "golden-trajectory environment reproduces the recorded inputs"
            );
        }
    }

    /// The output words the environment observes on cycle `cycle`'s step:
    /// those sampled at the end of `cycle - 1`, all zeros at cycle 0.
    fn pending_outputs(&self, cycle: u64) -> Vec<u64> {
        match cycle {
            0 => vec![0; self.output_width],
            c => self.outputs_at(c - 1).to_vec(),
        }
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
        row(&self.states, self.state_width, cycle, self.num_cycles + 1)
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
        row(&self.inputs, self.input_width, cycle, self.num_cycles)
    }

    /// Output port words sampled at the end of `cycle`.
    pub fn outputs_at(&self, cycle: u64) -> &[u64] {
        row(&self.outputs, self.output_width, cycle, self.num_cycles)
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
        plan.settle(&mut vals);
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
        let env = ConstEnvironment::new(vec![1]);
        let trace = GoldenTrace::record(&c, &topo, &mut env.clone(), 8);
        let cps = trace.checkpoints(&env, &[5, 2, 100, 2]);
        assert_eq!(trace.num_cycles(), 8);
        assert!(!trace.halted());
        assert_eq!(
            cps.len(),
            2,
            "checkpoint beyond the run and repeats are ignored"
        );
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
        let trace = GoldenTrace::record(&c, &topo, &mut env, 4);
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
        let trace = GoldenTrace::record(&c, &topo, &mut env, 150);
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
        let env = ConstEnvironment::new(vec![3]);
        let trace = GoldenTrace::record(&c, &topo, &mut env.clone(), 10);
        let cps = trace.checkpoints(&env, &[4]);
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
