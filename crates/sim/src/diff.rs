//! Incremental diff-from-golden replay (concurrent fault simulation).
//!
//! A faulty GroupACE replay differs from the recorded [`GoldenTrace`] only in
//! the fan-out cone of the flipped flip-flops, so re-simulating the entire
//! circuit every cycle wastes almost all of its work. [`DiffSim`] instead
//! carries a *divergence set* — the flip-flops whose value differs from the
//! golden state at the current boundary — and each cycle:
//!
//! 1. steps the environment with the (possibly patched) output words, and
//!    diffs the inputs it produces against the golden input words;
//! 2. seeds the dirty-net set with the diverged flip-flop Q nets and input
//!    bits;
//! 3. re-evaluates *only* gates reached by dirty nets, in increasing
//!    [`Topology::gate_level`] order, reading un-dirty fan-in from the
//!    trace's shared golden settle cache ([`GoldenTrace::golden_block`]);
//! 4. compares each dirty D pin against `trace.state_at(cycle + 1)` to form
//!    the next divergence set, and patches dirty output-port bits into the
//!    golden output words.
//!
//! The paper's convergence early-exit falls out for free: the run has
//! re-converged exactly when the divergence set is empty, the environment
//! fingerprint matches, and no pending output bit is patched. All bookkeeping
//! uses epoch-stamped scratch arrays, so per-cycle reset is O(1).
//!
//! [`Topology::gate_level`]: delayavf_netlist::Topology::gate_level

use delayavf_netlist::{Circuit, Consumer, DffId, GateId, NetId, Topology};

use crate::env::Environment;
use crate::pack::packed_bit;
use crate::trace::GoldenTrace;

/// An incremental cycle simulator that replays a faulty run as a *diff*
/// against a [`GoldenTrace`], re-evaluating only the divergence cone.
///
/// Semantically equivalent to restoring a [`crate::CycleSim`] from the golden
/// state at a boundary, applying flips and stepping — but the per-cycle cost
/// scales with the size of the divergence cone instead of the whole circuit.
/// It is only defined while the golden trace provides a baseline
/// (`cycle < trace.num_cycles()`); callers must materialize the full state
/// with [`DiffSim::state_bits`] and fall back to a full simulator to run past
/// the end of the trace.
#[derive(Clone, Debug)]
pub struct DiffSim<'c> {
    circuit: &'c Circuit,
    topo: &'c Topology,
    /// Epoch-stamped faulty net values (set only for *dirty* nets).
    faulty_val: Vec<bool>,
    faulty_epoch: Vec<u64>,
    /// Epoch stamp marking gates already scheduled this cycle.
    sched_epoch: Vec<u64>,
    /// Dirty-gate worklist, bucketed by combinational level.
    buckets: Vec<Vec<GateId>>,
    /// Highest level with a scheduled gate this cycle (sweep bound).
    max_sched_level: usize,
    epoch: u64,
    /// Flip-flops differing from `trace.state_at(cycle)`, sorted.
    divergence: Vec<DffId>,
    next_divergence: Vec<DffId>,
    /// Output words pending for the environment's next step (golden words
    /// with dirty bits patched).
    outputs: Vec<u64>,
    input_buf: Vec<u64>,
    cycle: u64,
    gates_evaluated: u64,
}

impl<'c> DiffSim<'c> {
    /// Creates an incremental simulator for `circuit`.
    pub fn new(circuit: &'c Circuit, topo: &'c Topology) -> Self {
        DiffSim {
            circuit,
            topo,
            faulty_val: vec![false; circuit.num_nets()],
            faulty_epoch: vec![0; circuit.num_nets()],
            sched_epoch: vec![0; circuit.num_gates()],
            buckets: vec![Vec::new(); topo.num_levels()],
            max_sched_level: 0,
            epoch: 0,
            divergence: Vec::new(),
            next_divergence: Vec::new(),
            outputs: vec![0; circuit.output_ports().len()],
            input_buf: vec![0; circuit.input_ports().len()],
            cycle: 0,
            gates_evaluated: 0,
        }
    }

    /// Starts a replay at `boundary` with the given flip-flops inverted
    /// relative to the golden state, and resets [`DiffSim::gates_evaluated`].
    ///
    /// # Panics
    ///
    /// Panics if `boundary > trace.num_cycles()`.
    pub fn begin(&mut self, boundary: u64, flips: &[DffId], trace: &GoldenTrace) {
        assert!(
            boundary <= trace.num_cycles(),
            "replay boundary past the golden trace"
        );
        self.cycle = boundary;
        self.divergence.clear();
        self.divergence.extend_from_slice(flips);
        self.divergence.sort_unstable();
        self.divergence.dedup();
        // The outputs the environment observes first are exactly the golden
        // words sampled at the end of the previous cycle (all-zero at reset,
        // matching `CycleSim::new`).
        if boundary == 0 {
            self.outputs.iter_mut().for_each(|w| *w = 0);
        } else {
            self.outputs.copy_from_slice(trace.outputs_at(boundary - 1));
        }
        self.gates_evaluated = 0;
    }

    /// Like [`DiffSim::begin`], but with explicit pending output words: a
    /// faulty run's outputs for the cycle before `boundary` instead of the
    /// golden words. Used by the batch engine to hand over a lane whose
    /// output ports diverged mid-trace.
    ///
    /// # Panics
    ///
    /// Panics if `boundary > trace.num_cycles()` or `outputs` has the wrong
    /// length.
    pub fn begin_with_outputs(
        &mut self,
        boundary: u64,
        flips: &[DffId],
        outputs: &[u64],
        trace: &GoldenTrace,
    ) {
        self.begin(boundary, flips, trace);
        self.outputs.copy_from_slice(outputs);
    }

    /// The current cycle number.
    #[inline]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Flip-flops whose value differs from the golden state at the current
    /// boundary, sorted by id.
    #[inline]
    pub fn divergence(&self) -> &[DffId] {
        &self.divergence
    }

    /// Output port words pending for the environment's next step.
    #[inline]
    pub fn outputs(&self) -> &[u64] {
        &self.outputs
    }

    /// Faulty-cone gate evaluations performed since [`DiffSim::begin`].
    /// Golden-side work is excluded: each trace cycle's golden settle is
    /// computed once per trace and shared by every replay crossing it, so
    /// it amortizes to a single golden run's worth of work.
    #[inline]
    pub fn gates_evaluated(&self) -> u64 {
        self.gates_evaluated
    }

    /// True when the replay has provably re-converged with the golden trace:
    /// the divergence set is empty, `fingerprint` matches the recorded one,
    /// and the pending output words are golden. Equivalent to
    /// [`GoldenTrace::converged_at`] on the materialized state.
    pub fn converged(&self, trace: &GoldenTrace, fingerprint: u64) -> bool {
        self.divergence.is_empty()
            && self.cycle >= 1
            && self.cycle <= trace.num_cycles()
            && trace.fingerprint_at(self.cycle) == fingerprint
            && self.outputs.as_slice() == trace.outputs_at(self.cycle - 1)
    }

    /// Materializes the full flip-flop state at the current boundary: the
    /// golden state with the divergence set inverted.
    pub fn state_bits(&self, trace: &GoldenTrace) -> Vec<bool> {
        let mut state = trace.state_bits_at(self.cycle, self.circuit.num_dffs());
        for &d in &self.divergence {
            state[d.index()] = !state[d.index()];
        }
        state
    }

    /// Executes one clock cycle against `env`, re-evaluating only the
    /// divergence cone.
    ///
    /// # Panics
    ///
    /// Panics if the golden trace provides no baseline for this cycle
    /// (`cycle >= trace.num_cycles()`); callers must fall back to a full
    /// simulator first.
    pub fn step(&mut self, env: &mut impl Environment, trace: &GoldenTrace) {
        assert!(
            self.cycle < trace.num_cycles(),
            "no golden baseline past the end of the trace"
        );
        let circuit = self.circuit;
        self.epoch += 1;
        self.max_sched_level = self.buckets.len();
        let cycle = self.cycle;

        // 1. Environment step: identical observable interaction to a full
        //    `CycleSim::step` (zeroed input buffer, pending outputs).
        self.input_buf.iter_mut().for_each(|w| *w = 0);
        env.step(cycle, &self.outputs, &mut self.input_buf);

        // From here on, `outputs` accumulates this cycle's words: golden with
        // dirty bits patched in as they are discovered.
        self.outputs.copy_from_slice(trace.outputs_at(cycle));

        // 2a. Seed: input bits differing from the golden input words (the
        //     environment may diverge once it has observed faulty outputs).
        let golden_inputs = trace.inputs_at(cycle);
        for (pi, port) in circuit.input_ports().iter().enumerate() {
            let diff = self.input_buf[pi] ^ golden_inputs[pi];
            if diff == 0 {
                continue;
            }
            for (bit, &net) in port.nets().iter().enumerate() {
                if (diff >> bit) & 1 == 1 {
                    let val = (self.input_buf[pi] >> bit) & 1 == 1;
                    self.mark_dirty(net, val, trace);
                }
            }
        }

        // 2b. Seed: Q nets of the diverged flip-flops (faulty = !golden).
        let divergence = std::mem::take(&mut self.divergence);
        let golden_state = trace.state_at(cycle);
        for &d in &divergence {
            let q = circuit.dff(d).q();
            self.mark_dirty(q, !packed_bit(golden_state, d.index()), trace);
        }
        self.divergence = divergence;

        // 3. Levelized cone propagation: each scheduled gate is evaluated
        //    once, after all of its (possibly dirty) fan-in. Clean fan-in
        //    reads come from the trace's shared golden settle of this
        //    cycle (bit `cycle % 64` of each net's block word).
        let plan = self.topo.plan();
        let sh = cycle % 64;
        let golden: &[u64] = if self.max_sched_level < self.buckets.len() {
            trace.golden_block(circuit, self.topo, cycle)
        } else {
            &[]
        };
        let mut level = 0;
        while level <= self.max_sched_level && level < self.buckets.len() {
            while let Some(g) = self.buckets[level].pop() {
                let (kind, ins, out) = plan.op(plan.op_of_gate(g));
                self.gates_evaluated += 1;
                let read = |slot: u32| {
                    let i = slot as usize;
                    if self.faulty_epoch[i] == self.epoch {
                        self.faulty_val[i]
                    } else {
                        (golden[i] >> sh) & 1 == 1
                    }
                };
                let out_val = kind.eval3(read(ins[0]), read(ins[1]), read(ins[2]));
                if out_val != ((golden[out as usize] >> sh) & 1 == 1) {
                    self.mark_dirty(NetId::from_index(out as usize), out_val, trace);
                }
            }
            level += 1;
        }

        // 4. Latch: the next divergence set was collected by `mark_dirty`
        //    from dirty D pins; everything else latches golden.
        self.next_divergence.sort_unstable();
        std::mem::swap(&mut self.divergence, &mut self.next_divergence);
        self.next_divergence.clear();
        self.cycle += 1;
    }

    /// Marks `net` as carrying faulty value `val`, scheduling consumer gates
    /// and recording diverged D pins / output bits. Each net is marked at
    /// most once per cycle.
    fn mark_dirty(&mut self, net: NetId, val: bool, trace: &GoldenTrace) {
        let i = net.index();
        debug_assert_ne!(self.faulty_epoch[i], self.epoch, "net marked dirty twice");
        self.faulty_val[i] = val;
        self.faulty_epoch[i] = self.epoch;
        let topo = self.topo;
        for e in topo.fanouts(net) {
            match e.consumer {
                Consumer::GatePin { gate, .. } => {
                    if self.sched_epoch[gate.index()] != self.epoch {
                        self.sched_epoch[gate.index()] = self.epoch;
                        let level = topo.gate_level(gate) as usize;
                        if self.max_sched_level == self.buckets.len() {
                            self.max_sched_level = level;
                        } else {
                            self.max_sched_level = self.max_sched_level.max(level);
                        }
                        self.buckets[level].push(gate);
                    }
                }
                Consumer::DffD(d) => {
                    let next_golden = packed_bit(trace.state_at(self.cycle + 1), d.index());
                    if val != next_golden {
                        self.next_divergence.push(d);
                    }
                }
                Consumer::OutputBit { port, bit } => {
                    let mask = 1u64 << bit;
                    if val {
                        self.outputs[usize::from(port)] |= mask;
                    } else {
                        self.outputs[usize::from(port)] &= !mask;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::CycleSim;
    use crate::env::ConstEnvironment;
    use crate::trace::pack_bits;
    use delayavf_netlist::{CircuitBuilder, Driver};

    /// A 4-bit counter incrementing by `step` each cycle (divergence
    /// persists) plus a 4-bit input-reload register (divergence heals).
    fn fixture() -> Circuit {
        let mut b = CircuitBuilder::new();
        let step = b.input_word("step", 4);
        let count = b.reg_word("count", 4, 0);
        let next = b.add(&count.q(), &step);
        b.drive_word(&count, &next);
        b.output_word("count", &count.q());
        let reload = b.reg_word("reload", 4, 0);
        b.drive_word(&reload, &step);
        b.output_word("reload", &reload.q());
        b.finish().unwrap()
    }

    fn golden(c: &Circuit, topo: &Topology, cycles: u64) -> GoldenTrace {
        let mut env = ConstEnvironment::new(vec![3]);
        GoldenTrace::record(c, topo, &mut env, cycles, &[]).0
    }

    #[test]
    fn diff_sim_tracks_full_sim_exactly() {
        let c = fixture();
        let topo = Topology::new(&c);
        let trace = golden(&c, &topo, 10);
        let boundary = 2u64;
        let flips: Vec<DffId> = c.dffs().map(|(id, _)| id).take(3).collect();

        let mut full = CycleSim::new(&c, &topo);
        full.restore(
            boundary,
            &trace.state_bits_at(boundary, c.num_dffs()),
            trace.outputs_at(boundary - 1),
        );
        for &f in &flips {
            full.flip_dff(f);
        }
        let mut diff = DiffSim::new(&c, &topo);
        diff.begin(boundary, &flips, &trace);
        assert_eq!(diff.state_bits(&trace), full.state());

        let mut env_full = ConstEnvironment::new(vec![3]);
        let mut env_diff = ConstEnvironment::new(vec![3]);
        while diff.cycle() < trace.num_cycles() {
            full.step(&mut env_full);
            diff.step(&mut env_diff, &trace);
            assert_eq!(diff.cycle(), full.cycle());
            assert_eq!(diff.state_bits(&trace), full.state());
            assert_eq!(diff.outputs(), full.last_outputs());
        }
        assert!(diff.gates_evaluated() > 0);
    }

    #[test]
    fn reload_register_divergence_heals() {
        let c = fixture();
        let topo = Topology::new(&c);
        let trace = golden(&c, &topo, 8);
        // Flip only a reload bit: the register re-latches its input next
        // cycle, so the divergence set empties after one step.
        let reload_bit = c
            .dffs()
            .find(|(_, d)| {
                // Reload DFFs are driven directly by input nets.
                matches!(c.net(d.d()).driver(), Driver::Input(_))
            })
            .map(|(id, _)| id)
            .expect("fixture has an input-driven register");
        let mut diff = DiffSim::new(&c, &topo);
        diff.begin(3, &[reload_bit], &trace);
        let mut env = ConstEnvironment::new(vec![3]);
        diff.step(&mut env, &trace);
        assert!(diff.divergence().is_empty(), "reload overwrites the flip");
        // Outputs of the flipped cycle differ from golden, so convergence is
        // only claimable one clean cycle later.
        assert!(!diff.converged(&trace, env.fingerprint()));
        diff.step(&mut env, &trace);
        assert!(diff.converged(&trace, env.fingerprint()));
        assert_eq!(
            pack_bits(&diff.state_bits(&trace)),
            trace.state_at(diff.cycle())
        );
    }

    #[test]
    fn counter_divergence_persists() {
        let c = fixture();
        let topo = Topology::new(&c);
        let trace = golden(&c, &topo, 8);
        let count_bit = c
            .dffs()
            .find(|(_, d)| matches!(c.net(d.d()).driver(), Driver::Gate(_)))
            .map(|(id, _)| id)
            .expect("fixture has a gate-driven register");
        let mut diff = DiffSim::new(&c, &topo);
        diff.begin(1, &[count_bit], &trace);
        let mut env = ConstEnvironment::new(vec![3]);
        for _ in 1..8 {
            diff.step(&mut env, &trace);
            assert!(
                !diff.divergence().is_empty(),
                "a corrupted counter never re-converges"
            );
        }
    }
}
