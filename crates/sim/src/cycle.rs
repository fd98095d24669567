//! The timing-agnostic cycle-accurate simulator.

use delayavf_netlist::{Circuit, DffId, Topology};

use crate::env::Environment;

/// Why a [`CycleSim::run`] stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// The environment reported the program halted.
    Halted,
    /// The cycle limit was reached without a halt.
    MaxCycles,
}

/// Result of a [`CycleSim::run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunSummary {
    /// The cycle counter after the run (number of executed cycles when
    /// starting from reset).
    pub end_cycle: u64,
    /// Why the run stopped.
    pub reason: StopReason,
}

/// Writes per-port input words into the flat net-value table.
pub(crate) fn write_input_nets(circuit: &Circuit, port_values: &[u64], values: &mut [bool]) {
    debug_assert_eq!(port_values.len(), circuit.input_ports().len());
    for (port, &word) in circuit.input_ports().iter().zip(port_values) {
        for (bit, &net) in port.nets().iter().enumerate() {
            values[net.index()] = (word >> bit) & 1 == 1;
        }
    }
}

/// Samples per-port output words from the flat net-value table.
pub(crate) fn sample_output_ports(circuit: &Circuit, values: &[bool], out: &mut [u64]) {
    for (slot, port) in out.iter_mut().zip(circuit.output_ports()) {
        *slot = port
            .nets()
            .iter()
            .enumerate()
            .fold(0u64, |acc, (bit, &net)| {
                acc | (u64::from(values[net.index()]) << bit)
            });
    }
}

/// Settles the combinational logic for one cycle and returns the full
/// net-value table.
///
/// `state` holds one value per flip-flop (the cycle's Q outputs) and
/// `input_ports` one word per input port. This is the zero-delay fixpoint the
/// timing-aware simulator's results are compared against, and is also used to
/// reconstruct the pre-fault signal values of a cycle from a
/// [`crate::GoldenTrace`].
///
/// # Panics
///
/// Panics if `state` or `input_ports` have the wrong length.
pub fn settle(
    circuit: &Circuit,
    topo: &Topology,
    state: &[bool],
    input_ports: &[u64],
) -> Vec<bool> {
    assert_eq!(state.len(), circuit.num_dffs(), "state width mismatch");
    assert_eq!(
        input_ports.len(),
        circuit.input_ports().len(),
        "input port count mismatch"
    );
    let mut values = vec![false; circuit.num_nets()];
    topo.seed_consts(&mut values);
    settle_in_place(circuit, topo, state, input_ports, &mut values);
    values
}

/// Settles into an existing buffer whose constant nets are already set.
fn settle_in_place(
    circuit: &Circuit,
    topo: &Topology,
    state: &[bool],
    input_ports: &[u64],
    values: &mut [bool],
) {
    write_input_nets(circuit, input_ports, values);
    let plan = topo.plan();
    for (&q, &s) in plan.dff_q().iter().zip(state) {
        values[q as usize] = s;
    }
    plan.settle(values);
}

/// A timing-agnostic cycle-accurate simulator (the paper's "timing-agnostic
/// stage").
///
/// Each [`CycleSim::step`]:
///
/// 1. asks the [`Environment`] for this cycle's input port words, handing it
///    the output words sampled at the end of the previous cycle;
/// 2. settles the combinational logic in topological order;
/// 3. samples the output ports;
/// 4. latches every flip-flop's D value, advancing the cycle counter.
///
/// State-element errors are injected by calling [`CycleSim::flip_dff`]
/// between steps — exactly the paper's model of errors appearing at a cycle
/// boundary.
#[derive(Clone, Debug)]
pub struct CycleSim<'c> {
    circuit: &'c Circuit,
    topo: &'c Topology,
    state: Vec<bool>,
    values: Vec<bool>,
    prev_outputs: Vec<u64>,
    input_buf: Vec<u64>,
    last_inputs: Vec<u64>,
    cycle: u64,
}

impl<'c> CycleSim<'c> {
    /// Creates a simulator at reset: cycle 0, flip-flops at their power-on
    /// values, previous outputs all zero.
    pub fn new(circuit: &'c Circuit, topo: &'c Topology) -> Self {
        let mut values = vec![false; circuit.num_nets()];
        topo.seed_consts(&mut values);
        CycleSim {
            circuit,
            topo,
            state: circuit.initial_state(),
            values,
            prev_outputs: vec![0; circuit.output_ports().len()],
            input_buf: vec![0; circuit.input_ports().len()],
            last_inputs: vec![0; circuit.input_ports().len()],
            cycle: 0,
        }
    }

    /// The current cycle number (number of completed cycles).
    #[inline]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Current flip-flop state, indexed by raw [`DffId`].
    #[inline]
    pub fn state(&self) -> &[bool] {
        &self.state
    }

    /// The settled net values of the most recently executed cycle.
    #[inline]
    pub fn net_values(&self) -> &[bool] {
        &self.values
    }

    /// Output port words sampled at the end of the most recent cycle.
    #[inline]
    pub fn last_outputs(&self) -> &[u64] {
        &self.prev_outputs
    }

    /// Input port words used by the most recent cycle.
    #[inline]
    pub fn last_inputs(&self) -> &[u64] {
        &self.last_inputs
    }

    /// Inverts the stored value of one flip-flop (a state-element error).
    pub fn flip_dff(&mut self, dff: DffId) {
        self.state[dff.index()] = !self.state[dff.index()];
    }

    /// Overwrites the stored value of one flip-flop.
    pub fn set_dff(&mut self, dff: DffId, value: bool) {
        self.state[dff.index()] = value;
    }

    /// Restores the simulator to an arbitrary point: cycle number, state and
    /// the outputs the environment will observe on the next step.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths do not match the circuit.
    pub fn restore(&mut self, cycle: u64, state: &[bool], prev_outputs: &[u64]) {
        assert_eq!(state.len(), self.state.len(), "state width mismatch");
        assert_eq!(
            prev_outputs.len(),
            self.prev_outputs.len(),
            "output port count mismatch"
        );
        self.cycle = cycle;
        self.state.copy_from_slice(state);
        self.prev_outputs.copy_from_slice(prev_outputs);
    }

    /// Executes one clock cycle against `env`.
    pub fn step(&mut self, env: &mut impl Environment) {
        self.input_buf.iter_mut().for_each(|v| *v = 0);
        env.step(self.cycle, &self.prev_outputs, &mut self.input_buf);
        self.last_inputs.copy_from_slice(&self.input_buf);
        settle_in_place(
            self.circuit,
            self.topo,
            &self.state,
            &self.input_buf,
            &mut self.values,
        );
        sample_output_ports(self.circuit, &self.values, &mut self.prev_outputs);
        for (slot, &d) in self.state.iter_mut().zip(self.topo.plan().dff_d()) {
            *slot = self.values[d as usize];
        }
        self.cycle += 1;
    }

    /// Runs until the environment halts or `max_cycles` total cycles have
    /// been executed.
    pub fn run(&mut self, env: &mut impl Environment, max_cycles: u64) -> RunSummary {
        while self.cycle < max_cycles {
            if env.halted() {
                return RunSummary {
                    end_cycle: self.cycle,
                    reason: StopReason::Halted,
                };
            }
            self.step(env);
        }
        let reason = if env.halted() {
            StopReason::Halted
        } else {
            StopReason::MaxCycles
        };
        RunSummary {
            end_cycle: self.cycle,
            reason,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::ConstEnvironment;
    use delayavf_netlist::CircuitBuilder;

    /// A 4-bit counter that increments by `step` each cycle.
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
    fn counter_counts() {
        let c = counter();
        let topo = Topology::new(&c);
        let mut sim = CycleSim::new(&c, &topo);
        let mut env = ConstEnvironment::new(vec![3]);
        for expected in [0u64, 3, 6, 9, 12, 15, 2] {
            sim.step(&mut env);
            assert_eq!(sim.last_outputs()[0], expected, "registered output");
        }
        assert_eq!(sim.cycle(), 7);
    }

    #[test]
    fn flip_dff_perturbs_state() {
        let c = counter();
        let topo = Topology::new(&c);
        let mut sim = CycleSim::new(&c, &topo);
        let mut env = ConstEnvironment::new(vec![1]);
        sim.step(&mut env);
        sim.step(&mut env); // state = 2
        let dff0 = c.dffs().next().unwrap().0;
        sim.flip_dff(dff0); // state = 3
        sim.step(&mut env);
        assert_eq!(sim.last_outputs()[0], 3);
    }

    #[test]
    fn restore_rewinds_execution() {
        let c = counter();
        let topo = Topology::new(&c);
        let mut sim = CycleSim::new(&c, &topo);
        let mut env = ConstEnvironment::new(vec![2]);
        for _ in 0..3 {
            sim.step(&mut env);
        }
        let saved_state = sim.state().to_vec();
        let saved_out = sim.last_outputs().to_vec();
        let saved_cycle = sim.cycle();
        for _ in 0..4 {
            sim.step(&mut env);
        }
        let later = sim.last_outputs()[0];
        sim.restore(saved_cycle, &saved_state, &saved_out);
        for _ in 0..4 {
            sim.step(&mut env);
        }
        assert_eq!(sim.last_outputs()[0], later, "replay is deterministic");
    }

    #[test]
    fn run_stops_at_max_cycles() {
        let c = counter();
        let topo = Topology::new(&c);
        let mut sim = CycleSim::new(&c, &topo);
        let mut env = ConstEnvironment::new(vec![1]);
        let summary = sim.run(&mut env, 10);
        assert_eq!(summary.end_cycle, 10);
        assert_eq!(summary.reason, StopReason::MaxCycles);
    }

    #[test]
    fn settle_matches_step_values() {
        let c = counter();
        let topo = Topology::new(&c);
        let mut sim = CycleSim::new(&c, &topo);
        let mut env = ConstEnvironment::new(vec![5]);
        sim.step(&mut env);
        sim.step(&mut env);
        // Reconstruct the second cycle's settled values from its start state.
        let start_state = vec![true, false, true, false]; // 5 = 0101 LSB-first
        let values = settle(&c, &topo, &start_state, &[5]);
        assert_eq!(&values[..], sim.net_values());
    }

    #[test]
    fn halting_environment_stops_run() {
        struct CountingEnv {
            left: u64,
        }
        impl Environment for CountingEnv {
            fn step(&mut self, _c: u64, _o: &[u64], _i: &mut [u64]) {
                self.left = self.left.saturating_sub(1);
            }
            fn halted(&self) -> bool {
                self.left == 0
            }
        }
        let c = counter();
        let topo = Topology::new(&c);
        let mut sim = CycleSim::new(&c, &topo);
        let mut env = CountingEnv { left: 4 };
        let summary = sim.run(&mut env, 100);
        assert_eq!(summary.reason, StopReason::Halted);
        assert_eq!(summary.end_cycle, 4);
    }
}
