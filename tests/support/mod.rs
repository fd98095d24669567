//! A test-side reference for both DelayAVF steps, built only on public APIs
//! and on the plainest simulators: the optimised [`Injector`] must return
//! exactly what this reference computes.
//!
//! * Step 1 (timing-aware): one full [`EventSim`] simulation of the faulty
//!   cycle, its latched values compared with the golden trace's next state.
//! * Step 2 (timing-agnostic): a plain [`CycleSim`] replay from the golden
//!   checkpoint to the end of the program or the DUE budget — no early
//!   exit, no caches, no formal discharge, no batching.
//!
//! [`Injector`]: delayavf::Injector

#![allow(dead_code)]

use delayavf::{FailureClass, GoldenRun, InjectionOutcome};
use delayavf_netlist::{Circuit, DffId, EdgeId, Topology};
use delayavf_sim::{settle, CycleSim, Environment, EventSim, FaultSpec};
use delayavf_timing::{Picos, TimingModel};

/// The reference engine for one circuit and golden run.
pub struct Reference<'a, E: Environment + Clone> {
    circuit: &'a Circuit,
    topo: &'a Topology,
    timing: &'a TimingModel,
    golden: &'a GoldenRun<E>,
    due_slack: u64,
    event: EventSim<'a>,
    replay: CycleSim<'a>,
}

impl<'a, E: Environment + Clone> Reference<'a, E> {
    /// A reference with the given DUE budget (extra cycles past the golden
    /// program length).
    pub fn new(
        circuit: &'a Circuit,
        topo: &'a Topology,
        timing: &'a TimingModel,
        golden: &'a GoldenRun<E>,
        due_slack: u64,
    ) -> Self {
        Reference {
            circuit,
            topo,
            timing,
            golden,
            due_slack,
            event: EventSim::new(circuit, topo, timing),
            replay: CycleSim::new(circuit, topo),
        }
    }

    /// Step 1: the statically reachable count of the fault and the
    /// flip-flops that latch a wrong value in `cycle` (Definition 3).
    pub fn dynamically_reachable(
        &mut self,
        cycle: u64,
        edge: EdgeId,
        extra: Picos,
    ) -> (usize, Vec<DffId>) {
        let trace = &self.golden.trace;
        let n = self.circuit.num_dffs();
        let prev_values = settle(
            self.circuit,
            self.topo,
            &trace.state_bits_at(cycle - 1, n),
            trace.inputs_at(cycle - 1),
        );
        let latched = self.event.latch_cycle(
            &prev_values,
            &trace.state_bits_at(cycle, n),
            trace.inputs_at(cycle),
            Some(FaultSpec { edge, extra }),
        );
        let next = trace.state_bits_at(cycle + 1, n);
        let set = (0..n)
            .filter(|&i| latched[i] != next[i])
            .map(DffId::from_index)
            .collect();
        let reach = self
            .timing
            .statically_reachable_count(self.circuit, self.topo, edge, extra);
        (reach, set)
    }

    /// Step 2: the classification of a run whose flip-flops in `flips` are
    /// inverted at the start of `boundary`.
    pub fn failure(&mut self, boundary: u64, flips: &[DffId]) -> FailureClass {
        let trace = &self.golden.trace;
        let (_, cp) = self
            .golden
            .checkpoints
            .range(..=boundary)
            .next_back()
            .expect("a golden checkpoint at or before the boundary");
        self.replay.restore(cp.cycle, &cp.state, &cp.prev_outputs);
        let mut env = cp.env.clone();
        while self.replay.cycle() < boundary {
            self.replay.step(&mut env);
        }
        for &d in flips {
            self.replay.flip_dff(d);
        }
        let limit = trace.num_cycles() + self.due_slack;
        loop {
            if env.halted() {
                return if env.failed_abnormally() {
                    FailureClass::Due
                } else {
                    self.by_output(&env)
                };
            }
            if self.replay.cycle() >= limit {
                // A golden run that halted makes a still-running faulty run
                // a hang; otherwise only the output can tell.
                return if trace.halted() {
                    FailureClass::Due
                } else {
                    self.by_output(&env)
                };
            }
            self.replay.step(&mut env);
        }
    }

    /// Both steps: the outcome of an extra delay of `extra` on `edge` in
    /// `cycle`, whose error group is classified at boundary `cycle + 1`.
    pub fn inject(&mut self, cycle: u64, edge: EdgeId, extra: Picos) -> InjectionOutcome {
        let (statically_reachable, dynamic_set) = self.dynamically_reachable(cycle, edge, extra);
        let class = if dynamic_set.is_empty() {
            FailureClass::Masked
        } else {
            self.failure(cycle + 1, &dynamic_set)
        };
        InjectionOutcome {
            statically_reachable,
            dynamic_set,
            visible: class.is_visible(),
            class,
        }
    }

    fn by_output(&self, env: &E) -> FailureClass {
        if env.program_output() != self.golden.trace.program_output() {
            FailureClass::Sdc
        } else {
            FailureClass::Masked
        }
    }
}
