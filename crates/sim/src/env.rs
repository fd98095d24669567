//! The environment abstraction: everything outside the netlist.
//!
//! Memories, MMIO devices and testbench stimulus live behind the
//! [`Environment`] trait. The simulator hands the environment the sampled
//! primary-output port values of the previous cycle and receives this
//! cycle's primary-input port values — a registered, one-cycle-latency
//! interface that matches how the studied cores talk to their memories.

/// A cycle-level environment for a circuit.
///
/// Port values are exchanged as one `u64` per port, in the circuit's port
/// declaration order, least-significant bit first (ports wider than 64 bits
/// are not supported by the simulators in this crate).
///
/// Implementations must be deterministic: the input sequence may only depend
/// on the environment's own state and the output values it has observed.
/// This is what makes checkpoint/replay-based fault injection exact.
///
/// `Send + Sync` is a supertrait so the sharded campaign engine can share a
/// golden run (which stores environment checkpoints) across worker threads;
/// each worker clones the checkpointed environment it replays from.
pub trait Environment: Send + Sync {
    /// Produces the primary-input values for `cycle`.
    ///
    /// `prev_outputs` holds the settled primary-output port values sampled
    /// at the end of cycle `cycle - 1` (all zeros for cycle 0). `inputs`
    /// has one slot per input port and is pre-zeroed.
    ///
    /// Side effects belong here too: an environment typically decodes a
    /// memory command issued by the core in the previous cycle, performs the
    /// write or read, and presents read data in `inputs`.
    fn step(&mut self, cycle: u64, prev_outputs: &[u64], inputs: &mut [u64]);

    /// Whether the program running on the circuit has signaled completion
    /// (e.g. through an exit MMIO write observed in `step`).
    fn halted(&self) -> bool {
        false
    }

    /// True when the program stopped *abnormally* (trap, breakpoint, crash)
    /// rather than completing with a normal exit. Fault campaigns use this
    /// to classify program-visible failures as detected unrecoverable
    /// errors (DUE) instead of silent data corruptions (SDC).
    fn failed_abnormally(&self) -> bool {
        false
    }

    /// A cheap order-sensitive digest of all externally visible side effects
    /// so far (e.g. memory/MMIO write history).
    ///
    /// Fault campaigns compare fingerprints against the golden trace to
    /// detect that a faulty run has re-converged; two runs with identical
    /// state *and* fingerprint at the same cycle will behave identically
    /// from then on. The default (constant 0) is only appropriate for
    /// environments without state that outlives a cycle.
    fn fingerprint(&self) -> u64 {
        0
    }

    /// The program-visible output produced so far (console bytes, exit
    /// status, result buffers — serialized in any stable form).
    ///
    /// Two executions differ in a program-visible way exactly when their
    /// final `program_output` differs or when one fails to halt.
    fn program_output(&self) -> Vec<u8> {
        Vec::new()
    }
}

/// An environment that drives every input port with fixed values and never
/// halts. Useful for unit tests and for circuits without memory traffic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConstEnvironment {
    values: Vec<u64>,
}

impl ConstEnvironment {
    /// Creates an environment driving the given per-port values (in port
    /// declaration order; missing trailing ports read zero).
    pub fn new(values: Vec<u64>) -> Self {
        ConstEnvironment { values }
    }
}

impl Environment for ConstEnvironment {
    fn step(&mut self, _cycle: u64, _prev_outputs: &[u64], inputs: &mut [u64]) {
        for (slot, &v) in inputs.iter_mut().zip(&self.values) {
            *slot = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_environment_repeats_values() {
        let mut env = ConstEnvironment::new(vec![3, 9]);
        let mut inputs = vec![0u64; 3];
        env.step(0, &[], &mut inputs);
        assert_eq!(inputs, vec![3, 9, 0]);
        assert!(!env.halted());
        assert_eq!(env.fingerprint(), 0);
        assert!(env.program_output().is_empty());
    }
}
