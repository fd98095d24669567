//! Golden-run preparation: reference trace, checkpoints at the sampled
//! injection cycles.
//!
//! Every entry point simulates the program at gate level exactly once: it
//! records the trace, takes N from it, samples the injection cycles, and
//! derives their checkpoints from the trace by stepping the environment
//! alone along the recorded ports ([`GoldenTrace::checkpoints`]).

use std::collections::BTreeMap;

use delayavf_netlist::{Circuit, Topology};
use delayavf_sim::{Checkpoint, Environment, GoldenTrace};

use crate::sampling::{percent_to_count, stratified_cycles};

/// A prepared fault-free reference execution: the golden trace plus
/// checkpoints at every sampled injection cycle. Shared by all structures
/// and delay durations for one (core, benchmark) pair.
#[derive(Clone, Debug)]
pub struct GoldenRun<E> {
    /// The recorded reference execution.
    pub trace: GoldenTrace,
    /// Checkpoints keyed by cycle.
    pub checkpoints: BTreeMap<u64, Checkpoint<E>>,
    /// The sampled injection cycles (each has a checkpoint).
    pub sampled_cycles: Vec<u64>,
}

/// Records the golden execution of `env` and checkpoints `cycle_samples`
/// stratified-random injection cycles (seeded, deterministic).
///
/// # Panics
///
/// Panics if the program executes no cycles.
pub fn prepare_golden<E: Environment + Clone>(
    circuit: &Circuit,
    topo: &Topology,
    env: &E,
    max_cycles: u64,
    cycle_samples: usize,
) -> GoldenRun<E> {
    prepare_golden_seeded(circuit, topo, env, max_cycles, cycle_samples, 0x5eed)
}

/// [`prepare_golden`] sampling a *percentage* of the program's cycles, as
/// the paper's artifact configures it (`percent_sampled_cycles_delay`).
///
/// # Panics
///
/// Panics if the program executes no cycles.
pub fn prepare_golden_percent<E: Environment + Clone>(
    circuit: &Circuit,
    topo: &Topology,
    env: &E,
    max_cycles: u64,
    percent: f64,
    seed: u64,
) -> GoldenRun<E> {
    prepare(circuit, topo, env, max_cycles, seed, |n| {
        percent_to_count(n, percent)
    })
}

/// [`prepare_golden`] with an explicit sampling seed.
///
/// # Panics
///
/// Panics if the program executes no cycles.
pub fn prepare_golden_seeded<E: Environment + Clone>(
    circuit: &Circuit,
    topo: &Topology,
    env: &E,
    max_cycles: u64,
    cycle_samples: usize,
    seed: u64,
) -> GoldenRun<E> {
    prepare(circuit, topo, env, max_cycles, seed, |_| cycle_samples)
}

/// The shared body: one recording, then `samples(N)` stratified cycles and
/// their derived checkpoints.
fn prepare<E: Environment + Clone>(
    circuit: &Circuit,
    topo: &Topology,
    env: &E,
    max_cycles: u64,
    seed: u64,
    samples: impl FnOnce(u64) -> usize,
) -> GoldenRun<E> {
    // The one gate-level pass.
    let trace = GoldenTrace::record(circuit, topo, &mut env.clone(), max_cycles);
    let n = trace.num_cycles();
    assert!(n > 0, "program executed no cycles");

    // No second pass: the checkpoints replay the environment alone.
    let sampled_cycles = stratified_cycles(n, samples(n), seed);
    let checkpoints: BTreeMap<u64, Checkpoint<E>> = trace
        .checkpoints(env, &sampled_cycles)
        .into_iter()
        .map(|cp| (cp.cycle, cp))
        .collect();
    debug_assert!(sampled_cycles.iter().all(|c| checkpoints.contains_key(c)));
    GoldenRun {
        trace,
        checkpoints,
        sampled_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delayavf_netlist::CircuitBuilder;
    use delayavf_sim::ConstEnvironment;

    #[test]
    fn prepares_checkpoints_for_all_samples() {
        let mut b = CircuitBuilder::new();
        let step = b.input_word("step", 4);
        let count = b.reg_word("count", 4, 0);
        let next = b.add(&count.q(), &step);
        b.drive_word(&count, &next);
        b.output_word("count", &count.q());
        let c = b.finish().unwrap();
        let topo = Topology::new(&c);
        let env = ConstEnvironment::new(vec![1]);
        let g = prepare_golden(&c, &topo, &env, 50, 5);
        assert_eq!(g.trace.num_cycles(), 50);
        assert_eq!(g.sampled_cycles.len(), 5);
        for cyc in &g.sampled_cycles {
            let cp = &g.checkpoints[cyc];
            assert_eq!(cp.cycle, *cyc);
        }
    }
}
