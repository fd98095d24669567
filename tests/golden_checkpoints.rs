//! Golden checkpoints are derived from one recorded trace by replaying the
//! environment alone along the recorded ports. On the real gate-level
//! cores, every derived checkpoint equals one taken by stepping the
//! simulator from reset, resumes to the recorded trajectory, and each
//! `prepare_golden_*` call simulates its program at gate level once.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use delayavf::{prepare_golden_percent, prepare_golden_seeded, stratified_cycles};
use delayavf_netlist::{Circuit, Topology};
use delayavf_rvcore::{build_core, CoreConfig, MemEnv, DEFAULT_RAM_BYTES};
use delayavf_sim::{pack_bits, Checkpoint, CycleSim, Environment, GoldenTrace};
use delayavf_workloads::{Kernel, Scale};

/// Cycles each resumed checkpoint is stepped and compared.
const RESUME_STEPS: u64 = 24;

fn cores() -> [(&'static str, CoreConfig); 2] {
    [
        ("plain", CoreConfig::default()),
        (
            "ecc",
            CoreConfig {
                ecc_regfile: true,
                ..CoreConfig::default()
            },
        ),
    ]
}

fn env_for(circuit: &Circuit, kernel: Kernel) -> (MemEnv, u64) {
    let w = kernel.build(Scale::Tiny);
    let p = w.assemble().expect("workload assembles");
    (MemEnv::new(circuit, DEFAULT_RAM_BYTES, &p), w.max_cycles)
}

/// Checkpoints at `cycles` (ascending, distinct) taken the direct way:
/// step the gate-level simulator from reset and clone the environment
/// before each requested cycle's step.
fn stepped_checkpoints(
    circuit: &Circuit,
    topo: &Topology,
    env: &MemEnv,
    cycles: &[u64],
) -> Vec<Checkpoint<MemEnv>> {
    let mut sim = CycleSim::new(circuit, topo);
    let mut env = env.clone();
    cycles
        .iter()
        .map(|&cycle| {
            while sim.cycle() < cycle {
                sim.step(&mut env);
            }
            Checkpoint {
                cycle,
                state: sim.state().to_vec(),
                prev_outputs: sim.last_outputs().to_vec(),
                env: env.clone(),
            }
        })
        .collect()
}

/// Checks the checkpoints `trace` derives at `asked` against stepped ones,
/// and resumes each for up to [`RESUME_STEPS`] cycles against the trace.
fn check_derived(
    what: &str,
    circuit: &Circuit,
    topo: &Topology,
    env: &MemEnv,
    trace: &GoldenTrace,
    asked: &[u64],
) {
    let n = trace.num_cycles();
    let mut kept: Vec<u64> = asked.iter().copied().filter(|&c| c < n).collect();
    kept.sort_unstable();
    kept.dedup();
    let derived = trace.checkpoints(env, asked);
    let cycles: Vec<u64> = derived.iter().map(|cp| cp.cycle).collect();
    assert_eq!(cycles, kept, "{what}: cycles at or past N are ignored");
    let want = stepped_checkpoints(circuit, topo, env, &kept);
    for (got, want) in derived.iter().zip(&want) {
        let at = format!("{what} @ cycle {}", got.cycle);
        assert_eq!(got.state, want.state, "{at}: state");
        assert_eq!(got.prev_outputs, want.prev_outputs, "{at}: prev_outputs");
        assert_eq!(
            got.env.fingerprint(),
            want.env.fingerprint(),
            "{at}: environment fingerprint"
        );
        assert_eq!(
            got.env.program_output(),
            want.env.program_output(),
            "{at}: program output"
        );
        assert_eq!(got.env.halted(), want.env.halted(), "{at}: halted");

        let mut sim = CycleSim::new(circuit, topo);
        sim.restore(got.cycle, &got.state, &got.prev_outputs);
        let mut resumed = got.env.clone();
        while sim.cycle() < (got.cycle + RESUME_STEPS).min(n) {
            sim.step(&mut resumed);
            let done = sim.cycle() - 1;
            assert_eq!(sim.last_outputs(), trace.outputs_at(done), "{at}: outputs");
            assert_eq!(
                pack_bits(sim.state()),
                trace.state_at(sim.cycle()),
                "{at}: state after {} steps",
                sim.cycle() - got.cycle
            );
        }
    }
}

#[test]
fn derived_checkpoints_match_stepped_ones_on_every_kernel_and_core() {
    for (name, config) in cores() {
        let core = build_core(config);
        let c = &core.circuit;
        let topo = Topology::new(c);
        for kernel in Kernel::ALL {
            let (env, max_cycles) = env_for(c, kernel);
            let trace = GoldenTrace::record(c, &topo, &mut env.clone(), max_cycles);
            assert!(trace.halted(), "{name}/{kernel} halts");
            let n = trace.num_cycles();
            let mut asked = stratified_cycles(n, 6, 7);
            // Reset, the first and last cycles, a repeat, and cycles at and
            // past N, which are ignored.
            asked.extend([0, 1, n / 2, n / 2, n - 1, n, n + 7]);
            check_derived(&format!("{name}/{kernel}"), c, &topo, &env, &trace, &asked);
        }
    }
}

#[test]
fn checkpoints_of_a_run_cut_at_max_cycles_match_stepped_ones() {
    let core = build_core(CoreConfig::default());
    let c = &core.circuit;
    let topo = Topology::new(c);
    let (env, _) = env_for(c, Kernel::Libfibcall);
    let full = GoldenTrace::record(c, &topo, &mut env.clone(), u64::MAX);
    let cut = full.num_cycles() / 2;
    let trace = GoldenTrace::record(c, &topo, &mut env.clone(), cut);
    assert!(!trace.halted(), "the cut run has not halted");
    assert_eq!(trace.num_cycles(), cut);
    check_derived(
        "cut libfibcall",
        c,
        &topo,
        &env,
        &trace,
        &[0, cut / 3, cut - 1, cut],
    );
}

/// An environment counting every `step` made on it or any of its clones.
#[derive(Clone)]
struct Counting {
    inner: MemEnv,
    steps: Arc<AtomicU64>,
}

impl Environment for Counting {
    fn step(&mut self, cycle: u64, prev_outputs: &[u64], inputs: &mut [u64]) {
        self.steps.fetch_add(1, Ordering::Relaxed);
        self.inner.step(cycle, prev_outputs, inputs);
    }

    fn halted(&self) -> bool {
        self.inner.halted()
    }

    fn failed_abnormally(&self) -> bool {
        self.inner.failed_abnormally()
    }

    fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }

    fn program_output(&self) -> Vec<u8> {
        self.inner.program_output()
    }
}

/// One gate-level pass per preparation: N environment steps to record, and
/// at most one more per cycle up to the largest sampled one to derive the
/// checkpoints.
#[test]
fn golden_preparation_simulates_the_program_once() {
    let core = build_core(CoreConfig::default());
    let c = &core.circuit;
    let topo = Topology::new(c);
    let (inner, max_cycles) = env_for(c, Kernel::Md5);
    let steps = Arc::new(AtomicU64::new(0));
    let env = Counting {
        inner,
        steps: Arc::clone(&steps),
    };
    let seeded = prepare_golden_seeded(c, &topo, &env, max_cycles, 12, 7);
    let percent = prepare_golden_percent(c, &topo, &env, max_cycles, 2.0, 7);
    let taken = steps.load(Ordering::Relaxed);
    let mut bound = 0;
    for (what, golden) in [("seeded", &seeded), ("percent", &percent)] {
        let n = golden.trace.num_cycles();
        let last = *golden.sampled_cycles.iter().max().expect("sampled cycles");
        assert!(n > 0 && last < n, "{what}");
        assert_eq!(golden.checkpoints.len(), golden.sampled_cycles.len());
        bound += n + last;
    }
    assert!(
        taken <= bound,
        "{taken} environment steps for two preparations, at most {bound} allowed"
    );
}
