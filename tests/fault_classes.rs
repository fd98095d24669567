//! SDC vs DUE classification (paper §II-A): a program-visible failure is
//! either a *silent data corruption* (wrong output, normal completion) or a
//! *detected unrecoverable error* (crash/trap/hang). Both are demonstrated
//! deterministically on the gate-level core.

use delayavf::{FailureClass, GoldenRun, Injector};
use delayavf_isa::assemble;
use delayavf_netlist::Topology;
use delayavf_rvcore::{build_core, CoreConfig, MemEnv, DEFAULT_RAM_BYTES};
use delayavf_sim::GoldenTrace;
use delayavf_timing::{TechLibrary, TimingModel};

#[test]
fn corrupted_data_is_sdc_and_forced_halt_is_due() {
    let core = build_core(CoreConfig::default());
    let c = &core.circuit;
    let topo = Topology::new(c);
    let timing = TimingModel::analyze(c, &topo, &TechLibrary::nangate45_like());
    let program = assemble(
        r#"
        li   a0, 100
        li   a1, 23
        add  a2, a0, a1
        li   t0, 0x10004
        sw   a2, 0(t0)
        ebreak
        "#,
    )
    .expect("assembles");
    let env = MemEnv::new(c, DEFAULT_RAM_BYTES, &program);

    // Checkpoint the cycle right after a2 (x12) is written.
    let trace = GoldenTrace::record(c, &topo, &mut env.clone(), 200);
    let x12 = core.handle.regfile.storage(12);
    let nd = c.num_dffs();
    let boundary = (1..trace.num_cycles())
        .find(|&cy| {
            let a = trace.state_bits_at(cy, nd);
            let b = trace.state_bits_at(cy + 1, nd);
            x12.iter().any(|d| a[d.index()] != b[d.index()])
        })
        .expect("x12 written")
        + 1;
    let cps = trace.checkpoints(&env, &[boundary]);
    let golden = GoldenRun {
        trace,
        checkpoints: cps.into_iter().map(|cp| (cp.cycle, cp)).collect(),
        sampled_cycles: vec![boundary],
    };
    let mut inj = Injector::new(c, &topo, &timing, &golden, 200);

    // Flipping a bit of the exit value: the program completes normally but
    // prints the wrong code — a silent data corruption.
    let victim = x12[3]; // bit 3 of a2: 123 ^ 8 = 115, still a clean exit
    assert_eq!(
        inj.group_failure(boundary, &[victim]),
        FailureClass::Sdc,
        "wrong exit code with normal completion"
    );

    // Flipping the sticky halt flag: the core stops as if it hit EBREAK
    // before writing the exit code — a detected unrecoverable error.
    let halt_flag = c
        .dffs()
        .find(|(_, d)| d.name() == "control/halt_flag")
        .expect("halt flag exists")
        .0;
    assert_eq!(
        inj.group_failure(boundary, &[halt_flag]),
        FailureClass::Due,
        "abnormal termination without output corruption"
    );

    // And a harmless flip (a register the program never reads again).
    let x9 = core.handle.regfile.storage(9)[0];
    assert_eq!(
        inj.group_failure(boundary, &[x9]),
        FailureClass::Masked,
        "dead-register flips are architecturally masked"
    );
}
