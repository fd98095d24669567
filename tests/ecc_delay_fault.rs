//! The paper's Figure 11 / Observation 5 mechanism, reproduced
//! deterministically: single-error-correcting ECC drives the register
//! file's particle-strike AVF to zero, yet a *single* small delay fault on
//! the write-enable path produces a multi-bit codeword error that defeats
//! the correction — and even exhibits **ACE compounding** (no individual
//! bit is ACE, the group is).

use delayavf::{GoldenRun, Injector};
use delayavf_isa::assemble;
use delayavf_netlist::{Driver, EdgeId, Topology};
use delayavf_rvcore::{build_core, CoreConfig, MemEnv, DEFAULT_RAM_BYTES};
use delayavf_sim::{Environment, GoldenTrace};
use delayavf_timing::{TechLibrary, TimingModel};

#[test]
fn delay_fault_on_write_enable_defeats_ecc() {
    let core = build_core(CoreConfig {
        ecc_regfile: true,
        ..CoreConfig::default()
    });
    let c = &core.circuit;
    let topo = Topology::new(c);
    let timing = TimingModel::analyze(c, &topo, &TechLibrary::nangate45_like());

    // a2 (x12) receives a fresh many-bit value, which is then consumed and
    // exported, so corrupting the write is program-visible.
    let program = assemble(
        r#"
        li   a0, 0x5a5
        li   a1, 0x2da
        add  a2, a0, a1
        xor  a3, a2, a0
        li   t0, 0x10004
        sw   a3, 0(t0)
        ebreak
        "#,
    )
    .expect("assembles");
    let env = MemEnv::new(c, DEFAULT_RAM_BYTES, &program);

    // Find the cycle in which x12's storage is written.
    let mut probe_env = env.clone();
    let trace = GoldenTrace::record(c, &topo, &mut probe_env, 200);
    assert!(probe_env.halted());
    let x12 = core.handle.regfile.storage(12);
    let nd = c.num_dffs();
    let write_cycle = (1..trace.num_cycles())
        .find(|&cy| {
            let a = trace.state_bits_at(cy, nd);
            let b = trace.state_bits_at(cy + 1, nd);
            x12.iter().any(|d| a[d.index()] != b[d.index()])
        })
        .expect("x12 is written during the program");

    // Derive a checkpoint at the write cycle.
    let cps = trace.checkpoints(&env, &[write_cycle]);
    let golden = GoldenRun {
        trace,
        checkpoints: cps.into_iter().map(|cp| (cp.cycle, cp)).collect(),
        sampled_cycles: vec![write_cycle],
    };

    // Locate the write-enable path for x12: the hold mux of bit 0 selects
    // between held value and write data; its select net is driven by the
    // per-register enable AND gate. Delaying an *input edge of that AND*
    // delays the enable seen by all 38 codeword bits at once.
    let bit0 = x12[0];
    let mux_gate = match c.net(c.dff(bit0).d()).driver() {
        Driver::Gate(g) => g,
        other => panic!("hold mux expected, got {other:?}"),
    };
    let sel_net = c.gate(mux_gate).inputs()[0];
    let and_gate = match c.net(sel_net).driver() {
        Driver::Gate(g) => g,
        other => panic!("enable AND expected, got {other:?}"),
    };
    let enable_edges: Vec<EdgeId> = topo.gate_in_edges(and_gate).collect();
    assert_eq!(enable_edges.len(), 2, "and(one-hot, we)");

    let mut inj = Injector::new(c, &topo, &timing, &golden, 200);
    let extra = timing.clock_period(); // a full-period delay: enable never fires
    let mut demonstrated = false;
    for e in enable_edges {
        let outcome = inj.inject(write_cycle, e, extra);
        if outcome.dynamic_set.is_empty() {
            continue;
        }
        // The whole register write is suppressed: every toggling codeword
        // bit errs simultaneously.
        assert!(
            outcome.is_multi_bit(),
            "enable-path fault produces a multi-bit codeword error"
        );
        assert!(
            outcome.visible,
            "ECC cannot correct the multi-bit error: program-visible (Observation 5)"
        );
        // ACE compounding (Table III, regfile ECC): no single bit of the
        // set is individually ACE — each lone flip would be corrected.
        let or = inj.or_ace(write_cycle + 1, &outcome.dynamic_set);
        assert!(!or, "every individual bit is corrected by SEC ECC");
        demonstrated = true;
    }
    assert!(demonstrated, "at least one enable edge carries the fault");
}
