//! Observation 5 / Figure 11 walk-through: protections that defeat particle
//! strikes may not defeat small delay faults.
//!
//! The example builds the studied core twice — with and without the
//! Hamming(38,32) single-error-correcting register file — and contrasts:
//!
//! 1. **Particle strikes** into the register-file storage: the ECC variant
//!    corrects every single-bit flip on read, driving its sAVF to zero.
//! 2. **A small delay fault** on the register write-enable path: one fault
//!    delays the enable of all 38 codeword bits at once, producing a
//!    multi-bit error that SEC ECC miscorrects — a program-visible failure
//!    that no individual bit flip would cause (ACE compounding).
//!
//! Run with: `cargo run --release --example ecc_wordline`

use delayavf::{GoldenRun, Injector};
use delayavf_isa::assemble;
use delayavf_netlist::{Driver, Topology};
use delayavf_rvcore::{build_core, CoreConfig, MemEnv, DEFAULT_RAM_BYTES};
use delayavf_sim::GoldenTrace;
use delayavf_timing::{TechLibrary, TimingModel};

fn main() {
    let program = assemble(
        r#"
        li   a0, 0x5a5
        li   a1, 0x2da
        add  a2, a0, a1      # the observed write
        xor  a3, a2, a0
        li   t0, 0x10004
        sw   a3, 0(t0)
        ebreak
        "#,
    )
    .expect("assembles");

    for ecc in [false, true] {
        let core = build_core(CoreConfig {
            ecc_regfile: ecc,
            ..CoreConfig::default()
        });
        let c = &core.circuit;
        let topo = Topology::new(c);
        let timing = TimingModel::analyze(c, &topo, &TechLibrary::nangate45_like());
        let env = MemEnv::new(c, DEFAULT_RAM_BYTES, &program);

        // Find the cycle writing a2 (x12) and checkpoint it.
        let trace = GoldenTrace::record(c, &topo, &mut env.clone(), 200);
        let x12 = core.handle.regfile.storage(12);
        let nd = c.num_dffs();
        let write_cycle = (1..trace.num_cycles())
            .find(|&cy| {
                let a = trace.state_bits_at(cy, nd);
                let b = trace.state_bits_at(cy + 1, nd);
                x12.iter().any(|d| a[d.index()] != b[d.index()])
            })
            .expect("x12 written");
        let cps = trace.checkpoints(&env, &[write_cycle]);
        let golden = GoldenRun {
            trace,
            checkpoints: cps.into_iter().map(|cp| (cp.cycle, cp)).collect(),
            sampled_cycles: vec![write_cycle],
        };
        let mut inj = Injector::new(c, &topo, &timing, &golden, 200);

        println!(
            "\n== register file {} ==",
            if ecc { "WITH SEC ECC" } else { "without ECC" }
        );

        // 1. Particle strikes into x12's storage bits at the write boundary.
        let struck_ace = x12
            .iter()
            .filter(|&&d| inj.bit_ace(write_cycle + 1, d))
            .count();
        println!(
            "particle strikes: {}/{} storage bit flips are ACE",
            struck_ace,
            x12.len()
        );

        // 2. A small delay fault on the write-enable AND gate's inputs.
        let mux_gate = match c.net(c.dff(x12[0]).d()).driver() {
            Driver::Gate(g) => g,
            _ => unreachable!("hold mux"),
        };
        let sel_net = c.gate(mux_gate).inputs()[0];
        let and_gate = match c.net(sel_net).driver() {
            Driver::Gate(g) => g,
            _ => unreachable!("enable AND"),
        };
        for e in topo.gate_in_edges(and_gate) {
            let out = inj.inject(write_cycle, e, timing.clock_period());
            if out.dynamic_set.is_empty() {
                continue;
            }
            println!(
                "delay fault on enable edge {e}: {} simultaneous state-element errors, program-visible: {}",
                out.dynamic_set.len(),
                out.visible
            );
        }
    }
    println!(
        "\nTakeaway: ECC zeroes the particle-strike AVF but the delay fault\n\
         still defeats it through a multi-bit codeword error (Observation 5)."
    );
}
