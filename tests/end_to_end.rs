//! Cross-crate integration: the full DelayAVF pipeline on the gate-level
//! core with a real workload.

use delayavf::{
    delay_avf_campaign, prepare_golden_seeded, sample_edges, savf_campaign,
    spatial_double_strike_campaign, CampaignConfig, ReplayOptions,
};
use delayavf_netlist::Topology;
use delayavf_rvcore::{Core, CoreConfig, MemEnv, DEFAULT_RAM_BYTES};
use delayavf_timing::{TechLibrary, TimingModel};
use delayavf_workloads::{Kernel, Scale};

struct Setup {
    core: Core,
    topo: Topology,
    timing: TimingModel,
    golden: delayavf::GoldenRun<MemEnv>,
}

fn setup(kernel: Kernel, cycles: usize, seed: u64) -> Setup {
    let core = delayavf_rvcore::build_core(CoreConfig::default());
    let topo = Topology::new(&core.circuit);
    let timing = TimingModel::analyze(&core.circuit, &topo, &TechLibrary::nangate45_like());
    let w = kernel.build(Scale::Tiny);
    let p = w.assemble().expect("workload assembles");
    let env = MemEnv::new(&core.circuit, DEFAULT_RAM_BYTES, &p);
    let golden = prepare_golden_seeded(&core.circuit, &topo, &env, w.max_cycles, cycles, seed);
    assert!(golden.trace.halted(), "tiny workload halts");
    Setup {
        core,
        topo,
        timing,
        golden,
    }
}

#[test]
fn campaign_invariants_hold_on_the_real_core() {
    let s = setup(Kernel::Libstrstr, 8, 3);
    let edges_all = s
        .topo
        .structure_edges(&s.core.circuit, "alu")
        .expect("alu tagged");
    let edges = sample_edges(&edges_all, 50, 3);
    let config = CampaignConfig {
        delay_fractions: vec![0.1, 0.5, 0.9],
        compute_orace: false,
        due_slack: 500,
        threads: 0,
        lanes: 64,
        timing_lanes: 64,
        collapse: true,
        ci_target: None,
        strata: 4,
        sample_seed: 7,
    };
    let rows = delay_avf_campaign(
        &s.core.circuit,
        &s.topo,
        &s.timing,
        &s.golden,
        &edges,
        &config,
    );
    assert_eq!(rows.len(), 3);
    for r in &rows {
        assert!(r.injections > 0);
        assert!(r.static_hits <= r.injections);
        assert!(r.dynamic_hits <= r.static_hits, "{r}");
        assert!(r.delay_ace_hits <= r.dynamic_hits, "{r}");
        assert!(r.multi_bit_hits <= r.dynamic_hits);
    }
    // Static reachability grows with the delay duration.
    assert!(rows[0].static_fraction() <= rows[1].static_fraction());
    assert!(rows[1].static_fraction() <= rows[2].static_fraction());
    // At 10% of the clock almost nothing in the ALU is reachable (Fig. 8).
    assert!(rows[0].static_fraction() < 0.5);
    // At 90% most ALU paths are reachable.
    assert!(rows[2].static_fraction() > 0.5);
}

#[test]
fn campaigns_are_deterministic() {
    let run = || {
        let s = setup(Kernel::Libfibcall, 6, 11);
        let edges = sample_edges(
            &s.topo.structure_edges(&s.core.circuit, "decoder").unwrap(),
            40,
            11,
        );
        delay_avf_campaign(
            &s.core.circuit,
            &s.topo,
            &s.timing,
            &s.golden,
            &edges,
            &CampaignConfig::single_delay(0.9),
        )
    };
    assert_eq!(run(), run(), "same seed, same results");
}

#[test]
fn savf_on_the_lsu_is_bounded_and_deterministic() {
    let s = setup(Kernel::Libstrstr, 6, 5);
    let lsu = s.core.circuit.structure("lsu").unwrap();
    let dffs: Vec<_> = lsu.dffs().iter().copied().take(24).collect();
    let a = savf_campaign(
        &s.core.circuit,
        &s.topo,
        &s.timing,
        &s.golden,
        &dffs,
        ReplayOptions::new(500, 1),
    );
    assert_eq!(a.injections, dffs.len() * s.golden.sampled_cycles.len());
    assert!(a.savf() <= 1.0);
    let b = savf_campaign(
        &s.core.circuit,
        &s.topo,
        &s.timing,
        &s.golden,
        &dffs,
        ReplayOptions::new(500, 2),
    );
    assert_eq!(a, b, "two workers reproduce the serial result exactly");
}

#[test]
fn ecc_register_file_suppresses_single_strike_avf() {
    // Observation 5's baseline: single-bit strikes into ECC-protected
    // storage are corrected on read, so their sAVF is exactly zero.
    let core = delayavf_rvcore::build_core(CoreConfig {
        ecc_regfile: true,
        ..CoreConfig::default()
    });
    let topo = Topology::new(&core.circuit);
    let timing = TimingModel::analyze(&core.circuit, &topo, &TechLibrary::nangate45_like());
    let w = Kernel::Bubblesort.build(Scale::Tiny);
    let p = w.assemble().unwrap();
    let env = MemEnv::new(&core.circuit, DEFAULT_RAM_BYTES, &p);
    let golden = prepare_golden_seeded(&core.circuit, &topo, &env, w.max_cycles, 6, 2);
    let rf = core.circuit.structure("regfile").unwrap();
    let dffs: Vec<_> = rf.dffs().iter().copied().step_by(9).take(40).collect();
    let r = savf_campaign(
        &core.circuit,
        &topo,
        &timing,
        &golden,
        &dffs,
        ReplayOptions::new(500, 0),
    );
    assert_eq!(r.ace_hits, 0, "SEC ECC corrects every single-bit strike");

    // The unprotected register file is *not* immune.
    let core2 = delayavf_rvcore::build_core(CoreConfig {
        ecc_regfile: false,
        ..CoreConfig::default()
    });
    let topo2 = Topology::new(&core2.circuit);
    let timing2 = TimingModel::analyze(&core2.circuit, &topo2, &TechLibrary::nangate45_like());
    let env2 = MemEnv::new(&core2.circuit, DEFAULT_RAM_BYTES, &p);
    let golden2 = prepare_golden_seeded(&core2.circuit, &topo2, &env2, w.max_cycles, 6, 2);
    let rf2 = core2.circuit.structure("regfile").unwrap();
    let dffs2: Vec<_> = rf2.dffs().to_vec();
    let r2 = savf_campaign(
        &core2.circuit,
        &topo2,
        &timing2,
        &golden2,
        &dffs2,
        ReplayOptions::new(500, 0),
    );
    assert!(
        r2.ace_hits > 0,
        "unprotected register file has non-zero sAVF ({r2})"
    );
}

#[test]
fn adjacent_double_strikes_defeat_ecc_where_single_strikes_cannot() {
    // The spatial multi-bit model (Wilkening et al., paper §VIII): two
    // physically adjacent storage bits flip at once. SEC ECC corrects any
    // single flip but mis-corrects double flips, so the double-strike AVF
    // of the ECC register file is non-zero even though its single-strike
    // sAVF is exactly zero.
    let core = delayavf_rvcore::build_core(CoreConfig {
        ecc_regfile: true,
        ..CoreConfig::default()
    });
    let topo = Topology::new(&core.circuit);
    let timing = TimingModel::analyze(&core.circuit, &topo, &TechLibrary::nangate45_like());
    let w = Kernel::Bubblesort.build(Scale::Tiny);
    let p = w.assemble().unwrap();
    let env = MemEnv::new(&core.circuit, DEFAULT_RAM_BYTES, &p);
    let golden = prepare_golden_seeded(&core.circuit, &topo, &env, w.max_cycles, 6, 4);
    // Bits of a handful of architectural registers, in storage order.
    let mut dffs = Vec::new();
    for reg in [10usize, 11, 12, 13, 14] {
        dffs.extend(core.handle.regfile.storage(reg));
    }
    let opts = ReplayOptions::new(500, 0);
    let single = savf_campaign(&core.circuit, &topo, &timing, &golden, &dffs, opts);
    let double =
        spatial_double_strike_campaign(&core.circuit, &topo, &timing, &golden, &dffs, opts);
    assert_eq!(single.ace_hits, 0, "SEC corrects every single strike");
    assert!(
        double.ace_hits > 0,
        "adjacent double strikes mis-correct and become visible ({double})"
    );
}

#[test]
fn section_5c_prefilters_retain_fidelity() {
    // The paper claims its §V-C optimizations "retain fidelity". Check the
    // toggle pre-filter on the real core: with and without it, every
    // injection yields the same dynamically reachable set.
    // Register-file edges are the interesting case: storage nets only
    // toggle when their register is written, so the filter fires often.
    let s = setup(Kernel::Libfibcall, 5, 13);
    let edges = sample_edges(
        &s.topo.structure_edges(&s.core.circuit, "regfile").unwrap(),
        80,
        13,
    );
    let extra = s.timing.clock_period() * 9 / 10;
    let mut with = delayavf::Injector::new(&s.core.circuit, &s.topo, &s.timing, &s.golden, 500);
    let mut without = delayavf::Injector::new(&s.core.circuit, &s.topo, &s.timing, &s.golden, 500);
    // Collapse off on both sides: its quiet-source certificate subsumes the
    // toggle filter's savings, and this test isolates the toggle filter.
    with.set_collapse(false);
    without.set_collapse(false);
    without.set_toggle_filter(false);
    for &cycle in &s.golden.sampled_cycles {
        if cycle + 1 >= s.golden.trace.num_cycles() {
            continue;
        }
        for &e in &edges {
            let a = with.dynamically_reachable(cycle, e, extra);
            let b = without.dynamically_reachable(cycle, e, extra);
            assert_eq!(a, b, "edge {e} cycle {cycle}");
        }
    }
    assert!(
        with.stats.toggle_filtered > 0,
        "the filter actually fired ({:?})",
        with.stats
    );
    assert!(
        with.stats.event_sims < without.stats.event_sims,
        "and actually saved timing-aware simulations"
    );
}
