//! The production engines against the plain reference in `tests/support`,
//! on the real gate-level core: for every core variant and workload the
//! delay campaign's per-injection outcomes — failure classes included —
//! equal a full event simulation of the faulty cycle followed by a plain
//! cycle-by-cycle replay, and strike-model flips (single bits and adjacent
//! pairs) classify exactly as a plain replay does. The strike campaigns are
//! also thread-count invariant, counters included.

mod support;

use delayavf::{
    delay_avf_campaign_records, savf_campaign_with_stats, savf_per_bit_campaign,
    spatial_double_strike_campaign, valid_cycles, Injector, ReplayOptions,
};
use delayavf_bench::{Harness, Opts, StructureSel};
use delayavf_netlist::DffId;
use delayavf_timing::Picos;
use delayavf_workloads::Kernel;
use support::Reference;

#[test]
fn every_core_variant_and_kernel_matches_the_reference() {
    let mut h = Harness::build();
    let opts = Opts::quick();
    let mut visible = 0;
    for sel in [
        StructureSel::Plain("alu"),
        StructureSel::Ecc("regfile"),
        StructureSel::Fast("alu"),
    ] {
        for kernel in [Kernel::Libfibcall, Kernel::Libstrstr] {
            let variant = h.variant_mut(sel);
            let golden = variant.golden(kernel, &opts);
            let edges = variant.edges(sel.name(), &opts);
            let (row, records) = delay_avf_campaign_records(
                &variant.core.circuit,
                &variant.topo,
                &variant.timing,
                &golden,
                &edges,
                0.9,
                ReplayOptions::new(opts.due_slack, 1),
            );
            let label = format!("{} under {kernel}", sel.label());
            assert_eq!(
                row.injections,
                records.len(),
                "one record per injection, {label}"
            );
            let extra = (variant.timing.clock_period() as f64 * 0.9).round() as Picos;
            let mut reference = Reference::new(
                &variant.core.circuit,
                &variant.topo,
                &variant.timing,
                &golden,
                opts.due_slack,
            );
            visible += row.delay_ace_hits;
            for rec in &records {
                assert_eq!(
                    rec.outcome,
                    reference.inject(rec.cycle, rec.edge, extra),
                    "edge {} at cycle {} for {label}",
                    rec.edge,
                    rec.cycle
                );
            }
        }
    }
    assert!(visible > 0, "some injections must be program-visible");
}

#[test]
fn strike_flips_match_the_reference_and_savf_is_thread_invariant() {
    let mut h = Harness::build();
    let opts = Opts::quick();
    let variant = h.variant_mut(StructureSel::Plain("alu"));
    let golden = variant.golden(Kernel::Libfibcall, &opts);
    let dffs: Vec<DffId> = variant.dffs("lsu", &opts);
    let (circuit, topo, timing) = (&variant.core.circuit, &variant.topo, &variant.timing);

    let run =
        |opts: ReplayOptions| savf_campaign_with_stats(circuit, topo, timing, &golden, &dffs, opts);
    let (one, one_stats) = run(ReplayOptions::new(opts.due_slack, 1));
    let (four, four_stats) = run(ReplayOptions::new(opts.due_slack, 4));
    assert_eq!(one, four, "sAVF result, 1 vs 4 threads");
    assert_eq!(one_stats, four_stats, "sAVF counters, 1 vs 4 threads");
    assert!(one_stats.replays > 0, "the campaign did real work");
    let (scalar, scalar_stats) = run(ReplayOptions::new(opts.due_slack, 1).with_lanes(1));
    assert_eq!(scalar, one, "sAVF result, lanes 1 vs default");
    // At one lane every replay is its own one-lane batch.
    assert_eq!(scalar_stats.lane_slots, scalar_stats.batched_replays);
    assert_eq!(scalar_stats.lanes_occupied, scalar_stats.replays);
    // The batch engine's divergence-cone path does far fewer gate
    // evaluations than a full replay's every-gate-every-cycle schedule.
    let full_work = one_stats.replay_cycles * circuit.num_gates() as u64;
    assert!(
        one_stats.gates_evaluated < full_work / 2,
        "divergence-cone work {} should be well under the full-replay bound {full_work}",
        one_stats.gates_evaluated
    );

    let mut injector = Injector::new(circuit, topo, timing, &golden, opts.due_slack);
    let mut reference = Reference::new(circuit, topo, timing, &golden, opts.due_slack);
    let mut visible = 0;
    for boundary in valid_cycles(&golden) {
        for &d in &dffs {
            let want = reference.failure(boundary, &[d]);
            assert_eq!(
                injector.group_failure(boundary, &[d]),
                want,
                "bit {d} flipped at boundary {boundary}"
            );
            visible += usize::from(want.is_visible());
        }
    }
    assert!(visible > 0, "some strikes must be program-visible");
}

#[test]
fn double_strikes_match_the_reference_and_strike_campaigns_are_thread_invariant() {
    let mut h = Harness::build();
    let opts = Opts::quick();
    let variant = h.variant_mut(StructureSel::Plain("alu"));
    let golden = variant.golden(Kernel::Libstrstr, &opts);
    let dffs: Vec<DffId> = variant.dffs("control", &opts);
    let (circuit, topo, timing) = (&variant.core.circuit, &variant.topo, &variant.timing);

    let per_bit = |threads| {
        savf_per_bit_campaign(
            circuit,
            topo,
            timing,
            &golden,
            &dffs,
            ReplayOptions::new(opts.due_slack, threads),
        )
    };
    assert_eq!(per_bit(1), per_bit(4), "per-bit sAVF, 1 vs 4 threads");
    let spatial = |threads| {
        spatial_double_strike_campaign(
            circuit,
            topo,
            timing,
            &golden,
            &dffs,
            ReplayOptions::new(opts.due_slack, threads),
        )
    };
    assert_eq!(spatial(1), spatial(4), "double-strike sAVF, 1 vs 4 threads");

    let mut injector = Injector::new(circuit, topo, timing, &golden, opts.due_slack);
    let mut reference = Reference::new(circuit, topo, timing, &golden, opts.due_slack);
    let cycles = valid_cycles(&golden);
    assert!(!cycles.is_empty());
    for boundary in cycles {
        for pair in dffs.windows(2) {
            assert_eq!(
                injector.group_failure(boundary, pair),
                reference.failure(boundary, pair),
                "bits {pair:?} flipped at boundary {boundary}"
            );
        }
    }
}
