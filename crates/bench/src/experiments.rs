//! The experiment implementations, one per table/figure of the paper.

use std::fmt::Write as _;

use delayavf::{
    geometric_mean_floored, render_table, CampaignConfig, DelayAvfResult, NormalizedSeries,
};
use delayavf_netlist::StructureStats;
use delayavf_rvcore::{MemEnv, DEFAULT_RAM_BYTES};
use delayavf_sim::CycleSim;
use delayavf_timing::PathHistogram;
use delayavf_workloads::Kernel;

use crate::harness::{run_delay_campaign, run_savf_campaign, Harness, Opts, StructureSel};

/// A finished experiment: identifier, headline and rendered report.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// Short id (`table1`, `fig7`, ...).
    pub id: &'static str,
    /// Human headline.
    pub title: String,
    /// Rendered plain-text report.
    pub report: String,
}

impl std::fmt::Display for Experiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "=== {} — {} ===", self.id, self.title)?;
        f.write_str(&self.report)
    }
}

/// The delay fractions swept by the figure experiments (the paper's
/// 10%–90%).
pub const DELAY_FRACTIONS: [f64; 9] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];

const PAPER_STRUCTS: [StructureSel; 6] = [
    StructureSel::Plain("alu"),
    StructureSel::Plain("decoder"),
    StructureSel::Plain("regfile"),
    StructureSel::Ecc("regfile"),
    StructureSel::Plain("lsu"),
    StructureSel::Plain("prefetch"),
];

/// Checkpoint/telemetry label of one campaign. Content-addressed by
/// everything that varies between the repro experiments (structure, kernel,
/// fraction sweep, ORACE), so experiments that re-run the *same* campaign
/// (e.g. fig7 and multibit on the ALU) share one checkpoint file — the
/// fingerprint inside the file guarantees that sharing is sound.
fn campaign_label(
    prefix: &str,
    sel: StructureSel,
    kernel: Kernel,
    fractions: &[f64],
    orace: bool,
) -> String {
    let mut label = format!("{prefix}-{}-{}", sel.label(), kernel);
    for f in fractions {
        let _ = write!(label, "-d{:.0}", 100.0 * f);
    }
    if orace {
        label.push_str("-orace");
    }
    label
}

/// Runs (and caches inside the harness via the golden runs) a full DelayAVF
/// sweep for one structure × kernel.
fn sweep(
    h: &mut Harness,
    sel: StructureSel,
    kernel: Kernel,
    opts: &Opts,
    orace: bool,
    fractions: &[f64],
) -> Result<Vec<DelayAvfResult>, String> {
    let obs = h.obs.clone();
    let label = campaign_label("davf", sel, kernel, fractions, orace);
    let variant = h.variant_mut(sel);
    let golden = variant.golden(kernel, opts);
    let edges = variant.edges(sel.name(), opts);
    let config = CampaignConfig {
        delay_fractions: fractions.to_vec(),
        compute_orace: orace,
        due_slack: opts.due_slack,
        threads: opts.threads,
        ci_target: opts.ci_target,
        strata: opts.strata,
        sample_seed: opts.seed,
    };
    Ok(run_delay_campaign(
        &obs,
        &label,
        &variant.core.circuit,
        &variant.topo,
        &variant.timing,
        &golden,
        &edges,
        &config,
    )?
    .0)
}

/// **Table I** — sizes of the examined structures (the paper's "# injected
/// wires (E)").
pub fn table1(h: &mut Harness) -> Result<Experiment, String> {
    // Paper's Ibex wire counts, for side-by-side shape comparison.
    let paper: [(&str, u64); 6] = [
        ("alu", 3668),
        ("decoder", 1007),
        ("regfile", 17816),
        ("regfile (ECC)", 19611),
        ("lsu", 2027),
        ("prefetch", 3249),
    ];
    let mut rows = Vec::new();
    for (sel, (_, paper_wires)) in PAPER_STRUCTS.into_iter().zip(paper) {
        let v = h.variant_mut(sel);
        let stats = StructureStats::collect(&v.core.circuit, &v.topo, sel.name())
            .expect("structure exists");
        rows.push(vec![
            sel.label(),
            stats.edges.to_string(),
            stats.gates.to_string(),
            stats.dffs.to_string(),
            paper_wires.to_string(),
        ]);
    }
    Ok(Experiment {
        id: "table1",
        title: "statistics about the examined structures".into(),
        report: render_table(
            &[
                "structure",
                "# injected wires (E)",
                "gates",
                "dffs",
                "paper (Ibex)",
            ],
            &rows,
        ),
    })
}

/// **Table II** — executed cycles per benchmark on the gate-level core.
pub fn table2(h: &mut Harness, opts: &Opts) -> Result<Experiment, String> {
    let paper: [u64; 5] = [1720, 3829, 1051, 2448, 8903];
    let mut rows = Vec::new();
    for (kernel, paper_cycles) in Kernel::ALL.into_iter().zip(paper) {
        let w = kernel.build(opts.scale);
        let p = w.assemble().expect("workload assembles");
        let v = &h.plain;
        let mut env = MemEnv::new(&v.core.circuit, DEFAULT_RAM_BYTES, &p);
        let mut sim = CycleSim::new(&v.core.circuit, &v.topo);
        let summary = sim.run(&mut env, w.max_cycles);
        assert_eq!(
            env.exit_code(),
            Some(w.expected_exit),
            "{kernel} exits with its reference value"
        );
        rows.push(vec![
            kernel.name().to_owned(),
            summary.end_cycle.to_string(),
            paper_cycles.to_string(),
        ]);
    }
    Ok(Experiment {
        id: "table2",
        title: "number of cycles executed per benchmark".into(),
        report: render_table(&["benchmark", "# cycles (N)", "paper (Ibex)"], &rows),
    })
}

/// **Figure 6** — path length distributions per structure.
pub fn fig6(h: &mut Harness) -> Result<Experiment, String> {
    let bins = 10;
    let mut report = String::new();
    let mut rows = Vec::new();
    for sel in PAPER_STRUCTS {
        let v = h.variant_mut(sel);
        let edges = v
            .topo
            .structure_edges(&v.core.circuit, sel.name())
            .expect("structure exists");
        let hist = PathHistogram::from_edges(&v.core.circuit, &v.topo, &v.timing, &edges, bins);
        rows.push(vec![
            sel.label(),
            format!("{:.1}%", 100.0 * hist.fraction_at_least(0.5)),
            format!("{:.1}%", 100.0 * hist.fraction_at_least(0.75)),
            format!("{:.1}%", 100.0 * hist.fraction_at_least(0.9)),
        ]);
        let _ = writeln!(
            report,
            "\n[{}] clock = {} ps",
            sel.label(),
            hist.clock_period()
        );
        report.push_str(&hist.to_string());
    }
    let summary = render_table(
        &["structure", "paths ≥50% clk", "≥75% clk", "≥90% clk"],
        &rows,
    );
    Ok(Experiment {
        id: "fig6",
        title: "path length distributions for different structures".into(),
        report: format!("{summary}{report}"),
    })
}

/// **Figure 7** — normalized geomean DelayAVF across benchmarks for the
/// ALU, decoder and register file, as a function of the delay duration.
pub fn fig7(h: &mut Harness, opts: &Opts) -> Result<Experiment, String> {
    let structs = [
        StructureSel::Plain("alu"),
        StructureSel::Plain("decoder"),
        StructureSel::Plain("regfile"),
    ];
    let mut series = Vec::new();
    for sel in structs {
        // Geomean across benchmarks per delay fraction, floored at the
        // sampling resolution (half a hit) so unobserved cells do not
        // collapse the product.
        let mut per_kernel: Vec<Vec<f64>> = Vec::new();
        let mut floor = 1e-9;
        for kernel in Kernel::ALL {
            let rows = sweep(h, sel, kernel, opts, false, &DELAY_FRACTIONS)?;
            floor = 0.5 / rows[0].injections.max(1) as f64;
            per_kernel.push(rows.iter().map(DelayAvfResult::delay_avf).collect());
        }
        let geo: Vec<f64> = (0..DELAY_FRACTIONS.len())
            .map(|i| {
                geometric_mean_floored(&per_kernel.iter().map(|k| k[i]).collect::<Vec<_>>(), floor)
            })
            .collect();
        series.push(NormalizedSeries::new(sel.label(), geo));
    }
    Ok(Experiment {
        id: "fig7",
        title: "normalized geomean DelayAVF across structures".into(),
        report: render_series_table(&series),
    })
}

/// **Figure 8** — component breakdown (static reach, dynamic reach,
/// GroupACE) for (ALU, libstrstr), (regfile, libstrstr), (ALU, md5).
pub fn fig8(h: &mut Harness, opts: &Opts) -> Result<Experiment, String> {
    let cases = [
        (StructureSel::Plain("alu"), Kernel::Libstrstr),
        (StructureSel::Plain("regfile"), Kernel::Libstrstr),
        (StructureSel::Plain("alu"), Kernel::Md5),
    ];
    let mut report = String::new();
    for (sel, kernel) in cases {
        let rows = sweep(h, sel, kernel, opts, false, &DELAY_FRACTIONS)?;
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    format!("{:.0}%", 100.0 * r.delay_fraction),
                    format!("{:.2}%", 100.0 * r.static_fraction()),
                    format!("{:.2}%", 100.0 * r.dynamic_fraction()),
                    format!("{:.2}%", 100.0 * r.delay_avf()),
                ]
            })
            .collect();
        let _ = writeln!(report, "\n[{} / {}]", sel.label(), kernel);
        report.push_str(&render_table(
            &["d", "static reach", "dynamic reach", "GroupACE"],
            &table,
        ));
    }
    Ok(Experiment {
        id: "fig8",
        title: "DelayAVF components for selected structures and benchmarks".into(),
        report,
    })
}

/// **Figure 9** — per-benchmark normalized DelayAVF of the ALU.
pub fn fig9(h: &mut Harness, opts: &Opts) -> Result<Experiment, String> {
    let sel = StructureSel::Plain("alu");
    let mut series = Vec::new();
    for kernel in Kernel::ALL {
        let rows = sweep(h, sel, kernel, opts, false, &DELAY_FRACTIONS)?;
        series.push(NormalizedSeries::new(
            kernel.name(),
            rows.iter().map(DelayAvfResult::delay_avf).collect(),
        ));
    }
    Ok(Experiment {
        id: "fig9",
        title: "normalized DelayAVF of the ALU across benchmarks".into(),
        report: render_series_table(&series),
    })
}

/// **Figure 10** — sAVF vs DelayAVF for the stateful structures (geomean
/// across benchmarks, both normalized to their own maxima).
pub fn fig10(h: &mut Harness, opts: &Opts) -> Result<Experiment, String> {
    let structs = [
        StructureSel::Plain("regfile"),
        StructureSel::Ecc("regfile"),
        StructureSel::Plain("lsu"),
        StructureSel::Plain("prefetch"),
    ];
    // DelayAVF evaluated at d = 90%, where error-producing SDFs are dense
    // enough for stable statistics on stateful structures.
    let davf_fraction = [0.9];
    let mut labels = Vec::new();
    let mut savf_geo = Vec::new();
    let mut davf_geo = Vec::new();
    for sel in structs {
        let mut savfs = Vec::new();
        let mut davfs = Vec::new();
        for kernel in Kernel::ALL {
            let davf = sweep(h, sel, kernel, opts, false, &davf_fraction)?[0].delay_avf();
            let obs = h.obs.clone();
            let label = format!("savf-{}-{}", sel.label(), kernel);
            let variant = h.variant_mut(sel);
            let golden = variant.golden(kernel, opts);
            let dffs = variant.dffs(sel.name(), opts);
            let savf = run_savf_campaign(
                &obs,
                &label,
                &variant.core.circuit,
                &variant.topo,
                &variant.timing,
                &golden,
                &dffs,
                opts.replay_options(),
            )?
            .0
            .savf();
            savfs.push(savf);
            davfs.push(davf);
        }
        labels.push(sel.label());
        savf_geo.push(geometric_mean_floored(&savfs, 1e-6));
        davf_geo.push(geometric_mean_floored(&davfs, 1e-6));
    }
    let savf_max = savf_geo.iter().copied().fold(0.0f64, f64::max);
    let davf_max = davf_geo.iter().copied().fold(0.0f64, f64::max);
    let rows: Vec<Vec<String>> = labels
        .iter()
        .zip(savf_geo.iter().zip(&davf_geo))
        .map(|(label, (&s, &d))| {
            vec![
                label.clone(),
                format!("{:.4}", s),
                format!("{:.3}", if savf_max > 0.0 { s / savf_max } else { 0.0 }),
                format!("{:.5}", d),
                format!("{:.3}", if davf_max > 0.0 { d / davf_max } else { 0.0 }),
            ]
        })
        .collect();
    Ok(Experiment {
        id: "fig10",
        title: "geomean sAVF vs DelayAVF for stateful structures".into(),
        report: render_table(
            &[
                "structure",
                "sAVF",
                "sAVF (norm)",
                "DelayAVF@90%",
                "DelayAVF (norm)",
            ],
            &rows,
        ),
    })
}

/// **Table III** — ACE interference / compounding and the OrDelayAVF
/// approximation error at d = 90%.
pub fn table3(h: &mut Harness, opts: &Opts) -> Result<Experiment, String> {
    let structs = [
        StructureSel::Plain("alu"),
        StructureSel::Plain("decoder"),
        StructureSel::Plain("regfile"),
        StructureSel::Ecc("regfile"),
    ];
    let mut rows = Vec::new();
    for sel in structs {
        let mut interference = Vec::new();
        let mut compounding = Vec::new();
        let mut rel_change = Vec::new();
        for kernel in Kernel::ALL {
            let r = &sweep(h, sel, kernel, opts, true, &[0.9])?[0];
            interference.push(r.interference_pct().unwrap_or(0.0));
            compounding.push(r.compounding_pct().unwrap_or(0.0));
            rel_change.push(r.or_relative_change_pct().unwrap_or(0.0));
        }
        let maxavg = |v: &[f64]| {
            (
                v.iter().copied().fold(0.0f64, f64::max),
                v.iter().sum::<f64>() / v.len() as f64,
            )
        };
        let (i_max, i_avg) = maxavg(&interference);
        let (c_max, c_avg) = maxavg(&compounding);
        let (r_max, r_avg) = maxavg(&rel_change);
        rows.push(vec![
            sel.label(),
            format!("{i_max:.2}"),
            format!("{i_avg:.2}"),
            format!("{c_max:.2}"),
            format!("{c_avg:.2}"),
            format!("{r_max:.2}"),
            format!("{r_avg:.2}"),
        ]);
    }
    Ok(Experiment {
        id: "table3",
        title: "ACE interference/compounding and DelayAVF→OrDelayAVF change (%) at d=90%".into(),
        report: render_table(
            &[
                "structure",
                "max int %",
                "avg int %",
                "max comp %",
                "avg comp %",
                "max Δrel %",
                "avg Δrel %",
            ],
            &rows,
        ),
    })
}

/// **Multi-bit statistics** — the prose result of §VI-B: the fraction of
/// error-producing SDFs whose dynamically reachable set is multi-bit,
/// aggregated over structures and benchmarks per delay duration.
pub fn multibit(h: &mut Harness, opts: &Opts) -> Result<Experiment, String> {
    let structs = [
        StructureSel::Plain("alu"),
        StructureSel::Plain("decoder"),
        StructureSel::Plain("regfile"),
    ];
    let mut multi = vec![0usize; DELAY_FRACTIONS.len()];
    let mut dynamic = vec![0usize; DELAY_FRACTIONS.len()];
    for sel in structs {
        for kernel in Kernel::ALL {
            let rows = sweep(h, sel, kernel, opts, false, &DELAY_FRACTIONS)?;
            for (i, r) in rows.iter().enumerate() {
                multi[i] += r.multi_bit_hits;
                dynamic[i] += r.dynamic_hits;
            }
        }
    }
    let rows: Vec<Vec<String>> = DELAY_FRACTIONS
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let pct = if dynamic[i] == 0 {
                0.0
            } else {
                100.0 * multi[i] as f64 / dynamic[i] as f64
            };
            vec![
                format!("{:.0}%", 100.0 * d),
                dynamic[i].to_string(),
                multi[i].to_string(),
                format!("{pct:.1}%"),
            ]
        })
        .collect();
    Ok(Experiment {
        id: "multibit",
        title: "fraction of state-element errors that are multi-bit".into(),
        report: render_table(
            &["d", "error-producing SDFs", "multi-bit", "% multi-bit"],
            &rows,
        ),
    })
}

/// **Guardband ablation** (extension) — DelayAVF of the ALU as the clock
/// period is stretched beyond the critical path. Timing guardbands are the
/// canonical circuit-level mitigation for small delay faults: extra slack
/// absorbs a larger `d` before any path misses the latch deadline.
pub fn guardband(h: &mut Harness, opts: &Opts) -> Result<Experiment, String> {
    use delayavf::Injector;
    let sel = StructureSel::Plain("alu");
    let kernel = Kernel::Libstrstr;
    let variant = h.variant_mut(sel);
    let golden = variant.golden(kernel, opts);
    let edges = variant.edges(sel.name(), opts);
    // The *absolute* delay is fixed at 60% of the unguarded clock; the
    // guardband then eats into it.
    let extra = (variant.timing.clock_period() as f64 * 0.6) as u64;
    let mut rows = Vec::new();
    for margin in [0.0, 10.0, 20.0, 30.0, 50.0] {
        let timing = variant.timing.with_guardband(margin);
        let mut inj = Injector::new(
            &variant.core.circuit,
            &variant.topo,
            &timing,
            &golden,
            opts.due_slack,
        );
        let (mut injections, mut dynamic, mut ace) = (0usize, 0usize, 0usize);
        for &cycle in &golden.sampled_cycles {
            if cycle + 1 >= golden.trace.num_cycles() {
                continue;
            }
            for &e in &edges {
                let out = inj.inject(cycle, e, extra);
                injections += 1;
                if !out.dynamic_set.is_empty() {
                    dynamic += 1;
                }
                if out.visible {
                    ace += 1;
                }
            }
        }
        rows.push(vec![
            format!("{margin:.0}%"),
            timing.clock_period().to_string(),
            format!("{:.3}%", 100.0 * dynamic as f64 / injections.max(1) as f64),
            format!("{:.3}%", 100.0 * ace as f64 / injections.max(1) as f64),
        ]);
    }
    Ok(Experiment {
        id: "guardband",
        title: "mitigation ablation: clock guardband vs DelayAVF (ALU, libstrstr, fixed 60%-of-clock SDF)"
            .into(),
        report: render_table(&["guardband", "clock (ps)", "dynamic reach", "DelayAVF"], &rows),
    })
}

/// **Adder ablation** (extension) — how the ALU's DelayAVF profile shifts
/// when the ripple-carry adder is replaced by a Kogge–Stone
/// parallel-prefix adder. The prefix adder flattens the path-length
/// distribution (Fig. 6's lever), which moves static reachability and
/// DelayAVF.
pub fn fastadder(h: &mut Harness, opts: &Opts) -> Result<Experiment, String> {
    let kernel = Kernel::Md5;
    let fractions = [0.3, 0.6, 0.9];
    let mut report = String::new();
    let mut rows = Vec::new();
    for sel in [StructureSel::Plain("alu"), StructureSel::Fast("alu")] {
        let (clock, frac75) = {
            let v = h.variant_mut(sel);
            let edges = v
                .topo
                .structure_edges(&v.core.circuit, "alu")
                .expect("alu tagged");
            let hist = PathHistogram::from_edges(&v.core.circuit, &v.topo, &v.timing, &edges, 10);
            (v.timing.clock_period(), hist.fraction_at_least(0.75))
        };
        let sweep_rows = sweep(h, sel, kernel, opts, false, &fractions)?;
        let mut row = vec![
            sel.label(),
            clock.to_string(),
            format!("{:.1}%", 100.0 * frac75),
        ];
        for r in &sweep_rows {
            row.push(format!("{:.4}%", 100.0 * r.delay_avf()));
        }
        rows.push(row);
    }
    let _ = writeln!(
        report,
        "{}",
        render_table(
            &[
                "ALU variant",
                "clock (ps)",
                "ALU paths ≥75% clk",
                "DelayAVF d=30%",
                "d=60%",
                "d=90%",
            ],
            &rows,
        )
    );
    Ok(Experiment {
        id: "fastadder",
        title: "microarchitectural ablation: ripple-carry vs Kogge–Stone ALU adder (md5)".into(),
        report,
    })
}

/// **Sampling variance** (extension) — the same (structure, benchmark, d)
/// cell measured under several sampling seeds, with Wilson bounds. Shows
/// how much of a statistically-sampled DelayAVF is noise at the configured
/// density, the caveat any statistical fault-injection result must carry.
pub fn variance(h: &mut Harness, opts: &Opts) -> Result<Experiment, String> {
    let sel = StructureSel::Plain("alu");
    let kernel = Kernel::Bubblesort;
    let mut rows = Vec::new();
    for k in 0..3u64 {
        let seeded = Opts {
            seed: opts.seed + 1000 * k,
            ..opts.clone()
        };
        let obs = h.obs.clone();
        // The seed changes the golden trace, so it must be part of the
        // label — otherwise the three runs would collide on one checkpoint
        // file and trip its fingerprint check.
        let label = format!("davf-variance-{}-{}-s{}", sel.label(), kernel, seeded.seed);
        let variant = h.variant_mut(sel);
        let golden = variant.golden(kernel, &seeded);
        let edges = variant.edges(sel.name(), &seeded);
        let r = &run_delay_campaign(
            &obs,
            &label,
            &variant.core.circuit,
            &variant.topo,
            &variant.timing,
            &golden,
            &edges,
            &CampaignConfig {
                delay_fractions: vec![0.8],
                compute_orace: false,
                due_slack: seeded.due_slack,
                threads: seeded.threads,
                ci_target: seeded.ci_target,
                strata: seeded.strata,
                sample_seed: seeded.seed,
            },
        )?
        .0[0];
        let (lo, hi) = r.delay_avf_interval();
        rows.push(vec![
            seeded.seed.to_string(),
            r.injections.to_string(),
            format!("{:.5}", r.delay_avf()),
            format!("[{lo:.5}, {hi:.5}]"),
        ]);
    }
    Ok(Experiment {
        id: "variance",
        title: "sampling variance of DelayAVF (ALU, bubblesort, d=80%, three seeds)".into(),
        report: render_table(&["seed", "injections", "DelayAVF", "95% CI"], &rows),
    })
}

fn render_series_table(series: &[NormalizedSeries]) -> String {
    let max = NormalizedSeries::global_max(series);
    let mut headers: Vec<&str> = vec!["d"];
    for s in series {
        headers.push(&s.label);
    }
    let mut rows = Vec::new();
    for (i, d) in DELAY_FRACTIONS.iter().enumerate() {
        let mut row = vec![format!("{:.0}%", 100.0 * d)];
        for s in series {
            let norm = s.normalized_by(max);
            row.push(format!("{:.3}", norm[i]));
        }
        rows.push(row);
    }
    let mut out = render_table(&headers, &rows);
    let _ = writeln!(out, "\nraw DelayAVF values (unnormalized):");
    let raw_rows: Vec<Vec<String>> = DELAY_FRACTIONS
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let mut row = vec![format!("{:.0}%", 100.0 * d)];
            for s in series {
                row.push(format!("{:.6}", s.raw[i]));
            }
            row
        })
        .collect();
    out.push_str(&render_table(&headers, &raw_rows));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_experiments_render() {
        let mut h = Harness::build();
        let t1 = table1(&mut h).unwrap();
        assert_eq!(t1.report.lines().count(), 8, "header + rule + 6 rows");
        assert!(t1.report.contains("regfile (ECC)"));
        assert!(t1.to_string().contains("table1"));

        let f6 = fig6(&mut h).unwrap();
        assert!(f6.report.contains("alu"));
        assert!(f6.report.contains("of clock"));
    }

    #[test]
    fn table2_runs_the_tiny_suite() {
        let mut h = Harness::build();
        let opts = Opts::quick();
        let t2 = table2(&mut h, &opts).unwrap();
        for kernel in Kernel::ALL {
            assert!(t2.report.contains(kernel.name()), "{}", kernel);
        }
    }

    #[test]
    fn quick_campaign_experiment_is_consistent() {
        let mut h = Harness::build();
        let opts = Opts::quick();
        let f8 = fig8(&mut h, &opts).unwrap();
        assert!(f8.report.contains("[alu / libstrstr]"));
        assert!(f8.report.contains("GroupACE"));
        // Re-running with the same options is deterministic.
        let again = fig8(&mut h, &opts).unwrap();
        assert_eq!(f8.report, again.report);
    }

    #[test]
    fn campaign_labels_are_content_addressed() {
        let label = campaign_label(
            "davf",
            StructureSel::Ecc("regfile"),
            Kernel::Md5,
            &[0.3, 0.9],
            true,
        );
        assert_eq!(label, "davf-regfile (ECC)-md5-d30-d90-orace");
    }
}
