//! Artifact-style configuration files.
//!
//! The paper's artifact drives each experiment through a configuration file
//! (`./run_all.sh configs/beeps/md5_alu.dict`). This module provides the
//! same workflow: a plain-text `key = value` format (no external parser
//! dependencies) describing one (structure, benchmark, delay-range)
//! experiment, runnable via `repro --config <file>`. Sample configurations
//! live in the repository's `configs/` directory.
//!
//! Recognized keys (see [`ExperimentSpec`] for semantics and defaults):
//!
//! ```text
//! benchmark = md5                      # md5|bubblesort|libstrstr|libfibcall|matmult|crc32|qsort
//! structure = alu                      # alu|decoder|regfile|lsu|prefetch|control
//! ecc = false                          # single-error-correcting register file
//! fast_adder = false                   # Kogge-Stone ALU adder
//! scale = paper                        # paper|tiny
//! delay_range = 0.1:0.9:9              # lo:hi:steps, fractions of the clock
//! percent_sampled_cycles_delay = 2.0   # temporal sampling rate, in (0, 100]
//! edge_limit = 240                     # spatial sampling cap
//! seed = 7
//! due_slack = 2000
//! orace = false                        # also compute OrDelayAVF
//! threads = 0                          # campaign workers, 0 = one per core
//! collapse = true                      # equivalence-class replay collapsing
//! lanes = 512                          # bit-parallel replay lanes, 1-512
//! timing_lanes = 512                   # timing-aware replay lanes, 1-512
//! checkpoint_dir = ckpt                # crash-safe campaign checkpoints
//! checkpoint_every = 1                 # work units between flushes
//! resume = false                       # resume from an existing checkpoint
//! telemetry = run.jsonl                # structured JSONL progress stream
//! ci_target = 0.02                     # adaptive sampling: target CI half-width
//! strata = 4                           # stratification buckets per axis
//! ```

use std::path::PathBuf;

use delayavf::{prepare_golden_percent, sample_edges, CampaignConfig};
use delayavf_netlist::Topology;
use delayavf_rvcore::{build_core, CoreConfig, MemEnv, DEFAULT_RAM_BYTES};
use delayavf_sim::{MAX_LANES, MAX_TIMING_LANES};
use delayavf_timing::{TechLibrary, TimingModel};
use delayavf_workloads::{Kernel, Scale};

use crate::harness::{run_delay_campaign, Observability};

/// A parsed experiment configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentSpec {
    /// Benchmark kernel.
    pub benchmark: Kernel,
    /// Analyzed structure name.
    pub structure: String,
    /// ECC-protected register file.
    pub ecc: bool,
    /// Kogge–Stone ALU adder.
    pub fast_adder: bool,
    /// Workload scale.
    pub scale: Scale,
    /// Swept delay fractions.
    pub delay_fractions: Vec<f64>,
    /// Percentage of cycles to inject into.
    pub percent_cycles: f64,
    /// Maximum injected edges.
    pub edge_limit: usize,
    /// Sampling seed.
    pub seed: u64,
    /// DUE cycle budget.
    pub due_slack: u64,
    /// Compute the ORACE approximation.
    pub orace: bool,
    /// Campaign worker threads (`0` = one per available core).
    pub threads: usize,
    /// Bit-parallel replay lanes per batch (1–512; widths above 64 ride
    /// the 256/512-bit wide-word carriers). AVF numbers are identical for
    /// every value; `1` replays every scenario in a one-lane batch.
    pub lanes: usize,
    /// Lane-packed timing-aware replay lanes per batch (1–512; widths
    /// above 64 ride the 256/512-bit wide-word carriers). AVF numbers are
    /// identical for every value; `1` runs the exact scalar baseline.
    pub timing_lanes: usize,
    /// Collapse equivalent injection sites into one representative replay
    /// and discharge provably masked/ACE classes without simulation
    /// (`false` runs the exact per-edge baseline; results are identical
    /// either way).
    pub collapse: bool,
    /// Crash-safe campaign checkpoint directory (`None` disables).
    pub checkpoint_dir: Option<PathBuf>,
    /// Work units between checkpoint flushes.
    pub checkpoint_every: usize,
    /// Resume from an existing checkpoint (missing file = fresh start;
    /// mismatched file = hard error).
    pub resume: bool,
    /// Structured JSONL telemetry file (`None` disables at zero cost).
    pub telemetry: Option<PathBuf>,
    /// Adaptive stratified sampling: target 95% CI half-width (`None`
    /// runs the exhaustive uniform campaign, byte-identical to before the
    /// knob existed).
    pub ci_target: Option<f64>,
    /// Stratification buckets per axis under `ci_target`.
    pub strata: usize,
}

impl Default for ExperimentSpec {
    fn default() -> Self {
        ExperimentSpec {
            benchmark: Kernel::Md5,
            structure: "alu".to_owned(),
            ecc: false,
            fast_adder: false,
            scale: Scale::Paper,
            delay_fractions: (1..=9).map(|k| k as f64 / 10.0).collect(),
            percent_cycles: 2.0,
            edge_limit: 240,
            seed: 7,
            due_slack: 2_000,
            orace: false,
            threads: 0,
            lanes: MAX_LANES,
            timing_lanes: MAX_TIMING_LANES,
            collapse: true,
            checkpoint_dir: None,
            checkpoint_every: 1,
            resume: false,
            telemetry: None,
            ci_target: None,
            strata: delayavf::DEFAULT_STRATA,
        }
    }
}

fn parse_delay_range(text: &str) -> Result<Vec<f64>, String> {
    let parts: Vec<&str> = text.split(':').collect();
    if parts.len() != 3 {
        return Err(format!("delay_range needs `lo:hi:steps`, got `{text}`"));
    }
    let lo: f64 = parts[0]
        .trim()
        .parse()
        .map_err(|e| format!("delay_range lo: {e}"))?;
    let hi: f64 = parts[1]
        .trim()
        .parse()
        .map_err(|e| format!("delay_range hi: {e}"))?;
    let steps: usize = parts[2]
        .trim()
        .parse()
        .map_err(|e| format!("delay_range steps: {e}"))?;
    if steps == 0 || !(0.0..=1.0).contains(&lo) || !(0.0..=1.0).contains(&hi) || hi < lo {
        return Err(format!(
            "delay_range out of order or out of [0,1]: `{text}`"
        ));
    }
    if steps == 1 {
        return Ok(vec![lo]);
    }
    Ok((0..steps)
        .map(|k| lo + (hi - lo) * k as f64 / (steps - 1) as f64)
        .collect())
}

impl ExperimentSpec {
    /// Parses a configuration file's contents.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line for unknown keys,
    /// malformed values or out-of-range parameters.
    pub fn parse(text: &str) -> Result<ExperimentSpec, String> {
        let mut spec = ExperimentSpec::default();
        for (no, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = value`", no + 1))?;
            let (key, value) = (key.trim(), value.trim());
            let bad = |e: String| format!("line {}: {e}", no + 1);
            match key {
                "benchmark" => {
                    spec.benchmark = Kernel::parse(value)
                        .ok_or_else(|| bad(format!("unknown benchmark `{value}`")))?;
                }
                "structure" => spec.structure = value.to_owned(),
                "ecc" => spec.ecc = parse_bool(value).map_err(bad)?,
                "fast_adder" => spec.fast_adder = parse_bool(value).map_err(bad)?,
                "scale" => {
                    spec.scale = match value {
                        "paper" => Scale::Paper,
                        "tiny" => Scale::Tiny,
                        other => return Err(bad(format!("unknown scale `{other}`"))),
                    }
                }
                "delay_range" => spec.delay_fractions = parse_delay_range(value).map_err(bad)?,
                "percent_sampled_cycles_delay" => {
                    let percent: f64 = value
                        .parse()
                        .map_err(|e| bad(format!("percent_sampled_cycles_delay: {e}")))?;
                    spec.percent_cycles =
                        validate_percent(percent).map_err(|e| bad(format!("{e} `{value}`")))?;
                }
                "edge_limit" => {
                    spec.edge_limit = value.parse().map_err(|e| bad(format!("edge_limit: {e}")))?;
                }
                "seed" => spec.seed = value.parse().map_err(|e| bad(format!("seed: {e}")))?,
                "due_slack" => {
                    spec.due_slack = value.parse().map_err(|e| bad(format!("due_slack: {e}")))?;
                }
                "orace" => spec.orace = parse_bool(value).map_err(bad)?,
                "threads" => {
                    spec.threads = value.parse().map_err(|e| bad(format!("threads: {e}")))?;
                }
                "collapse" => spec.collapse = parse_bool(value).map_err(bad)?,
                "lanes" => {
                    let lanes: usize = value.parse().map_err(|e| bad(format!("lanes: {e}")))?;
                    if !(1..=MAX_LANES).contains(&lanes) {
                        return Err(bad(format!(
                            "lanes must be in 1..={MAX_LANES}, got `{value}`"
                        )));
                    }
                    spec.lanes = lanes;
                }
                "timing_lanes" => {
                    let lanes: usize = value
                        .parse()
                        .map_err(|e| bad(format!("timing_lanes: {e}")))?;
                    if !(1..=MAX_TIMING_LANES).contains(&lanes) {
                        return Err(bad(format!(
                            "timing_lanes must be in 1..={MAX_TIMING_LANES}, got `{value}`"
                        )));
                    }
                    spec.timing_lanes = lanes;
                }
                "checkpoint_dir" => spec.checkpoint_dir = Some(PathBuf::from(value)),
                "checkpoint_every" => {
                    spec.checkpoint_every = value
                        .parse()
                        .map_err(|e| bad(format!("checkpoint_every: {e}")))?;
                }
                "resume" => spec.resume = parse_bool(value).map_err(bad)?,
                "telemetry" => spec.telemetry = Some(PathBuf::from(value)),
                "ci_target" => {
                    let target: f64 = value.parse().map_err(|e| bad(format!("ci_target: {e}")))?;
                    spec.ci_target = Some(delayavf::validate_ci_target(target).map_err(bad)?);
                }
                "strata" => {
                    let strata: usize = value.parse().map_err(|e| bad(format!("strata: {e}")))?;
                    spec.strata = delayavf::validate_strata(strata).map_err(bad)?;
                }
                other => return Err(bad(format!("unknown key `{other}`"))),
            }
        }
        Ok(spec)
    }

    /// Loads and parses a configuration file.
    ///
    /// # Errors
    ///
    /// Propagates I/O problems and parse errors as messages.
    pub fn load(path: &str) -> Result<ExperimentSpec, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        ExperimentSpec::parse(&text)
    }

    /// Runs the configured experiment and renders a report (one row per
    /// delay fraction, with Wilson confidence bounds).
    ///
    /// # Errors
    ///
    /// Fails on a `structure` the core does not have (naming the available
    /// ones), and propagates observability setup failures and checkpoint
    /// mismatches.
    pub fn run(&self) -> Result<String, String> {
        let core = build_core(CoreConfig {
            ecc_regfile: self.ecc,
            fast_adder: self.fast_adder,
        });
        let topo = Topology::new(&core.circuit);
        let structure_edges = topo
            .structure_edges(&core.circuit, &self.structure)
            .map_err(|e| e.to_string())?;
        let timing = TimingModel::analyze(&core.circuit, &topo, &TechLibrary::nangate45_like());
        let workload = self.benchmark.build(self.scale);
        let program = workload.assemble().expect("workload assembles");
        let env = MemEnv::new(&core.circuit, DEFAULT_RAM_BYTES, &program);
        let golden = prepare_golden_percent(
            &core.circuit,
            &topo,
            &env,
            workload.max_cycles,
            self.percent_cycles,
            self.seed,
        );
        let edges = sample_edges(&structure_edges, self.edge_limit, self.seed);
        let config = CampaignConfig {
            delay_fractions: self.delay_fractions.clone(),
            compute_orace: self.orace,
            due_slack: self.due_slack,
            threads: self.threads,
            lanes: self.lanes,
            timing_lanes: self.timing_lanes,
            collapse: self.collapse,
            ci_target: self.ci_target,
            strata: self.strata,
            sample_seed: self.seed,
        };
        let obs = Observability::create(
            self.telemetry.as_deref(),
            self.checkpoint_dir.as_deref(),
            self.checkpoint_every,
            self.resume,
        )?;
        let label = format!("cfg-{}-{}", self.structure, self.benchmark);
        let (rows, stats) = run_delay_campaign(
            &obs,
            &label,
            &core.circuit,
            &topo,
            &timing,
            &golden,
            &edges,
            &config,
        )?;

        let mut table = Vec::new();
        for r in &rows {
            let (lo, hi) = r.delay_avf_interval();
            let mut row = vec![
                format!("{:.0}%", 100.0 * r.delay_fraction),
                format!("{:.2}%", 100.0 * r.static_fraction()),
                format!("{:.3}%", 100.0 * r.dynamic_fraction()),
                format!("{:.5}", r.delay_avf()),
                format!("[{lo:.5}, {hi:.5}]"),
                format!("{}/{}", r.sdc_hits, r.due_hits),
            ];
            if self.orace {
                row.push(format!("{:.5}", r.or_delay_avf().unwrap_or(0.0)));
            }
            if let Some(est) = r.adaptive {
                row.push(format!("{:.5} [{:.5}, {:.5}]", est.point, est.lo, est.hi));
                row.push(format!("{}/{}", est.sampled, est.population));
            }
            table.push(row);
        }
        let mut headers = vec!["d", "static", "dynamic", "DelayAVF", "95% CI", "SDC/DUE"];
        if self.orace {
            headers.push("OrDelayAVF");
        }
        if self.ci_target.is_some() {
            headers.push("adaptive (95% CI)");
            headers.push("sites");
        }
        let mut report = format!(
            "{} / {} (ecc={}, N sampled at {}%, {} edges, {} cycles sampled)\n{}",
            self.structure,
            self.benchmark,
            self.ecc,
            self.percent_cycles,
            edges.len(),
            golden.sampled_cycles.len(),
            delayavf::render_table(&headers, &table)
        );
        if let Some(target) = self.ci_target {
            report.push_str(&format!(
                "\nadaptive: ci_target={target}, {} strata active, {} retired early, {} replays saved\n",
                stats.strata_active, stats.strata_retired_early, stats.adaptive_replays_saved
            ));
        }
        Ok(report)
    }
}

/// A temporal sampling rate must be a real percentage: finite, strictly
/// positive and at most 100. [`delayavf::percent_to_count`] clamps its
/// result to at least one cycle, so without this boundary check a negative
/// or NaN rate would silently sample a single cycle instead of erroring.
fn validate_percent(percent: f64) -> Result<f64, String> {
    if percent.is_finite() && percent > 0.0 && percent <= 100.0 {
        Ok(percent)
    } else {
        Err("percent_sampled_cycles_delay must be in (0, 100], got".to_owned())
    }
}

fn parse_bool(v: &str) -> Result<bool, String> {
    match v {
        "true" | "on" | "1" => Ok(true),
        "false" | "off" | "0" => Ok(false),
        other => Err(format!("expected a boolean, got `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_config() {
        let spec = ExperimentSpec::parse(
            r#"
            # Figure 9, md5 group
            benchmark = md5
            structure = alu
            ecc = false
            delay_range = 0.1:0.9:9
            percent_sampled_cycles_delay = 4.0
            edge_limit = 100
            seed = 42
            orace = true
            threads = 3
            collapse = off
            lanes = 16
            timing_lanes = 128
            checkpoint_dir = ckpt
            checkpoint_every = 3
            resume = true
            telemetry = run.jsonl
            "#,
        )
        .unwrap();
        assert_eq!(spec.benchmark, Kernel::Md5);
        assert_eq!(spec.structure, "alu");
        assert_eq!(spec.delay_fractions.len(), 9);
        assert!((spec.delay_fractions[0] - 0.1).abs() < 1e-12);
        assert!((spec.delay_fractions[8] - 0.9).abs() < 1e-12);
        assert!((spec.percent_cycles - 4.0).abs() < 1e-12);
        assert_eq!(spec.edge_limit, 100);
        assert_eq!(spec.seed, 42);
        assert!(spec.orace);
        assert_eq!(spec.threads, 3);
        assert!(!spec.collapse);
        assert_eq!(spec.lanes, 16);
        assert_eq!(spec.timing_lanes, 128);
        assert_eq!(spec.checkpoint_dir, Some(PathBuf::from("ckpt")));
        assert_eq!(spec.checkpoint_every, 3);
        assert!(spec.resume);
        assert_eq!(spec.telemetry, Some(PathBuf::from("run.jsonl")));
    }

    #[test]
    fn rejects_unknown_keys_and_bad_values() {
        assert!(ExperimentSpec::parse("frobnicate = 1\n")
            .unwrap_err()
            .contains("unknown key"));
        assert!(ExperimentSpec::parse("benchmark = doom\n")
            .unwrap_err()
            .contains("unknown benchmark"));
        assert!(ExperimentSpec::parse("delay_range = 0.9:0.1:5\n")
            .unwrap_err()
            .contains("out of order"));
        assert!(ExperimentSpec::parse("ecc = maybe\n")
            .unwrap_err()
            .contains("boolean"));
        assert!(ExperimentSpec::parse("just a line\n")
            .unwrap_err()
            .contains("key = value"));
    }

    #[test]
    fn rejects_out_of_range_lane_widths() {
        assert_eq!(
            ExperimentSpec::parse("lanes = 0\n").unwrap_err(),
            "line 1: lanes must be in 1..=512, got `0`"
        );
        assert_eq!(
            ExperimentSpec::parse("lanes = 513\n").unwrap_err(),
            "line 1: lanes must be in 1..=512, got `513`"
        );
        assert_eq!(
            ExperimentSpec::parse("timing_lanes = 0\n").unwrap_err(),
            "line 1: timing_lanes must be in 1..=512, got `0`"
        );
        assert_eq!(
            ExperimentSpec::parse("timing_lanes = 513\n").unwrap_err(),
            "line 1: timing_lanes must be in 1..=512, got `513`"
        );
        // The full valid ranges parse.
        assert_eq!(ExperimentSpec::parse("lanes = 1\n").unwrap().lanes, 1);
        assert_eq!(ExperimentSpec::parse("lanes = 512\n").unwrap().lanes, 512);
        assert_eq!(
            ExperimentSpec::parse("timing_lanes = 512\n")
                .unwrap()
                .timing_lanes,
            512
        );
    }

    #[test]
    fn rejects_out_of_range_sampling_percentages() {
        assert_eq!(
            ExperimentSpec::parse("percent_sampled_cycles_delay = -4.0\n").unwrap_err(),
            "line 1: percent_sampled_cycles_delay must be in (0, 100], got `-4.0`"
        );
        assert_eq!(
            ExperimentSpec::parse("percent_sampled_cycles_delay = 0\n").unwrap_err(),
            "line 1: percent_sampled_cycles_delay must be in (0, 100], got `0`"
        );
        assert_eq!(
            ExperimentSpec::parse("percent_sampled_cycles_delay = 100.5\n").unwrap_err(),
            "line 1: percent_sampled_cycles_delay must be in (0, 100], got `100.5`"
        );
        assert_eq!(
            ExperimentSpec::parse("percent_sampled_cycles_delay = NaN\n").unwrap_err(),
            "line 1: percent_sampled_cycles_delay must be in (0, 100], got `NaN`"
        );
        assert_eq!(
            ExperimentSpec::parse("percent_sampled_cycles_delay = inf\n").unwrap_err(),
            "line 1: percent_sampled_cycles_delay must be in (0, 100], got `inf`"
        );
        let ok = ExperimentSpec::parse("percent_sampled_cycles_delay = 100\n").unwrap();
        assert!((ok.percent_cycles - 100.0).abs() < 1e-12);
    }

    #[test]
    fn removed_engine_knobs_are_unknown_keys() {
        for line in ["incremental = true\n", "delta_timing = off\n"] {
            assert!(
                ExperimentSpec::parse(line)
                    .unwrap_err()
                    .contains("unknown key"),
                "{line}"
            );
        }
    }

    #[test]
    fn unknown_structures_are_errors_naming_the_available_ones() {
        let spec = ExperimentSpec::parse("structure = bogus\nscale = tiny\n").unwrap();
        let err = spec.run().unwrap_err();
        assert!(err.contains("unknown structure `bogus`"), "{err}");
        for name in ["alu", "decoder", "lsu", "regfile"] {
            assert!(err.contains(name), "`{name}` missing from {err}");
        }
    }

    #[test]
    fn single_step_range_is_one_fraction() {
        let spec = ExperimentSpec::parse("delay_range = 0.5:0.9:1\n").unwrap();
        assert_eq!(spec.delay_fractions, vec![0.5]);
    }

    #[test]
    fn tiny_config_runs_end_to_end() {
        let spec = ExperimentSpec::parse(
            r#"
            benchmark = libstrstr
            structure = alu
            scale = tiny
            delay_range = 0.9:0.9:1
            percent_sampled_cycles_delay = 2.0
            edge_limit = 30
            "#,
        )
        .unwrap();
        let report = spec.run().unwrap();
        assert!(report.contains("DelayAVF"), "{report}");
        assert!(report.contains("95% CI"));
    }
}
