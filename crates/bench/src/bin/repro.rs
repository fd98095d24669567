//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro <experiment>... [--cycles N] [--edges N] [--dffs N] [--seed N]
//!       [--tiny] [--due-slack N] [--threads N] [--no-collapse]
//!       [--lanes N] [--timing-lanes N] [--checkpoint-dir DIR]
//!       [--checkpoint-every N] [--resume] [--telemetry FILE]
//!       [--ci-target X] [--strata N]
//!
//! experiments: table1 table2 table3 fig6 fig7 fig8 fig9 fig10 multibit
//!              guardband fastadder variance all (or --config <file>)
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use delayavf_bench::{experiments, ExperimentSpec, Harness, Observability, Opts};
use delayavf_sim::{MAX_LANES, MAX_TIMING_LANES};
use delayavf_workloads::Scale;

const USAGE: &str = "usage: repro <experiment>... [options]

experiments:
  table1    structure sizes (# injected wires)
  table2    cycles per benchmark
  fig6      path length distributions
  fig7      normalized geomean DelayAVF per structure
  fig8      static/dynamic/GroupACE component breakdown
  fig9      per-benchmark DelayAVF of the ALU
  fig10     sAVF vs DelayAVF for stateful structures
  table3    ACE interference/compounding, OrDelayAVF error (d=90%)
  multibit  multi-bit error statistics
  guardband clock-guardband mitigation ablation (extension)
  fastadder ripple vs Kogge-Stone ALU adder ablation (extension)
  variance  sampling-seed variance with confidence bounds (extension)
  all       everything above

options:
  --cycles N      injection cycles per benchmark (default 24)
  --edges N       injected edges per structure (default 240)
  --dffs N        struck flip-flops per structure (default 72)
  --seed N        sampling seed (default 7)
  --due-slack N   DUE cycle budget (default 2000)
  --threads N     campaign worker threads; results are identical for
  (or -j N)       every N (default: one per available core)
  --no-collapse   replay every injection site individually instead of
                  collapsing equivalence classes and formally discharging
                  provably masked/ACE flip groups (identical results)
  --lanes N       bit-parallel replay lanes per batch, 1-512 (default
                  512; widths above 64 ride the 256/512-bit carriers);
                  AVF numbers are identical for every N, --lanes 1
                  replays every scenario in a one-lane batch
  --timing-lanes N  lane-packed timing-aware replay lanes per batch,
                  1-512 (default 512); AVF numbers are identical for
                  every N, --timing-lanes 1 is the exact scalar baseline
  --tiny          use tiny workloads (smoke test)
  --checkpoint-dir DIR  write crash-safe campaign checkpoints into DIR;
                  an interrupted run restarted with --resume produces a
                  byte-identical report
  --checkpoint-every N  completed work units between checkpoint flushes
                  (default 1)
  --resume        resume campaigns from existing checkpoints (missing
                  files start fresh; mismatched ones are a hard error)
  --telemetry FILE  append structured JSONL progress events to FILE
  --ci-target X   adaptive stratified sampling: stop refining a stratum
                  once its 95% CI half-width is at most X (in (0, 0.5));
                  off by default, and leaving it off reproduces the
                  exhaustive reports byte-for-byte
  --strata N      stratification buckets per axis for --ci-target,
                  1-16 (default 4)
  --config FILE   run an artifact-style configuration file instead
                  (sampling options are taken from the file; the
                  checkpoint/telemetry options above still apply)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut wanted: Vec<String> = Vec::new();
    let mut opts = Opts::default();
    let mut config_file: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut num = |label: &str| -> Result<u64, String> {
            it.next()
                .ok_or_else(|| format!("{label} needs a value"))?
                .parse::<u64>()
                .map_err(|e| format!("{label}: {e}"))
        };
        match arg.as_str() {
            "--cycles" => match num("--cycles") {
                Ok(v) => opts.cycles = v as usize,
                Err(e) => return fail(&e),
            },
            "--edges" => match num("--edges") {
                Ok(v) => opts.edge_limit = v as usize,
                Err(e) => return fail(&e),
            },
            "--dffs" => match num("--dffs") {
                Ok(v) => opts.dff_limit = v as usize,
                Err(e) => return fail(&e),
            },
            "--seed" => match num("--seed") {
                Ok(v) => opts.seed = v,
                Err(e) => return fail(&e),
            },
            "--due-slack" => match num("--due-slack") {
                Ok(v) => opts.due_slack = v,
                Err(e) => return fail(&e),
            },
            "--threads" | "-j" => match num("--threads") {
                Ok(v) => opts.threads = v as usize,
                Err(e) => return fail(&e),
            },
            "--lanes" => match num("--lanes") {
                Ok(v) if (1..=MAX_LANES as u64).contains(&v) => opts.lanes = v as usize,
                Ok(v) => return fail(&format!("--lanes must be in 1..={MAX_LANES}, got `{v}`")),
                Err(e) => return fail(&e),
            },
            "--timing-lanes" => match num("--timing-lanes") {
                Ok(v) if (1..=MAX_TIMING_LANES as u64).contains(&v) => {
                    opts.timing_lanes = v as usize;
                }
                Ok(v) => {
                    return fail(&format!(
                        "--timing-lanes must be in 1..={MAX_TIMING_LANES}, got `{v}`"
                    ));
                }
                Err(e) => return fail(&e),
            },
            "--tiny" => opts.scale = Scale::Tiny,
            "--no-collapse" => opts.collapse = false,
            "--checkpoint-dir" => {
                let Some(dir) = it.next() else {
                    return fail("--checkpoint-dir needs a path");
                };
                opts.checkpoint_dir = Some(PathBuf::from(dir));
            }
            "--checkpoint-every" => match num("--checkpoint-every") {
                Ok(v) => opts.checkpoint_every = v as usize,
                Err(e) => return fail(&e),
            },
            "--resume" => opts.resume = true,
            "--ci-target" => {
                let Some(raw) = it.next() else {
                    return fail("--ci-target needs a value");
                };
                let target: f64 = match raw.parse() {
                    Ok(v) => v,
                    Err(e) => return fail(&format!("--ci-target: {e}")),
                };
                match delayavf_bench::validate_ci_target(target) {
                    Ok(v) => opts.ci_target = Some(v),
                    Err(e) => return fail(&e),
                }
            }
            "--strata" => match num("--strata") {
                Ok(v) => match delayavf_bench::validate_strata(v as usize) {
                    Ok(v) => opts.strata = v,
                    Err(e) => return fail(&e),
                },
                Err(e) => return fail(&e),
            },
            "--telemetry" => {
                let Some(path) = it.next() else {
                    return fail("--telemetry needs a path");
                };
                opts.telemetry = Some(PathBuf::from(path));
            }
            "--config" => {
                let Some(path) = it.next() else {
                    return fail("--config needs a path");
                };
                config_file = Some(path.clone());
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                return fail(&format!("unknown option `{other}`"));
            }
            exp => wanted.push(exp.to_owned()),
        }
    }
    if let Some(path) = config_file {
        let mut spec = match ExperimentSpec::load(&path) {
            Ok(spec) => spec,
            Err(e) => return fail(&e),
        };
        // The observability flags compose with a configuration file (so CI
        // can interrupt and resume the artifact configs), overriding its
        // keys when given on the command line.
        if opts.checkpoint_dir.is_some() {
            spec.checkpoint_dir = opts.checkpoint_dir.clone();
            spec.checkpoint_every = opts.checkpoint_every;
        }
        if opts.resume {
            spec.resume = true;
        }
        if opts.telemetry.is_some() {
            spec.telemetry = opts.telemetry.clone();
        }
        if opts.ci_target.is_some() {
            spec.ci_target = opts.ci_target;
            spec.strata = opts.strata;
        }
        return match spec.run() {
            Ok(report) => {
                println!("{report}");
                ExitCode::SUCCESS
            }
            Err(e) => fail(&e),
        };
    }
    if wanted.is_empty() {
        print!("{USAGE}");
        return ExitCode::FAILURE;
    }
    if wanted.iter().any(|w| w == "all") {
        wanted = [
            "table1",
            "table2",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "table3",
            "multibit",
            "guardband",
            "fastadder",
            "variance",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }

    eprintln!("building cores and timing models ...");
    let t0 = Instant::now();
    let mut h = Harness::build();
    h.obs = match Observability::from_opts(&opts) {
        Ok(obs) => obs,
        Err(e) => return fail(&e),
    };
    eprintln!("ready in {:?}\n", t0.elapsed());

    for id in &wanted {
        let t = Instant::now();
        let exp = match id.as_str() {
            "table1" => experiments::table1(&mut h),
            "table2" => experiments::table2(&mut h, &opts),
            "fig6" => experiments::fig6(&mut h),
            "fig7" => experiments::fig7(&mut h, &opts),
            "fig8" => experiments::fig8(&mut h, &opts),
            "fig9" => experiments::fig9(&mut h, &opts),
            "fig10" => experiments::fig10(&mut h, &opts),
            "table3" => experiments::table3(&mut h, &opts),
            "multibit" => experiments::multibit(&mut h, &opts),
            "guardband" => experiments::guardband(&mut h, &opts),
            "fastadder" => experiments::fastadder(&mut h, &opts),
            "variance" => experiments::variance(&mut h, &opts),
            other => return fail(&format!("unknown experiment `{other}`")),
        };
        match exp {
            Ok(exp) => println!("{exp}"),
            Err(e) => return fail(&e),
        }
        eprintln!("[{id} took {:?}]\n", t.elapsed());
    }
    ExitCode::SUCCESS
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n\n{USAGE}");
    ExitCode::FAILURE
}
