//! End-to-end DelayAVF campaign benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats whole workload passes (set-up plus every campaign
//! call, on [`workload::WORKERS`] campaign workers) for about `--seconds`
//! seconds and reports the medians of the end-to-end metrics, with times
//! scaled by the host's speed as [`Clock`] reads it. `--trace 1`
//! reports the per-layer metrics instead (see [`traced`]). Every pass's
//! reports are checked against per-row invariants, against the run's first
//! pass, and against the checked-in digest when the seed has one. The last
//! stdout line is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`; the exit code is 0 only when every check passed.

mod calib;
mod metrics;
mod replica;
mod trace;
mod traced;
mod workload;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use delayavf::{InjectorStats, TelemetrySink, NULL_TELEMETRY};

use calib::{Clock, Reading};
use metrics::{median, Metric, Report};
use trace::Tracer;
use workload::{Output, Prepared, Workload};

/// Fewest passes a measured run makes, however long they take.
const MIN_PASSES: usize = 3;
/// Fewest set-ups a measured run times: set-up is short, so runs of few
/// long passes set up again on their own until its median has this many
/// samples.
const MIN_SETUPS: usize = 9;
/// No pass starts after this much of a run, whatever `--seconds` says.
const HARD_STOP: Duration = Duration::from_secs(100);

/// Parsed command line.
pub struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut vals: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            k @ ("--workload" | "--seed" | "--seconds" | "--trace") => k,
            other => return Err(format!("unknown argument `{other}`")),
        };
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        vals.insert(key, value);
    }
    let get = |k: &str| {
        vals.get(k)
            .copied()
            .ok_or_else(|| format!("{k} is required"))
    };
    let num = |k: &str| -> Result<u64, String> { get(k)?.parse().map_err(|e| format!("{k}: {e}")) };
    let name = get("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload `{name}` (one of {})", names.join(", "))
    })?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    let seconds = num("--seconds")?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds must be in 1..=60, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // Checkpoints go under the benchmark's own (git-ignored) directory.
    let work = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(std::process::id().to_string());
    let report = if args.trace {
        traced::run(&args, &work)
    } else {
        measured_run(&args, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Reports and counters of one pass's campaign calls (`None` for a call
/// that failed).
type Outputs = Vec<Option<(Output, InjectorStats)>>;

/// Outcome of one workload pass.
pub struct Pass {
    outputs: Outputs,
    /// Digest of the reports; `None` when a campaign call failed.
    digest: Option<u64>,
    setup_s: f64,
    campaign_s: f64,
    wall_s: f64,
    cpu_s: f64,
    population: usize,
}

impl Pass {
    /// Fails the pass's calls in `report` unless its digest equals `other`.
    fn check_same(&self, other: Option<u64>, what: &str, report: &mut Report) {
        if let (Some(a), Some(b)) = (self.digest, other) {
            let same = if a == b {
                Ok(())
            } else {
                Err(format!(
                    "report digest {a:016x} differs from {what}'s {b:016x}"
                ))
            };
            report.check(same, self.outputs.len());
        }
    }
}

/// A fresh, empty checkpoint directory for the adaptive workload.
fn checkpoint_dir(w: Workload, work: &Path, n: usize) -> Option<PathBuf> {
    w.adaptive().then(|| {
        let dir = work.join(format!("ckpt-{n}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("checkpoint directory is creatable");
        dir
    })
}

/// Runs every campaign of `p`, each in a `campaign` span and after a
/// `clock` lap; a call that errors, panics or breaks a report invariant
/// counts as a failed operation and leaves `None`.
fn run_campaigns<S: TelemetrySink>(
    p: &Prepared,
    ckpt: Option<&Path>,
    telemetry: &S,
    tr: &mut Tracer,
    clock: &mut Clock,
    report: &mut Report,
) -> Outputs {
    p.campaigns
        .iter()
        .map(|c| {
            clock.lap();
            let id = tr.begin("campaign");
            let got = catch_unwind(AssertUnwindSafe(|| {
                workload::run_campaign(p, c, ckpt, telemetry)
            }));
            let got = match got {
                Ok(Ok((out, stats))) => workload::check_invariants(c, &out).map(|()| (out, stats)),
                Ok(Err(e)) => Err(format!("{}: {e}", c.label)),
                Err(_) => Err(format!("{}: campaign panicked", c.label)),
            };
            tr.end(id, got.as_ref().map(|(_, s)| *s).unwrap_or_default());
            report.op(got)
        })
        .collect()
}

/// Digest of a pass's reports, `None` if any call failed.
fn pass_digest(p: &Prepared, outputs: &Outputs) -> Option<u64> {
    let reports: Option<Vec<(&str, &Output)>> = p
        .campaigns
        .iter()
        .zip(outputs)
        .map(|(c, o)| o.as_ref().map(|(out, _)| (c.label.as_str(), out)))
        .collect();
    reports.map(workload::digest)
}

/// Runs the campaigns of a prepared pass, whose set-up took `setup`, and
/// checks its digest against the checked-in one.
#[allow(clippy::too_many_arguments)]
fn campaign_pass<S: TelemetrySink>(
    args: &Args,
    p: &Prepared,
    setup: Reading,
    ckpt: Option<&Path>,
    telemetry: &S,
    tr: &mut Tracer,
    clock: &mut Clock,
    report: &mut Report,
) -> Pass {
    let t0 = clock.lap();
    let outputs = run_campaigns(p, ckpt, telemetry, tr, clock, report);
    let campaigns = clock.lap() - t0;
    let (setup_s, campaign_s) = (setup.wall_s, campaigns.wall_s);
    let digest = pass_digest(p, &outputs);
    if let Some(d) = digest {
        let expected = workload::expected_digest(args.workload, args.seed);
        report.check(workload::check_against(expected, d), outputs.len());
    }
    eprintln!(
        "pass: setup {setup_s:.3} s, campaigns {campaign_s:.3} s, digest {}",
        digest.map_or_else(|| "-".to_owned(), |d| format!("{d:016x}"))
    );
    Pass {
        outputs,
        digest,
        setup_s,
        campaign_s,
        wall_s: setup_s + campaign_s,
        cpu_s: setup.cpu_s + campaigns.cpu_s,
        population: p.population(),
    }
}

/// One untraced pass: set-up, then every campaign call, timed by `clock`.
fn untraced_pass(
    args: &Args,
    work: &Path,
    n: usize,
    clock: &mut Clock,
    report: &mut Report,
) -> Pass {
    let ckpt = checkpoint_dir(args.workload, work, n);
    let t0 = clock.lap();
    let p = workload::prepare(args.workload, args.seed);
    let setup = clock.lap() - t0;
    let pass = campaign_pass(
        args,
        &p,
        setup,
        ckpt.as_deref(),
        &NULL_TELEMETRY,
        &mut Tracer::disabled(),
        clock,
        report,
    );
    if let Some(dir) = ckpt {
        let _ = std::fs::remove_dir_all(dir);
    }
    pass
}

/// `--trace 0`: whole passes for about `--seconds`, medians reported.
fn measured_run(args: &Args, work: &Path) -> Report {
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut report = Report::default();
    let mut passes: Vec<Pass> = Vec::new();
    let mut clock = Clock::new(workload::WORKERS);
    let mut peak_rss_mb = None;
    loop {
        let pass = untraced_pass(args, work, passes.len(), &mut clock, &mut report);
        // A process that runs the workload once peaks in its first pass;
        // later passes add only what the allocator kept from earlier ones,
        // which varies from run to run.
        peak_rss_mb.get_or_insert_with(metrics::peak_rss_mb);
        if let Some(first) = passes.first() {
            pass.check_same(first.digest, "the first pass", &mut report);
        }
        passes.push(pass);
        // Time per pass as spent, speed readings included.
        let elapsed = start.elapsed();
        let typical = elapsed / passes.len() as u32;
        if passes.len() >= MIN_PASSES && (elapsed + typical > budget || elapsed > HARD_STOP) {
            break;
        }
    }
    let mut setup_s: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    while setup_s.len() < MIN_SETUPS {
        let t0 = clock.lap();
        let p = workload::prepare(args.workload, args.seed);
        setup_s.push((clock.lap() - t0).wall_s);
        drop(p);
    }
    let speed = clock.factor();
    eprintln!(
        "{} passes and {} set-ups in {:.1} s; median pass {:.3} host seconds; \
         host speed {speed:.3} over {} readings",
        passes.len(),
        setup_s.len(),
        start.elapsed().as_secs_f64(),
        median(passes.iter().map(|p| p.wall_s)),
        clock.readings()
    );
    let peak_rss_mb = peak_rss_mb.unwrap_or(f64::NAN);
    for m in end_to_end_metrics(&passes, &setup_s, speed, peak_rss_mb) {
        report.metric(m);
    }
    report
}

/// The end-to-end metrics: medians over the passes (and set-ups) of the
/// run, times scaled by the host's `speed` factor (see [`calib`]).
fn end_to_end_metrics(
    passes: &[Pass],
    setup_s: &[f64],
    speed: f64,
    peak_rss_mb: f64,
) -> Vec<Metric> {
    let med = |f: fn(&Pass) -> f64| median(passes.iter().map(f));
    vec![
        Metric::new("wall_s", "s", med(|p| p.wall_s) * speed),
        Metric::new("setup_s", "s", median(setup_s.iter().copied()) * speed),
        Metric::new(
            "injections_per_s",
            "1/s",
            med(|p| p.population as f64 / p.campaign_s) / speed,
        ),
        Metric::new("cpu_s", "s", med(|p| p.cpu_s) * speed),
        Metric::new("peak_rss_mb", "MiB", peak_rss_mb),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse_args(&argv(
            "--workload alu_sweep --seed 3 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::AluSweep, 3, 10, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload alu_sweep --seed 1 --seconds 0 --trace 0",
            "--workload alu_sweep --seed 1 --seconds 1 --trace 2",
            "--workload alu_sweep --seed x --seconds 1 --trace 0",
            "--workload alu_sweep --seconds 1 --trace 0",
            "--workload alu_sweep --seed 1 --seconds 1 --trace",
            "--frob 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    /// The `name`s listed in one array of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\": ["))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        let mut names: Vec<String> = body
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_owned())
            .collect();
        names.sort();
        names
    }

    fn names(metrics: &[Metric]) -> Vec<String> {
        let mut v: Vec<String> = metrics.iter().map(|m| m.name.to_owned()).collect();
        v.sort();
        v
    }

    #[test]
    fn metric_names_are_valid_and_match_the_benchmark_file() {
        let e2e = declared("end_to_end");
        let layer = declared("per_layer");
        assert!(!e2e.is_empty() && e2e.len() <= 16, "{e2e:?}");
        assert!(!layer.is_empty() && layer.len() <= 128, "{layer:?}");
        for n in e2e.iter().chain(&layer) {
            assert!(
                n.len() <= 64
                    && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "bad metric name `{n}`"
            );
        }
        let pass = Pass {
            outputs: Vec::new(),
            digest: None,
            setup_s: 1.0,
            campaign_s: 2.0,
            wall_s: 3.0,
            cpu_s: 3.0,
            population: 10,
        };
        assert_eq!(names(&end_to_end_metrics(&[pass], &[1.0], 1.0, 1.0)), e2e);
        assert_eq!(
            names(&traced::layer_metrics(&traced::LayerInputs::default())),
            layer
        );
    }
}
