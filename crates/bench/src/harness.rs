//! Shared harness: cores, timing models, golden runs and sampling options.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::path::PathBuf;
use std::sync::Arc;

use delayavf::{
    delay_avf_campaign_observed, prepare_golden_seeded, sample_edges, savf_campaign_observed,
    CampaignConfig, CheckpointSpec, DelayAvfResult, GoldenRun, InjectorStats, JsonlTelemetry,
    ReplayOptions, RunContext, SavfResult, NULL_TELEMETRY,
};
use delayavf_netlist::{Circuit, DffId, EdgeId, Topology};
use delayavf_rvcore::{Core, CoreConfig, MemEnv, DEFAULT_RAM_BYTES};
use delayavf_sim::{Environment, MAX_LANES, MAX_TIMING_LANES};
use delayavf_timing::{TechLibrary, TimingModel};
use delayavf_workloads::{Kernel, Scale};

/// Sampling and scale options for an experiment run.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Number of stratified-random injection cycles per benchmark.
    pub cycles: usize,
    /// Maximum number of injected edges per structure.
    pub edge_limit: usize,
    /// Maximum number of struck flip-flops per structure (sAVF).
    pub dff_limit: usize,
    /// Sampling seed.
    pub seed: u64,
    /// Workload scale.
    pub scale: Scale,
    /// DUE budget: extra cycles past the golden length before declaring a
    /// detected unrecoverable error.
    pub due_slack: u64,
    /// Campaign worker threads (`0` = one per available core). Results are
    /// identical for every value — see the determinism tests.
    pub threads: usize,
    /// Bit-parallel replay lanes per batch (1–512; widths above 64 ride
    /// the 256/512-bit wide-word carriers). AVF numbers are identical for
    /// every value; `1` replays every scenario in a one-lane batch
    /// (`--lanes 1`).
    pub lanes: usize,
    /// Lane-packed timing-aware replay lanes per batch (1–512; widths
    /// above 64 ride the 256/512-bit wide-word carriers). AVF numbers are
    /// identical for every value; `1` runs the exact scalar baseline (the
    /// `--timing-lanes 1` escape hatch).
    pub timing_lanes: usize,
    /// Use the pre-simulation collapsing layer — injection-site equivalence
    /// classes, the quiet-source certificate and the semi-formal masking
    /// discharge (the default). AVF numbers are bit-for-bit identical either
    /// way; `false` runs the exact per-site baseline (the `--no-collapse`
    /// escape hatch).
    pub collapse: bool,
    /// Directory for crash-safe campaign checkpoints (`--checkpoint-dir`).
    /// `None` disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Flush the checkpoint after every this many completed work units
    /// (`--checkpoint-every`, default 1).
    pub checkpoint_every: usize,
    /// Resume from existing checkpoints instead of starting fresh
    /// (`--resume`). Missing checkpoint files fall back to a fresh start;
    /// mismatched ones are a hard error.
    pub resume: bool,
    /// Append structured JSONL telemetry to this file (`--telemetry`).
    /// `None` disables the stream at zero cost.
    pub telemetry: Option<PathBuf>,
    /// Adaptive stratified sampling: target 95% CI half-width
    /// (`--ci-target`). `None` (the default) runs the exhaustive uniform
    /// campaigns and reproduces their reports byte-for-byte.
    pub ci_target: Option<f64>,
    /// Stratification buckets per axis under `--ci-target`
    /// (`--strata`, default 4).
    pub strata: usize,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            cycles: 24,
            edge_limit: 240,
            dff_limit: 72,
            seed: 7,
            scale: Scale::Paper,
            due_slack: 2_000,
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

impl Opts {
    /// The strike-campaign options corresponding to these experiment
    /// options.
    pub fn replay_options(&self) -> delayavf::ReplayOptions {
        delayavf::ReplayOptions::new(self.due_slack, self.threads)
            .with_lanes(self.lanes)
            .with_timing_lanes(self.timing_lanes)
            .with_collapse(self.collapse)
            .with_ci_target(self.ci_target)
            .with_strata(self.strata)
            .with_sample_seed(self.seed)
    }
}

impl Opts {
    /// A much smaller configuration for smoke tests and Criterion benches.
    pub fn quick() -> Self {
        Opts {
            cycles: 6,
            edge_limit: 40,
            dff_limit: 16,
            scale: Scale::Tiny,
            ..Opts::default()
        }
    }
}

/// Runtime observability handle shared by every campaign of a run: one
/// JSONL telemetry stream (so timestamps stay monotone across experiments)
/// plus the checkpoint policy. Cheap to clone.
#[derive(Clone, Default)]
pub struct Observability {
    /// The shared telemetry sink, if `--telemetry` was given.
    pub telemetry: Option<Arc<JsonlTelemetry<File>>>,
    /// Checkpoint directory, if `--checkpoint-dir` was given.
    pub checkpoint_dir: Option<PathBuf>,
    /// Units between checkpoint flushes.
    pub checkpoint_every: usize,
    /// Resume from existing checkpoint files.
    pub resume: bool,
}

impl std::fmt::Debug for Observability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observability")
            .field("telemetry", &self.telemetry.is_some())
            .field("checkpoint_dir", &self.checkpoint_dir)
            .field("checkpoint_every", &self.checkpoint_every)
            .field("resume", &self.resume)
            .finish()
    }
}

impl Observability {
    /// Builds the run-wide handle from the parsed options: opens (appends
    /// to) the telemetry file and creates the checkpoint directory.
    ///
    /// # Errors
    ///
    /// Returns a message if the telemetry file or checkpoint directory
    /// cannot be created.
    pub fn from_opts(opts: &Opts) -> Result<Self, String> {
        Observability::create(
            opts.telemetry.as_deref(),
            opts.checkpoint_dir.as_deref(),
            opts.checkpoint_every,
            opts.resume,
        )
    }

    /// Like [`Observability::from_opts`], from bare paths (used by the
    /// configuration-file runner).
    ///
    /// # Errors
    ///
    /// Returns a message if the telemetry file or checkpoint directory
    /// cannot be created.
    pub fn create(
        telemetry: Option<&std::path::Path>,
        checkpoint_dir: Option<&std::path::Path>,
        checkpoint_every: usize,
        resume: bool,
    ) -> Result<Self, String> {
        let telemetry = match telemetry {
            Some(path) => {
                let file = OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(|e| format!("cannot open telemetry file `{}`: {e}", path.display()))?;
                Some(Arc::new(JsonlTelemetry::new(file)))
            }
            None => None,
        };
        if let Some(dir) = checkpoint_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create checkpoint dir `{}`: {e}", dir.display()))?;
        }
        Ok(Observability {
            telemetry,
            checkpoint_dir: checkpoint_dir.map(Into::into),
            checkpoint_every,
            resume,
        })
    }

    /// The checkpoint spec for a campaign label (`None` when checkpointing
    /// is off). The label is slugged into a file name; distinct campaigns
    /// use distinct labels, and the checkpoint fingerprint catches any
    /// residual collision as a hard `checkpoint mismatch`.
    pub fn spec(&self, label: &str) -> Option<CheckpointSpec> {
        self.checkpoint_dir.as_ref().map(|dir| {
            CheckpointSpec::new(
                dir.join(format!("{}.ckpt", slug(label))),
                self.checkpoint_every,
                self.resume,
            )
        })
    }
}

/// File-name slug: lowercase alphanumerics, everything else collapsed to
/// single dashes.
fn slug(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('-') && !out.is_empty() {
            out.push('-');
        }
    }
    out.trim_end_matches('-').to_owned()
}

/// Runs a DelayAVF sweep through the observed entry point, dispatching on
/// whether telemetry is enabled (two monomorphizations — the disabled one
/// is exactly the pre-observability code path).
///
/// # Errors
///
/// Propagates checkpoint I/O and `checkpoint mismatch` errors.
#[allow(clippy::too_many_arguments)]
pub fn run_delay_campaign<E: Environment + Clone>(
    obs: &Observability,
    label: &str,
    circuit: &Circuit,
    topo: &Topology,
    timing: &TimingModel,
    golden: &GoldenRun<E>,
    edges: &[EdgeId],
    config: &CampaignConfig,
) -> Result<(Vec<DelayAvfResult>, InjectorStats), String> {
    let spec = obs.spec(label);
    match &obs.telemetry {
        Some(sink) => delay_avf_campaign_observed(
            circuit,
            topo,
            timing,
            golden,
            edges,
            config,
            &RunContext::new(sink.as_ref(), spec),
        ),
        None => delay_avf_campaign_observed(
            circuit,
            topo,
            timing,
            golden,
            edges,
            config,
            &RunContext::new(&NULL_TELEMETRY, spec),
        ),
    }
}

/// Runs an sAVF strike campaign through the observed entry point; see
/// [`run_delay_campaign`].
///
/// # Errors
///
/// Propagates checkpoint I/O and `checkpoint mismatch` errors.
#[allow(clippy::too_many_arguments)]
pub fn run_savf_campaign<E: Environment + Clone>(
    obs: &Observability,
    label: &str,
    circuit: &Circuit,
    topo: &Topology,
    timing: &TimingModel,
    golden: &GoldenRun<E>,
    dffs: &[DffId],
    opts: ReplayOptions,
) -> Result<(SavfResult, InjectorStats), String> {
    let spec = obs.spec(label);
    match &obs.telemetry {
        Some(sink) => savf_campaign_observed(
            circuit,
            topo,
            timing,
            golden,
            dffs,
            opts,
            &RunContext::new(sink.as_ref(), spec),
        ),
        None => savf_campaign_observed(
            circuit,
            topo,
            timing,
            golden,
            dffs,
            opts,
            &RunContext::new(&NULL_TELEMETRY, spec),
        ),
    }
}

/// Which core variant a structure lives on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StructureSel {
    /// A structure of the baseline core.
    Plain(&'static str),
    /// A structure of the ECC-register-file core.
    Ecc(&'static str),
    /// A structure of the Kogge–Stone-adder core.
    Fast(&'static str),
}

impl StructureSel {
    /// Display label (matches the paper's row names).
    pub fn label(self) -> String {
        match self {
            StructureSel::Plain(s) => s.to_owned(),
            StructureSel::Ecc(s) => format!("{s} (ECC)"),
            StructureSel::Fast(s) => format!("{s} (fast adder)"),
        }
    }

    /// The underlying structure name.
    pub fn name(self) -> &'static str {
        match self {
            StructureSel::Plain(s) | StructureSel::Ecc(s) | StructureSel::Fast(s) => s,
        }
    }
}

/// One analyzed core variant: circuit, topology, timing.
pub struct Variant {
    /// The built core.
    pub core: Core,
    /// Its topology.
    pub topo: Topology,
    /// Its timing model.
    pub timing: TimingModel,
    goldens: HashMap<(Kernel, u64), Arc<GoldenRun<MemEnv>>>,
}

impl Variant {
    fn new(config: CoreConfig) -> Self {
        let core = delayavf_rvcore::build_core(config);
        let topo = Topology::new(&core.circuit);
        let timing = TimingModel::analyze(&core.circuit, &topo, &TechLibrary::nangate45_like());
        Variant {
            core,
            topo,
            timing,
            goldens: HashMap::new(),
        }
    }

    /// The golden run for a kernel (recorded once, then cached).
    pub fn golden(&mut self, kernel: Kernel, opts: &Opts) -> Arc<GoldenRun<MemEnv>> {
        let key = (kernel, opts.seed ^ ((opts.cycles as u64) << 32));
        if !self.goldens.contains_key(&key) {
            let w = kernel.build(opts.scale);
            let p = w.assemble().expect("workload assembles");
            let env = MemEnv::new(&self.core.circuit, DEFAULT_RAM_BYTES, &p);
            let golden = prepare_golden_seeded(
                &self.core.circuit,
                &self.topo,
                &env,
                w.max_cycles,
                opts.cycles,
                opts.seed,
            );
            assert!(
                golden.trace.halted(),
                "{kernel} must halt on the gate-level core"
            );
            self.goldens.insert(key, Arc::new(golden));
        }
        Arc::clone(&self.goldens[&key])
    }

    /// Sampled injectable edges of a structure.
    pub fn edges(&self, structure: &str, opts: &Opts) -> Vec<EdgeId> {
        let all = self
            .topo
            .structure_edges(&self.core.circuit, structure)
            .expect("structure exists");
        sample_edges(&all, opts.edge_limit, opts.seed)
    }

    /// Sampled flip-flops of a structure (for sAVF strikes).
    pub fn dffs(&self, structure: &str, opts: &Opts) -> Vec<DffId> {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let s = self
            .core
            .circuit
            .structure(structure)
            .expect("structure exists");
        let all = s.dffs();
        if all.len() <= opts.dff_limit {
            return all.to_vec();
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(opts.seed);
        let mut picked: Vec<DffId> = all
            .choose_multiple(&mut rng, opts.dff_limit)
            .copied()
            .collect();
        picked.sort_unstable();
        picked
    }
}

/// Both core variants (plain and ECC register file), built once.
pub struct Harness {
    /// Baseline core.
    pub plain: Variant,
    /// Core with the ECC-protected register file.
    pub ecc: Variant,
    /// Core with the Kogge–Stone ALU adder.
    pub fast: Variant,
    /// Run-wide observability (telemetry stream + checkpoint policy);
    /// disabled by default.
    pub obs: Observability,
}

impl Harness {
    /// Builds both cores and their timing models.
    pub fn build() -> Self {
        Harness {
            plain: Variant::new(CoreConfig::default()),
            ecc: Variant::new(CoreConfig {
                ecc_regfile: true,
                ..CoreConfig::default()
            }),
            fast: Variant::new(CoreConfig {
                fast_adder: true,
                ..CoreConfig::default()
            }),
            obs: Observability::default(),
        }
    }

    /// Selects the variant a structure row lives on.
    pub fn variant_mut(&mut self, sel: StructureSel) -> &mut Variant {
        match sel {
            StructureSel::Plain(_) => &mut self.plain,
            StructureSel::Ecc(_) => &mut self.ecc,
            StructureSel::Fast(_) => &mut self.fast,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observability_specs_slug_labels() {
        let obs = Observability {
            checkpoint_dir: Some(PathBuf::from("/tmp/ckpt")),
            checkpoint_every: 4,
            resume: true,
            ..Observability::default()
        };
        let spec = obs.spec("davf-regfile (ECC)-md5").expect("dir configured");
        assert_eq!(
            spec.path,
            PathBuf::from("/tmp/ckpt/davf-regfile-ecc-md5.ckpt")
        );
        assert_eq!(spec.every, 4);
        assert!(spec.resume);
        assert!(Observability::default().spec("x").is_none());
        assert_eq!(slug("--A  b!!"), "a-b");
    }

    #[test]
    fn structure_selectors_label_and_name() {
        assert_eq!(StructureSel::Plain("alu").label(), "alu");
        assert_eq!(StructureSel::Ecc("regfile").label(), "regfile (ECC)");
        assert_eq!(StructureSel::Fast("alu").label(), "alu (fast adder)");
        assert_eq!(StructureSel::Ecc("regfile").name(), "regfile");
    }

    #[test]
    fn harness_builds_three_distinct_variants() {
        let mut h = Harness::build();
        let plain_dffs = h.plain.core.circuit.num_dffs();
        let ecc_dffs = h.ecc.core.circuit.num_dffs();
        assert!(ecc_dffs > plain_dffs, "ECC storage is wider");
        assert!(
            h.fast.timing.clock_period() < h.plain.timing.clock_period(),
            "the prefix adder shortens the critical path"
        );
        // variant_mut routes by selector kind.
        let e = h.variant_mut(StructureSel::Ecc("regfile"));
        assert_eq!(e.core.circuit.num_dffs(), ecc_dffs);
    }

    #[test]
    fn edge_and_dff_sampling_respect_limits() {
        let h = Harness::build();
        let opts = Opts {
            edge_limit: 10,
            dff_limit: 5,
            ..Opts::quick()
        };
        assert_eq!(h.plain.edges("alu", &opts).len(), 10);
        assert_eq!(h.plain.dffs("regfile", &opts).len(), 5);
        // Limits above the population return everything.
        let all = Opts {
            dff_limit: usize::MAX,
            ..opts
        };
        assert_eq!(h.plain.dffs("control", &all).len(), 6);
    }

    #[test]
    fn goldens_are_cached_per_kernel_and_sampling() {
        let mut h = Harness::build();
        let opts = Opts::quick();
        let a = h.plain.golden(Kernel::Libfibcall, &opts);
        let b = h.plain.golden(Kernel::Libfibcall, &opts);
        assert!(Arc::ptr_eq(&a, &b), "second lookup hits the cache");
        let other = h.plain.golden(
            Kernel::Libfibcall,
            &Opts {
                seed: opts.seed + 1,
                ..opts
            },
        );
        assert!(!Arc::ptr_eq(&a, &other), "different seed, different run");
    }
}
