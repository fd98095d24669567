//! Fault-injection campaigns: DelayAVF sweeps and particle-strike sAVF.
//!
//! # One driver
//!
//! Every estimate here comes from one loop: pick injection sites over
//! (trace cycle, item), replay them, tally. The five campaigns — the
//! DelayAVF sweep (Equation 3), sAVF (Equation 1), per-bit sAVF, the
//! spatial double strike and the Razor records — each implement a small
//! private `Campaign` trait: the kind label, the sites per cycle, the
//! estimands and per-site tallies, the unit body and the merge. One
//! private driver, `drive`, does everything else for all of them: the
//! checkpoint identity, the telemetry brackets, the round loop and the
//! adaptive footer.
//!
//! Sampling is an [`AdaptivePlan`]. With `ci_target` unset the plan is the
//! exhaustive one — one stratum, one round, every site in ascending order
//! — so a uniform campaign is the degenerate adaptive campaign, and its
//! units are exactly one per sampled cycle carrying every item. With
//! `ci_target` set the plan stratifies the sites, allocates each round
//! Neyman-style and retires a stratum once its interval is tight enough.
//!
//! # Parallel engine: one queue of whole units
//!
//! Every injection is independent given the golden trace, so each round's
//! sites are grouped per trace cycle into whole *units* (one latch
//! boundary each, keyed `(round, cycle)`) and run on
//! [`std::thread::scope`] workers that pull unit indices from one shared
//! atomic cursor. The queue is ordered longest-expected-first: a unit's
//! cost estimate is the trace cycles left after its cycle times its
//! injections (an early error can replay to the end of the program), ties
//! by unit index, so the long units start first and the short ones fill in
//! around them instead of leaving a worker idle behind a slow fixed chunk.
//! Workers share the circuit, topology, timing model and golden run
//! read-only (hence the `Send + Sync` supertrait on [`Environment`]) —
//! including the trace's lazily filled golden settle cache — and each
//! keeps one private [`Injector`] for every unit it pulls, whose
//! fan-in/replay caches and cycle reconstruction are per-run mutable
//! state. A round's workers hand their injectors on to the next round's,
//! so an adaptive campaign builds its collapse plan and fan-in cones once
//! per worker, not once per round.
//!
//! **Determinism:** parallel results are bit-for-bit identical to serial
//! for any thread count and any schedule. Results are stored per unit
//! index and merged in unit order (rows, [`InjectorStats`], records, and
//! the plan's per-site tallies), all counters are integers merged by
//! addition, and every cache-shareable replay of a unit is keyed by the
//! unit's own latch boundary, so no cache entry carried in a worker's
//! injector from one unit to the next can serve another unit, and every
//! unit starts without a golden waveform. The one thing a unit inherits is
//! the driver's boundary store: the failure classes earlier adaptive
//! rounds settled at its boundary and, for the sweep, the step-1 dynamic
//! sets they derived from its cycle's golden waveform, both seeded into
//! its worker's injector before it runs. The store changes only between
//! rounds, so even the cache-hit and timing counters do not depend on
//! which worker ran which unit, or when. Checkpoints are keyed by unit, so
//! their content does not depend on the schedule either.
//!
//! # Latch-boundary conventions
//!
//! The two fault models classify at different boundaries **by design**:
//!
//! * A small delay fault in cycle `c` corrupts the values *latched at the
//!   end* of `c`, so [`delay_avf_campaign`] (via [`Injector::inject`])
//!   classifies the error group at boundary `c + 1`.
//! * A particle strike at cycle `c` corrupts *already-stored* state, so the
//!   sAVF campaigns ([`savf_campaign`], [`savf_per_bit_campaign`],
//!   [`spatial_double_strike_campaign`]) classify at boundary `c` itself.
//!
//! Both conventions draw `c` from [`valid_cycles`], which keeps every
//! boundary inside the golden trace.
//!
//! # Lane batching
//!
//! Within a unit, every campaign groups the replays of its latch boundary
//! into bit-parallel batches ([`Injector::prefill_failures`], up to
//! [`ReplayOptions::lanes`] scenarios per pass over the netlist) before
//! running its unchanged scalar loop against the warmed cache — so tally
//! and record order are exactly the sequential engine's, and `lanes = 1`
//! (which turns prefilling into a no-op) reproduces its reports
//! byte-identically. A unit's batches never leave its worker, so the batch
//! counters in [`InjectorStats`] merge schedule-invariantly.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use delayavf_netlist::{Circuit, DffId, EdgeId, Topology};
use delayavf_sim::{Environment, MAX_LANES, MAX_TIMING_LANES};
use delayavf_timing::{Picos, TimingModel};

use crate::checkpoint::{
    decode_unit, encode_unit, CheckpointSpec, CheckpointStore, Fingerprint, Layout, Step1Entry,
    UnitPayload,
};
use crate::golden::GoldenRun;
use crate::injector::{FailureClass, InjectionOutcome, Injector, InjectorStats};
use crate::razor::InjectionRecord;
use crate::result::{AdaptiveEstimate, DelayAvfResult, OraceStats, SavfResult};
use crate::sampling::{bucket_axis, validate_ci_target, validate_strata, AdaptivePlan};
use crate::telemetry::{NullTelemetry, PhaseTotals, TelemetryEvent, TelemetrySink, NULL_TELEMETRY};

/// Replay-engine options shared by the particle-strike campaign entry
/// points (the DelayAVF sweeps carry the same knobs in
/// [`CampaignConfig`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReplayOptions {
    /// Extra cycles past the golden program length before a non-halting
    /// faulty run is declared a DUE.
    pub due_slack: u64,
    /// Worker threads for the campaign engine. `0` (the default) resolves
    /// to [`std::thread::available_parallelism`]. Results are identical
    /// for every value; only wall-clock time changes.
    pub threads: usize,
    /// Lane width for bit-parallel batch replays (default
    /// [`delayavf_sim::MAX_LANES`]). Results are identical for every
    /// width; `1` disables batching and reproduces the sequential
    /// engine's reports byte-identically (the `--lanes 1` escape hatch).
    pub lanes: usize,
    /// Lane width for lane-packed timing-aware batch replays (default
    /// [`delayavf_sim::MAX_TIMING_LANES`]; widths above 64 take the
    /// 256-bit wide-word path and widths above 256 the 512-bit one).
    /// Results are identical for every width; `1` disables timing batching
    /// and reproduces the scalar [`delayavf_sim::DeltaEventSim`] engine's
    /// reports byte-identically (the `--timing-lanes 1` escape hatch).
    pub timing_lanes: usize,
    /// Use the pre-simulation collapsing layer — injection-site
    /// equivalence classes, the quiet-source certificate and the
    /// semi-formal masking discharge of flip groups no output ever
    /// observes (the default). Results are
    /// bit-for-bit identical either way; `false` runs the exact per-site
    /// baseline (the `--no-collapse` escape hatch).
    pub collapse: bool,
    /// Target Wilson half-width for adaptive stratified sampling. `None`
    /// (the default) samples uniformly: every site, in one round;
    /// `Some(t)` stratifies the injection sites, allocates replay budget
    /// Neyman-style and retires each stratum once its interval half-width
    /// is at most `t`. Must pass
    /// [`crate::sampling::validate_ci_target`].
    pub ci_target: Option<f64>,
    /// Buckets per stratification axis for adaptive sampling (strata count
    /// is the product of the two axes, so `strata²`). Ignored unless
    /// `ci_target` is set. Must pass [`crate::sampling::validate_strata`].
    pub strata: usize,
    /// Seed of the adaptive plan's per-stratum visit-order shuffle.
    /// Ignored unless `ci_target` is set.
    pub sample_seed: u64,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            due_slack: 2_000,
            threads: 0,
            lanes: MAX_LANES,
            timing_lanes: MAX_TIMING_LANES,
            collapse: true,
            ci_target: None,
            strata: crate::sampling::DEFAULT_STRATA,
            sample_seed: 7,
        }
    }
}

impl ReplayOptions {
    /// Options with the given DUE slack and thread count, every other knob
    /// at its default.
    pub fn new(due_slack: u64, threads: usize) -> Self {
        ReplayOptions {
            due_slack,
            threads,
            ..ReplayOptions::default()
        }
    }

    /// Builder-style override of the worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Builder-style override of the batch lane width (`1` = scalar
    /// baseline, `0` = maximum width).
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.lanes = lanes;
        self
    }

    /// Builder-style override of the timing batch lane width (`1` =
    /// scalar baseline, `0` = maximum width).
    pub fn with_timing_lanes(mut self, timing_lanes: usize) -> Self {
        self.timing_lanes = timing_lanes;
        self
    }

    /// Builder-style toggle of the pre-simulation collapsing layer.
    pub fn with_collapse(mut self, enabled: bool) -> Self {
        self.collapse = enabled;
        self
    }

    /// Builder-style override of the adaptive-sampling CI target
    /// (`None` = uniform sampling).
    pub fn with_ci_target(mut self, ci_target: Option<f64>) -> Self {
        self.ci_target = ci_target;
        self
    }

    /// Builder-style override of the per-axis stratification bucket count.
    pub fn with_strata(mut self, strata: usize) -> Self {
        self.strata = strata;
        self
    }

    /// Builder-style override of the adaptive visit-order seed.
    pub fn with_sample_seed(mut self, sample_seed: u64) -> Self {
        self.sample_seed = sample_seed;
        self
    }
}

/// Configuration of a DelayAVF campaign.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Delay durations to sweep, as fractions of the clock period (the
    /// paper sweeps 10%–90%).
    pub delay_fractions: Vec<f64>,
    /// Also evaluate the ORACE approximation per injection (needed for
    /// Table III; costs one replay per distinct (cycle, bit)).
    pub compute_orace: bool,
    /// Extra cycles past the golden program length before a non-halting
    /// faulty run is declared a DUE.
    pub due_slack: u64,
    /// Worker threads for the campaign engine. `0` (the default) resolves
    /// to [`std::thread::available_parallelism`]. Results are identical
    /// for every value; only wall-clock time changes.
    pub threads: usize,
    /// Lane width for bit-parallel batch replays; see
    /// [`ReplayOptions::lanes`].
    pub lanes: usize,
    /// Lane width for lane-packed timing-aware batch replays; see
    /// [`ReplayOptions::timing_lanes`].
    pub timing_lanes: usize,
    /// Use the pre-simulation collapsing layer; see
    /// [`ReplayOptions::collapse`].
    pub collapse: bool,
    /// Adaptive-sampling CI target; see [`ReplayOptions::ci_target`].
    pub ci_target: Option<f64>,
    /// Buckets per stratification axis; see [`ReplayOptions::strata`].
    pub strata: usize,
    /// Adaptive visit-order seed; see [`ReplayOptions::sample_seed`].
    pub sample_seed: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            delay_fractions: (1..=9).map(|k| k as f64 / 10.0).collect(),
            compute_orace: false,
            due_slack: 2_000,
            threads: 0,
            lanes: MAX_LANES,
            timing_lanes: MAX_TIMING_LANES,
            collapse: true,
            ci_target: None,
            strata: crate::sampling::DEFAULT_STRATA,
            sample_seed: 7,
        }
    }
}

impl CampaignConfig {
    /// A configuration sweeping a single delay fraction.
    pub fn single_delay(fraction: f64) -> Self {
        CampaignConfig {
            delay_fractions: vec![fraction],
            ..CampaignConfig::default()
        }
    }

    /// Builder-style override of the worker-thread count (`0` = one per
    /// available core).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Builder-style override of the batch lane width (`1` = scalar
    /// baseline, `0` = maximum width).
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.lanes = lanes;
        self
    }

    /// Builder-style override of the timing batch lane width (`1` =
    /// scalar baseline, `0` = maximum width).
    pub fn with_timing_lanes(mut self, timing_lanes: usize) -> Self {
        self.timing_lanes = timing_lanes;
        self
    }

    /// Builder-style toggle of the pre-simulation collapsing layer.
    pub fn with_collapse(mut self, enabled: bool) -> Self {
        self.collapse = enabled;
        self
    }

    /// Builder-style override of the adaptive-sampling CI target
    /// (`None` = uniform sampling).
    pub fn with_ci_target(mut self, ci_target: Option<f64>) -> Self {
        self.ci_target = ci_target;
        self
    }

    /// Builder-style override of the per-axis stratification bucket count.
    pub fn with_strata(mut self, strata: usize) -> Self {
        self.strata = strata;
        self
    }

    /// Builder-style override of the adaptive visit-order seed.
    pub fn with_sample_seed(mut self, sample_seed: u64) -> Self {
        self.sample_seed = sample_seed;
        self
    }

    /// The engine knobs of this sweep as replay options.
    fn replay_options(&self) -> ReplayOptions {
        ReplayOptions {
            due_slack: self.due_slack,
            threads: self.threads,
            lanes: self.lanes,
            timing_lanes: self.timing_lanes,
            collapse: self.collapse,
            ci_target: self.ci_target,
            strata: self.strata,
            sample_seed: self.sample_seed,
        }
    }
}

/// A worker's private injector, with the schedule-invariant knobs applied.
fn worker_injector<'g, E: Environment + Clone>(
    t: &Target<'g, E>,
    opts: &ReplayOptions,
) -> Injector<'g, E> {
    let mut injector = Injector::new(t.circuit, t.topo, t.timing, t.golden, opts.due_slack);
    injector.set_lanes(opts.lanes);
    injector.set_timing_lanes(opts.timing_lanes);
    injector.set_collapse(opts.collapse);
    injector
}

/// One queue worker's state: a private injector kept for every unit the
/// worker pulls, and its observer.
struct Worker<'g, 'a, E: Environment + Clone, S: TelemetrySink> {
    injector: Injector<'g, E>,
    obs: WorkerObserver<'a, S>,
}

/// The sampled cycles on which injection is well-defined: cycle 0 has no
/// preceding settled state to simulate from, and the final trace cycle has
/// no successor boundary to classify at. Every campaign filters through
/// this one helper so the conventions cannot drift apart.
pub fn valid_cycles<E: Environment + Clone>(golden: &GoldenRun<E>) -> Vec<u64> {
    golden
        .sampled_cycles
        .iter()
        .copied()
        .filter(|&c| c >= 1 && c < golden.trace.num_cycles())
        .collect()
}

/// Resolves a requested thread count: `0` means one per available core,
/// and no campaign spawns more workers than it has units.
fn resolve_threads(requested: usize, items: usize) -> usize {
    let t = if requested == 0 {
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    };
    t.clamp(1, items.max(1))
}

/// Estimated replay cost of a work unit at trace `cycle` with `sites`
/// injection sites: an injected error can replay at most to the end of the
/// trace, so cycles left times sites bounds the unit's replay work. Only
/// the *order* of these estimates matters.
fn unit_cost<E: Environment + Clone>(golden: &GoldenRun<E>, cycle: u64, sites: usize) -> u64 {
    golden.trace.num_cycles().saturating_sub(cycle) * sites as u64
}

/// The order workers pull units in: longest expected first (descending
/// `costs`), ties by unit index.
fn queue_order(costs: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(costs[i]), i));
    #[cfg(test)]
    schedule::apply(&mut order);
    order
}

/// Runs `work` over `units` on up to `threads` scoped workers that pull
/// unit indices, in `order`, from one shared atomic cursor. Each worker
/// builds its state once with `init(worker)`, runs every unit it pulls
/// against that state, and hands it to `finish` when the queue is empty.
///
/// Results come back **in unit order**, whatever the schedule, which is
/// what keeps order-sensitive merges (record concatenation, the adaptive
/// plan's tallies) deterministic. A failing unit stops every worker from
/// pulling more; the error of the lowest-indexed failed unit is returned.
fn run_queue<T, St, R>(
    threads: usize,
    units: &[T],
    order: &[usize],
    init: impl Fn(usize) -> St + Sync,
    work: impl Fn(&mut St, &T) -> Result<R, String> + Sync,
    finish: impl Fn(St) + Sync,
) -> Result<Vec<R>, String>
where
    T: Sync,
    R: Send,
{
    debug_assert_eq!(
        order.len(),
        units.len(),
        "order is a permutation of the units"
    );
    let cursor = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let worker = |id: usize| {
        let mut state = init(id);
        let mut done = Vec::new();
        while !failed.load(Ordering::Relaxed) {
            let Some(&i) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) else {
                break;
            };
            let result = work(&mut state, &units[i]);
            if result.is_err() {
                failed.store(true, Ordering::Relaxed);
            }
            done.push((i, result));
        }
        finish(state);
        done
    };
    let threads = threads.clamp(1, units.len().max(1));
    let per_worker: Vec<Vec<(usize, Result<R, String>)>> = if threads == 1 {
        vec![worker(0)]
    } else {
        thread::scope(|scope| {
            let worker = &worker;
            let handles: Vec<_> = (0..threads)
                .map(|id| scope.spawn(move || worker(id)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("campaign worker panicked"))
                .collect()
        })
    };
    let mut slots: Vec<Option<Result<R, String>>> = (0..units.len()).map(|_| None).collect();
    for (i, result) in per_worker.into_iter().flatten() {
        slots[i] = Some(result);
    }
    // Units are only left unrun after a failure, which `collect` reports.
    slots.into_iter().flatten().collect()
}

/// Test-only schedule override: permutes the queue order of every
/// campaign run on the calling thread, so tests can check that reports and
/// counters do not depend on which worker runs which unit, or when.
#[cfg(test)]
pub(crate) mod schedule {
    use std::cell::Cell;

    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    /// A replacement for the cost-ordered queue.
    #[derive(Clone, Copy, Debug)]
    pub(crate) enum Schedule {
        /// The cost order, reversed (shortest expected first).
        Reversed,
        /// A seeded shuffle of the cost order.
        Shuffled(u64),
    }

    thread_local! {
        static OVERRIDE: Cell<Option<Schedule>> = const { Cell::new(None) };
    }

    /// Runs `f` with every queue built on this thread ordered by `s`.
    pub(crate) fn with<R>(s: Schedule, f: impl FnOnce() -> R) -> R {
        OVERRIDE.with(|o| o.set(Some(s)));
        let r = f();
        OVERRIDE.with(|o| o.set(None));
        r
    }

    pub(super) fn apply(order: &mut [usize]) {
        match OVERRIDE.with(Cell::get) {
            None => {}
            Some(Schedule::Reversed) => order.reverse(),
            Some(Schedule::Shuffled(seed)) => order.shuffle(&mut StdRng::seed_from_u64(seed)),
        }
    }
}

/// Observability context threaded through the `*_observed` campaign entry
/// points: a telemetry sink plus an optional checkpoint spec. The plain
/// entry points are thin wrappers over [`RunContext::disabled`], which
/// monomorphizes every observability branch away.
#[derive(Clone, Debug)]
pub struct RunContext<'t, S: TelemetrySink = NullTelemetry> {
    /// Where structured events go. Use [`crate::NULL_TELEMETRY`] (via
    /// [`RunContext::disabled`]) for a zero-cost disabled stream.
    pub telemetry: &'t S,
    /// Periodic crash-safe checkpointing, if any.
    pub checkpoint: Option<CheckpointSpec>,
}

impl RunContext<'static, NullTelemetry> {
    /// No telemetry, no checkpointing: campaigns run exactly the
    /// pre-observability code paths.
    pub fn disabled() -> Self {
        RunContext {
            telemetry: &NULL_TELEMETRY,
            checkpoint: None,
        }
    }
}

impl Default for RunContext<'static, NullTelemetry> {
    fn default() -> Self {
        RunContext::disabled()
    }
}

impl<'t, S: TelemetrySink> RunContext<'t, S> {
    /// A context emitting to `telemetry`, optionally checkpointing.
    pub fn new(telemetry: &'t S, checkpoint: Option<CheckpointSpec>) -> Self {
        RunContext {
            telemetry,
            checkpoint,
        }
    }
}

/// Digest of everything that determines a campaign's *results*: the
/// campaign kind, circuit size, clock period, the golden trace content at
/// every unit cycle, the injected item list and the sweep parameters. Two
/// campaigns with equal fingerprints produce identical reports, so resumed
/// units can be trusted; anything else is a `checkpoint mismatch`.
fn campaign_fingerprint<E: Environment + Clone>(
    kind: &str,
    t: &Target<'_, E>,
    cycles: &[u64],
    items: &[usize],
    fractions: &[f64],
    due_slack: u64,
    orace: bool,
) -> u64 {
    let mut f = Fingerprint::new();
    f.write_bytes(kind.as_bytes());
    f.write_usize(t.circuit.num_dffs());
    f.write_u64(t.timing.clock_period());
    let trace = &t.golden.trace;
    f.write_u64(trace.num_cycles());
    f.write_bool(trace.halted());
    f.write_bytes(trace.program_output());
    f.write_usize(cycles.len());
    for &cy in cycles {
        f.write_u64(cy);
        for &word in trace.state_at(cy) {
            f.write_u64(word);
        }
    }
    f.write_usize(items.len());
    for &i in items {
        f.write_usize(i);
    }
    f.write_usize(fractions.len());
    for &fr in fractions {
        f.write_f64(fr);
    }
    f.write_u64(due_slack);
    f.write_bool(orace);
    f.finish()
}

/// Digest of the engine knobs that shape the *counters* without changing
/// results: `lanes`, `timing_lanes` and `collapse` all leave reports
/// byte-identical but move work between counters, so a checkpoint written
/// under one knob set cannot be merged under another without breaking the
/// stats-identity guarantee. `threads` is
/// deliberately absent — every counter is thread-count invariant, which is
/// exactly what lets an interrupted 8-thread campaign resume on 2 threads.
///
/// The adaptive sampling policy (`ci_target`, `strata`, `sample_seed`)
/// hashes in only when adaptive sampling is **on**: the policy then
/// decides *which sites were simulated*, so resuming across a policy
/// drift must be rejected. With adaptive sampling off the trio is inert
/// and deliberately excluded — changing an unused `strata` default must
/// not invalidate a uniform run's checkpoint.
fn knob_hash(opts: &ReplayOptions) -> u64 {
    let mut f = Fingerprint::new();
    f.write_usize(opts.lanes);
    f.write_usize(opts.timing_lanes);
    f.write_bool(opts.collapse);
    match opts.ci_target {
        None => f.write_bool(false),
        Some(target) => {
            f.write_bool(true);
            f.write_f64(target);
            f.write_usize(opts.strata);
            f.write_u64(opts.sample_seed);
        }
    }
    f.finish()
}

/// The opened (or absent) checkpoint side of one observed campaign run.
struct ObservedSetup {
    store: Option<Mutex<CheckpointStore>>,
    /// Snapshot of the resumed units, readable without locking the store.
    resumed: BTreeMap<u64, String>,
}

fn open_store(
    checkpoint: &Option<CheckpointSpec>,
    kind: &str,
    fingerprint: u64,
    knobs: u64,
) -> Result<ObservedSetup, String> {
    match checkpoint {
        None => Ok(ObservedSetup {
            store: None,
            resumed: BTreeMap::new(),
        }),
        Some(spec) => {
            let store = CheckpointStore::open(spec, kind, fingerprint, knobs)?;
            let resumed = store.resumed_units().clone();
            Ok(ObservedSetup {
                store: Some(Mutex::new(store)),
                resumed,
            })
        }
    }
}

/// Minimum spacing of a worker's intermediate heartbeats (a worker's
/// first unit and the campaign's last unit always beat).
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(250);

/// Campaign-wide progress shared by every worker's observer: units
/// finished and units scheduled so far, plus a lock that serializes
/// heartbeat emission so the stream's `done` values never decrease.
struct Progress {
    done: AtomicUsize,
    total: AtomicUsize,
    started: Option<Instant>,
    beat: Mutex<()>,
}

impl Progress {
    fn new<S: TelemetrySink>() -> Self {
        Progress {
            done: AtomicUsize::new(0),
            total: AtomicUsize::new(0),
            started: S::ENABLED.then(Instant::now),
            beat: Mutex::new(()),
        }
    }

    /// Adds a round's `units` to the campaign's scheduled total (a uniform
    /// campaign has a single round).
    fn schedule(&self, units: usize) {
        self.total.fetch_add(units, Ordering::Relaxed);
    }
}

/// Per-worker observability state: emits heartbeats/stats deltas, records
/// completed units into the shared checkpoint store, and accumulates the
/// worker's phase timers. All clock reads are gated on `S::ENABLED`, so a
/// disabled sink never touches a clock.
struct WorkerObserver<'a, S: TelemetrySink> {
    telemetry: &'a S,
    store: Option<&'a Mutex<CheckpointStore>>,
    progress: &'a Progress,
    worker: usize,
    last_beat: Option<Instant>,
    pending_stats: InjectorStats,
    phases: PhaseTotals,
}

impl<'a, S: TelemetrySink> WorkerObserver<'a, S> {
    fn new(
        telemetry: &'a S,
        store: Option<&'a Mutex<CheckpointStore>>,
        progress: &'a Progress,
        worker: usize,
    ) -> Self {
        WorkerObserver {
            telemetry,
            store,
            progress,
            worker,
            last_beat: None,
            pending_stats: InjectorStats::default(),
            phases: PhaseTotals::default(),
        }
    }

    /// Marks one unit complete: persists `payload` (fresh units only;
    /// resumed units are already in the store) and emits heartbeat +
    /// stats-delta events when due.
    fn unit_done(
        &mut self,
        key: u64,
        payload: Option<String>,
        stats_delta: Option<&InjectorStats>,
    ) -> Result<(), String> {
        let done = self.progress.done.fetch_add(1, Ordering::Relaxed) + 1;
        if let (Some(store), Some(payload)) = (self.store, payload) {
            let mut store = store
                .lock()
                .map_err(|_| "checkpoint store poisoned".to_string())?;
            let flushed = store.record(key, payload)?;
            if S::ENABLED && flushed {
                let completed_units = store.completed();
                drop(store);
                self.telemetry
                    .emit(&TelemetryEvent::CheckpointFlush { completed_units });
            }
        }
        if S::ENABLED {
            if let Some(delta) = stats_delta {
                self.pending_stats.merge(delta);
            }
            let now = Instant::now();
            let due = done == self.progress.total.load(Ordering::Relaxed)
                || self
                    .last_beat
                    .is_none_or(|t| now.duration_since(t) >= HEARTBEAT_INTERVAL);
            if due {
                self.last_beat = Some(now);
                // Counts are read under the lock, so a heartbeat emitted
                // after the campaign's last unit always reports it.
                let _beat = self
                    .progress
                    .beat
                    .lock()
                    .map_err(|_| "heartbeat lock poisoned".to_string())?;
                let done = self.progress.done.load(Ordering::Relaxed);
                let total = self.progress.total.load(Ordering::Relaxed);
                let elapsed = self
                    .progress
                    .started
                    .map_or(0.0, |s| s.elapsed().as_secs_f64());
                let (units_per_sec, eta_s) = heartbeat_rates(done, total, elapsed);
                self.telemetry.emit(&TelemetryEvent::ShardHeartbeat {
                    shard: self.worker,
                    done,
                    total,
                    units_per_sec,
                    eta_s,
                });
                if stats_delta.is_some() {
                    self.telemetry.emit(&TelemetryEvent::StatsDelta {
                        shard: self.worker,
                        stats: self.pending_stats,
                    });
                    self.pending_stats = InjectorStats::default();
                }
            }
        }
        Ok(())
    }

    /// Emits the counters merged since the worker's last stats delta, so a
    /// stream's deltas add up to the campaign's counters, and the worker's
    /// phase-timer totals (once, when it runs out of units).
    fn finish(self) {
        if S::ENABLED {
            if self.pending_stats != InjectorStats::default() {
                self.telemetry.emit(&TelemetryEvent::StatsDelta {
                    shard: self.worker,
                    stats: self.pending_stats,
                });
            }
            self.telemetry.emit(&TelemetryEvent::PhaseTimers {
                shard: self.worker,
                phases: self.phases,
            });
        }
    }
}

/// Heartbeat rate math: `(units_per_sec, eta_s)` from the units completed,
/// the units scheduled and the elapsed seconds. Degenerate inputs — zero
/// elapsed time on an instantaneous first unit, or zero completed units —
/// yield `0.0` rather than NaN/∞: the JSONL layer would render non-finite
/// numbers as `0.000` anyway, but never producing them keeps `eta_s`
/// honest at the source. The remaining-unit count saturates so a `done`
/// overshoot can never panic the telemetry path.
fn heartbeat_rates(done: usize, total: usize, elapsed: f64) -> (f64, f64) {
    let units_per_sec = if elapsed > 0.0 {
        done as f64 / elapsed
    } else {
        0.0
    };
    let eta_s = if units_per_sec > 0.0 {
        total.saturating_sub(done) as f64 / units_per_sec
    } else {
        0.0
    };
    (units_per_sec, eta_s)
}

/// Runs `f`, adding its wall-clock microseconds to `acc` when `enabled`.
/// The disabled branch is the bare call — no clock read at all.
fn timed<T>(enabled: bool, acc: &mut u64, f: impl FnOnce() -> T) -> T {
    if enabled {
        let t0 = Instant::now();
        let r = f();
        *acc += t0.elapsed().as_micros() as u64;
        r
    } else {
        f()
    }
}

/// Emits a `campaign_start`, runs `body` against a fresh campaign-wide
/// [`Progress`], emits the matching `campaign_end`, and performs the final
/// checkpoint flush.
fn observe_campaign<R, S: TelemetrySink>(
    ctx: &RunContext<'_, S>,
    setup: &ObservedSetup,
    campaign: &str,
    units: usize,
    threads: usize,
    body: impl FnOnce(&Progress) -> Result<R, String>,
) -> Result<R, String> {
    let t0 = S::ENABLED.then(Instant::now);
    if S::ENABLED {
        ctx.telemetry.emit(&TelemetryEvent::CampaignStart {
            campaign,
            units,
            threads,
            resumed_units: setup.resumed.len(),
        });
    }
    let result = body(&Progress::new::<S>())?;
    if let Some(store) = &setup.store {
        store
            .lock()
            .map_err(|_| "checkpoint store poisoned".to_string())?
            .flush()?;
    }
    if S::ENABLED {
        let wall_ms = t0.map_or(0, |t| t.elapsed().as_millis() as u64);
        ctx.telemetry.emit(&TelemetryEvent::CampaignEnd {
            campaign,
            units,
            wall_ms,
        });
    }
    Ok(result)
}

// ---------------------------------------------------------------------------
// The one campaign driver.
// ---------------------------------------------------------------------------

/// The netlist, its timing model and the golden run a campaign injects
/// into.
struct Target<'g, E: Environment + Clone> {
    circuit: &'g Circuit,
    topo: &'g Topology,
    timing: &'g TimingModel,
    golden: &'g GoldenRun<E>,
}

/// One campaign's part of the shared driver: its injection sites, what one
/// unit computes, and how the units add up. Sites are `(cycle, item)`
/// pairs, numbered `cycle position × sites_per_cycle + item`.
trait Campaign: Sync {
    /// The partial result units merge into.
    type Acc;
    /// What the campaign's entry point returns.
    type Out;
    /// Offset of a unit's latch boundary from its cycle: `1` for delay
    /// faults, `0` for strikes (see the module docs).
    const BOUNDARY: u64;

    /// Checkpoint kind and telemetry label (`delay_sweep`, `savf`, …); an
    /// adaptive run appends `_adaptive`.
    fn kind(&self) -> &'static str;

    /// What besides the trace determines the results: the injected item
    /// indices, the delay fractions and whether ORACE is computed.
    fn identity(&self) -> (Vec<usize>, &[f64], bool);

    /// Injection sites per trace cycle: the edges for the sweep, one for
    /// the campaigns that strike their whole item list at a cycle.
    fn sites_per_cycle(&self) -> usize {
        1
    }

    /// Injections one site stands for (the unit cost and the adaptive
    /// savings count them).
    fn injections_per_site(&self) -> usize;

    /// Proportions the plan tallies per site.
    fn estimands(&self) -> usize {
        1
    }

    /// Every site's stratum under `buckets` buckets per axis, for the
    /// adaptive plan: toggle activity × trace phase by default.
    fn strata<E: Environment + Clone>(
        &self,
        t: &Target<'_, E>,
        cycles: &[u64],
        buckets: usize,
    ) -> Vec<usize> {
        cycle_strata(t.golden, cycles, buckets)
    }

    /// The payload sections of a unit with `sites` selected sites in a
    /// campaign over `dffs` flip-flops; `kept` says whether the driver
    /// keeps a boundary store, which the sweep's step-1 section feeds.
    fn layout(&self, sites: usize, kept: bool, dffs: usize) -> Layout<'_>;

    /// Runs the `selected` items at `cycle`, filling every section of the
    /// layout except `stats` and `fc`, which the driver adds. `step1` is
    /// the store's step-1 results at the cycle when the driver keeps a
    /// store (see [`Settled`]).
    fn run<E: Environment + Clone, S: TelemetrySink>(
        &self,
        w: &mut Worker<'_, '_, E, S>,
        cycle: u64,
        selected: &[usize],
        step1: Option<&Step1Map>,
    ) -> UnitPayload;

    /// Writes the `j`-th selected site's per-estimand hits and trials into
    /// the zeroed `hits` and `trials`.
    fn tally_site(&self, unit: &UnitPayload, j: usize, hits: &mut [u64], trials: &mut [u64]);

    /// The partial result before any unit.
    fn empty(&self) -> Self::Acc;

    /// Merges one unit; units arrive in unit order.
    fn merge(&self, acc: &mut Self::Acc, unit: UnitPayload);

    /// The entry point's result from the merged units and counters, given
    /// the plan when it was an adaptive one.
    fn finish(
        &self,
        acc: Self::Acc,
        stats: InjectorStats,
        adaptive: Option<&AdaptivePlan>,
    ) -> Self::Out;
}

/// Runs campaign `c`: every round of its sampling plan, one queue of
/// `(round, cycle)` units per round, under `ctx`'s telemetry and
/// checkpoint. `opts.ci_target` picks the plan — exhaustive when unset,
/// the validated Neyman plan when set.
fn drive<C: Campaign, E: Environment + Clone, S: TelemetrySink>(
    c: &C,
    t: &Target<'_, E>,
    opts: &ReplayOptions,
    ctx: &RunContext<'_, S>,
) -> Result<C::Out, String> {
    let cycles = valid_cycles(t.golden);
    let per_cycle = c.sites_per_cycle();
    let population = cycles.len() * per_cycle;
    let (mut plan, kind, adaptive) = match opts.ci_target {
        None => (
            AdaptivePlan::exhaustive(population, c.estimands()),
            c.kind().to_owned(),
            false,
        ),
        Some(target) => {
            let target = validate_ci_target(target)?;
            let buckets = validate_strata(opts.strata)?;
            let plan = AdaptivePlan::new(
                c.strata(t, &cycles, buckets),
                buckets * buckets,
                c.estimands(),
                target,
                opts.sample_seed,
            );
            (plan, format!("{}_adaptive", c.kind()), true)
        }
    };
    let (items, fractions, orace) = c.identity();
    let fingerprint =
        campaign_fingerprint(&kind, t, &cycles, &items, fractions, opts.due_slack, orace);
    let setup = open_store(&ctx.checkpoint, &kind, fingerprint, knob_hash(opts))?;
    let threads = resolve_threads(opts.threads, cycles.len());
    observe_campaign(ctx, &setup, &kind, cycles.len(), threads, |progress| {
        let store = setup.store.as_ref();
        // Later rounds revisit a boundary only in an adaptive campaign with
        // several sites per cycle (the sweep): the exhaustive plan runs one
        // round, and the other kinds' sites are whole cycles. Only then is
        // what units settle kept for later rounds.
        let mut settled = (adaptive && per_cycle > 1).then(BoundaryStore::default);
        // Worker injectors outlive their round: what they keep from unit to
        // unit is either a pure function of the netlist (the collapse plan,
        // fan-in cones) or reset per unit (the golden waveform, the step-1
        // sets), so later rounds start warm whichever worker takes which. A
        // push or pop leaves the pool valid, so a poisoned lock still
        // guards a usable pool.
        let idle: Mutex<Vec<Injector<'_, E>>> = Mutex::new(Vec::new());
        let pooled = || idle.lock().unwrap_or_else(PoisonError::into_inner);
        let mut acc = c.empty();
        let mut stats = InjectorStats::default();
        let mut hits = vec![0; c.estimands()];
        let mut trials = vec![0; c.estimands()];
        for round in 0.. {
            let sites = plan.next_round();
            if sites.is_empty() {
                break;
            }
            // The round's sites come in ascending order; each cycle's run
            // of them is one unit, whose body batches one latch boundary.
            let units: Vec<(usize, Vec<usize>)> = sites
                .chunk_by(|a, b| a / per_cycle == b / per_cycle)
                .map(|run| {
                    let items = run.iter().map(|site| site % per_cycle).collect();
                    (run[0] / per_cycle, items)
                })
                .collect();
            let costs: Vec<u64> = units
                .iter()
                .map(|(pos, items)| {
                    unit_cost(
                        t.golden,
                        cycles[*pos],
                        items.len() * c.injections_per_site(),
                    )
                })
                .collect();
            progress.schedule(units.len());
            let results = run_queue(
                resolve_threads(opts.threads, units.len()),
                &units,
                &queue_order(&costs),
                |id| Worker {
                    injector: pooled().pop().unwrap_or_else(|| worker_injector(t, opts)),
                    obs: WorkerObserver::new(ctx.telemetry, store, progress, id),
                },
                |w: &mut Worker<'_, '_, E, S>, (pos, items)| {
                    let cycle = cycles[*pos];
                    let key = round_key(round, cycle);
                    run_unit(c, t, w, key, cycle, items, &setup, settled.as_ref())
                },
                |w| {
                    w.obs.finish();
                    pooled().push(w.injector);
                },
            )?;
            // Results come back in unit order, so the merge, the plan's
            // tallies and the store are schedule-invariant.
            for ((pos, items), mut unit) in units.iter().zip(results) {
                let (failures, step1) = (unit.failures.take(), unit.step1.take());
                if let Some(settled) = &mut settled {
                    let at = settled.entry(cycles[*pos] + C::BOUNDARY).or_default();
                    at.classes.extend(failures.into_iter().flatten());
                    at.step1.extend(step1.into_iter().flatten());
                }
                for (j, &item) in items.iter().enumerate() {
                    hits.fill(0);
                    trials.fill(0);
                    c.tally_site(&unit, j, &mut hits, &mut trials);
                    plan.record(pos * per_cycle + item, &hits, &trials);
                }
                if let Some(delta) = &unit.stats {
                    stats.merge(delta);
                }
                c.merge(&mut acc, unit);
            }
            plan.finish_round();
        }
        let adaptive = adaptive.then_some(&plan);
        if let Some(plan) = adaptive {
            stats.strata_active = plan.strata_active() as u64;
            stats.strata_retired_early = plan.strata_retired_early() as u64;
            stats.adaptive_replays_saved =
                ((population - plan.sampled_sites()) * c.injections_per_site()) as u64;
        }
        Ok(c.finish(acc, stats, adaptive))
    })
}

/// Runs one unit — or restores it from the resumed checkpoint — and marks
/// it done. A fresh unit starts from what `known` holds at its boundary
/// and gets its counter delta. When `known` is kept, its `failures` and
/// `step1` sections hold what it settled that `known` did not (its
/// `failures` also when it checkpoints); a restored unit reads them back
/// from its payload, so a resumed run rebuilds the same `known`.
#[allow(clippy::too_many_arguments)]
fn run_unit<C: Campaign, E: Environment + Clone, S: TelemetrySink>(
    c: &C,
    t: &Target<'_, E>,
    w: &mut Worker<'_, '_, E, S>,
    key: u64,
    cycle: u64,
    selected: &[usize],
    setup: &ObservedSetup,
    known: Option<&BoundaryStore>,
) -> Result<UnitPayload, String> {
    let boundary = cycle + C::BOUNDARY;
    let layout = c.layout(selected.len(), known.is_some(), t.circuit.num_dffs());
    if let Some(payload) = setup.resumed.get(&key) {
        let unit = decode_unit(payload, &layout, cycle)?;
        w.obs.unit_done(key, None, unit.stats.as_ref())?;
        return Ok(unit);
    }
    let none = Settled::default();
    let carried = known.map(|k| k.get(&boundary).unwrap_or(&none));
    if let Some(carried) = carried {
        w.injector.preload_failures(boundary, &carried.classes);
    }
    let before = w.injector.stats;
    w.injector.forget_golden_wave();
    let mut unit = c.run(w, cycle, selected, carried.map(|k| &k.step1));
    if layout.stats {
        unit.stats = Some(w.injector.stats.delta_since(&before));
    }
    let checkpointing = setup.store.is_some();
    if layout.failures && (known.is_some() || checkpointing) {
        let mut fresh = w.injector.take_failures(boundary);
        if let Some(carried) = carried {
            fresh.retain(|(set, _)| !carried.classes.contains_key(set));
        }
        unit.failures = Some(fresh);
    }
    let payload = checkpointing.then(|| encode_unit(&unit));
    w.obs.unit_done(key, payload, unit.stats.as_ref())?;
    Ok(unit)
}

/// A sweep cycle's step-1 results by pair index (`fraction × edges + edge
/// item`, the order of [`Sweep::pairs`]): the dynamic flip set of every
/// pair that passed the cheap pre-filters and whose set needed the cycle's
/// golden waveform — timed, certified by the quiet-source check, or its
/// collapse representative's.
///
/// Most stored sets are empty, so a stored pair costs one bit of `stored`
/// and only the nonempty sets are kept in `sets`.
#[derive(Debug, Default)]
struct Step1Map {
    /// Bit `pair % 64` of word `pair / 64` marks a stored pair.
    stored: Vec<u64>,
    /// The nonempty flip sets of stored pairs.
    sets: HashMap<usize, Vec<DffId>>,
}

/// The flip set of a stored pair missing from [`Step1Map::sets`].
static NO_FLIPS: Vec<DffId> = Vec::new();

impl Step1Map {
    fn contains(&self, pair: usize) -> bool {
        self.stored
            .get(pair / 64)
            .is_some_and(|w| (w >> (pair % 64)) & 1 == 1)
    }

    /// Every stored pair with its flip set, in ascending pair order.
    fn iter(&self) -> impl Iterator<Item = (usize, &Vec<DffId>)> + '_ {
        self.stored.iter().enumerate().flat_map(move |(w, &word)| {
            (0..64).filter(move |b| (word >> b) & 1 == 1).map(move |b| {
                let pair = w * 64 + b;
                (pair, self.sets.get(&pair).unwrap_or(&NO_FLIPS))
            })
        })
    }
}

impl Extend<Step1Entry> for Step1Map {
    fn extend<I: IntoIterator<Item = Step1Entry>>(&mut self, entries: I) {
        for (pair, set) in entries {
            if self.stored.len() <= pair / 64 {
                self.stored.resize(pair / 64 + 1, 0);
            }
            self.stored[pair / 64] |= 1 << (pair % 64);
            if set.is_empty() {
                self.sets.remove(&pair);
            } else {
                self.sets.insert(pair, set);
            }
        }
    }
}

/// What earlier adaptive rounds settled at one latch boundary, and later
/// rounds there start from.
#[derive(Debug, Default)]
struct Settled {
    /// Failure classes by flip set, settled by replay or by formal
    /// discharge.
    classes: HashMap<Vec<DffId>, FailureClass>,
    /// The sweep's step-1 results at the boundary's cycle.
    step1: Step1Map,
}

/// The boundary store: what a campaign has settled at each latch boundary.
/// `drive` changes it only between rounds, adding each unit's new entries
/// in unit order, so every unit sees exactly the earlier rounds' classes
/// and step-1 results whatever the schedule and thread count.
type BoundaryStore = HashMap<u64, Settled>;

/// Packs a checkpoint key: adaptive rounds may revisit a cycle with a
/// different site subset, so the key embeds the round number. A uniform
/// campaign has one round, so its keys are its cycles.
fn round_key(round: u64, cycle: u64) -> u64 {
    debug_assert!(cycle < (1 << 44), "trace cycle overflows the round key");
    (round << 44) | cycle
}

/// The composed estimate of estimand `e` under an adaptive plan.
fn adaptive_estimate(plan: &AdaptivePlan, e: usize) -> AdaptiveEstimate {
    let est = plan.estimate(e);
    AdaptiveEstimate {
        point: est.point,
        lo: est.lo,
        hi: est.hi,
        population: plan.population(),
        sampled: plan.sampled_sites(),
    }
}

/// Writes `(visible, total)` of one site's flags as its single estimand.
fn tally_visible(visible: impl Iterator<Item = bool>, hits: &mut [u64], trials: &mut [u64]) {
    for v in visible {
        hits[0] += u64::from(v);
        trials[0] += 1;
    }
}

/// Folds one injection outcome into a result row (shared by the sweep and
/// the record-keeping campaign so their accounting cannot diverge).
fn tally(row: &mut DelayAvfResult, outcome: &InjectionOutcome) {
    row.injections += 1;
    if outcome.statically_reachable > 0 {
        row.static_hits += 1;
    }
    if !outcome.dynamic_set.is_empty() {
        row.dynamic_hits += 1;
        if outcome.is_multi_bit() {
            row.multi_bit_hits += 1;
        }
    }
    if outcome.visible {
        row.delay_ace_hits += 1;
        match outcome.class {
            FailureClass::Sdc => row.sdc_hits += 1,
            FailureClass::Due => row.due_hits += 1,
            FailureClass::Masked => unreachable!("visible"),
        }
    }
}

/// One empty result row per configured delay fraction.
fn empty_rows(config: &CampaignConfig) -> Vec<DelayAvfResult> {
    config
        .delay_fractions
        .iter()
        .map(|&fraction| DelayAvfResult {
            delay_fraction: fraction,
            orace: config.compute_orace.then(OraceStats::default),
            ..DelayAvfResult::default()
        })
        .collect()
}

fn fraction_to_picos(timing: &TimingModel, fraction: f64) -> Picos {
    (timing.clock_period() as f64 * fraction).round() as Picos
}

fn edge_items(edges: &[EdgeId]) -> Vec<usize> {
    edges.iter().map(|e| e.index()).collect()
}

fn dff_items(dffs: &[DffId]) -> Vec<usize> {
    dffs.iter().map(|d| d.index()).collect()
}

// ---------------------------------------------------------------------------
// The five campaigns.
// ---------------------------------------------------------------------------

/// The DelayAVF sweep: every (cycle, edge) site under every delay
/// fraction. A unit is the full fraction sweep over its edges at one
/// cycle, so all fractions share one golden waveform build and one cycle
/// reconstruction.
struct Sweep<'a> {
    edges: &'a [EdgeId],
    config: &'a CampaignConfig,
    /// Each delay fraction's extra delay.
    extras: Vec<Picos>,
}

impl Sweep<'_> {
    /// The `(edge, extra)` pairs of the edges at `items`, fraction-major.
    fn pairs(&self, items: &[usize]) -> Vec<(EdgeId, Picos)> {
        self.extras
            .iter()
            .flat_map(|&extra| items.iter().map(move |&i| (self.edges[i], extra)))
            .collect()
    }

    /// The step-1 results `injector` now holds for the pairs of one
    /// [`Sweep::pairs`] call over `items`, with results `parts`, that passed
    /// the static filter and `known` lacks.
    fn fresh_step1<E: Environment + Clone>(
        &self,
        injector: &mut Injector<'_, E>,
        cycle: u64,
        known: &Step1Map,
        items: &[usize],
        parts: &[(usize, Vec<DffId>)],
    ) -> Vec<Step1Entry> {
        let mut fresh = Vec::new();
        for (k, &(statically_reachable, _)) in parts.iter().enumerate() {
            let (fi, item) = (k / items.len(), items[k % items.len()]);
            let pair = fi * self.edges.len() + item;
            if statically_reachable == 0 || known.contains(pair) {
                continue;
            }
            let (edge, extra) = (self.edges[item], self.extras[fi]);
            if let Some(set) = injector.step1_result(cycle, edge, extra) {
                fresh.push((pair, set.clone()));
            }
        }
        fresh
    }
}

/// The nonempty flip groups of a cycle's step-1 results and, under ORACE,
/// the single bits they contain: every set the sites classify against.
fn flip_sets<'p, P>(parts: P, orace: bool) -> impl Iterator<Item = Vec<DffId>> + 'p
where
    P: Iterator<Item = &'p (usize, Vec<DffId>)> + Clone + 'p,
{
    let groups = parts
        .clone()
        .map(|(_, set)| set)
        .filter(|set| !set.is_empty());
    let bits = parts
        .filter(move |_| orace)
        .flat_map(|(_, set)| set.iter().map(|&d| vec![d]));
    groups.cloned().chain(bits)
}

impl Campaign for Sweep<'_> {
    type Acc = Vec<DelayAvfResult>;
    type Out = (Vec<DelayAvfResult>, InjectorStats);
    const BOUNDARY: u64 = 1;

    fn kind(&self) -> &'static str {
        "delay_sweep"
    }

    fn identity(&self) -> (Vec<usize>, &[f64], bool) {
        let c = self.config;
        (edge_items(self.edges), &c.delay_fractions, c.compute_orace)
    }

    fn sites_per_cycle(&self) -> usize {
        self.edges.len()
    }

    fn injections_per_site(&self) -> usize {
        self.extras.len()
    }

    fn estimands(&self) -> usize {
        self.extras.len()
    }

    /// Edge static slack × cycle toggle activity.
    fn strata<E: Environment + Clone>(
        &self,
        t: &Target<'_, E>,
        cycles: &[u64],
        buckets: usize,
    ) -> Vec<usize> {
        let toggles: Vec<u64> = cycles
            .iter()
            .map(|&cycle| toggle_activity(t.golden, cycle))
            .collect();
        let slacks: Vec<u64> = self
            .edges
            .iter()
            .map(|&edge| edge_static_slack(t.timing, t.circuit, t.topo, edge))
            .collect();
        let tb = bucket_axis(&toggles, buckets);
        let sb = bucket_axis(&slacks, buckets);
        let width = self.edges.len().max(1);
        (0..cycles.len() * self.edges.len())
            .map(|site| sb[site % width] * buckets + tb[site / width])
            .collect()
    }

    fn layout(&self, sites: usize, kept: bool, dffs: usize) -> Layout<'_> {
        Layout {
            rows: Some((&self.config.delay_fractions, self.config.compute_orace)),
            vis: Some(sites * self.extras.len()),
            stats: true,
            failures: true,
            // Only a kept store has step-1 results to rebuild.
            step1: kept.then_some(self.edges.len() * self.extras.len()),
            dffs,
            ..Layout::default()
        }
    }

    fn run<E: Environment + Clone, S: TelemetrySink>(
        &self,
        w: &mut Worker<'_, '_, E, S>,
        cycle: u64,
        selected: &[usize],
        step1: Option<&Step1Map>,
    ) -> UnitPayload {
        let config = self.config;
        let injector = &mut w.injector;
        let phases = &mut w.obs.phases;
        let mut vis = Vec::with_capacity(self.extras.len() * selected.len());
        let mut rows = empty_rows(config);
        // Golden-settle phase: reconstruct the cycle context once for every
        // fraction and edge injected here (touches no counters, so timing it
        // separately cannot perturb the deterministic report path).
        timed(S::ENABLED, &mut phases.golden_settle_us, || {
            injector.warm_cycle_data(cycle)
        });
        // A kept store seeds the cycle's step-1 sets: pairs an earlier round
        // resolved on the golden waveform are served without it.
        if let Some(known) = step1 {
            let n = self.edges.len();
            let seeds = known
                .iter()
                .map(|(pair, set)| (self.edges[pair % n], self.extras[pair / n], set));
            injector.preload_step1(cycle, seeds);
        }
        // Phase 1 (timing-aware): one lane-packing pass over the whole cycle.
        // Every fraction's (edge, extra) pairs are handed to the batch carver
        // together, fraction-major, so the per-pair filter decisions and the
        // scalar fallback run in exactly the per-fraction loop's order while
        // survivors from *different* fractions share lanes whenever their
        // edges don't conflict (the carver keeps same-edge/different-extra
        // pairs apart, which the packed engine would retire anyway).
        let mut parts: Vec<(usize, Vec<DffId>)> =
            timed(S::ENABLED, &mut phases.timing_step_us, || {
                injector.dynamically_reachable_batch(cycle, &self.pairs(selected))
            });
        // One batch set per boundary: a unit that leaves a class unsettled
        // at its boundary times the cycle's other edges too, on the golden
        // waveform it already built, and replays every unsettled set of the
        // whole cycle at once. Its fresh classes reach the boundary class
        // store, so no later adaptive round replays here. A unit that built
        // the waveform times the other edges on it as well, so their sets
        // reach the step-1 store and no later round builds it again.
        // Uniform units already hold the whole cycle, and at `lanes = 1`
        // prefilling is a no-op, so the extra timing would batch nothing.
        let boundary = cycle + 1;
        let orace = config.compute_orace;
        let mut rest = Vec::new();
        let mut rest_parts = Vec::new();
        if config.lanes != 1 && selected.len() < self.edges.len() {
            let unsettled =
                flip_sets(parts.iter(), orace).any(|set| !injector.failure_settled(boundary, &set));
            if unsettled || injector.holds_golden_wave(cycle) {
                // A unit's items come in ascending order.
                rest = (0..self.edges.len())
                    .filter(|i| selected.binary_search(i).is_err())
                    .collect();
                rest_parts = timed(S::ENABLED, &mut phases.timing_step_us, || {
                    injector.dynamically_reachable_batch(cycle, &self.pairs(&rest))
                });
            }
            if unsettled {
                timed(S::ENABLED, &mut phases.replay_us, || {
                    injector.prefill_failures(
                        boundary,
                        flip_sets(parts.iter().chain(&rest_parts), orace),
                    )
                });
            }
        }
        let step1 = step1.map(|known| {
            let mut fresh = self.fresh_step1(injector, cycle, known, selected, &parts);
            fresh.extend(self.fresh_step1(injector, cycle, known, &rest, &rest_parts));
            fresh.sort_unstable_by_key(|&(pair, _)| pair);
            fresh
        });
        for (fi, parts) in parts.chunks_mut(selected.len().max(1)).enumerate() {
            timed(S::ENABLED, &mut phases.replay_us, || {
                // Phase 2: batch the whole boundary's replays — group sets and,
                // for ORACE, the individual bits they contain.
                injector.prefill_failures(boundary, parts.iter().map(|(_, set)| set.clone()));
                if config.compute_orace {
                    injector.prefill_failures(
                        boundary,
                        parts
                            .iter()
                            .flat_map(|(_, set)| set.iter().map(|&d| vec![d])),
                    );
                }
                // Phase 3 (cache-served): identical tally order to the scalar
                // engine's interleaved loop.
                for (statically_reachable, dynamic_set) in parts.iter_mut() {
                    let outcome = injector.classify_injection(
                        cycle,
                        *statically_reachable,
                        std::mem::take(dynamic_set),
                    );
                    vis.push(outcome.visible);
                    tally(&mut rows[fi], &outcome);
                    if config.compute_orace && !outcome.dynamic_set.is_empty() {
                        let or = injector.or_ace(boundary, &outcome.dynamic_set);
                        let o = rows[fi].orace.as_mut().expect("orace rows configured");
                        if or {
                            o.or_hits += 1;
                        }
                        if or && !outcome.visible {
                            o.interference += 1;
                        }
                        if !or && outcome.visible {
                            o.compounding += 1;
                        }
                    }
                }
            });
        }
        UnitPayload {
            rows: Some(rows),
            vis: Some(vis),
            step1,
            ..UnitPayload::default()
        }
    }

    /// One trial per fraction; the flags are fraction-major.
    fn tally_site(&self, unit: &UnitPayload, j: usize, hits: &mut [u64], trials: &mut [u64]) {
        let vis = unit.vis.as_deref().unwrap_or_default();
        let width = vis.len() / hits.len().max(1);
        for (fi, (h, t)) in hits.iter_mut().zip(trials).enumerate() {
            *h = u64::from(vis[fi * width + j]);
            *t = 1;
        }
    }

    fn empty(&self) -> Vec<DelayAvfResult> {
        empty_rows(self.config)
    }

    fn merge(&self, rows: &mut Vec<DelayAvfResult>, unit: UnitPayload) {
        for (row, part) in rows.iter_mut().zip(unit.rows.iter().flatten()) {
            row.merge(part);
        }
    }

    fn finish(
        &self,
        mut rows: Vec<DelayAvfResult>,
        stats: InjectorStats,
        adaptive: Option<&AdaptivePlan>,
    ) -> Self::Out {
        if let Some(plan) = adaptive {
            for (fi, row) in rows.iter_mut().enumerate() {
                row.adaptive = Some(adaptive_estimate(plan, fi));
            }
        }
        (rows, stats)
    }
}

/// One delay fraction over every edge at each cycle site, keeping every
/// injection's record, in edge order.
struct Records<'a> {
    edges: &'a [EdgeId],
    fraction: [f64; 1],
    extra: Picos,
}

impl Campaign for Records<'_> {
    type Acc = (DelayAvfResult, Vec<InjectionRecord>);
    type Out = (DelayAvfResult, Vec<InjectionRecord>);
    const BOUNDARY: u64 = 1;

    fn kind(&self) -> &'static str {
        "delay_records"
    }

    fn identity(&self) -> (Vec<usize>, &[f64], bool) {
        (edge_items(self.edges), &self.fraction, false)
    }

    fn injections_per_site(&self) -> usize {
        self.edges.len()
    }

    fn layout(&self, _sites: usize, _kept: bool, dffs: usize) -> Layout<'_> {
        Layout {
            records: Some(self.edges.len()),
            failures: true,
            dffs,
            ..Layout::default()
        }
    }

    fn run<E: Environment + Clone, S: TelemetrySink>(
        &self,
        w: &mut Worker<'_, '_, E, S>,
        cycle: u64,
        _selected: &[usize],
        _step1: Option<&Step1Map>,
    ) -> UnitPayload {
        // Same two-phase structure as the sweep: collect the cycle's dynamic
        // sets, batch their replays, then record in edge order.
        let injector = &mut w.injector;
        let phases = &mut w.obs.phases;
        timed(S::ENABLED, &mut phases.golden_settle_us, || {
            injector.warm_cycle_data(cycle)
        });
        let pairs: Vec<(EdgeId, Picos)> = self.edges.iter().map(|&e| (e, self.extra)).collect();
        let parts: Vec<(usize, Vec<DffId>)> = timed(S::ENABLED, &mut phases.timing_step_us, || {
            injector.dynamically_reachable_batch(cycle, &pairs)
        });
        let records = timed(S::ENABLED, &mut phases.replay_us, || {
            injector.prefill_failures(cycle + 1, parts.iter().map(|(_, set)| set.clone()));
            self.edges
                .iter()
                .zip(parts)
                .map(
                    |(&edge, (statically_reachable, dynamic_set))| InjectionRecord {
                        cycle,
                        edge,
                        outcome: injector.classify_injection(
                            cycle,
                            statically_reachable,
                            dynamic_set,
                        ),
                    },
                )
                .collect()
        });
        UnitPayload {
            records: Some(records),
            ..UnitPayload::default()
        }
    }

    fn tally_site(&self, unit: &UnitPayload, _j: usize, hits: &mut [u64], trials: &mut [u64]) {
        let records = unit.records.iter().flatten();
        tally_visible(records.map(|r| r.outcome.visible), hits, trials);
    }

    fn empty(&self) -> Self::Acc {
        let row = DelayAvfResult {
            delay_fraction: self.fraction[0],
            ..DelayAvfResult::default()
        };
        (row, Vec::new())
    }

    fn merge(&self, (row, records): &mut Self::Acc, unit: UnitPayload) {
        for record in unit.records.into_iter().flatten() {
            tally(row, &record.outcome);
            records.push(record);
        }
    }

    fn finish(
        &self,
        (mut row, records): Self::Acc,
        _stats: InjectorStats,
        adaptive: Option<&AdaptivePlan>,
    ) -> Self::Out {
        row.adaptive = adaptive.map(|plan| adaptive_estimate(plan, 0));
        (row, records)
    }
}

/// Particle strikes at each cycle site: every run of `width` adjacent
/// items struck together — each item alone for sAVF, each adjacent pair
/// for the spatial double strike.
struct Strikes<'a> {
    kind: &'static str,
    dffs: &'a [DffId],
    width: usize,
}

impl Strikes<'_> {
    /// The struck flip sets, in strike order.
    fn groups(&self) -> std::slice::Windows<'_, DffId> {
        self.dffs.windows(self.width)
    }
}

impl Campaign for Strikes<'_> {
    type Acc = SavfResult;
    type Out = (SavfResult, InjectorStats);
    const BOUNDARY: u64 = 0;

    fn kind(&self) -> &'static str {
        self.kind
    }

    fn identity(&self) -> (Vec<usize>, &[f64], bool) {
        (dff_items(self.dffs), &[], false)
    }

    fn injections_per_site(&self) -> usize {
        self.groups().len()
    }

    fn layout(&self, _sites: usize, _kept: bool, dffs: usize) -> Layout<'_> {
        Layout {
            classes: Some(self.groups().len()),
            stats: true,
            failures: true,
            dffs,
            ..Layout::default()
        }
    }

    fn run<E: Environment + Clone, S: TelemetrySink>(
        &self,
        w: &mut Worker<'_, '_, E, S>,
        cycle: u64,
        _selected: &[usize],
        _step1: Option<&Step1Map>,
    ) -> UnitPayload {
        UnitPayload {
            classes: Some(strike_classes(w, cycle, self.groups())),
            ..UnitPayload::default()
        }
    }

    fn tally_site(&self, unit: &UnitPayload, _j: usize, hits: &mut [u64], trials: &mut [u64]) {
        let classes = unit.classes.iter().flatten();
        tally_visible(classes.map(|c| c.is_visible()), hits, trials);
    }

    fn empty(&self) -> SavfResult {
        SavfResult::default()
    }

    fn merge(&self, acc: &mut SavfResult, unit: UnitPayload) {
        for class in unit.classes.into_iter().flatten() {
            acc.injections += 1;
            acc.ace_hits += usize::from(class.is_visible());
        }
    }

    fn finish(&self, acc: SavfResult, stats: InjectorStats, _: Option<&AdaptivePlan>) -> Self::Out {
        (acc, stats)
    }
}

/// Per-bit sAVF: every item struck alone at each cycle site, with each
/// bit its own estimand, so a cycle keeps drawing budget until every bit's
/// interval is tight.
struct PerBit<'a> {
    dffs: &'a [DffId],
}

impl Campaign for PerBit<'_> {
    type Acc = Vec<(DffId, SavfResult)>;
    type Out = Vec<(DffId, SavfResult)>;
    const BOUNDARY: u64 = 0;

    fn kind(&self) -> &'static str {
        "savf_per_bit"
    }

    fn identity(&self) -> (Vec<usize>, &[f64], bool) {
        (dff_items(self.dffs), &[], false)
    }

    fn injections_per_site(&self) -> usize {
        self.dffs.len()
    }

    fn estimands(&self) -> usize {
        self.dffs.len().max(1)
    }

    fn layout(&self, _sites: usize, _kept: bool, dffs: usize) -> Layout<'_> {
        Layout {
            classes: Some(self.dffs.len()),
            dffs,
            ..Layout::default()
        }
    }

    fn run<E: Environment + Clone, S: TelemetrySink>(
        &self,
        w: &mut Worker<'_, '_, E, S>,
        cycle: u64,
        _selected: &[usize],
        _step1: Option<&Step1Map>,
    ) -> UnitPayload {
        UnitPayload {
            classes: Some(strike_classes(w, cycle, self.dffs.windows(1))),
            ..UnitPayload::default()
        }
    }

    fn tally_site(&self, unit: &UnitPayload, _j: usize, hits: &mut [u64], trials: &mut [u64]) {
        let classes = unit.classes.iter().flatten();
        for ((h, t), class) in hits.iter_mut().zip(trials).zip(classes) {
            *h = u64::from(class.is_visible());
            *t = 1;
        }
    }

    fn empty(&self) -> Self::Acc {
        self.dffs
            .iter()
            .map(|&d| (d, SavfResult::default()))
            .collect()
    }

    fn merge(&self, acc: &mut Self::Acc, unit: UnitPayload) {
        for ((_, r), class) in acc.iter_mut().zip(unit.classes.into_iter().flatten()) {
            r.injections += 1;
            r.ace_hits += usize::from(class.is_visible());
        }
    }

    fn finish(&self, acc: Self::Acc, _: InjectorStats, _: Option<&AdaptivePlan>) -> Self::Out {
        acc
    }
}

/// Batch-replays each flip set of `groups` struck at boundary `cycle` and
/// returns their classes in order.
fn strike_classes<'d, E: Environment + Clone, S: TelemetrySink>(
    w: &mut Worker<'_, '_, E, S>,
    cycle: u64,
    groups: impl Iterator<Item = &'d [DffId]> + Clone,
) -> Vec<FailureClass> {
    let injector = &mut w.injector;
    timed(S::ENABLED, &mut w.obs.phases.replay_us, || {
        injector.prefill_failures(cycle, groups.clone().map(<[DffId]>::to_vec));
        groups
            .map(|set| injector.group_failure(cycle, set))
            .collect()
    })
}

/// Number of flip-flop bits that toggled entering `cycle`: the XOR
/// popcount between the packed golden states at `cycle - 1` and `cycle`.
/// High-activity cycles propagate more transitions and are where delay
/// faults tend to land, so toggle count is one stratification axis.
fn toggle_activity<E: Environment + Clone>(golden: &GoldenRun<E>, cycle: u64) -> u64 {
    let prev = golden.trace.state_at(cycle - 1);
    let cur = golden.trace.state_at(cycle);
    prev.iter()
        .zip(cur)
        .map(|(&a, &b)| u64::from((a ^ b).count_ones()))
        .sum()
}

/// Static slack of `edge`: clock period minus the longest complete path
/// through it (setup included). Tight edges are the likeliest DelayACE
/// candidates, so slack is the second stratification axis for the sweep.
fn edge_static_slack(
    timing: &TimingModel,
    circuit: &Circuit,
    topo: &Topology,
    edge: EdgeId,
) -> u64 {
    let longest = timing
        .edge_slack_entries(circuit, topo, edge)
        .longest()
        .unwrap_or(0);
    timing.clock_period().saturating_sub(longest)
}

/// Stratum labels for cycle-only sites (the particle-strike campaigns):
/// toggle-activity bucket crossed with a trace-phase bucket, so bursty
/// program phases cannot hide inside one homogeneous-looking stratum.
fn cycle_strata<E: Environment + Clone>(
    golden: &GoldenRun<E>,
    cycles: &[u64],
    buckets: usize,
) -> Vec<usize> {
    let toggles: Vec<u64> = cycles
        .iter()
        .map(|&cycle| toggle_activity(golden, cycle))
        .collect();
    let tb = bucket_axis(&toggles, buckets);
    (0..cycles.len())
        .map(|i| tb[i] * buckets + (i * buckets) / cycles.len().max(1))
        .collect()
}

// ---------------------------------------------------------------------------
// Public entry points.
// ---------------------------------------------------------------------------

/// Runs a DelayAVF sweep: every sampled cycle × every given edge × every
/// delay fraction. Returns one [`DelayAvfResult`] per delay fraction, in
/// the configured order.
///
/// The denominator of each result counts all (edge, cycle) injections, so
/// `DelayAvfResult::delay_avf` directly instantiates Equation 3 over the
/// sample.
pub fn delay_avf_campaign<E: Environment + Clone>(
    circuit: &Circuit,
    topo: &Topology,
    timing: &TimingModel,
    golden: &GoldenRun<E>,
    edges: &[EdgeId],
    config: &CampaignConfig,
) -> Vec<DelayAvfResult> {
    delay_avf_campaign_with_stats(circuit, topo, timing, golden, edges, config).0
}

/// Like [`delay_avf_campaign`], also returning the merged engine counters
/// of all workers (used for §V-C prefilter reporting and by the
/// determinism tests; identical for every thread count).
pub fn delay_avf_campaign_with_stats<E: Environment + Clone>(
    circuit: &Circuit,
    topo: &Topology,
    timing: &TimingModel,
    golden: &GoldenRun<E>,
    edges: &[EdgeId],
    config: &CampaignConfig,
) -> (Vec<DelayAvfResult>, InjectorStats) {
    delay_avf_campaign_observed(
        circuit,
        topo,
        timing,
        golden,
        edges,
        config,
        &RunContext::disabled(),
    )
    .expect("campaign without checkpointing is infallible")
}

/// [`delay_avf_campaign_with_stats`] under a [`RunContext`]: emits the
/// structured telemetry stream and, when a checkpoint is configured,
/// periodically snapshots completed units and/or resumes from a previous
/// snapshot. Resumed runs produce byte-identical reports and identical
/// merged stats to uninterrupted ones for any `threads × lanes ×
/// timing_lanes` combination (the knob hash rejects resumes across
/// `lanes`/`timing_lanes`/`collapse` changes, which would silently break
/// the *stats* identity; `threads` may change freely).
///
/// # Errors
///
/// Fails on checkpoint I/O errors, on resuming against a mismatched or
/// corrupt checkpoint file (`checkpoint mismatch` / `checkpoint parse
/// error`), and on an invalid `ci_target`/`strata` pair. Never fails
/// otherwise when `ctx.checkpoint` is `None`.
pub fn delay_avf_campaign_observed<E: Environment + Clone, S: TelemetrySink>(
    circuit: &Circuit,
    topo: &Topology,
    timing: &TimingModel,
    golden: &GoldenRun<E>,
    edges: &[EdgeId],
    config: &CampaignConfig,
    ctx: &RunContext<'_, S>,
) -> Result<(Vec<DelayAvfResult>, InjectorStats), String> {
    let sweep = Sweep {
        edges,
        config,
        extras: config
            .delay_fractions
            .iter()
            .map(|&fraction| fraction_to_picos(timing, fraction))
            .collect(),
    };
    let target = Target {
        circuit,
        topo,
        timing,
        golden,
    };
    drive(&sweep, &target, &config.replay_options(), ctx)
}

/// Runs a particle-strike campaign: a single bit flip in each of `dffs` at
/// every sampled cycle, classic single-bit ACE analysis (Equation 1).
/// `opts.threads = 0` uses one worker per available core.
pub fn savf_campaign<E: Environment + Clone>(
    circuit: &Circuit,
    topo: &Topology,
    timing: &TimingModel,
    golden: &GoldenRun<E>,
    dffs: &[DffId],
    opts: ReplayOptions,
) -> SavfResult {
    savf_campaign_with_stats(circuit, topo, timing, golden, dffs, opts).0
}

/// Like [`savf_campaign`], also returning the merged engine counters.
pub fn savf_campaign_with_stats<E: Environment + Clone>(
    circuit: &Circuit,
    topo: &Topology,
    timing: &TimingModel,
    golden: &GoldenRun<E>,
    dffs: &[DffId],
    opts: ReplayOptions,
) -> (SavfResult, InjectorStats) {
    savf_campaign_observed(
        circuit,
        topo,
        timing,
        golden,
        dffs,
        opts,
        &RunContext::disabled(),
    )
    .expect("campaign without checkpointing is infallible")
}

/// [`savf_campaign_with_stats`] under a [`RunContext`]; see
/// [`delay_avf_campaign_observed`] for the checkpoint/resume and telemetry
/// semantics (units are classified at boundary `cycle` per the
/// strike-model convention).
///
/// # Errors
///
/// Same failure modes as [`delay_avf_campaign_observed`].
pub fn savf_campaign_observed<E: Environment + Clone, S: TelemetrySink>(
    circuit: &Circuit,
    topo: &Topology,
    timing: &TimingModel,
    golden: &GoldenRun<E>,
    dffs: &[DffId],
    opts: ReplayOptions,
    ctx: &RunContext<'_, S>,
) -> Result<(SavfResult, InjectorStats), String> {
    let target = Target {
        circuit,
        topo,
        timing,
        golden,
    };
    let strikes = Strikes {
        kind: "savf",
        dffs,
        width: 1,
    };
    drive(&strikes, &target, &opts, ctx)
}

/// Like [`delay_avf_campaign`] for a **single** delay fraction, but also
/// returning every injection's record (cycle, edge, dynamic set,
/// visibility) for downstream analyses such as Razor protection planning
/// ([`crate::razor`]). Records come back in (cycle, edge) sampling order
/// regardless of `opts.threads`; an adaptive run returns the sampled
/// cycles' records in (round, cycle, edge) order.
pub fn delay_avf_campaign_records<E: Environment + Clone>(
    circuit: &Circuit,
    topo: &Topology,
    timing: &TimingModel,
    golden: &GoldenRun<E>,
    edges: &[EdgeId],
    fraction: f64,
    opts: ReplayOptions,
) -> (DelayAvfResult, Vec<InjectionRecord>) {
    delay_avf_campaign_records_observed(
        circuit,
        topo,
        timing,
        golden,
        edges,
        fraction,
        opts,
        &RunContext::disabled(),
    )
    .expect("campaign without checkpointing is infallible")
}

/// [`delay_avf_campaign_records`] under a [`RunContext`]; see
/// [`delay_avf_campaign_observed`] for the checkpoint/resume and telemetry
/// semantics. Resumed units return their serialized records (and the
/// tallies re-derived from them) instead of re-simulating.
///
/// # Errors
///
/// Same failure modes as [`delay_avf_campaign_observed`].
#[allow(clippy::too_many_arguments)]
pub fn delay_avf_campaign_records_observed<E: Environment + Clone, S: TelemetrySink>(
    circuit: &Circuit,
    topo: &Topology,
    timing: &TimingModel,
    golden: &GoldenRun<E>,
    edges: &[EdgeId],
    fraction: f64,
    opts: ReplayOptions,
    ctx: &RunContext<'_, S>,
) -> Result<(DelayAvfResult, Vec<InjectionRecord>), String> {
    let records = Records {
        edges,
        fraction: [fraction],
        extra: fraction_to_picos(timing, fraction),
    };
    let target = Target {
        circuit,
        topo,
        timing,
        golden,
    };
    drive(&records, &target, &opts, ctx)
}

/// Per-bit sAVF: like [`savf_campaign`] but reporting each flip-flop's
/// individual ACE fraction, so designers can locate a structure's
/// vulnerability *hotspots* (the bits worth hardening first). The returned
/// order follows `dffs` regardless of `opts.threads`.
pub fn savf_per_bit_campaign<E: Environment + Clone>(
    circuit: &Circuit,
    topo: &Topology,
    timing: &TimingModel,
    golden: &GoldenRun<E>,
    dffs: &[DffId],
    opts: ReplayOptions,
) -> Vec<(DffId, SavfResult)> {
    savf_per_bit_campaign_observed(
        circuit,
        topo,
        timing,
        golden,
        dffs,
        opts,
        &RunContext::disabled(),
    )
    .expect("campaign without checkpointing is infallible")
}

/// [`savf_per_bit_campaign`] under a [`RunContext`]. Units are cycles,
/// like every campaign's: each strikes every bit at its cycle in one
/// batch and stores the bits' classes, so a resumed cycle costs no
/// replays.
///
/// # Errors
///
/// Same failure modes as [`delay_avf_campaign_observed`].
pub fn savf_per_bit_campaign_observed<E: Environment + Clone, S: TelemetrySink>(
    circuit: &Circuit,
    topo: &Topology,
    timing: &TimingModel,
    golden: &GoldenRun<E>,
    dffs: &[DffId],
    opts: ReplayOptions,
    ctx: &RunContext<'_, S>,
) -> Result<Vec<(DffId, SavfResult)>, String> {
    let target = Target {
        circuit,
        topo,
        timing,
        golden,
    };
    drive(&PerBit { dffs }, &target, &opts, ctx)
}

/// Runs a **spatial double-bit** particle-strike campaign: simultaneous
/// flips of physically adjacent bit pairs, the multi-bit transient-fault
/// model of Wilkening et al. that the paper contrasts DelayAVF against
/// (§VIII). `dffs` must list a structure's bits in physical order;
/// consecutive entries form the struck pairs.
///
/// Unlike an SDF's dynamically reachable set, these pairs are fixed a
/// priori by layout adjacency — comparing the two campaigns quantifies how
/// much of delay-fault vulnerability spatial models can(not) capture.
///
/// Classification happens at boundary `cycle` (not `cycle + 1` as for
/// SDFs): a strike corrupts state that is already latched, whereas an SDF
/// corrupts the values being latched at the end of the faulty cycle — see
/// the module docs on latch-boundary conventions.
pub fn spatial_double_strike_campaign<E: Environment + Clone>(
    circuit: &Circuit,
    topo: &Topology,
    timing: &TimingModel,
    golden: &GoldenRun<E>,
    dffs: &[DffId],
    opts: ReplayOptions,
) -> SavfResult {
    spatial_double_strike_campaign_observed(
        circuit,
        topo,
        timing,
        golden,
        dffs,
        opts,
        &RunContext::disabled(),
    )
    .expect("campaign without checkpointing is infallible")
}

/// [`spatial_double_strike_campaign`] under a [`RunContext`]; see
/// [`delay_avf_campaign_observed`] for the checkpoint/resume and telemetry
/// semantics. A resumed unit returns its pairs' stored classes.
///
/// # Errors
///
/// Same failure modes as [`delay_avf_campaign_observed`].
pub fn spatial_double_strike_campaign_observed<E: Environment + Clone, S: TelemetrySink>(
    circuit: &Circuit,
    topo: &Topology,
    timing: &TimingModel,
    golden: &GoldenRun<E>,
    dffs: &[DffId],
    opts: ReplayOptions,
    ctx: &RunContext<'_, S>,
) -> Result<SavfResult, String> {
    let target = Target {
        circuit,
        topo,
        timing,
        golden,
    };
    let strikes = Strikes {
        kind: "spatial_double",
        dffs,
        width: 2,
    };
    Ok(drive(&strikes, &target, &opts, ctx)?.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::prepare_golden;
    use delayavf_netlist::CircuitBuilder;
    use delayavf_sim::ConstEnvironment;
    use delayavf_timing::TechLibrary;

    /// Accumulator fixture: errors persist forever, so dynamic reach implies
    /// visibility under the never-halting environment.
    fn fixture() -> (delayavf_netlist::Circuit, Topology, TimingModel) {
        let mut b = CircuitBuilder::new();
        let step = b.input_word("step", 4);
        let acc = b.reg_word("acc", 4, 0);
        let next = b.in_structure("adder", |b| b.add(&acc.q(), &step));
        b.drive_word(&acc, &next);
        b.output_word("acc", &acc.q());
        let c = b.finish().unwrap();
        let topo = Topology::new(&c);
        let timing = TimingModel::analyze(&c, &topo, &TechLibrary::nangate45_like());
        (c, topo, timing)
    }

    #[test]
    fn step1_store_keeps_every_pair_and_only_nonempty_sets() {
        let d = DffId::from_index;
        let mut store = Step1Map::default();
        store.extend([(130, vec![d(2)]), (3, Vec::new()), (64, vec![d(0), d(1)])]);
        store.extend([(130, Vec::new()), (7, vec![d(5)])]);
        let held: Vec<(usize, Vec<DffId>)> = store
            .iter()
            .map(|(pair, set)| (pair, set.clone()))
            .collect();
        let want = [
            (3, vec![]),
            (7, vec![d(5)]),
            (64, vec![d(0), d(1)]),
            (130, vec![]),
        ];
        assert_eq!(held, want, "ascending pairs, the last set written wins");
        assert_eq!(store.sets.len(), 2, "empty sets cost no map entry");
        for pair in [0, 4, 63, 65, 129, 131, 1000] {
            assert!(!store.contains(pair), "{pair}");
        }
        assert!([3, 7, 64, 130].into_iter().all(|p| store.contains(p)));
    }

    #[test]
    fn sweep_is_monotone_in_static_reach() {
        let (c, topo, timing) = fixture();
        let env = ConstEnvironment::new(vec![5]);
        let golden = prepare_golden(&c, &topo, &env, 24, 6);
        let edges = topo.structure_edges(&c, "adder").unwrap();
        let config = CampaignConfig {
            delay_fractions: vec![0.1, 0.5, 1.0],
            compute_orace: false,
            due_slack: 30,
            threads: 1,
            lanes: 64,
            timing_lanes: 64,
            collapse: true,
            ci_target: None,
            strata: 4,
            sample_seed: 7,
        };
        let rows = delay_avf_campaign(&c, &topo, &timing, &golden, &edges, &config);
        assert_eq!(rows.len(), 3);
        // Static reachability can only grow with the delay duration.
        assert!(rows[0].static_fraction() <= rows[1].static_fraction());
        assert!(rows[1].static_fraction() <= rows[2].static_fraction());
        // Every injection is counted.
        for r in &rows {
            assert_eq!(r.injections, edges.len() * golden.sampled_cycles.len());
            assert!(r.dynamic_hits <= r.static_hits);
            assert!(r.delay_ace_hits <= r.dynamic_hits);
        }
    }

    #[test]
    fn orace_on_an_accumulator_has_no_interference() {
        // Every accumulator bit error is individually ACE and group errors
        // never cancel (distinct bits), so interference = compounding = 0
        // and OrDelayAVF == DelayAVF.
        let (c, topo, timing) = fixture();
        let env = ConstEnvironment::new(vec![5]);
        let golden = prepare_golden(&c, &topo, &env, 24, 4);
        let edges = topo.structure_edges(&c, "adder").unwrap();
        let config = CampaignConfig {
            delay_fractions: vec![0.9],
            compute_orace: true,
            due_slack: 30,
            threads: 1,
            lanes: 64,
            timing_lanes: 64,
            collapse: true,
            ci_target: None,
            strata: 4,
            sample_seed: 7,
        };
        let rows = delay_avf_campaign(&c, &topo, &timing, &golden, &edges, &config);
        let r = &rows[0];
        let o = r.orace.unwrap();
        assert_eq!(o.interference, 0);
        assert_eq!(o.compounding, 0);
        assert_eq!(r.or_delay_avf().unwrap(), r.delay_avf());
        assert_eq!(r.or_relative_change_pct(), Some(0.0));
    }

    #[test]
    fn per_bit_savf_sums_to_the_aggregate() {
        let (c, topo, timing) = fixture();
        let env = crate::testenv::ObservingEnv::new(5, 20);
        let golden = prepare_golden(&c, &topo, &env, 100, 4);
        let dffs: Vec<DffId> = c.dffs().map(|(d, _)| d).collect();
        let agg = savf_campaign(
            &c,
            &topo,
            &timing,
            &golden,
            &dffs,
            ReplayOptions::new(30, 1),
        );
        let per_bit = savf_per_bit_campaign(
            &c,
            &topo,
            &timing,
            &golden,
            &dffs,
            ReplayOptions::new(30, 1),
        );
        assert_eq!(per_bit.len(), dffs.len());
        let hits: usize = per_bit.iter().map(|(_, r)| r.ace_hits).sum();
        let trials: usize = per_bit.iter().map(|(_, r)| r.injections).sum();
        assert_eq!(hits, agg.ace_hits);
        assert_eq!(trials, agg.injections);
    }

    #[test]
    fn savf_of_an_accumulator_is_one() {
        let (c, topo, timing) = fixture();
        let env = crate::testenv::ObservingEnv::new(5, 20);
        let golden = prepare_golden(&c, &topo, &env, 100, 4);
        let dffs: Vec<DffId> = c.dffs().map(|(d, _)| d).collect();
        let r = savf_campaign(
            &c,
            &topo,
            &timing,
            &golden,
            &dffs,
            ReplayOptions::new(30, 1),
        );
        assert_eq!(r.injections, dffs.len() * golden.sampled_cycles.len());
        // Flips in the final executed cycle are never observed by the
        // environment (their outputs are past the last observation) — the
        // classic "un-ACE at end of program" effect. Everything else is ACE
        // in an accumulator.
        let n = golden.trace.num_cycles();
        let invisible_cycles = golden
            .sampled_cycles
            .iter()
            .filter(|&&cy| cy >= n - 1)
            .count();
        assert_eq!(r.ace_hits, r.injections - dffs.len() * invisible_cycles);
        assert!(r.savf() > 0.7);
    }

    /// The tentpole invariant: every campaign entry point returns exactly
    /// the serial answer for every thread count — including the ORACE
    /// statistics and the merged injector counters.
    #[test]
    fn parallel_campaigns_match_serial_bit_for_bit() {
        let (c, topo, timing) = fixture();
        let env = crate::testenv::ObservingEnv::new(5, 20);
        let golden = prepare_golden(&c, &topo, &env, 100, 8);
        let edges = topo.structure_edges(&c, "adder").unwrap();
        let dffs: Vec<DffId> = c.dffs().map(|(d, _)| d).collect();

        let config = CampaignConfig {
            delay_fractions: vec![0.2, 0.6, 1.0],
            compute_orace: true,
            due_slack: 30,
            threads: 1,
            lanes: 64,
            timing_lanes: 64,
            collapse: true,
            ci_target: None,
            strata: 4,
            sample_seed: 7,
        };
        let (serial_rows, serial_stats) =
            delay_avf_campaign_with_stats(&c, &topo, &timing, &golden, &edges, &config);
        let (serial_savf, serial_savf_stats) = savf_campaign_with_stats(
            &c,
            &topo,
            &timing,
            &golden,
            &dffs,
            ReplayOptions::new(30, 1),
        );
        let (serial_rec_row, serial_records) = delay_avf_campaign_records(
            &c,
            &topo,
            &timing,
            &golden,
            &edges,
            0.9,
            ReplayOptions::new(30, 1),
        );
        let serial_per_bit = savf_per_bit_campaign(
            &c,
            &topo,
            &timing,
            &golden,
            &dffs,
            ReplayOptions::new(30, 1),
        );
        let serial_spatial = spatial_double_strike_campaign(
            &c,
            &topo,
            &timing,
            &golden,
            &dffs,
            ReplayOptions::new(30, 1),
        );

        for threads in [2, 4] {
            let cfg = config.clone().with_threads(threads);
            let (rows, stats) =
                delay_avf_campaign_with_stats(&c, &topo, &timing, &golden, &edges, &cfg);
            assert_eq!(rows, serial_rows, "sweep rows, {threads} threads");
            assert_eq!(stats, serial_stats, "sweep stats, {threads} threads");

            let opts = ReplayOptions::new(30, threads);
            let (savf, savf_stats) =
                savf_campaign_with_stats(&c, &topo, &timing, &golden, &dffs, opts);
            assert_eq!(savf, serial_savf, "savf, {threads} threads");
            assert_eq!(
                savf_stats, serial_savf_stats,
                "savf stats, {threads} threads"
            );

            let (rec_row, records) =
                delay_avf_campaign_records(&c, &topo, &timing, &golden, &edges, 0.9, opts);
            assert_eq!(rec_row, serial_rec_row, "records row, {threads} threads");
            assert_eq!(records, serial_records, "records order, {threads} threads");

            let per_bit = savf_per_bit_campaign(&c, &topo, &timing, &golden, &dffs, opts);
            assert_eq!(per_bit, serial_per_bit, "per-bit, {threads} threads");

            let spatial = spatial_double_strike_campaign(&c, &topo, &timing, &golden, &dffs, opts);
            assert_eq!(spatial, serial_spatial, "spatial, {threads} threads");
        }
    }

    /// Every campaign driver, uniform and adaptive, returns the serial
    /// reports and merged counters whatever order its queue hands units
    /// out in, and however many workers pull them.
    #[test]
    fn campaigns_are_schedule_invariant() {
        use schedule::Schedule;
        let (c, topo, timing) = fixture();
        let env = crate::testenv::ObservingEnv::new(5, 40);
        let golden = prepare_golden(&c, &topo, &env, 100, 16);
        let edges = topo.structure_edges(&c, "adder").unwrap();
        let dffs: Vec<DffId> = c.dffs().map(|(d, _)| d).collect();
        let run = |threads: usize, ci_target: Option<f64>, collapse: bool| {
            let config = CampaignConfig {
                delay_fractions: vec![0.3, 0.9],
                compute_orace: true,
                due_slack: 30,
                threads,
                lanes: 64,
                timing_lanes: 64,
                collapse,
                ci_target,
                strata: 2,
                sample_seed: 7,
            };
            let opts = config.replay_options();
            (
                delay_avf_campaign_with_stats(&c, &topo, &timing, &golden, &edges, &config),
                savf_campaign_with_stats(&c, &topo, &timing, &golden, &dffs, opts),
                delay_avf_campaign_records(&c, &topo, &timing, &golden, &edges, 0.9, opts),
                savf_per_bit_campaign(&c, &topo, &timing, &golden, &dffs, opts),
                spatial_double_strike_campaign(&c, &topo, &timing, &golden, &dffs, opts),
            )
        };
        // Every bit of this fixture's accumulator reaches its output, so the
        // masking discharge settles only flips at the trace's last boundary
        // and the strikes replay with collapsing on or off. A target no
        // stratum meets walks every site over several rounds that split
        // each cycle's edges, so later rounds start from the classes
        // earlier rounds settled at the same boundary: the sweep then
        // replays exactly the uniform sweep's distinct flip sets, no more.
        // Later rounds also start from the step-1 results earlier rounds
        // kept, so every run times at most the uniform sweep's pairs and
        // builds at most one golden waveform per cycle.
        let uniform = run(1, None, false).0 .1;
        let cycles = valid_cycles(&golden).len() as u64;
        for (ci_target, collapse) in [
            (None, true),
            (None, false),
            (Some(0.2), false),
            (Some(1e-9), false),
        ] {
            let serial = run(1, ci_target, collapse);
            assert!(serial.1 .1.replays > 0, "the strikes replay");
            if ci_target == Some(1e-9) {
                assert_eq!(serial.0 .1.replays, uniform.replays, "carried classes");
            }
            if ci_target.is_some() {
                let sweep = serial.0 .1;
                assert!(
                    sweep.event_sims <= uniform.event_sims,
                    "kept step-1 results"
                );
                assert!(
                    sweep.golden_waveform_builds <= cycles,
                    "one waveform per cycle"
                );
            }
            for s in [
                Schedule::Reversed,
                Schedule::Shuffled(3),
                Schedule::Shuffled(11),
            ] {
                for threads in [1, 3] {
                    let got = schedule::with(s, || run(threads, ci_target, collapse));
                    assert_eq!(
                        got, serial,
                        "{s:?}, {threads} threads, ci_target {ci_target:?}, collapse {collapse}"
                    );
                }
            }
        }
    }

    /// Empty inputs — no edges, no dffs, a single dff for the pairs —
    /// report the same empty tallies under the exhaustive and the adaptive
    /// plan (apart from the adaptive estimate and footer themselves).
    #[test]
    fn empty_inputs_report_the_same_in_both_modes() {
        let (c, topo, timing) = fixture();
        let env = crate::testenv::ObservingEnv::new(5, 20);
        let golden = prepare_golden(&c, &topo, &env, 100, 4);
        let one: Vec<DffId> = c.dffs().map(|(d, _)| d).take(1).collect();
        let plain = |mut stats: InjectorStats| {
            stats.strata_active = 0;
            stats.strata_retired_early = 0;
            stats.adaptive_replays_saved = 0;
            stats
        };
        let run = |ci_target: Option<f64>| {
            let config = CampaignConfig {
                delay_fractions: vec![0.5],
                compute_orace: true,
                due_slack: 30,
                threads: 2,
                ci_target,
                strata: 2,
                ..CampaignConfig::default()
            };
            let opts = config.replay_options();
            let (mut rows, stats) =
                delay_avf_campaign_with_stats(&c, &topo, &timing, &golden, &[], &config);
            rows.iter_mut().for_each(|r| r.adaptive = None);
            let (savf, savf_stats) =
                savf_campaign_with_stats(&c, &topo, &timing, &golden, &[], opts);
            let (mut rec_row, records) =
                delay_avf_campaign_records(&c, &topo, &timing, &golden, &[], 0.5, opts);
            rec_row.adaptive = None;
            (
                (rows, plain(stats)),
                (savf, plain(savf_stats)),
                (rec_row, records),
                savf_per_bit_campaign(&c, &topo, &timing, &golden, &[], opts),
                spatial_double_strike_campaign(&c, &topo, &timing, &golden, &one, opts),
            )
        };
        let uniform = run(None);
        assert_eq!(uniform, run(Some(0.2)));
        let ((rows, _), (savf, _), (rec_row, records), per_bit, spatial) = uniform;
        assert_eq!(rows[0].injections, 0);
        assert_eq!(savf.injections, 0);
        assert_eq!(rec_row.injections, 0);
        assert!(records.is_empty() && per_bit.is_empty());
        assert_eq!(spatial.injections, 0);
    }

    /// The one unit codec, driven by every campaign kind's layout.
    mod codec {
        use super::*;
        use crate::checkpoint::{decode_unit, encode_unit, Layout, UnitPayload};
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// Tokens a corrupt payload is assembled from: every tag, counts
        /// small and huge, flag strings good and bad, non-ASCII.
        const SOUP: &[&str] = &[
            "rows",
            "vis",
            "rec",
            "cls",
            "stats",
            "fc",
            "dyn",
            "1*4",
            "2*0",
            "1*99",
            "3.1.2",
            "0.4999",
            "2.7.7",
            "9.5000",
            ".",
            ".0110",
            ".MSD",
            ".MX",
            "0",
            "1",
            "2",
            "3",
            "7",
            "25",
            "1152921504606846975",
            "18446744073709551616",
            "-1",
            "M",
            "S",
            "D",
            "SX",
            "é",
            ".é",
        ];

        /// Flip-flops of the codec's campaigns.
        const DFFS: usize = 5000;

        /// Runs `f` on the layout of every campaign kind (the sweep with
        /// and without ORACE and with and without a kept store, at `sites`
        /// selected edges), bounded by [`DFFS`] flip-flops.
        fn each_layout(sites: usize, mut f: impl FnMut(&str, Layout<'_>)) {
            let edges: Vec<EdgeId> = (0..5).map(EdgeId::from_index).collect();
            let dffs: Vec<DffId> = (0..4).map(DffId::from_index).collect();
            for compute_orace in [false, true] {
                let config = CampaignConfig {
                    delay_fractions: vec![0.3, 0.9],
                    compute_orace,
                    ..CampaignConfig::default()
                };
                let sweep = Sweep {
                    edges: &edges,
                    config: &config,
                    extras: vec![0; 2],
                };
                f("delay_sweep_adaptive", sweep.layout(sites, true, DFFS));
                f("delay_sweep", sweep.layout(sites, false, DFFS));
            }
            let records = Records {
                edges: &edges,
                fraction: [0.9],
                extra: 0,
            };
            f("delay_records", records.layout(1, false, DFFS));
            for (kind, width) in [("savf", 1), ("spatial_double", 2)] {
                let strikes = Strikes {
                    kind,
                    dffs: &dffs,
                    width,
                };
                f(kind, strikes.layout(1, false, DFFS));
            }
            f(
                "savf_per_bit",
                PerBit { dffs: &dffs }.layout(1, false, DFFS),
            );
        }

        fn class(rng: &mut StdRng) -> FailureClass {
            [FailureClass::Masked, FailureClass::Sdc, FailureClass::Due][rng.gen_range(0..3)]
        }

        /// A normalized (ascending, duplicate-free) flip set.
        fn flip_set(rng: &mut StdRng) -> Vec<DffId> {
            let len = rng.gen_range(0..4);
            let mut set: Vec<DffId> = (0..len)
                .map(|_| DffId::from_index(rng.gen_range(0..DFFS)))
                .collect();
            set.sort_unstable();
            set.dedup();
            set
        }

        /// A random payload holding exactly `layout`'s sections.
        fn random_unit(layout: &Layout<'_>, cycle: u64, rng: &mut StdRng) -> UnitPayload {
            let mut unit = UnitPayload::default();
            if let Some((fractions, orace)) = layout.rows {
                let mut n = || rng.gen_range(0..1_000_000usize);
                let rows = fractions.iter().map(|&delay_fraction| DelayAvfResult {
                    delay_fraction,
                    injections: n(),
                    static_hits: n(),
                    dynamic_hits: n(),
                    delay_ace_hits: n(),
                    sdc_hits: n(),
                    due_hits: n(),
                    multi_bit_hits: n(),
                    orace: orace.then(|| OraceStats {
                        or_hits: n(),
                        interference: n(),
                        compounding: n(),
                    }),
                    adaptive: None,
                });
                unit.rows = Some(rows.collect());
            }
            if let Some(n) = layout.vis {
                unit.vis = Some((0..n).map(|_| rng.gen_range(0..2) == 1).collect());
            }
            if let Some(n) = layout.records {
                let mut records = Vec::new();
                for _ in 0..n {
                    let class = class(rng);
                    records.push(InjectionRecord {
                        cycle,
                        edge: EdgeId::from_index(rng.gen_range(0..5000)),
                        outcome: InjectionOutcome {
                            statically_reachable: rng.gen_range(0..64),
                            dynamic_set: flip_set(rng),
                            visible: class.is_visible(),
                            class,
                        },
                    });
                }
                unit.records = Some(records);
            }
            if let Some(n) = layout.classes {
                unit.classes = Some((0..n).map(|_| class(rng)).collect());
            }
            if layout.stats {
                let values = std::array::from_fn(|_| rng.gen::<u64>());
                unit.stats = Some(InjectorStats::from_values(values));
            }
            if layout.failures {
                let len = rng.gen_range(0..6);
                unit.failures = Some((0..len).map(|_| (flip_set(rng), class(rng))).collect());
            }
            if let Some(pairs) = layout.step1 {
                let picked: Vec<usize> = (0..pairs).filter(|_| rng.gen_bool(0.5)).collect();
                // Mostly empty sets, as timed pairs mostly are, so runs form.
                let set = |rng: &mut StdRng| {
                    if rng.gen_bool(0.7) {
                        Vec::new()
                    } else {
                        flip_set(rng)
                    }
                };
                unit.step1 = Some(picked.into_iter().map(|pair| (pair, set(rng))).collect());
            }
            unit
        }

        proptest! {
            #[test]
            fn every_kinds_payload_round_trips(seed: u64, sites in 1usize..6) {
                let mut rng = StdRng::seed_from_u64(seed);
                each_layout(sites, |kind, layout| {
                    let unit = random_unit(&layout, 42, &mut rng);
                    let line = encode_unit(&unit);
                    assert!(!line.contains('\n'), "{kind}: one line per unit");
                    assert_eq!(decode_unit(&line, &layout, 42), Ok(unit), "{kind}: {line}");
                });
            }

            #[test]
            fn arbitrary_bytes_are_errors(bytes in prop::collection::vec(any::<u8>(), 0..160)) {
                let text = String::from_utf8_lossy(&bytes);
                each_layout(2, |kind, layout| {
                    assert!(decode_unit(&text, &layout, 1).is_err(), "{kind}: {text:?}");
                });
            }

            /// A payload cut short — the tail a torn write would lose — is
            /// an error when whole tokens are lost, and never a panic
            /// wherever the cut falls.
            #[test]
            fn truncated_payloads_are_errors(seed: u64) {
                let mut rng = StdRng::seed_from_u64(seed);
                each_layout(3, |kind, layout| {
                    let line = encode_unit(&random_unit(&layout, 1, &mut rng));
                    let cut = rng.gen_range(0..line.len());
                    let _ = decode_unit(&line[..cut], &layout, 1);
                    let tokens = line.split(' ').count();
                    let kept: Vec<&str> = line.split(' ').take(rng.gen_range(0..tokens)).collect();
                    let short = kept.join(" ");
                    assert!(decode_unit(&short, &layout, 1).is_err(), "{kind}: {short:?}");
                });
            }

            /// Flip-flop ids at or past the campaign's count, out-of-order
            /// flip sets and step-1 pair indices past the cycle's pairs are
            /// errors, never a later index panic.
            #[test]
            fn out_of_range_ids_are_errors(seed: u64) {
                let mut rng = StdRng::seed_from_u64(seed);
                each_layout(3, |kind, layout| {
                    let mut unit = random_unit(&layout, 1, &mut rng);
                    let too_big = DffId::from_index(DFFS + rng.gen_range(0..3));
                    let set = vec![DffId::from_index(1), DffId::from_index(0)];
                    let bad = [vec![too_big], set];
                    let bad = bad[rng.gen_range(0..2)].clone();
                    if let Some(failures) = unit.failures.as_mut() {
                        failures.push((bad.clone(), FailureClass::Sdc));
                    } else if let Some(records) = unit.records.as_mut() {
                        records[0].outcome.dynamic_set = bad.clone();
                    } else {
                        return;
                    }
                    let line = encode_unit(&unit);
                    assert!(decode_unit(&line, &layout, 1).is_err(), "{kind}: {line}");
                    if let Some(pairs) = layout.step1 {
                        let mut unit = random_unit(&layout, 1, &mut rng);
                        let entries = unit.step1.as_mut().expect("a step-1 section");
                        entries.retain(|&(pair, _)| pair + 1 < pairs);
                        match rng.gen_range(0..2) {
                            0 => entries.push((pairs + rng.gen_range(0..3), Vec::new())),
                            _ => entries.push((pairs - 1, bad)),
                        }
                        let line = encode_unit(&unit);
                        assert!(decode_unit(&line, &layout, 1).is_err(), "{kind}: {line}");
                    }
                });
            }

            #[test]
            fn corrupt_payloads_never_panic(seed: u64) {
                let mut rng = StdRng::seed_from_u64(seed);
                each_layout(3, |_, layout| {
                    // Token soup, and a valid line with one token swapped.
                    let soup: Vec<&str> = (0..rng.gen_range(0..40))
                        .map(|_| SOUP[rng.gen_range(0..SOUP.len())])
                        .collect();
                    let _ = decode_unit(&soup.join(" "), &layout, 1);
                    let line = encode_unit(&random_unit(&layout, 1, &mut rng));
                    let mut toks: Vec<&str> = line.split(' ').collect();
                    let i = rng.gen_range(0..toks.len());
                    toks[i] = SOUP[rng.gen_range(0..SOUP.len())];
                    let _ = decode_unit(&toks.join(" "), &layout, 1);
                });
            }
        }
    }

    #[test]
    fn queue_order_is_longest_first_with_index_ties() {
        assert_eq!(queue_order(&[3, 9, 3, 9, 1]), vec![1, 3, 0, 2, 4]);
        assert!(queue_order(&[]).is_empty());
    }

    #[test]
    fn the_queue_returns_results_in_unit_order_and_the_first_error() {
        let units: Vec<u64> = (0..50).collect();
        let order: Vec<usize> = (0..50).rev().collect();
        let squares = run_queue(4, &units, &order, |_| (), |_, &u| Ok(u * u), |_| {});
        assert_eq!(
            squares.unwrap(),
            units.iter().map(|u| u * u).collect::<Vec<_>>()
        );
        let failed = run_queue(
            1,
            &units,
            &order,
            |_| (),
            |_, &u| {
                if u % 10 == 7 {
                    Err(format!("unit {u}"))
                } else {
                    Ok(u)
                }
            },
            |_| {},
        );
        assert_eq!(failed.unwrap_err(), "unit 47", "a failure stops the queue");
    }

    #[test]
    fn valid_cycles_drops_only_out_of_range_samples() {
        let (c, topo, timing) = fixture();
        let _ = &timing;
        let env = ConstEnvironment::new(vec![5]);
        let mut golden = prepare_golden(&c, &topo, &env, 24, 6);
        let n = golden.trace.num_cycles();
        // Poison the sample set with out-of-range cycles; campaigns must
        // skip them instead of panicking in the injector.
        golden.sampled_cycles.insert(0, 0);
        golden.sampled_cycles.push(n);
        golden.sampled_cycles.push(n + 7);
        let filtered = valid_cycles(&golden);
        assert!(filtered.iter().all(|&cy| cy >= 1 && cy < n));
        assert_eq!(filtered.len(), golden.sampled_cycles.len() - 3);
    }

    #[test]
    fn thread_resolution_clamps_to_work_items() {
        assert_eq!(resolve_threads(3, 100), 3);
        assert_eq!(resolve_threads(8, 2), 2);
        assert_eq!(resolve_threads(1, 0), 1);
        assert!(resolve_threads(0, 1_000_000) >= 1);
    }

    #[test]
    fn heartbeat_rate_math_is_finite_on_degenerate_inputs() {
        // Instantaneous first unit: no measurable elapsed time yet, so no
        // rate and no ETA — never NaN or ∞.
        assert_eq!(heartbeat_rates(1, 10, 0.0), (0.0, 0.0));
        // Zero completed units at positive elapsed time: zero rate, and the
        // eta guard keeps 10/0 from becoming ∞.
        assert_eq!(heartbeat_rates(0, 10, 1.0), (0.0, 0.0));
        // Steady state: 5 units in 2.5 s is 2 units/s, 5 remaining = 2.5 s.
        let (ups, eta) = heartbeat_rates(5, 10, 2.5);
        assert!((ups - 2.0).abs() < 1e-12);
        assert!((eta - 2.5).abs() < 1e-12);
        // A finished (or overshot) campaign reports zero ETA instead of
        // panicking on `total - done` underflow.
        assert_eq!(heartbeat_rates(10, 10, 2.0).1, 0.0);
        assert_eq!(heartbeat_rates(11, 10, 2.0).1, 0.0);
    }
}
